"""Raw reference figures for README.md, in wall-clock time.

    python3 bench/figures.py [--seed N] [--seconds S]

Prints, as median / minimum, what run.py does not measure: the reference
loop, ``verify_all()``, ``heegner_table()`` and the cold start of
``gelfond verify|heegner|constants|eval`` (``python3 -m gelfond`` in a
fresh interpreter, from bytecode cached under ``bench/results``).  The
raw pass times of the workloads come from ``run.py --trace 1``
(``trace.pass_ms.untraced`` and ``trace.pass_ms.untraced_min``).  Raw
times move with the host, which is why the benchmark reports calibrated
ones; these are for orientation only.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, BENCH]

import harness  # noqa: E402
from gelfond import heegner_table, verify_all  # noqa: E402

COLD_STARTS = {
    "verify": ["verify"],
    "heegner": ["heegner"],
    "constants": ["constants", "--lambda", "0.5"],
    "eval": ["eval", "--upper", "i,-i", "--lower", "1/2", "--z", "1", "--tol", "1e-6"],
}


def _timed(fn, seconds: float, min_count: int = 5) -> list[float]:
    out = []
    start = time.perf_counter()
    while len(out) < min_count or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        fn()
        out.append(time.perf_counter() - t0)
    return out


def _row(name: str, samples: list[float], scale: float, unit: str) -> str:
    return (f"| {name} | {statistics.median(samples) * scale:.3f} | "
            f"{min(samples) * scale:.3f} | {unit} | {len(samples)} |")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args()
    print(f"Python {sys.version.split()[0]}, {os.cpu_count()} CPUs")
    print("| figure | median | min | unit | samples |")
    print("|---|---|---|---|---|")
    print(_row("reference loop (1 ref)", _timed(harness.reference_seconds, 2.0),
               1e3, "ms"))
    print(_row("verify_all()", _timed(verify_all, args.seconds), 1.0, "s"))
    print(_row("heegner_table()", _timed(heegner_table, 2.0), 1e3, "ms"))
    # cold starts import from cached bytecode, as an installed package does
    env = dict(os.environ, PYTHONPATH=SRC,
               PYTHONPYCACHEPREFIX=os.path.join(BENCH, "results", "pycache"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for name, argv in COLD_STARTS.items():
        cmd = [sys.executable, "-m", "gelfond", *argv]

        def cold(cmd=cmd):
            subprocess.run(cmd, env=env, capture_output=True, check=False)
        cold()                  # writes the bytecode caches
        print(_row(f"cold start `gelfond {name}`", _timed(cold, args.seconds, 7),
                   1e3, "ms"))


if __name__ == "__main__":
    main()
