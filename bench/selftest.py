"""Self-tests of the benchmark: the oracle, the calibration and the names.

    python3 bench/selftest.py          # or: python3 -m pytest bench/selftest.py

They take about two minutes, most of it in short runs of the command.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

import mpmath  # noqa: E402

import harness  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from gelfond.series import SeriesSpec  # noqa: E402


def test_oracle_reproduces_elementary_identities():
    for z in (0.5, 0.9, 0.99, 0.999):
        root = math.sqrt(z)
        pairs = [
            (SeriesSpec((1.0, 1.0), (2.0,), z), -math.log1p(-z) / z),
            (SeriesSpec((0.5, 0.5), (1.5,), z), math.asin(root) / root),
            (SeriesSpec((1.5,), (), z), (1.0 - z) ** -1.5),
        ]
        for spec, value in pairs:
            assert abs(oracle.pfq(spec) - value) <= 1e-14 * abs(value), spec
    for x in (0.5, math.pi, 7.0):
        assert abs(oracle.pfq(SeriesSpec((), (0.5,), x * x / 4)) - math.cosh(x)) \
            <= 1e-14 * math.cosh(x)
        assert abs(oracle.pfq(SeriesSpec((), (), x)) - math.exp(x)) <= 1e-14 * math.exp(x)
    # Gauss: 2F1(i, -i; 1/2; 1) + 2 * 2F1(1/2+i, 1/2-i; 3/2; 1) = e^pi
    gauss = (oracle.pfq(SeriesSpec((1j, -1j), (0.5,), 1.0))
             + 2 * oracle.pfq(SeriesSpec((0.5 + 1j, 0.5 - 1j), (1.5,), 1.0)))
    assert abs(gauss - mpmath.exp(mpmath.pi)) < 1e-20


def test_heegner_oracle_digits():
    exact = oracle.heegner_exponentials()
    # Ramanujan's constant, e^(pi sqrt 163) = 640320^3 + 744 - 7.4999...e-13
    assert str(exact[163]).startswith("262537412640768743.99999999999925007259719818568")
    with mpmath.workdps(70):
        for n, value in exact.items():
            reference = mpmath.exp(mpmath.pi * mpmath.sqrt(n))
            assert abs(mpmath.mpf(str(value)) - reference) < mpmath.mpf(10) ** -45


def test_pass_time_doubles_with_each_operation_run_twice():
    ops = workloads.build("closed", 1)
    doubled = [dataclasses.replace(op, call=lambda c=op.call: (c(), c())[1]) for op in ops]
    heegner = oracle.heegner_exponentials()
    checks = [oracle.checker(op, heegner) for op in ops]
    once, twice = [], []
    for _ in range(2):
        once.append(harness.Run(ops, checks).calibrated(1.5))
        twice.append(harness.Run(doubled, checks).calibrated(1.5))
    ratio = min(twice) / min(once)
    assert 1.8 <= ratio <= 2.2, ratio


def _run(workload: str, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300, cwd=ROOT, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_printed_names_are_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in declared[key]}
        for workload in workloads.WORKLOADS:
            result = _run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] is True
            assert result["attempted"] >= 1
            assert {name: m["unit"] for name, m in result["metrics"].items()} == units


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
