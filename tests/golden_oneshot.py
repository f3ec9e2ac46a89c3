"""Run every golden CLI case in a fresh interpreter and compare its stdout,
byte for byte, and its exit code with tests/golden/.

    python tests/golden_oneshot.py [INTERPRETER FLAGS...]

Each case runs as ``sys.executable FLAGS -m gelfond ARGV`` with PYTHONPATH
set to src, so ``-S`` keeps site-packages off the path and an import of
anything but the standard library fails the case.  The test suite calls
``cli.main`` in one process; these runs build the parser, the registry and
every module from a cold import.  Needs only the standard library; exits 1
when any case differs.
"""

import os
import subprocess
import sys
from pathlib import Path

from golden_cases import CASES

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"


def main(flags: list[str]) -> int:
    env = dict(os.environ, PYTHONPATH=str(TESTS.parent / "src"))
    failed = 0
    for name, (argv, code) in CASES.items():
        run = subprocess.run([sys.executable, *flags, "-m", "gelfond", *argv],
                             capture_output=True, env=env)
        problems = []
        if run.returncode != code:
            problems.append(f"exit {run.returncode}, expected {code}")
        if run.stdout != (GOLDEN / name).read_bytes():
            problems.append("stdout differs from the golden file")
        if problems:
            failed += 1
            print(f"FAIL {name}: {'; '.join(problems)}")
            print(run.stderr.decode(errors="replace"), end="")
        else:
            print(f"ok   {name}")
    print(f"{len(CASES) - failed} of {len(CASES)} golden files match")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
