"""Stable stdout formats: ``cli.main`` must reproduce tests/golden/ byte
for byte.

A change that alters one of these outputs on purpose regenerates its file
and says why in CHANGES.md; any other difference is a regression.

``main`` reuses one parser for the whole process, so every case must also
come out the same right after a call that set every flag of a subcommand,
a usage error and ``--help``.
"""

from pathlib import Path

import pytest

from gelfond.cli import main
from golden_cases import CASES

GOLDEN = Path(__file__).parent / "golden"

# id -> (argv, exit code); "{out}" is replaced by a scratch file
PRELUDES = {
    "verify-every-flag": (
        ["verify", "--id", "cor*", "--n", "2", "--lambda", "0.5",
         "--tol", "1e-10", "--max-terms", "30", "--format", "csv",
         "--out", "{out}"], 0),
    "eval-every-flag": (
        ["eval", "--upper", "1,1", "--lower", "2", "--z", "0.5",
         "--tol", "1e-6", "--max-terms", "50", "--format", "json",
         "--out", "{out}"], 0),
    "heegner-every-flag": (
        ["heegner", "--n", "19", "--format", "json", "--out", "{out}"], 0),
    "constants-every-flag": (
        ["constants", "--lambda", "3", "--format", "json", "--out", "{out}"], 0),
    "usage-error": (["verify", "--frobnicate"], 2),
    "help": (["--help"], 0),
}


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def _check_golden(name, capsys):
    argv, code = CASES[name]
    assert main(argv) == code
    expected = (GOLDEN / name).read_bytes()
    assert capsys.readouterr().out.encode() == expected


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys):
    _check_golden(name, capsys)


@pytest.mark.parametrize("prelude", sorted(PRELUDES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden_after_prelude(name, prelude, tmp_path, capsys):
    argv, code = PRELUDES[prelude]
    out = str(tmp_path / "prelude.out")
    assert _exit_code([arg.replace("{out}", out) for arg in argv]) == code
    capsys.readouterr()
    _check_golden(name, capsys)
