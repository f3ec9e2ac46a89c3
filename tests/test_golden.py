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

GOLDEN = Path(__file__).parent / "golden"

# file name -> (argv, exit code)
CASES = {
    "verify.txt": (["verify"], 0),
    "verify.json": (["verify", "--format", "json"], 0),
    "verify.csv": (["verify", "--format", "csv"], 0),
    "verify-max-terms-25.json": (
        ["verify", "--max-terms", "25", "--format", "json"], 1),
    "heegner.txt": (["heegner"], 0),
    "heegner.json": (["heegner", "--format", "json"], 0),
    "constants-lambda-5.json": (
        ["constants", "--lambda", "-5", "--format", "json"], 0),
    "eval-gelfond-unit.txt": (
        ["eval", "--upper", "i,-i", "--lower", "1/2", "--z", "1",
         "--tol", "1e-6"], 0),
    "eval-complex-unit.json": (
        ["eval", "--upper", "0.3+2i,0.1", "--lower", "3", "--z", "1",
         "--tol", "1e-6", "--format", "json"], 0),
    "constants.txt": (["constants"], 0),
    "constants-lambda-2.5.txt": (["constants", "--lambda", "2.5"], 0),
    "verify-cor3.txt": (["verify", "--id", "cor3-*"], 0),
    "heegner-163.txt": (["heegner", "--n", "163"], 0),
    "eval-divergent-unit.json": (
        ["eval", "--upper", "1,1", "--lower", "1", "--z", "1",
         "--format", "json"], 2),
    "eval-max-terms-20.txt": (
        ["eval", "--upper", "1,1", "--lower", "2", "--z", "0.9",
         "--max-terms", "20"], 1),
    "eval-log-0.999.json": (
        ["eval", "--upper", "1,1", "--lower", "2", "--z", "0.999",
         "--tol", "1e-10", "--format", "json"], 0),
    "eval-cosh-pi.txt": (
        ["eval", "--lower", "1/2", "--z", "2.4674011002723395"], 0),
    "eval-complex-half.json": (
        ["eval", "--upper", "1/2+i,1/2-i", "--lower", "3/2", "--z", "1/2",
         "--format", "json"], 0),
    "eval-complex-z.json": (
        ["eval", "--upper=1+2i", "--lower", "1/2-i", "--z", "3-4i",
         "--format", "json"], 0),
    "eval-truncated.txt": (
        ["eval", "--upper=-3,1/2", "--lower", "3/2", "--z", "0.7"], 0),
    "eval-overflow.txt": (["eval", "--z", "800"], 2),
}


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
