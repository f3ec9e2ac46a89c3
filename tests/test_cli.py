import argparse
import json
import math
from fractions import Fraction

import pytest

from gelfond import ParseError
from gelfond.cli import REPORT_FIELDS, main, parse_complex


# ----------------------------------------------------------------------
# complex literal grammar
# ----------------------------------------------------------------------

def test_parse_rational():
    value = parse_complex("15/26")
    assert value == complex(float(Fraction(15, 26)), 0.0)


def test_parse_complex_literal():
    assert parse_complex("0.5+1i") == 0.5 + 1j
    assert parse_complex("0.5+i") == 0.5 + 1j
    assert parse_complex("2-0.25i") == 2 - 0.25j
    assert parse_complex("1/2-1/2i") == 0.5 - 0.5j


def test_parse_pure_imaginary_sign_binding():
    assert parse_complex("-15/22i") == complex(0.0, -float(Fraction(15, 22)))
    assert parse_complex("i") == 1j
    assert parse_complex("-i") == -1j
    assert parse_complex("+i") == 1j


def test_parse_scientific_notation():
    assert parse_complex("1.5e2") == 150 + 0j
    assert parse_complex("-2e-3") == -0.002 + 0j


@pytest.mark.parametrize("text,position", [
    ("", 0),
    ("1+", 2),
    ("abc", 0),
    ("1 + 2i", 1),
    ("1/0", 2),
    ("1.2.3", 3),
    ("2i3", 2),
    ("1e400", 0),
    ("-1e400", 1),
    ("2+1e400i", 2),
    ("-1e999i", 1),
    ("/3", 0),
    ("1/", 2),
    ("1e", 2),
    ("1+2", 3),
    ("1+2i3", 4),
])
def test_parse_errors_carry_position(text, position):
    with pytest.raises(ParseError) as excinfo:
        parse_complex(text)
    assert excinfo.value.position == position


# ----------------------------------------------------------------------
# commands
# ----------------------------------------------------------------------

def test_eval_unit_argument(capsys):
    code = main(["eval", "--upper", "i,-i", "--lower", "1/2",
                 "--z", "1", "--tol", "1e-6"])
    out = capsys.readouterr().out
    assert code == 0
    assert "status = Converged" in out
    value = float(next(line.split("=")[1] for line in out.splitlines()
                       if line.startswith("value_re")))
    assert abs(value - math.cosh(math.pi)) <= 1e-5


def test_eval_divergent_request_is_usage_error(capsys):
    code = main(["eval", "--upper", "1,1,1", "--lower", "2,2", "--z", "1.5"])
    assert code == 2
    assert "error" in capsys.readouterr().err


def test_eval_divergent_near_polynomial_is_usage_error(capsys):
    # -2.9999999999 is within 1e-9 of -3 but the series does not end there
    code = main(["eval", "--upper=-2.9999999999,1/2", "--lower", "3/2", "--z", "1e8"])
    assert code == 2
    assert capsys.readouterr().err == (
        "error: p = q+1 series diverges for |z| = 100000000.0 > 1\n")


def test_eval_divergent_unit_argument_is_usage_error(capsys):
    # s = Re(c - a - b) = -1 at z = 1: the row is still printed, but the
    # request was invalid, like |z| > 1 above
    code = main(["eval", "--upper", "1,1", "--lower", "1", "--z", "1"])
    assert code == 2
    assert "status = Divergent" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    # e^(1/2) = 1F1(a; a; 1/2) with a denominator product past binary64
    ["--upper", "1.7e308", "--lower", "1.7e308", "--z", "0.5"],
    ["--upper", "1,1", "--lower", "2", "--z", "0.5", "--tol", "inf"],
])
def test_eval_out_of_range_request_is_usage_error(argv, capsys):
    assert main(["eval", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


def test_eval_term_modulus_beyond_float_range_is_range_error(capsys):
    # e^z at z = 1.7e308 + 1.7e308i: term 1 has finite parts, but its
    # modulus is beyond binary64
    assert main(["eval", "--z", "1.7e308+1.7e308i"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: term 1: modulus beyond binary64\n"


def test_eval_unit_term_underflow_ends_sum(capsys):
    # 2F1(1, 1; 1e300; 1) = 1 + 1e-300 + ...: term 2 underflows to 0 and
    # the terms cannot grow again, so the sum ends there
    assert main(["eval", "--upper", "1,1", "--lower", "1e300", "--z", "1",
                 "--format", "json"]) == 0
    row, = json.loads(capsys.readouterr().out)
    assert (row["value_re"], row["value_im"]) == (1.0, 0.0)
    assert (row["status"], row["terms_used"]) == ("Converged", 3)


def test_eval_json_format(capsys):
    code = main(["eval", "--upper", "", "--lower", "1/2",
                 "--z", "2.4674011002723395", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert abs(rows[0]["value_re"] - math.cosh(math.pi)) < 1e-10


def test_verify_single_case_json(capsys):
    code = main(["verify", "--id", "eq1.1", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    row = rows[0]
    assert tuple(row.keys()) == REPORT_FIELDS
    assert row["verdict"] == "Pass"
    assert row["rel_residual"] <= 1e-12
    assert row["n"] is None and row["lambda"] is None


def test_verify_json_schema_and_nulls(capsys):
    code = main(["verify", "--format", "json"])
    assert code == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 40
    for row in rows:
        assert tuple(row.keys()) == REPORT_FIELDS
    printed = next(r for r in rows if r["id"] == "cor2-n1-printed")
    assert printed["verdict"] == "SkippedDivergent"
    assert printed["series_status"] == "Divergent"
    assert printed["rel_residual"] is None
    documented = next(r for r in rows if r["id"] == "mobius-product")
    assert documented["verdict"] == "SkippedDocumented"


def test_verify_deterministic_output(capsys):
    main(["verify", "--format", "json"])
    first = capsys.readouterr().out
    main(["verify", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_verify_csv(capsys):
    code = main(["verify", "--id", "cor1-*", "--format", "csv"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].split(",") == list(REPORT_FIELDS)
    assert len(lines) == 4


def test_verify_filters(capsys):
    code = main(["verify", "--n", "2", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert {r["n"] for r in rows} == {2}
    code = main(["verify", "--lambda", "0.5", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert [r["id"] for r in rows] == ["eq4.6-lam0.5"]


def test_verify_text_summary(capsys):
    code = main(["verify"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().splitlines()[-1] == "passed=35 failed=0 skipped=5"


def test_verify_corrupted_budget_exits_one(capsys):
    code = main(["verify", "--tol", "9.9"])
    out = capsys.readouterr().out
    assert code == 1
    assert "failed=0" not in out.strip().splitlines()[-1]


@pytest.mark.parametrize("fmt", ["text", "json", "csv"])
def test_verify_default_max_terms_changes_nothing(fmt, capsys):
    # --max-terms only caps the terms; each member keeps its own tolerance
    assert main(["verify", "--format", fmt]) == 0
    default = capsys.readouterr().out
    assert main(["verify", "--max-terms", "1000000", "--format", fmt]) == 0
    assert capsys.readouterr().out == default


@pytest.mark.parametrize("flags, message", [
    (["--id", "nomatch", "--tol", "1e-16"], "tolerance must be finite and >= 1e-15"),
    (["--tol", "inf"], "tolerance must be finite and >= 1e-15"),
    (["--max-terms", "5"], "max_terms must be an int >= 10"),
])
def test_verify_bad_policy_flags_are_usage_errors(flags, message, capsys):
    # guard: rejected once, up front, even when the filters select no case
    # and so no series member ever builds a policy
    assert main(["verify", *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_constants_command(capsys):
    code = main(["constants", "--lambda", "2", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    names = [r["name"] for r in rows]
    assert names == ["e^pi", "e^(pi/2)", "e^(-pi/2)", "e^(pi*2)"]
    assert all(r["rel_residual"] <= r["tolerance"] for r in rows)


def test_constants_negative_lambda(capsys):
    code = main(["constants", "--lambda", "-5", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rows[-1]["name"] == "e^(pi*-5)"
    assert rows[-1]["rel_residual"] <= rows[-1]["tolerance"]


def test_heegner_command(capsys):
    code = main(["heegner", "--n", "19", "--format", "json"])
    rows = json.loads(capsys.readouterr().out)
    assert code == 0
    assert rows[0]["reference"] == 885480
    deviation = float(rows[0]["deviation"])
    assert abs(deviation - 0.2223) <= 1e-3
    assert rows[0]["value"].startswith("8.854797776801543194975")


def test_heegner_full_table(capsys):
    code = main(["heegner"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("reference") == 4


def test_out_file(tmp_path, capsys):
    # --out receives exactly the bytes the command prints, in every format
    for fmt in ("text", "json", "csv"):
        argv = ["verify", "--id", "eq1.1", "--format", fmt]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        target = tmp_path / f"report.{fmt}"
        assert main(argv + ["--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_bytes() == stdout.encode()


def test_out_path_that_cannot_be_opened_is_usage_error(tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "x.json"
    code = main(["verify", "--id", "eq1.1", "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert not target.exists()


def test_empty_selection_keeps_format_headers(capsys):
    assert main(["verify", "--id", "nomatch", "--format", "csv"]) == 0
    assert capsys.readouterr().out == ",".join(REPORT_FIELDS) + "\r\n"
    assert main(["verify", "--id", "nomatch", "--format", "json"]) == 0
    assert capsys.readouterr().out == "[\n\n]\n"
    assert main(["verify", "--id", "nomatch"]) == 0
    assert capsys.readouterr().out == "passed=0 failed=0 skipped=0\n"


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["verify", "--frobnicate"])
    assert excinfo.value.code == 2


def test_parse_error_exit_code(capsys):
    code = main(["eval", "--upper", "i,-i", "--lower", "1/2", "--z", "1+"])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("upper, lower, message", [
    ("1,1", "1/2,1/0", "zero denominator (at position 6)"),
    ("1,,2", "1", "empty input (at position 2)"),
    ("1,2", "1,2+", "expected a number (at position 4)"),
])
def test_list_parse_error_position_counts_from_option_value(upper, lower, message,
                                                           capsys):
    assert main(["eval", "--upper", upper, "--lower", lower, "--z", "0.5"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_overflowing_literal_is_parse_error(capsys):
    assert main(["eval", "--z", "1e400"]) == 2
    assert capsys.readouterr().err == (
        "error: number overflows binary64 (at position 0)\n")


def test_csv_rejected_outside_verify():
    with pytest.raises(SystemExit) as excinfo:
        main(["heegner", "--format", "csv"])
    assert excinfo.value.code == 2


def test_main_builds_its_parser_once(monkeypatch, capsys):
    main(["constants"])
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for argv in (["eval", "--z", "0.5"], ["verify", "--id", "eq1.1"],
                 ["constants", "--lambda", "2"], ["heegner", "--n", "19"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert built == []
