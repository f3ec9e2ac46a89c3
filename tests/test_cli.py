import argparse
import json
import math
import random
import sys
from fractions import Fraction

import pytest

from gelfond import ParseError, SeriesSpec, sum_pfq
from gelfond.cli import REPORT_FIELDS, main, parse_complex


# ----------------------------------------------------------------------
# complex literal grammar
# ----------------------------------------------------------------------

def test_parse_rational():
    value = parse_complex("15/26")
    assert value == complex(float(Fraction(15, 26)), 0.0)
    # any Unicode decimal digit (category Nd) is a digit, as for Fraction
    assert parse_complex("\u0663/\u0664") == 0.75 + 0j      # Arabic-Indic 3/4
    # a digit run of up to 640 digits is read; one more is a ParseError
    assert parse_complex("7" * 640 + "/" + "7" * 640) == 1


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
    assert parse_complex("1e-999999999") == 0
    assert parse_complex("0." + "0" * 5000 + "1e5002") == 10 + 0j


def test_parse_signed_zero():
    # a literal zero is +0.0 whatever its sign; a negative literal that
    # rounds to zero is -0.0, the float of its exact value
    def signs(text):
        value = parse_complex(text)
        return math.copysign(1, value.real), math.copysign(1, value.imag)
    assert signs("-0") == signs("-0/7") == signs("-0.0e5") == signs("-0-0i") == (1, 1)
    assert signs("-1e-400") == signs("-1/1" + "0" * 400) == (-1, 1)
    assert signs("1-1e-999999i") == (1, -1)


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
    # digits to str.isdigit() but not decimal digits, which Fraction rejects
    ("\u00b2", 0),            # superscript two
    ("1\u00b2", 1),
    ("1/\u2460", 2),          # circled one
    ("2.5e\u00b3", 4),
    ("1+\u00b9i", 2),
    # a long exponent overflows without 10**exponent being built, and a
    # rational's digit run of more than 640 digits is refused by its length
    ("1e999999999", 0),
    ("1+1e" + "9" * 5000 + "i", 2),
    ("1/" + "1" * 641, 0),
    ("2-" + "3" * 5000 + "/7i", 2),
])
def test_parse_errors_carry_position(text, position):
    with pytest.raises(ParseError) as excinfo:
        parse_complex(text)
    assert excinfo.value.position == position


def test_parse_complex_raises_only_parse_error():
    """Seeded strings over the literal alphabet, Unicode decimal digits and
    characters that are digits to str.isdigit() but not decimal: each
    parses or raises ParseError, never another error.  5,000 strings of 1
    to 7 characters, then 300 literals with exponents of up to 9 digits
    and digit runs of up to 5,000 digits, past CPython's default limit of
    4,300 digits on int-string conversion."""
    chars = [chr(c) for c in range(sys.maxunicode + 1) if chr(c).isdigit()]
    decimal = [c for c in chars if c.isdecimal()]
    other = [c for c in chars if not c.isdecimal()]
    alphabet = list("0123456789./eE+-i")
    rng = random.Random(30)

    def run(longest):
        pool = decimal if rng.random() < 0.1 else "0123456789"
        return "".join(rng.choices(pool, k=rng.choice((1, rng.randrange(1, longest + 1)))))

    def literal():
        body = run(5000) + rng.choice(("", "/" + run(5000), "." + run(5000)))
        if "/" not in body and rng.random() < 0.7:
            body += rng.choice("eE") + rng.choice(("", "+", "-")) + run(9)
        return rng.choice(("", "-", "+")) + body

    texts = ["".join(rng.choice(pool) for pool in rng.choices(
                 (alphabet, decimal, other), weights=(8, 1, 1),
                 k=rng.randrange(1, 8)))
             for _ in range(5000)]
    texts += [literal() + rng.choice(("", "i", "+" + literal() + "i"))
              for _ in range(300)]
    bad = []
    for text in texts:
        try:
            parse_complex(text)
        except ParseError:
            pass
        except Exception as exc:
            bad.append((text[:40], repr(exc)[:80]))
    assert not bad, f"{len(bad)} strings raised another error, first {bad[:3]}"


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


def test_eval_negative_value_joined_with_equals(capsys):
    # argparse reads "-1/2" after a space as an option; after "=" it is the
    # value, summed exactly as sum_pfq sums the same spec
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "--upper", "-1/2", "--lower", "1", "--z", "1"])
    assert excinfo.value.code == 2
    assert "expected one argument" in capsys.readouterr().err
    assert main(["eval", "--upper=-1/2", "--lower", "1", "--z", "1",
                 "--format", "json"]) == 0
    row, = json.loads(capsys.readouterr().out)
    spec = SeriesSpec((parse_complex("-1/2"),), (parse_complex("1"),),
                      parse_complex("1"))
    assert repr(row["value_re"]) == repr(sum_pfq(spec).value.real)


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
