"""Command-line surface.

Four subcommands:

  eval       sum one pFq series and print the SumResult fields
  verify     run the identity registry, one report per case
  constants  print e^pi, e^(+/-pi/2) (and e^(pi*lambda)) against the
             exponential oracle
  heegner    print the near-integer table at double-double precision

Each subcommand does no I/O: it returns its rows, its text lines and its
exit code.  Only ``main`` picks the format and writes, once, to stdout or
to ``--out``.

The tool is a pure function of argv: no config files, environment
variables, or network access.  ``main`` builds its parser once per
process, on its first call, and reuses it; ``parse_args`` leaves the
parser unchanged, so every call still depends on its argv alone.

JSON and CSV are the stable machine formats (fixed field order, floats
at 17 significant digits, absent values as null/empty); the text format
is for humans and may change.

Exit codes: 0 all verdicts pass, 1 any failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import fnmatch
import functools
import io
import math
import re
import sys
from fractions import Fraction

from .errors import ParseError
from .heegner import HEEGNER_BASES, heegner_row, is_near_integer
from .identities import (
    VerificationReport,
    gelfond,
    gelfond_lambda,
    registry,
    sqrt_gelfond_pair,
    verify,
)
from .ddreal import dd_to_decimal
from .series import SeriesSpec, SumPolicy, SumStatus, sum_pfq

REPORT_FIELDS = (
    "id", "n", "lambda", "closed_value", "series_value", "expected_value",
    "abs_residual", "rel_residual", "series_status", "verdict",
)


# ----------------------------------------------------------------------
# complex literal parsing
# ----------------------------------------------------------------------

# whole digits, then either "/" and the denominator's digits, or an optional
# "." with the fraction's digits and an optional exponent; every part may be
# empty, so the checks below read the match.  \d is a Unicode decimal digit
# (category Nd), the digits Fraction and float accept
_NUMBER = re.compile(r"(\d*)(?:/(\d*)|\.?(\d*)(?:[eE][+-]?(\d*))?)")
# the longest digit run of a RATIONAL: CPython converts a string of at most
# 640 digits to int whatever its int-string limit is set to, and quickly
_MAX_RATIONAL_DIGITS = 640


def _scan_number(text: str, pos: int) -> tuple[Fraction | float, int]:
    """Unsigned REAL or RATIONAL starting at pos; returns (value, next_pos).

    A RATIONAL is an exact Fraction.  A REAL is the nearest binary64 (inf
    beyond its range), or the int 0 when its digits are all zero, so that a
    sign makes +0.0 of it as of an exact zero, while a non-zero REAL that
    rounds to 0.0 takes the sign as its exact value would."""
    m = _NUMBER.match(text, pos)
    whole, denominator, fraction, exponent = m.groups()
    if denominator is not None:
        if not whole:
            raise ParseError("expected digits before '/'", pos)
        if not denominator:
            raise ParseError("expected digits after '/'", m.start(2))
        if max(len(whole), len(denominator)) > _MAX_RATIONAL_DIGITS:
            raise ParseError(f"more than {_MAX_RATIONAL_DIGITS} digits", pos)
        try:
            return Fraction(m[0]), m.end()
        except ZeroDivisionError:
            raise ParseError("zero denominator", m.start(2)) from None
    if not (whole or fraction):
        raise ParseError("expected a number", pos)
    if exponent == "":
        raise ParseError("expected digits in exponent", m.start(4))
    # float() rounds the decimal string correctly, as float(Fraction(...))
    # does, without building 10**exponent
    value = float(m[0])
    return (value if value or float(whole + fraction) else 0), m.end()


def _scan_sign(text: str, pos: int) -> tuple[int, int]:
    if pos < len(text) and text[pos] in "+-":
        return (-1 if text[pos] == "-" else 1), pos + 1
    return 1, pos


def _to_float(value: Fraction | float, pos: int) -> float:
    """value as the nearest binary64; ParseError at pos when it overflows."""
    try:
        value = float(value)
    except OverflowError:  # a Fraction; a REAL beyond binary64 is inf already
        value = math.inf
    if math.isinf(value):
        raise ParseError("number overflows binary64", pos)
    return value


def parse_complex(text: str) -> complex:
    """Parse REAL | RATIONAL | COMPLEX, whitespace-free.

    RATIONAL is p/q over decimal integers of at most 640 digits each and
    is converted exactly;
    COMPLEX is <r>[+|-]<r>i; a bare or signed "i" means the unit
    imaginary, and forms like "-15/22i" are purely imaginary with the
    sign binding to the imaginary rational.  A number beyond the binary64
    range is a ParseError at its first digit.
    """
    for idx, ch in enumerate(text):
        if ch.isspace():
            raise ParseError("whitespace is not allowed", idx)
    if not text:
        raise ParseError("empty input", 0)
    sign, start = _scan_sign(text, 0)
    if text[start:] == "i":
        return complex(0.0, float(sign))
    value, pos = _scan_number(text, start)
    first = _to_float(sign * value, start)
    if pos == len(text):
        return complex(first, 0.0)
    if text[pos] == "i":
        if pos + 1 != len(text):
            raise ParseError("trailing characters after 'i'", pos + 1)
        return complex(0.0, first)
    if text[pos] in "+-":
        sign2, start = _scan_sign(text, pos)
        if text[start:] == "i":
            return complex(first, float(sign2))
        value2, pos = _scan_number(text, start)
        if pos >= len(text) or text[pos] != "i":
            raise ParseError("expected 'i' to close the imaginary part", pos)
        if pos + 1 != len(text):
            raise ParseError("trailing characters after 'i'", pos + 1)
        return complex(first, _to_float(sign2 * value2, start))
    raise ParseError("unexpected character", pos)


def _parse_complex_list(text: str) -> list[complex]:
    """Comma-separated literals; a ParseError's position counts from the
    start of text, not of the element."""
    if not text:
        return []
    values, start = [], 0
    for part in text.split(","):
        try:
            values.append(parse_complex(part))
        except ParseError as exc:
            raise ParseError(exc.message, start + exc.position) from None
        start += len(part) + 1
    return values


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    return format(x, ".17g")


def _fmt_cell(value) -> str:
    """Text and CSV form of one value: floats at 17 digits, None empty."""
    if value is None:
        return ""
    return _fmt_float(value) if isinstance(value, float) else str(value)


def _json_scalar(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        return _fmt_float(value)
    escaped = (str(value).replace("\\", "\\\\").replace('"', '\\"'))
    return f'"{escaped}"'


def _json_rows(rows: list[dict]) -> str:
    """Deterministic JSON array of flat objects, insertion-ordered keys."""
    parts = []
    for row in rows:
        fields = ", ".join(f'"{k}": {_json_scalar(v)}' for k, v in row.items())
        parts.append("  {" + fields + "}")
    return "[\n" + ",\n".join(parts) + "\n]\n"


def _csv_rows(rows: list[dict]) -> str:
    """CSV of verify reports; the REPORT_FIELDS header is always written."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(REPORT_FIELDS)
    writer.writerows([_fmt_cell(v) for v in row.values()] for row in rows)
    return buf.getvalue()


def report_row(report: VerificationReport) -> dict:
    return {field: getattr(report, "lam" if field == "lambda" else field)
            for field in REPORT_FIELDS}


# ----------------------------------------------------------------------
# subcommands: each returns (rows, text lines, exit code) and writes nothing
# ----------------------------------------------------------------------

def _cmd_eval(args) -> tuple[list[dict], list[str], int]:
    spec = SeriesSpec(_parse_complex_list(args.upper),
                      _parse_complex_list(args.lower), parse_complex(args.z))
    result = sum_pfq(spec, SumPolicy(args.tol, args.max_terms))
    row = {
        "value_re": result.value.real,
        "value_im": result.value.imag,
        "terms_used": result.terms_used,
        "tail_estimate": result.tail_estimate,
        "status": result.status.value,
    }
    # a divergent request is a usage error, like |z| > 1 raising
    code = {SumStatus.CONVERGED: 0, SumStatus.TRUNCATED: 0,
            SumStatus.DIVERGENT: 2}.get(result.status, 1)
    return [row], [f"{k} = {_fmt_cell(v)}" for k, v in row.items()], code


def _cmd_verify(args) -> tuple[list[dict], list[str], int]:
    # bad flag values are a usage error even when no case is selected
    SumPolicy(SumPolicy().tolerance if args.tol is None else args.tol,
              args.max_terms)
    cases = registry()
    if args.id:
        cases = [c for c in cases if fnmatch.fnmatchcase(c.id, args.id)]
    if args.n is not None:
        cases = [c for c in cases if c.n == args.n]
    if args.lam is not None:
        cases = [c for c in cases
                 if c.lam is not None and abs(c.lam - args.lam) < 1e-12]
    reports = [verify(case, args.tol, args.max_terms) for case in cases]
    verdicts = [r.verdict for r in reports]
    passed, failed = verdicts.count("Pass"), verdicts.count("Fail")
    lines = []
    for r in reports:
        detail = ""
        if r.rel_residual is not None:
            detail = f"  rel_residual={r.rel_residual:.3e}"
        if r.series_status is not None:
            detail += f"  series={r.series_status}"
        if r.erratum:
            detail += f"  [erratum: {r.erratum}]"
        lines.append(f"{r.id:<18} {r.verdict:<17}{detail}")
    lines.append(f"passed={passed} failed={failed} "
                 f"skipped={len(reports) - passed - failed}")
    return [report_row(r) for r in reports], lines, 1 if failed else 0


def _cmd_constants(args) -> tuple[list[dict], list[str], int]:
    plus, minus = sqrt_gelfond_pair()
    checks = [
        ("e^pi", gelfond(), math.exp(math.pi), 1e-13),
        ("e^(pi/2)", plus, math.exp(math.pi / 2), 1e-12),
        ("e^(-pi/2)", minus, math.exp(-math.pi / 2), 1e-12),
    ]
    if args.lam is not None:
        checks.append((f"e^(pi*{args.lam:g})", gelfond_lambda(args.lam),
                       math.exp(math.pi * args.lam), 1e-11))
    rows = [{"name": name, "closed_value": closed, "oracle_value": oracle,
             "abs_residual": abs(closed - oracle),
             "rel_residual": abs(closed - oracle) / abs(oracle),
             "tolerance": tol} for name, closed, oracle, tol in checks]
    lines = [
        f"{row['name']:<12} closed={_fmt_float(row['closed_value'])}  "
        f"oracle={_fmt_float(row['oracle_value'])}  "
        f"rel_residual={row['rel_residual']:.3e}"
        for row in rows
    ]
    failed = any(row["rel_residual"] > row["tolerance"] for row in rows)
    return rows, lines, 1 if failed else 0


def _cmd_heegner(args) -> tuple[list[dict], list[str], int]:
    ns = [args.n] if args.n is not None else sorted(HEEGNER_BASES)
    table = [heegner_row(n) for n in ns]
    rows = [{
        "n": row.n,
        "value": dd_to_decimal(row.value, 31),
        "cube_base": row.cube_base,
        "reference": row.reference,
        "deviation": dd_to_decimal(row.deviation, 12),
        "error_bound": row.error_bound,
    } for row in table]
    lines = [
        f"n={row['n']:<4} e^(pi sqrt n) = {row['value']}\n"
        f"      reference = {row['cube_base']}^3 + 744 = {row['reference']}\n"
        f"      deviation = {row['deviation']}  (error bound "
        f"{row['error_bound']:.2e})"
        for row in rows
    ]
    return rows, lines, 0 if all(map(is_near_integer, table)) else 1


# ----------------------------------------------------------------------
# argument parsing
# ----------------------------------------------------------------------

@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` reuses, built on its first call, not at import."""
    parser = argparse.ArgumentParser(
        prog="gelfond",
        description="Evaluate hypergeometric series and verify the "
                    "closed-form identities for e^pi and its relatives.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, formats=("text", "json")):
        p.add_argument("--format", choices=formats, default="text")
        p.add_argument("--out", default=None, help="output path (default stdout)")

    p_eval = sub.add_parser("eval", help="evaluate one pFq series")
    p_eval.add_argument("--upper", default="",
                        help="comma-separated upper parameters, e.g. i,-i")
    p_eval.add_argument("--lower", default="",
                        help="comma-separated lower parameters, e.g. 1/2")
    p_eval.add_argument("--z", required=True, help="argument, e.g. 1 or 0.5")
    p_eval.add_argument("--tol", type=float, default=SumPolicy().tolerance,
                        help="summation tolerance (default %(default)g)")
    p_eval.add_argument("--max-terms", dest="max_terms", type=int,
                        default=SumPolicy().max_terms,
                        help="most terms summed (default %(default)d)")
    common(p_eval)
    p_eval.set_defaults(func=_cmd_eval)

    p_verify = sub.add_parser("verify", help="run the identity registry")
    p_verify.add_argument("--id", default=None, help="case id glob filter")
    p_verify.add_argument("--n", type=int, default=None,
                          help="filter corollary cases by index n")
    p_verify.add_argument("--lambda", dest="lam", type=float, default=None,
                          help="filter parameterized cases by lambda")
    p_verify.add_argument("--tol", type=float, default=None,
                          help="summation tolerance of every series member, "
                               "in place of each member's own")
    p_verify.add_argument("--max-terms", dest="max_terms", type=int,
                          default=SumPolicy().max_terms,
                          help="most terms summed per series member; each "
                               "member keeps its own tolerance "
                               "(default %(default)d)")
    common(p_verify, ("text", "json", "csv"))
    p_verify.set_defaults(func=_cmd_verify)

    p_const = sub.add_parser("constants",
                             help="closed forms vs the exponential oracle")
    p_const.add_argument("--lambda", dest="lam", type=float, default=None)
    common(p_const)
    p_const.set_defaults(func=_cmd_constants)

    p_heeg = sub.add_parser("heegner", help="near-integer table")
    p_heeg.add_argument("--n", type=int, default=None,
                        choices=sorted(HEEGNER_BASES))
    common(p_heeg)
    p_heeg.set_defaults(func=_cmd_heegner)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        rows, lines, code = args.func(args)
    except (ValueError, ArithmeticError) as exc:
        # ParseError, PoleError, DivergentError, ...: the request itself
        # was invalid, which is a usage error by the exit-code contract
        print(f"error: {exc}", file=sys.stderr)
        return 2
    render = {"json": _json_rows, "csv": _csv_rows}.get(args.format)
    text = render(rows) if render else "\n".join(lines) + "\n"
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code
