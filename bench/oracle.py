"""Independent checks for every benchmark operation.

Reference values come from mpmath (hypergeometric functions, gamma-free
elementary closed forms, exponentials) or from stdlib ``decimal`` (the
Heegner exponentials at 60 digits), never from gelfond.  Parameters are
taken exactly at their binary64 values, so a difference measures the
program's error, not an input rounding.

``checker(op)`` computes the op's reference values once and returns a
function that checks one output and returns ``None`` or a message that
names the check the output broke.
"""

from __future__ import annotations

import decimal
import json
import re
from fractions import Fraction

import mpmath

from gelfond.series import SumStatus

mp = mpmath.mp
mp.dps = 25

THEOREM_REL_TOL = 1e-11
EXPECTED_REL_TOL = 1e-14
DECIMAL_DIGITS = 60
DIVERGENT_IDS = re.compile(r"cor2-n\d+-printed")
DOCUMENTED_IDS = ("mobius-product", "leibniz-power")


def _mpc(x):
    x = complex(x)
    return mpmath.mpc(x.real, x.imag)


def pfq(spec):
    """pFq(upper; lower; z) at the spec's binary64 parameters."""
    return mpmath.hyper([_mpc(a) for a in spec.upper],
                        [_mpc(b) for b in spec.lower], _mpc(spec.argument))


def _rel(value, reference) -> float:
    return float(abs(_mpc(value) - reference) / abs(reference))


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------

def _mpq(x):
    x = Fraction(x)
    return mpmath.mpf(x.numerator) / x.denominator


def _registry_checker(case):
    divergent = bool(DIVERGENT_IDS.fullmatch(case.id))
    documented = case.id in DOCUMENTED_IDS
    combo = exact = None
    if not (divergent or documented):
        combo = mpmath.re(mpmath.fsum(_mpc(w) * pfq(spec)
                                      for spec, w in case.lhs_plan))
    if case.expected:
        exact = mpmath.fsum(_mpq(c) * mpmath.exp(mp.pi * _mpq(p))
                            for c, p in case.expected)

    def check(report):
        if documented:
            if report.verdict != "SkippedDocumented":
                return f"check 5: verdict {report.verdict}, not SkippedDocumented"
            return None
        if divergent:
            if report.verdict != "SkippedDivergent" or report.series_status != "Divergent":
                return (f"check 4: verdict {report.verdict} / series "
                        f"{report.series_status}, not SkippedDivergent / Divergent")
            return None
        if report.expected_value is None or _rel(report.expected_value, exact) > EXPECTED_REL_TOL:
            return (f"check 2: expected_value {report.expected_value!r} vs exact "
                    f"ExpTerm value {mpmath.nstr(exact, 20)}")
        for name, value, tol in (("series_value", report.series_value, case.series_tol),
                                 ("closed_value", report.closed_value, case.closed_tol)):
            if value is None and name == "closed_value" and case.rhs_plan is None:
                continue
            if value is None:
                return f"check 1: {name} missing"
            rel = _rel(value, combo)
            if rel > tol:
                return (f"check 1: {name} {value!r} is {rel:.3e} from the mpmath sum "
                        f"{mpmath.nstr(combo, 20)} (tolerance {tol:g})")
        if report.verdict != "Pass":
            return f"check 3: both values within tolerance but verdict {report.verdict}"
        return None
    return check


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

def _series_checker(spec):
    reference = pfq(spec)

    def check(result):
        if result.status is not SumStatus.CONVERGED:
            return f"status {result.status.value}, not Converged"
        err = abs(_mpc(result.value) - reference)
        if err > result.tail_estimate:
            return (f"tail bound: |value - oracle| = {float(err):.3e} exceeds "
                    f"tail_estimate {result.tail_estimate:.3e} "
                    f"({result.terms_used} terms)")
        return None
    return check


# ----------------------------------------------------------------------
# closed: heegner rows, constants rows, theorem rows
# ----------------------------------------------------------------------

def _decimal_pi(ctx: decimal.Context) -> decimal.Decimal:
    """pi by Machin's formula in ``ctx``."""
    def arctan_inv(x: int) -> decimal.Decimal:
        x = decimal.Decimal(x)
        total = term = ctx.divide(1, x)
        x2, k, sign = x * x, 1, -1
        while True:
            term = ctx.divide(term, x2)
            step = ctx.divide(term, 2 * k + 1)
            if step == 0:
                return total
            total = ctx.add(total, step) if sign > 0 else ctx.subtract(total, step)
            k, sign = k + 1, -sign
    return ctx.subtract(ctx.multiply(16, arctan_inv(5)), ctx.multiply(4, arctan_inv(239)))


def heegner_exponentials() -> dict[int, decimal.Decimal]:
    """e^(pi sqrt n) at 60 significant digits for the four Heegner rows."""
    ctx = decimal.Context(prec=DECIMAL_DIGITS + 10)
    pi = _decimal_pi(ctx)
    return {n: ctx.exp(ctx.multiply(pi, ctx.sqrt(decimal.Decimal(n))))
            for n in (19, 43, 67, 163)}


HEEGNER_CUBES = {19: 96, 43: 960, 67: 5280, 163: 640320}


def _heegner_checker(exact):
    ctx = decimal.Context(prec=DECIMAL_DIGITS + 10)

    def check(output):
        code, text = output
        if code != 0:
            return f"exit code {code}, not 0"
        rows = json.loads(text)
        for row in rows:
            n = row["n"]
            value = decimal.Decimal(row["value"])
            err = ctx.abs(ctx.subtract(value, exact[n]))
            if err > decimal.Decimal(row["error_bound"]):
                return (f"row n={n}: |value - e^(pi sqrt n)| = {err:.3e} exceeds "
                        f"error_bound {row['error_bound']:.3e}")
            reference = HEEGNER_CUBES[n] ** 3 + 744
            if value.to_integral_value() != reference or row["reference"] != reference:
                return f"row n={n}: rounded value is not {HEEGNER_CUBES[n]}^3 + 744"
        return None
    return check


def _constants_checker(lam):
    def check(output):
        code, text = output
        rows = json.loads(text)
        powers = [1, mpmath.mpf(1) / 2, -mpmath.mpf(1) / 2, mpmath.mpf(lam)]
        for row, power in zip(rows, powers):
            reference = mpmath.exp(mp.pi * power)
            rel = _rel(row["closed_value"], reference)
            if rel > row["tolerance"]:
                return (f"row {row['name']}: closed_value is {rel:.3e} from mpmath "
                        f"exp(pi*{mpmath.nstr(power, 17)}) (tolerance {row['tolerance']:g})")
        if len(rows) != len(powers):
            return f"{len(rows)} rows, not {len(powers)}"
        if code != 0:
            return f"exit code {code}, not 0"
        return None
    return check


def theorem_references(args: dict[str, tuple]) -> list:
    """mpmath values of the six theorem sums at the given arguments."""
    a, b, c = map(_mpc, args["gauss_unit"])
    out = [mpmath.hyp2f1(a, b, c, 1)]
    a, b, c, d = map(_mpc, args["gauss_ext_unit"])
    out.append(mpmath.hyper([a, b, d + 1], [c + 1, d], 1))
    a, b = map(_mpc, args["second_gauss_half"])
    out.append(mpmath.hyp2f1(a, b, (a + b + 1) / 2, 0.5))
    a, c = map(_mpc, args["bailey_half"])
    out.append(mpmath.hyp2f1(a, 1 - a, c, 0.5))
    a, b, d = map(_mpc, args["second_gauss_ext_half"])
    out.append(mpmath.hyper([a, b, d + 1], [(a + b + 3) / 2, d], 0.5))
    a, c, d = map(_mpc, args["bailey_ext_half"])
    out.append(mpmath.hyper([a, 1 - a, d + 1], [c + 1, d], 0.5))
    return out


def _theorems_checker(args):
    references = theorem_references(args)
    names = list(args)

    def check(values):
        for name, value, reference in zip(names, values, references):
            rel = _rel(value, reference)
            if rel > THEOREM_REL_TOL:
                return (f"{name}{args[name]}: {value!r} is {rel:.3e} from the "
                        f"mpmath sum (tolerance {THEOREM_REL_TOL:g})")
        return None
    return check


def checker(op, heegner_exact=None):
    """A function that checks one output of ``op``."""
    if op.kind == "registry":
        return _registry_checker(op.data["case"])
    if op.kind == "series":
        return _series_checker(op.data["spec"])
    if op.kind == "heegner":
        return _heegner_checker(heegner_exact or heegner_exponentials())
    if op.kind == "constants":
        return _constants_checker(op.data["lambda"])
    if op.kind == "theorems":
        return _theorems_checker(op.data["args"])
    raise ValueError(f"no oracle for operation kind {op.kind!r}")
