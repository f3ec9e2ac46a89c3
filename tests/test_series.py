import cmath
import itertools
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import reduce
from operator import add
from pathlib import Path

import pytest

from gelfond import (
    DivergentError,
    PoleError,
    RangeError,
    SeriesSpec,
    SumPolicy,
    SumResult,
    SumStatus,
    complex_gamma,
    series,
    sum_pfq,
)
from gelfond.errors import InsufficientTermsError
from gelfond.series import levin_accelerate, sum_pfq_unit
from gelfond.closed_forms import gauss_ext_unit, gauss_unit
from gelfond.identities import registry, verify
from conftest import (
    COSH_HALF_PI,
    COSH_PI,
    random_complex,
    reduced_3f2,
    reference_asymptotic_tail,
    reference_direct_sum,
    reference_unit_sum,
    rel_err,
    zeta_reference,
)

I = 1j


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------

def test_spec_rejects_p_greater_than_q_plus_one():
    with pytest.raises(ValueError):
        SeriesSpec((1, 2, 3), (4,), 0.1)
    # not exactly -2: the series does not terminate, so it is no polynomial
    with pytest.raises(ValueError, match="series diverges for z != 0"):
        SeriesSpec((-2 + 1e-6, 1, 1), (1,), 5)


def test_spec_p_greater_than_q_plus_one_at_zero_is_one():
    r = sum_pfq(SeriesSpec((1, 2, 3), (4,), 0))
    assert r.status is SumStatus.CONVERGED
    assert r.value == 1.0 + 0.0j


def test_spec_rejects_nonpositive_integer_lower():
    with pytest.raises(PoleError):
        SeriesSpec((1.0, 2.0), (-3.0,), 0.5)


def test_spec_lower_pole_allowed_behind_truncation():
    # upper -2 truncates at term 2, before the lower -5 factor vanishes
    SeriesSpec((-2.0, 1.0), (-5.0,), 0.5)
    with pytest.raises(PoleError):
        SeriesSpec((-5.0, 1.0), (-2.0,), 0.5)
    with pytest.raises(PoleError):
        SeriesSpec((-3.0, 1.0), (-3.0,), 0.5)
    # near -2 is not at -2: nothing truncates before the pole
    with pytest.raises(PoleError):
        SeriesSpec((-2 + 1e-10, 1.0), (-5.0,), 0.5)


@pytest.mark.parametrize("upper, lower, z, named", [
    ((math.inf, 1.0), (2.0,), 0.5, "upper parameter (inf+0j)"),
    ((1.0,), (complex(2.0, math.nan),), 0.5, "lower parameter (2+nanj)"),
    ((1.0,), (math.nan,), 0.5, "lower parameter (nan+0j)"),
    ((1.0, 1.0), (2.0,), math.nan, "argument (nan+0j)"),
    ((), (), -math.inf, "argument (-inf+0j)"),
])
def test_spec_rejects_non_finite_values(upper, lower, z, named):
    with pytest.raises(RangeError, match=re.escape(f"{named} is not finite")):
        SeriesSpec(upper, lower, z)


def test_policy_validation():
    with pytest.raises(ValueError):
        SumPolicy(tolerance=1e-16)
    with pytest.raises(ValueError):
        SumPolicy(max_terms=5)


@pytest.mark.parametrize("field", [
    {"tolerance": math.inf},
    {"max_terms": 10.5},
    {"max_terms": 1e6},
    {"max_terms": True},
])
def test_policy_rejects_infinite_tolerance_and_non_int_max_terms(field):
    with pytest.raises(ValueError):
        SumPolicy(**field)


@pytest.mark.parametrize("tolerance", [
    True, Decimal("1e-10"), "1e-10", 1e-10 + 0j, None,
], ids=["bool", "Decimal", "str", "complex", "None"])
def test_policy_rejects_a_tolerance_that_is_not_a_real_number(tolerance):
    """A bool, and anything that is not numbers.Real, is a ValueError that
    names the value, from the constructor and from _replace alike."""
    with pytest.raises(ValueError, match=re.escape(f"real number, got {tolerance!r}")):
        SumPolicy(tolerance)
    with pytest.raises(ValueError, match="real number"):
        SumPolicy()._replace(tolerance=tolerance)


def test_policy_keeps_int_float_and_fraction_tolerances():
    spec = SeriesSpec((1, 1), (2,), 0.5)
    for tolerance in (1, 1e-10, Fraction(1, 10**10)):
        policy = SumPolicy(tolerance)
        assert policy.tolerance is tolerance
        assert sum_pfq(spec, policy).status is SumStatus.CONVERGED


# ----------------------------------------------------------------------
# direct summation
# ----------------------------------------------------------------------

def test_sum_2f1_log_value():
    # 2F1(1,1;2;z) = -log(1-z)/z
    r = sum_pfq(SeriesSpec((1, 1), (2,), 0.5))
    assert r.status is SumStatus.CONVERGED
    assert rel_err(r.value.real, 2 * math.log(2)) <= 1e-13


def test_sum_0f1_cosh_shape():
    r = sum_pfq(SeriesSpec((), (0.5,), math.pi**2 / 4))
    assert r.status is SumStatus.CONVERGED
    assert rel_err(r.value.real, COSH_PI) <= 1e-13


def test_sum_2f1_half_argument_second_gauss_value():
    r = sum_pfq(SeriesSpec((I, -I), (0.5,), 0.5))
    assert rel_err(r.value.real, COSH_HALF_PI) <= 1e-13


def test_zero_upper_parameter_truncates():
    r = sum_pfq(SeriesSpec((0, 2.3 - 0.4j), (1.7,), 0.5))
    assert r.status is SumStatus.TRUNCATED
    assert r.value == 1.0 + 0.0j
    assert r.tail_estimate == 0.0


def test_polynomial_truncation_degree():
    # 2F1(-3, b; c; z) is a cubic; sum its four terms directly
    b, c, z = 1.3, 2.1, 0.4
    r = sum_pfq(SeriesSpec((-3, b), (c,), z))
    expected = sum(
        math.prod(-3 + j for j in range(n)) * math.prod(b + j for j in range(n))
        / (math.prod(c + j for j in range(n)) * math.factorial(n)) * z**n
        for n in range(4)
    )
    assert r.status is SumStatus.TRUNCATED
    assert rel_err(r.value.real, expected) <= 1e-14


def _exact_sum(spec: SeriesSpec, degree: int | None = None) -> tuple[complex, float]:
    """(value, sum of |t_k|) of the terms 0..degree of pFq, by default those
    of a terminating pFq, by exact Gaussian-rational arithmetic on the spec's
    binary64 parameters."""
    def mul(x, y):
        return x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0]

    def div(x, y):
        norm = y[0] * y[0] + y[1] * y[1]
        return (x[0] * y[0] + x[1] * y[1]) / norm, (x[1] * y[0] - x[0] * y[1]) / norm

    z = Fraction(spec.argument.real), Fraction(spec.argument.imag)
    t, total, mass = (Fraction(1), Fraction(0)), (Fraction(1), Fraction(0)), 1.0
    for n in range(spec.truncation_degree() if degree is None else degree):
        for a in spec.upper:
            t = mul(t, (Fraction(a.real) + n, Fraction(a.imag)))
        for b in spec.lower + (complex(1.0),):
            t = div(t, (Fraction(b.real) + n, Fraction(b.imag)))
        t = mul(t, z)
        total = total[0] + t[0], total[1] + t[1]
        mass += abs(complex(float(t[0]), float(t[1])))
    return complex(float(total[0]), float(total[1])), mass


@pytest.mark.parametrize("upper, lower, z", [
    ((-3, 0.5), (1.5,), 2),                        # 0.2571428...
    ((-3, 0.5), (1.5,), -7.5),
    ((-3, 0.5), (1.5,), 3 + 4j),
    ((-3, 0.5), (1.5,), 1e3),
    ((-4, 1 + 2j), (0.3 - 1j,), -2.5 + 6j),
    ((-2, 1, 1), (1,), 5),                         # 3F1(-2, 1, 1; 1; 5) = 41
    ((0.7, -5, 2.5j, 1.1), (-0.4, 3.3), -1.5 - 2j),
    # cut at the exact -5, not near -2
    ((-5, -2 + 1e-10), (1.5,), 2),                 # 35.666666671520886
])
def test_polynomial_summed_at_every_z(upper, lower, z):
    """An upper parameter at a non-positive integer makes pFq a polynomial,
    finite for every p, q and z: summed, never refused as divergent."""
    spec = SeriesSpec(upper, lower, z)
    r = sum_pfq(spec)
    exact, mass = _exact_sum(spec)
    assert r.status is SumStatus.TRUNCATED
    assert abs(r.value - exact) <= 8 * sys.float_info.epsilon * mass


@pytest.mark.parametrize("upper, lower, z, error, message", [
    ((-3 + 1e-10, 0.5), (1.5,), 1e8, DivergentError, "diverges for"),
    ((-3 + 1e-10, 0.5), (1.5,), 2, DivergentError, "diverges for"),
    ((-3 + 1e-10, 0.5), (1.5,), 1j, ValueError, "unit-modulus"),
    ((-2 + 1e-10, 1, 1), (1,), 5, ValueError, "series diverges for z != 0"),
])
def test_near_polynomial_is_checked_for_divergence(upper, lower, z, error, message):
    """An upper parameter near a non-positive integer, but not at it, leaves
    a series that does not terminate: it is refused where such a series
    diverges, never summed as a polynomial."""
    with pytest.raises(error, match=message):
        sum_pfq(SeriesSpec(upper, lower, z))


@pytest.mark.parametrize("upper, lower, z, tol", [
    ((-2.9999999999, 0.5), (1.5,), 0.5, 1e-15),    # 0.63214285715010731...
    ((-2 + 1e-10,), (1.5,), 3, 1e-13),
])
def test_near_polynomial_is_summed_past_its_cut(upper, lower, z, tol):
    """Where a series that does not terminate converges, a near-polynomial
    is summed on past its would-be cut, where cutting it was off by 1.9e-13
    and 8.3e-11, more than the tail it reported."""
    spec = SeriesSpec(upper, lower, z)
    r = sum_pfq(spec, SumPolicy(tolerance=tol))
    exact, mass = _exact_sum(spec, 100)   # terms past 100 are below 1e-40
    assert r.status is SumStatus.CONVERGED
    assert abs(r.value - exact) <= r.tail_estimate + 8 * sys.float_info.epsilon * mass


@pytest.mark.parametrize("a, b, c", [
    (-1 - 3e-11, 0.6, 1.3),
    (3e-11, 0.6, 1.3),
    (-2 + 3e-11, 0.25, 0.5),
])
def test_near_polynomial_at_unit_argument_is_accelerated(a, b, c):
    """At z = 1 a near-polynomial goes on past its cut and is summed to
    Gauss's closed form, where truncation was off by 5e-12 to 3e-11."""
    r = sum_pfq(SeriesSpec((a, b), (c,), 1))
    assert r.status is SumStatus.CONVERGED
    assert abs(r.value - gauss_unit(a, b, c)) <= 1e-15


def test_divergent_outside_unit_disk():
    with pytest.raises(DivergentError):
        sum_pfq(SeriesSpec((1, 1), (2,), 1.2))


def test_unit_modulus_off_one_unsupported():
    with pytest.raises(ValueError):
        sum_pfq(SeriesSpec((1, 1), (2,), -1.0))


def test_max_terms_exceeded_status():
    r = sum_pfq(SeriesSpec((1, 1), (2,), 0.5), SumPolicy(max_terms=10))
    assert r.status is SumStatus.MAX_TERMS_EXCEEDED
    assert r.terms_used == 10


def test_converged_tail_contract(rng):
    # status Converged implies tail_estimate <= tolerance * max(1, |value|)
    for tol in (1e-6, 1e-10, 1e-13):
        policy = SumPolicy(tolerance=tol)
        for _ in range(20):
            spec = SeriesSpec(
                (random_complex(rng), random_complex(rng)),
                (complex(rng.uniform(0.5, 3.0), rng.uniform(-1, 1)),),
                rng.uniform(-0.8, 0.8),
            )
            r = sum_pfq(spec, policy)
            if r.status is SumStatus.CONVERGED:
                assert r.tail_estimate <= tol * max(1.0, abs(r.value))


def _sweep_value(rng: random.Random, real: bool) -> complex:
    """A parameter or argument: generic, exactly or nearly a non-positive
    integer (truncation or a lower pole), or large."""
    kind = rng.random()
    if kind < 0.2:
        x = -rng.randint(0, 8) + rng.choice((0.0, 0.0, 3e-11, -3e-11))
    elif kind < 0.3:
        x = rng.uniform(-40.0, 40.0)
    else:
        x = rng.uniform(-3.0, 3.0)
    return complex(x, 0.0 if real or kind < 0.2 else rng.uniform(-2.0, 2.0))


def _sweep_spec(rng: random.Random, q_range: tuple[int, int] = (0, 3)) -> SeriesSpec:
    real = rng.random() < 0.5
    q = rng.randint(*q_range)
    p = rng.randint(0, q + 1)
    upper = [_sweep_value(rng, real) for _ in range(p)]
    lower = [_sweep_value(rng, real) for _ in range(q)]
    if p == q + 1:
        # |z| <= 0.99, or z = 1 (the unit route sends truncating series here)
        angle = 0.0 if real else rng.uniform(-math.pi, math.pi)
        z = (1.0 if rng.random() < 0.1
             else rng.uniform(-0.99, 0.99) * cmath.exp(1j * angle))
    else:
        # entire series: large |z| also reaches binary64 overflow
        z = complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.5),
                    0.0 if real else rng.uniform(-30.0, 30.0))
    return SeriesSpec(upper, lower, z)


def _sweep_outcome(spec: SeriesSpec, policy: SumPolicy) -> tuple[str, str]:
    """(status or exception name, full repr or message) of one sum_pfq call."""
    try:
        result = sum_pfq(spec, policy)
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)
    return result.status.name, repr(result)


def test_direct_sum_matches_reference(monkeypatch):
    """The one-loop float/complex direct sum against the term-list complex
    reference: repr-equal results, or the same exception and message."""
    rng = random.Random(0xD1EC7)
    cases, seen = [], set()
    while len(cases) < 2400:
        policy = SumPolicy(tolerance=10.0 ** rng.uniform(-15.0, -3.0),
                           max_terms=rng.choice((10, 25, 100, 30_000)))
        try:
            cases.append((_sweep_spec(rng), policy))
        except PoleError:
            seen.add("PoleError")
    got = [_sweep_outcome(spec, policy) for spec, policy in cases]
    monkeypatch.setattr(series, "_direct_sum", reference_direct_sum)
    for (spec, policy), outcome in zip(cases, got):
        assert outcome == _sweep_outcome(spec, policy), (spec, policy)
        seen.add(outcome[0])
    expected = {status.name for status in SumStatus} | {"PoleError", "RangeError"}
    assert expected <= seen, seen


def test_direct_sum_wide_shapes_match_reference(monkeypatch):
    """The draw above at q = 4..12, where parameters past the fourth of a
    side are stepped by the compiled loop's for loop, not unrolled."""
    rng = random.Random(0x51DE)
    cases, shapes = [], set()
    while len(cases) < 300:
        policy = SumPolicy(tolerance=10.0 ** rng.uniform(-15.0, -3.0),
                           max_terms=rng.choice((10, 25, 100, 30_000)))
        try:
            spec = _sweep_spec(rng, (4, 12))
        except PoleError:
            continue
        cases.append((spec, policy))
        shapes.add((len(spec.upper), len(spec.lower)))
    assert any(p > series._UNROLL for p, _ in shapes), shapes
    got = [_sweep_outcome(spec, policy) for spec, policy in cases]
    monkeypatch.setattr(series, "_direct_sum", reference_direct_sum)
    for (spec, policy), outcome in zip(cases, got):
        assert outcome == _sweep_outcome(spec, policy), (spec, policy)


def _outcome(summer, spec: SeriesSpec, policy: SumPolicy) -> tuple[str, str]:
    try:
        return "result", repr(summer(spec, policy))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def test_direct_sum_near_unit_2f1_matches_reference():
    """The non-terminating 2F1 draws of _sweep_spec with |1 - z| below
    series.CONNECTION_RADIUS, where sum_pfq tries the connection route
    first, and fixed ones whose c - a - b is an integer, where it tries
    the logarithmic formulas: fed straight to series._direct_sum, the loop
    that stays their fallback, they match the term-list reference."""
    rng = random.Random(0x2F1)
    cases = [
        (SeriesSpec((1, 1), (2,), 0.999), SumPolicy(tolerance=1e-10)),
        (SeriesSpec((1, 1), (3,), 0.99), SumPolicy(1e-13, 1000)),
        (SeriesSpec((0.5, 0.5), (1,), 0.95 + 0.01j), SumPolicy(1e-8)),
        (SeriesSpec((2.25, -0.75 + 0.5j), (-0.5 + 0.5j,), 0.99), SumPolicy(1e-12)),
        (SeriesSpec((2, 0.3), (0.3,), 0.999), SumPolicy(1e-6, 100)),
    ]
    while len(cases) < 45:
        policy = SumPolicy(tolerance=10.0 ** rng.uniform(-15.0, -3.0),
                           max_terms=rng.choice((10, 25, 100, 30_000)))
        try:
            spec = _sweep_spec(rng, (1, 1))
        except PoleError:
            continue
        if (len(spec.upper) == 2 and spec.truncation_degree() is None
                and abs(spec.argument) < 1.0
                and abs(1.0 - spec.argument) < series.CONNECTION_RADIUS):
            cases.append((spec, policy))
    for spec, policy in cases:
        assert (_outcome(series._direct_sum, spec, policy)
                == _outcome(reference_direct_sum, spec, policy)), (spec, policy)


@pytest.mark.parametrize("spec, expected", [
    # 3,000 parameters a side: a loop unrolled in full would not compile
    (SeriesSpec((-2.0,) + (0.5,) * 2999, (1.5,) * 3000, 0.5),
     "RangeError('term 1: denominator at the binary64 limit')"),
    # (1e-5)^63 in the subnormal range: the sum keeps its bits (see the
    # FOUND line on it in CHANGES.md)
    (SeriesSpec((1e-5,) * 63, (1e-5,) * 62 + (3e-5,), 0.5),
     "SumResult(value=(1.2162393447053055+0j), terms_used=15, "
     "tail_estimate=2.420009503471829e-16, status=<SumStatus.CONVERGED: 'Converged'>)"),
    # abs() of a finite complex term beyond binary64 raises OverflowError,
    # which becomes RangeError; a polynomial's last term and a total that is
    # not finite come first
    (SeriesSpec((), (), 1.7e308 + 1.7e308j),
     "RangeError('term 1: modulus beyond binary64')"),
    (SeriesSpec((-1,), (1,), -1.5e308 - 1.5e308j),
     "SumResult(value=(1.5e+308+1.5e+308j), terms_used=2, tail_estimate=0.0, "
     "status=<SumStatus.TRUNCATED: 'Truncated'>)"),
    (SeriesSpec((-3, 3.714e307) + (-1 + 2.0 ** -52,) * 19 + (-1 + 2.0 ** -34,),
                (-0.75,), 0.7 * cmath.exp(1.2j)),
     "RangeError('series accumulation overflowed binary64')"),
    # a denominator product that overflows before its last factor: the
    # complex kind's term is NaN, not 0, and the denominator is named
    # before the total, as it is when the numerator overflows too
    (SeriesSpec((0.5 + 1j, 0.5 + 1j), (1e200,) * 3, 0.5),
     "RangeError('term 1: denominator at the binary64 limit')"),
    (SeriesSpec((1e200, 1e200), (1e200,) * 3, 0.5),
     "RangeError('term 1: denominator at the binary64 limit')"),
], ids=["3000-parameters", "63F62-subnormal", "abs-overflow-term",
        "abs-overflow-last-term", "abs-overflow-total", "complex-denominator-limit",
        "numerator-and-denominator-limit"])
def test_direct_sum_fixed_outcomes(spec, expected):
    try:
        outcome = repr(sum_pfq(spec))
    except RangeError as exc:
        outcome = repr(exc)
    assert outcome == expected


def _code_numbers(consts) -> set:
    """Every int, float and complex number among a code object's
    constants, in the tuples among them and in the code objects nested in
    them."""
    numbers = set()
    for c in consts:
        if hasattr(c, "co_consts"):
            numbers |= _code_numbers(c.co_consts)
        elif isinstance(c, tuple):
            numbers |= _code_numbers(c)
        elif isinstance(c, (int, float, complex)) and not isinstance(c, bool):
            numbers.add(c)
    return numbers


def test_direct_sum_compiles_one_loop_per_shape():
    """Every spec of one shape (p, q, kind) runs one compiled loop, whose
    code holds no parameter value, argument or tolerance: the shape alone
    makes the code, and the values are arguments.  A real, a pair and a
    complex spec of one (p, q) run three loops, built by the one cached
    builder that also builds the z = 1 heads.

    The float loops keep the bits of the complex one (see the sweeps
    against it) by doing its float operations in its order.  The complex
    loop forms num as (1.0 + 0.0j) * (a0 + n) * (a1 + n) and den as
    (n + 1) * (b0 + n), the first _UNROLL parameters of a side as
    straight-line products and any further ones by a for loop.  Both
    loops step the int n, for control and messages, and the float x = n;
    a float loop's factors (a0 + x) * (a1 + x) and (x + 1.0) * (b0 + x)
    add two floats, which CPython specializes, not a float and an int:
    float + int converts the int exactly, and x stays exact below 2^53
    terms.  A real loop drops the leading 1.0, since 1.0 * v is v for
    every float; the complex loop keeps it, since there it sets the signs
    of zero parts.  A pair loop takes x and y * y for a0 and a1 and forms
    xk = a0 + x and xk * xk + a1.

    The complex kind adds the int n, and (n + 1) is an int: CPython's
    complex + and * (3.10-3.13) turn an int or float operand into the
    complex number with that real part and a +0.0 imaginary part, so
    1.0 * v, (1.0 + 0.0j) * v and v + n, v + float(n) have the same bits,
    as do (n + 1) * v and ((n + 1.0) + 0j) * v.  The spelling is the one
    that measured fastest: (1.0 + 0.0j), not 1.0, stands left of the
    complex factors, so no float method is tried first, and (n + 1)
    spares the two additions of the head's former ((x + 1.0) + 0j)."""
    specs = [SeriesSpec((0.123456789, -0.987654321 + 0.5j), (2.718281828e-3,), 0.31830988),
             SeriesSpec((0.4, 0.6), (1.7,), 0.25),
             SeriesSpec((0.4, 0.6 + 2j), (1.7,), 0.25 - 0.1j),
             SeriesSpec((0.3, 0.7), (1.9,), -0.125),
             SeriesSpec((0.5 + 1.25j, 0.5 - 1.25j), (1.7,), 0.375),
             SeriesSpec((-0.25 + 3j, -0.25 - 3j), (2.5,), -0.5)]
    series._term_loop.cache_clear()
    for spec in specs:
        series._direct_sum(spec, SumPolicy(tolerance=7.25e-12))
    info = series._term_loop.cache_info()
    assert (info.misses, info.hits, info.currsize) == (3, 3, 3)
    sum_pfq(SeriesSpec((0.4, 0.6), (2.7,), 1.0))
    assert series._term_loop.cache_info().currsize == 4
    for kind in ("real", "pair", "complex"):
        loop = series._term_loop(series._LOOP, 2, 1, kind)
        assert loop.__code__.co_filename == series.__file__
        names = loop.__code__.co_varnames
        lines = series._term_lines(2, 1, kind)
        assert ("(b0 + x)" in lines["den"], "xk" in names) == (kind != "complex",
                                                              kind == "pair")
        numbers = _code_numbers(loop.__code__.co_consts)
        # the loop's own constants: term indices, 1.0, 2.0 * den and the 0.99 cap
        assert numbers <= {0, 1, 2, 0.99}, numbers


def _complex_direct_sum(spec: SeriesSpec, policy: SumPolicy) -> SumResult:
    """spec summed by the complex direct loop, whatever its kind."""
    upper, lower = spec.upper, spec.lower
    last = policy.max_terms - 1
    trunc = spec.truncation_degree()
    stop, trunc = (last, -1) if trunc is None else (min(trunc, last), trunc)
    loop = series._term_loop(series._LOOP, len(upper), len(lower), "complex")
    return loop(*upper[:series._UNROLL], upper[series._UNROLL:],
                *lower[:series._UNROLL], lower[series._UNROLL:], spec.argument,
                policy.tolerance, stop, trunc)


def _pair_direct_spec(rng: random.Random, behind: bool) -> SeriesSpec:
    """A seeded pFq, p = 2..4, with a conjugate pair x +- iy leading the
    upper row or, for behind, at upper[1:3] behind a real one; the other
    upper parameters real, now and then a non-positive integer that
    truncates the series, the lower ones real, z real.  A p = q+1 series
    that does not terminate has z in (-1, 1); an entire one, p <= q, and
    a polynomial take |z| up to 10^3.5 as well.  x comes as +-0.0 now and
    then, with the other sign in the conjugate."""
    p = rng.randint(3 if behind else 2, 4)
    q = rng.choice((p - 1, p, p + 1))
    x = rng.choice((0.0, rng.uniform(-3.0, 3.0)))
    y = rng.choice((0.1, 1.0, 8.0)) * rng.uniform(0.01, 2.0) * rng.choice((1.0, -1.0))
    pair = [complex(x, y), complex(-x if x == 0.0 else x, -y)]
    rest = [complex(rng.uniform(-3.0, 3.0)) for _ in range(p - 2)]
    if rest and rng.random() < 0.3:
        rest[rng.randrange(len(rest))] = complex(-rng.randint(0, 12))
    upper = rest[:1] + pair + rest[1:] if behind else pair + rest
    lower = [complex(rng.uniform(-3.0, 3.0)) for _ in range(q)]
    imag = rng.choice((0.0, -0.0))
    if p > q and not any(a.imag == 0.0 and a.real <= 0 and a.real.is_integer()
                         for a in upper):
        z = complex(rng.uniform(-1.0, 1.0), imag)
    else:
        z = complex(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 3.5), imag)
    return SeriesSpec(upper, lower, z)


def test_pair_direct_sums_keep_complex_bits():
    """A direct sum led by a conjugate pair runs in floats with the bits of
    the complex loop: repr-equal results, or the same exception and
    message, against the complex direct loop on the same spec, for
    seeded pairs and fixed inputs that underflow, overflow and reach the
    denominator checks.  A pair behind a real parameter stays complex, and
    so its sums match trivially; were the float rule widened to such a
    pair, these draws would not match.  All 20 z = 1/2 sums of the
    registry, and the golden eval-complex-half spec, take the pair loop."""
    rng = random.Random(0x9A1D)
    cases = []
    while len(cases) < 2400:
        behind = rng.random() < 0.25
        try:
            spec = _pair_direct_spec(rng, behind)
        except PoleError:
            continue
        assert series._loop_parameters(spec)[0] == ("complex" if behind else "pair")
        policy = SumPolicy(10.0 ** rng.uniform(-15.0, -6.0), rng.choice((10, 25, 10**6)))
        cases.append((spec, policy))
    big, pair = 1e200, (0.5 + 1j, 0.5 - 1j)
    for upper, lower, z in [(pair, (1e300,), 0.5),                # terms underflow to 0
                            (pair, (1e-8, 1e-8), 1e300),          # term 1 overflows
                            ((big + big * 1j, big - big * 1j), (1.0,), 0.5),  # x y overflows
                            ((1e154 + 1j, 1e154 - 1j), (1.0,), -0.999),  # x x, term 2
                            ((1.7e308j, -1.7e308j), (1.7e308, 1.0), 0.5),  # y y
                            (pair, (1.7e308,), 0.5),              # den at the limit
                            (pair + (-1.0,), (1.7e308, 1.0), -0.5),
                            (pair + (-2.0,), (1e154, 1e154), 0.5),
                            (pair, (1e-5,) * 70, 0.5)]:           # den underflows to 0
        cases.append((SeriesSpec(upper, lower, z), SumPolicy()))
    seen = set()
    for spec, policy in cases:
        got = _outcome(series._direct_sum, spec, policy)
        assert got == _outcome(_complex_direct_sum, spec, policy), (spec, policy)
        seen.add(got[0] if got[0] != "result" else got[1].split("'")[-2])
    assert {"RangeError", "Converged", "Truncated", "MaxTermsExceeded"} <= seen, seen
    # A denominator product that overflows before its last factor names
    # the denominator in every kind: the complex loop's imaginary part
    # turns inf * 0 = NaN, so its term is NaN where a float loop's is 0,
    # and the denominator is tested before the total.
    spec = SeriesSpec(pair, (big, big, big), 0.5)
    assert (_outcome(series._direct_sum, spec, SumPolicy())
            == _outcome(series._direct_sum, spec._replace(upper=(0.5, 0.7)), SumPolicy())
            == ("RangeError", "term 1: denominator at the binary64 limit"))
    assert _outcome(_complex_direct_sum, spec, SumPolicy()) == (
        "RangeError", "term 1: denominator at the binary64 limit")

    kinds = []
    loop = series._term_loop

    def recorded(template, p, q, kind):
        if template is series._LOOP:
            kinds.append(kind)
        return loop(template, p, q, kind)

    specs = []
    direct = series._direct_sum

    def recorded_sum(spec, policy):
        specs.append(spec)
        return direct(spec, policy)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_term_loop", recorded)
        patch.setattr(series, "_direct_sum", recorded_sum)
        for case in registry():
            verify(case)
        sum_pfq(SeriesSpec((0.5 + 1j, 0.5 - 1j), (1.5,), 0.5))
    half = [kind for spec, kind in zip(specs, kinds) if spec.argument == 0.5]
    assert half == ["pair"] * 21


@pytest.mark.parametrize("upper, lower, z", [
    ((), (1e200, 1e200, 1e200), 0.5),           # term 1's denominator overflows
    ((-2,), (-2.7, 6e307, -0.9), 0.5),          # ... that of the last term
    ((-1,), (1e200, 1e200, 1e200), 0.5),        # ... that of the last term, 1
    ((-1,), (1e-5,) * 70, 0.5),                 # ... the same, underflowing to 0
    ((), (1e-5,) * 70, 0.5),                    # the denominator underflows to 0
    ((1.7e308,), (1.7e308,), 0.5),              # e^(1/2), term 2's denominator
    ((1e308 + 1j,), (1e308,), 0.5 + 0.1j),      # ... the same in complex
    # e^z with a finite denominator whose complex division overflows
    ((3.3e307 - 2.3e307j,), (3.3e307 - 2.3e307j,), 0.39 + 0.36j),
])
def test_direct_sum_beyond_float_range_raises(upper, lower, z):
    """A denominator product out of the binary64 range makes the terms after
    it 0 or NaN, real or complex: the sum is refused, never returned."""
    with pytest.raises(RangeError, match="term"):
        sum_pfq(SeriesSpec(upper, lower, z))


@pytest.mark.parametrize("upper, lower, z, policy, status", [
    # the term ratio is above 0.99 and is capped
    ((1.5,), (), 0.99, SumPolicy(tolerance=1e-10), "CONVERGED"),
    # -ln(1-z)/z: 4,291 small terms; max_terms 14,000 stops among them
    ((1, 1), (2,), 0.999, SumPolicy(tolerance=1e-10), "CONVERGED"),
    ((1, 1), (2,), 0.999, SumPolicy(1e-10, 14_000), "MAX_TERMS_EXCEEDED"),
    # term 1 underflows to 0, so the streak check meets a previous term of 0
    ((0.1,), (1,), 5e-324, SumPolicy(), "CONVERGED"),
    ((0.1 + 0.2j,), (1,), 5e-324, SumPolicy(), "CONVERGED"),
    ((0.5 + I, 0.5 - I), (1.5,), 0.999, SumPolicy(), "CONVERGED"),
    ((0.5 + I, 0.5 - I), (1.5,), 0.999, SumPolicy(max_terms=12_000),
     "MAX_TERMS_EXCEEDED"),
])
def test_direct_sum_small_terms_match_reference(upper, lower, z, policy, status):
    """The run of small terms, where the tail at the observed ratio is
    worked out on every term, against the term-list reference."""
    spec = SeriesSpec(upper, lower, z)
    result = series._direct_sum(spec, policy)
    assert result.status is SumStatus[status]
    assert repr(result) == repr(reference_direct_sum(spec, policy))


@pytest.mark.parametrize("upper, lower, z, value, terms", [
    # the denominator after the last term overflows, or underflows to 0
    ((0,), (1e200, 1e200, 1e200), 0.5, 1.0, 1),
    ((0,), (1e-5,) * 70, 0.5, 1.0, 1),
    # z times the last term overflows
    ((-1,), (1.0,), 1e160, -1e160, 2),
])
def test_polynomial_ends_at_its_last_term(upper, lower, z, value, terms):
    """A polynomial returns at its last term: the term after it, zero by
    construction, is never formed, so a denominator or product out of the
    binary64 range past the last term does not refuse the sum."""
    expected = SumResult(complex(value), terms, 0.0, SumStatus.TRUNCATED)
    assert repr(sum_pfq(SeriesSpec(upper, lower, z))) == repr(expected)


def test_direct_sum_accumulation_overflow_raises():
    """1F1(-1 + 1e-12; 1; 1e160) does not terminate: its partial sums leave
    the binary64 range and the sum is refused."""
    with pytest.raises(RangeError, match="overflowed binary64"):
        sum_pfq(SeriesSpec((-1 + 1e-12,), (1.0,), 1e160))


def _edge_case(rng: random.Random) -> tuple[SeriesSpec, complex, float]:
    """(spec, closed form, sum of |terms|) of e^x = 1F1(a; a; x) =
    2F2(a, 3/2; a, 3/2; x) or cosh x = 1F2(a; a, 1/2; x^2/4), with a huge a,
    real or complex, whose Pochhammer products reach the binary64 limit."""
    a = 10.0 ** rng.uniform(300.0, 308.2)
    if rng.random() < 0.5:
        a = complex(a, a * rng.uniform(-1.0, 1.0))
    x = complex(rng.uniform(-3.0, 3.0), rng.choice((0.0, rng.uniform(-3.0, 3.0))))
    kind = rng.randrange(3)
    if kind == 0:
        return SeriesSpec((a,), (a,), x), cmath.exp(x), math.exp(abs(x))
    if kind == 1:
        return SeriesSpec((a, 1.5), (a, 1.5), x), cmath.exp(x), math.exp(abs(x))
    return SeriesSpec((a,), (a, 0.5), x * x / 4), cmath.cosh(x), math.cosh(abs(x))


def test_direct_sum_edge_of_float_range_against_closed_forms():
    """Near the top of the binary64 range a sum is either refused with
    RangeError or within 4 tails of its closed form.  The rounding of the
    terms, which the tail does not count yet, is allowed for separately as
    8 eps sum|t_k|; a sum past a spurious 0 term is off by more, by up to
    82% on this sample."""
    rng = random.Random(0xED6E)
    refused = 0
    for _ in range(450):
        spec, exact, abs_sum = _edge_case(rng)
        try:
            r = sum_pfq(spec)
        except RangeError:
            refused += 1
            continue
        assert r.status is SumStatus.CONVERGED
        err = abs(r.value - exact)
        assert err <= 4 * r.tail_estimate + 8 * 2.0 ** -52 * abs_sum, (spec, r, exact)
    assert refused >= 20


def test_direct_sum_stores_no_terms():
    # 50,000 terms of -ln(1 - z)/z: a stored list of complex terms alone
    # takes 2 MB.  The loop is called itself, since sum_pfq may take the
    # 1 - z connection route at this z
    spec = SeriesSpec((1, 1), (2,), 0.9999999)
    policy = SumPolicy(tolerance=1e-12, max_terms=50_000)
    tracemalloc.start()
    try:
        result = series._direct_sum(spec, policy)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.status is SumStatus.MAX_TERMS_EXCEEDED
    assert peak < 1_000_000


# ----------------------------------------------------------------------
# unit argument
# ----------------------------------------------------------------------

def test_unit_gauss_value_accelerated():
    r = sum_pfq_unit(SeriesSpec((I, -I), (0.5,), 1.0), SumPolicy(tolerance=1e-6))
    assert r.status is SumStatus.CONVERGED
    assert rel_err(r.value.real, COSH_PI) <= 1e-6
    assert r.tail_estimate <= 1e-6 * max(1.0, abs(r.value))


def test_unit_divergent_without_summing():
    # convergence parameter s = (3/2 - 5/2) - (1 - 3/2) = -1/2
    r = sum_pfq_unit(SeriesSpec((0.5 + I, 0.5 - I, -1.5), (1.5, -2.5), 1.0))
    assert r.status is SumStatus.DIVERGENT
    assert r.terms_used == 0


def test_unit_truncated():
    r = sum_pfq_unit(SeriesSpec((0, 1.7), (0.5,), 1.0))
    assert r.status is SumStatus.TRUNCATED
    assert r.value == 1.0 + 0.0j


def test_unit_non_finite_term_is_range_error():
    # 2F1(1e154, 1e154; 3e154; 1): term 2 overflows binary64
    with pytest.raises(RangeError, match="term 2: "):
        sum_pfq_unit(SeriesSpec((1e154, 1e154), (3e154,), 1.0))


def test_unit_denominator_underflow_is_range_error():
    # 43F42(1e-8, ...; 1e-8, ..., 3; 1): the lower Pochhammer
    # product (1e-8)^41 * 3 underflows to 0 at the first term
    spec = SeriesSpec((1e-8,) * 43, (1e-8,) * 41 + (3.0,), 1.0)
    with pytest.raises(RangeError, match="term 1: denominator underflowed to 0"):
        sum_pfq_unit(spec)


def test_unit_term_underflow_ends_sum():
    # 2F1(1, 1; 1e300; 1) = 1 + 1e-300 + ...: term 2 underflows to 0 and
    # the term ratio (n+1)^2 / ((1e300+n)(n+1)) stays below 1 from there on
    spec = SeriesSpec((1, 1), (1e300,), 1)
    assert series._terms_stay_below(spec, 2)
    r = sum_pfq(spec)
    assert r.value == 1.0 + 0.0j
    assert r.terms_used == 3
    assert r.status is SumStatus.CONVERGED
    assert 1e-300 <= r.tail_estimate <= 1e-15


def test_unit_growth_check_finds_growing_terms():
    # 3F2(-0.999, 10, 10; 19, 1/2; 1): t_{k+1} / t_k - 1 has the sign of
    # -1.5 k^2 + 51 k - 109.4 (about), so the terms shrink up to k = 2,
    # grow from k = 3 to 31 and shrink for good from k = 32; a zero term
    # before k = 32 is refused, not taken as the end of the sum
    spec = SeriesSpec((-0.999, 10, 10), (19, 0.5), 1)
    assert not any(series._terms_stay_below(spec, n) for n in (1, 2, 20, 31))
    assert all(series._terms_stay_below(spec, n) for n in (32, 40, 1000))


def test_unit_capped_head_adds_asymptotic_tail():
    # 2F1(10, 10; 20.5; 1) = Gamma(20.5) Gamma(1/2) / Gamma(10.5)^2: the
    # terms grow until n ~ 53, and max_terms = 50 caps N = 164 at 49
    r = sum_pfq(SeriesSpec((10, 10), (20.5,), 1), SumPolicy(max_terms=50))
    assert r.status is SumStatus.MAX_TERMS_EXCEEDED
    assert r.terms_used == 50
    assert math.isfinite(r.tail_estimate)
    t = head = Fraction(1)
    for n in range(48):
        t *= Fraction(10 + n) ** 2 / ((Fraction(41, 2) + n) * (n + 1))
        head += t
    exact, k = _gauss_parts(Fraction(10), Fraction(10), Fraction(41, 2))
    assert k == 0
    # the head alone is 93% short; head plus tail is within 9%
    assert float(head) < 0.1 * float(exact)
    assert abs(r.value.real - float(exact)) <= 0.1 * float(exact)


@pytest.mark.parametrize("c", [20.5, 50, 300, 1e4, 1e5])
def test_unit_large_lower_parameter(c):
    """2F1(1, 1; c; 1) = (c-1)/(c-2): N = 8c reaches 8e5 terms, but the
    terms of large c underflow to 0 long before and end the sum."""
    start = time.perf_counter()
    r = sum_pfq(SeriesSpec((1, 1), (c,), 1))
    elapsed = time.perf_counter() - start
    exact = (Fraction(c) - 1) / (Fraction(c) - 2)
    err = abs(Fraction(r.value.real) - exact)
    assert r.status is SumStatus.CONVERGED
    assert r.value.imag == 0.0
    assert err <= 1e-15 and err <= r.tail_estimate
    assert elapsed < 0.05


def _half_gamma(x: Fraction) -> tuple[Fraction, int]:
    """Gamma(x) = r sqrt(pi)^k for x in Z/2 off the poles, as (r, k), from
    Gamma(n + 1/2) = (2n)! sqrt(pi) / (4^n n!) and its reflection."""
    if x.denominator == 1:
        return Fraction(math.factorial(int(x) - 1)), 0
    n = math.floor(x)
    if n >= 0:
        return Fraction(math.factorial(2 * n), 4 ** n * math.factorial(n)), 1
    return Fraction((-4) ** -n * math.factorial(-n), math.factorial(-2 * n)), 1


def _gauss_parts(a: Fraction, b: Fraction, c: Fraction) -> tuple[Fraction, int]:
    """Gauss's 2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b))
    at parameters in Z/2 as (r, k), the value being r sqrt(pi)^k; 0 when
    c-a or c-b is a pole."""
    if any(x.denominator == 1 and x <= 0 for x in (c - a, c - b)):
        return Fraction(0), 0
    (r1, k1), (r2, k2), (r3, k3), (r4, k4) = map(_half_gamma, (c, c - a - b, c - a, c - b))
    return r1 * r2 / (r3 * r4), k1 + k2 - k3 - k4


SQRT_PI = Decimal("1.7724538509055160272981674833411451827975494561223871")


def test_unit_exact_gauss_values():
    """Every 2F1(a, b; c; 1) with a <= b and c in {-3, -5/2, ..., 3}, none of
    them a non-positive integer, and s = c-a-b > 0 (155 series) against
    Gauss's value, a rational times sqrt(pi)^k: Converged at 1e-12 and
    within its tail."""
    grid = [Fraction(k, 2) for k in range(-6, 7) if k > 0 or k % 2]
    checked = 0
    with localcontext() as ctx:
        ctx.prec = 50
        for a, b, c in itertools.product(grid, grid, grid):
            if a > b or c - a - b <= 0:
                continue
            r = sum_pfq(SeriesSpec((float(a), float(b)), (float(c),), 1),
                        SumPolicy(tolerance=1e-12))
            rational, k = _gauss_parts(a, b, c)
            exact = (Decimal(rational.numerator) / Decimal(rational.denominator)
                     * SQRT_PI ** k)
            assert r.status is SumStatus.CONVERGED, (a, b, c, r)
            assert r.value.imag == 0.0
            assert abs(Decimal(r.value.real) - exact) <= r.tail_estimate, (a, b, c, r)
            checked += 1
    assert checked == 155


def test_unit_complex_parameters_against_closed_forms():
    """Seeded 2F1(a, b; c; 1) and 3F2(a, b, d+1; c+1, d; 1) with complex
    a, b, c, d and s in [1/2, 5/2], against gauss_unit and gauss_ext_unit,
    which are good to about 1e-12: every sum is within its tail plus
    1e-12 |closed|, and at least 97 of the 100 are Converged at 1e-12.
    The tail estimate's last two terms of the expansion overstate the
    error about a hundredfold, so a few sums end MaxTermsExceeded."""
    rng = random.Random(0x6A55)
    converged = 0
    for _ in range(50):
        a = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
        b = complex(rng.uniform(-1, 1), rng.uniform(-2, 2))
        c = complex((a + b).real + rng.uniform(0.5, 2.5), rng.uniform(-2, 2))
        d = complex(rng.choice((-1, 1)) * rng.uniform(0.5, 3), rng.uniform(-1, 1))
        for spec, closed in ((SeriesSpec((a, b), (c,), 1), gauss_unit(a, b, c)),
                             (SeriesSpec((a, b, d + 1), (c + 1, d), 1),
                              gauss_ext_unit(a, b, c, d))):
            r = sum_pfq(spec, SumPolicy(tolerance=1e-12))
            assert abs(r.value - closed) <= r.tail_estimate + 1e-12 * abs(closed), (spec, r)
            converged += r.status is SumStatus.CONVERGED
    assert converged >= 97


def _real_power_sums(upper, lower) -> bool:
    """True when every P_m the asymptotic tail reads is real: its float path."""
    return not any((reduce(add, (a ** m for a in upper), 0)
                    - reduce(add, (b ** m for b in lower + (1.0,)), 0)).imag
                   for m in range(1, series._ORDERS + 3))


def _tail_draw(rng: random.Random):
    """upper, lower, n, t of a seeded 2F1 or 3F2 tail at s in (0.05, 3) or
    (0.05, 20): a conjugate pair in one row or split over both, one complex
    parameter, or all real, in any position; real or complex t.  n = 9, the
    head of a sum capped at max_terms 10, and a large s give Euler-Maclaurin
    terms large enough that a change in their last bits can show."""
    q = rng.choice((1, 2))
    rows = ([complex(rng.uniform(-3.0, 3.0)) for _ in range(q + 1)],
            [complex(rng.uniform(-3.0, 3.0)) for _ in range(q)])
    slots = [(r, i) for r, row in enumerate(rows) for i in range(len(row))]
    rng.shuffle(slots)
    kind = rng.random()
    if kind < 0.45:             # a conjugate pair in one row
        r = 0 if q == 1 or rng.random() < 0.5 else 1
        pair = [slot for slot in slots if slot[0] == r][:2]
    elif kind < 0.6:            # a conjugate pair split over the two rows
        pair = [next(slot for slot in slots if slot[0] == r) for r in (0, 1)]
    elif kind < 0.8:            # one complex parameter
        pair = slots[:1]
    else:                       # all real
        pair = []
    x = rng.uniform(-3.0, 3.0)
    y = rng.choice((0.1, 1.0, 8.0)) * rng.uniform(-2.0, 2.0)
    for (r, i), sign in zip(pair, (1.0, -1.0)):
        rows[r][i] = complex(x, sign * y)
    r, i = next(slot for slot in slots if slot not in pair)
    s = rng.uniform(0.05, rng.choice((3.0, 20.0)))
    shift = s - (sum(rows[1]) - sum(rows[0])).real
    rows[r][i] += shift if r else -shift
    t = complex(rng.uniform(-1.0, 1.0), rng.choice((0.0, rng.uniform(-1.0, 1.0))))
    return tuple(rows[0]), tuple(rows[1]), rng.choice((9, 24, 40, 164, 1000)), t


def _edge_parameter(rng: random.Random) -> complex:
    """A seeded parameter at an edge of the power sums: a signed-zero part,
    a real negative, or a modulus in [1e21, 3e23), where a ** 14 overflows
    from about 1e22 on."""
    kind = rng.random()
    x, y = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
    if kind < 0.25:             # a signed-zero part
        return rng.choice((complex(x, rng.choice((0.0, -0.0))),
                           complex(rng.choice((0.0, -0.0)), y)))
    if kind < 0.45:             # a real negative, either sign of zero
        return complex(-abs(x) - 0.5, rng.choice((0.0, -0.0)))
    size = 10.0 ** rng.uniform(21.0, 23.5)
    angle = rng.choice((0.0, math.pi / 2, math.pi, rng.uniform(-math.pi, math.pi)))
    return cmath.rect(size, angle)


def _edge_row(rng: random.Random, count: int) -> tuple:
    """count seeded parameters, each an edge parameter or an ordinary one."""
    return tuple(_edge_parameter(rng) if rng.random() < 0.5
                 else complex(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
                 for _ in range(count))


def test_power_sums_match_complex_power():
    """_power_sums(params)[m - 1] is repr-equal to the left fold from 0 of
    a ** m for m = 1..K+2, on seeded rows with signed-zero parts, real
    negatives, huge moduli and the float 1.0 that the tail appends to the
    lower row.  Where some a ** m overflows, a sum is not finite and the
    tail is (0.0, inf), as the OverflowError made it."""
    rng = random.Random(0x90E5)
    overflowed = 0
    for _ in range(3000):
        params = _edge_row(rng, rng.randint(1, 4))
        if rng.random() < 0.5:
            params += (1.0,)
        got = series._power_sums(params)
        try:
            want = [reduce(add, (a ** m for a in params), 0)
                    for m in range(1, series._ORDERS + 3)]
        except OverflowError:
            overflowed += 1
            assert not all(map(cmath.isfinite, got)), params
            assert series._asymptotic_tail(params, (), 40, 1.0 + 0j) == (0.0, math.inf)
            continue
        assert repr(got) == repr(want), params
    assert 300 <= overflowed <= 2700, overflowed


def test_tail_kernel_division_by_zero_gives_an_infinite_estimate():
    """2F1(1/2, 1/2; 1 + 2^-52; 1): P_1 = 1/2 + 1/2 - (1 + 2^-52) - 1
    folds to exactly -1.0, so sigma - 1 = -P_1 - 1 is 0.0 at m = 0 and the
    real tail kernel divides by zero.  _asymptotic_tail answers (0, inf),
    and the sum is the head alone as MaxTermsExceeded: the true value is
    about 1.4e15, since s = 2^-52 makes the tail all but the whole sum."""
    spec = SeriesSpec((0.5, 0.5), (1.0000000000000002,), 1.0)
    powers = [up - low for up, low in zip(series._power_sums(spec.upper),
                                          series._power_sums(spec.lower + (1.0,)))]
    assert powers[0] == -1.0 and not any(p.imag for p in powers)
    with pytest.raises(ZeroDivisionError):
        series._tail_kernel("real")(*[p.real for p in powers], 40.0, 1.0 + 0j)
    assert series._asymptotic_tail(spec.upper, spec.lower, 40, 1.0 + 0j) == (0.0, math.inf)
    result = sum_pfq(spec)
    assert repr(result.value) == "(2.2384985126251054+0j)"
    assert (result.terms_used, result.tail_estimate, result.status) == (
        41, math.inf, SumStatus.MAX_TERMS_EXCEEDED)


def test_asymptotic_tail_matches_complex_reference():
    """The tail in floats, when the power sums are real, has the bits of the
    complex reference; so has the complex path, also for parameters with
    signed-zero parts, real negatives and moduli where a ** m overflows."""
    rng = random.Random(0x7A11)
    real = 0
    for _ in range(2000):
        upper, lower, n, t = _tail_draw(rng)
        got = series._asymptotic_tail(upper, lower, n, t)
        assert repr(got) == repr(reference_asymptotic_tail(upper, lower, n, t)), \
            (upper, lower, n, t)
        real += _real_power_sums(upper, lower)
    assert 2000 // 3 <= real < 2000
    rng = random.Random(0xED6E)
    finite = 0
    for _ in range(500):
        upper, lower, n, t = _tail_draw(rng)
        upper, lower = _edge_row(rng, len(upper)), _edge_row(rng, len(lower))
        got = series._asymptotic_tail(upper, lower, n, t)
        assert repr(got) == repr(reference_asymptotic_tail(upper, lower, n, t)), \
            (upper, lower, n, t)
        finite += got[1] < math.inf
    assert 50 <= finite <= 450, finite


def test_registry_tails_run_in_floats_with_reference_bits(monkeypatch):
    calls = []
    tail = series._asymptotic_tail

    def recorded(*args):
        calls.append(args)
        return tail(*args)

    monkeypatch.setattr(series, "_asymptotic_tail", recorded)
    for case in registry():
        verify(case)
    assert len(calls) == 48
    for upper, lower, n, t in calls:
        assert _real_power_sums(upper, lower)
        assert (repr(tail(upper, lower, n, t))
                == repr(reference_asymptotic_tail(upper, lower, n, t)))


def test_unit_sum_matches_reference(monkeypatch):
    """The unit-argument sum against the reference head and tail: repr-equal
    results, or the same exception and message, on 600 seeded 2F1/3F2
    series with conjugate pairs in shuffled positions (_tail_draw), each
    uncapped and with N capped by max_terms 10 and 25, and on fixed inputs
    that end at an underflow or raise RangeError."""
    rng = random.Random(0x0417)
    cases = []
    for _ in range(600):
        upper, lower, _, _ = _tail_draw(rng)
        tol = 10.0 ** rng.uniform(-15.0, -6.0)
        for max_terms in (10, 25, 10**6):
            cases.append((SeriesSpec(upper, lower, 1), SumPolicy(tol, max_terms)))
    for upper, lower in (((1, 1), (1e300,)),              # ends at an underflow
                         ((1e154, 1e154), (3e154,)),      # term 2 not finite
                         ((1e-200, 1e-200), (1,)),        # term 1 underflows
                         ((1e-8,) * 43, (1e-8,) * 41 + (3.0,))):  # den underflows
        cases.append((SeriesSpec(upper, lower, 1), SumPolicy()))
    got = [_sweep_outcome(spec, policy) for spec, policy in cases]
    monkeypatch.setattr(series, "_unit_sum", reference_unit_sum)
    seen = set()
    for (spec, policy), outcome in zip(cases, got):
        assert outcome == _sweep_outcome(spec, policy), (spec, policy)
        seen.add(outcome[0] if outcome[0] != "RangeError" else outcome[1])
    assert seen == {"CONVERGED", "MAX_TERMS_EXCEEDED", "term 2: not finite",
                    "term 1: underflowed to 0",
                    "term 1: denominator underflowed to 0"}, seen


def test_complex_head_refuses_a_last_term_beyond_binary64():
    """A complex head tests abs(t) < inf as the float heads do, so a term
    with finite parts and a modulus beyond binary64 is refused wherever it
    falls in the head.  As t_N, the last term, it used to be handed to the
    tail unrefused, and the sum came back MaxTermsExceeded with an
    infinite estimate, as the reference still does; one term later in the
    head, at max_terms 11, both refuse it."""
    spec = SeriesSpec((-3.568494257095725e17 + 3.568494257095725e17j,
                       3.568494257095561e17), (-7.9,), 1)
    assert series._loop_parameters(spec)[0] == "complex"
    refused = ("RangeError", "series accumulation overflowed binary64")
    assert _outcome(sum_pfq, spec, SumPolicy(1e-6, 10)) == refused
    assert _outcome(reference_unit_sum, spec, SumPolicy(1e-6, 10))[1].endswith(
        "terms_used=10, tail_estimate=inf, "
        "status=<SumStatus.MAX_TERMS_EXCEEDED: 'MaxTermsExceeded'>)")
    assert (_outcome(sum_pfq, spec, SumPolicy(1e-6, 11))
            == _outcome(reference_unit_sum, spec, SumPolicy(1e-6, 11)) == refused)


def _unit_heads(run) -> list:
    """Call run() and return the kind of compiled head that each _unit_sum
    call it made ran: "real" or "pair" for a float head, "complex"."""
    heads = []
    loop = series._term_loop

    def recorded(template, p, q, kind):
        if template is series._HEAD:
            heads.append(kind)
        return loop(template, p, q, kind)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_term_loop", recorded)
        run()
    return heads


def _pair_draw(rng: random.Random, where: str):
    """upper, lower of a seeded 2F1 or 3F2 at s in (0.05, 3) or (0.05, 20)
    with a conjugate pair x +- iy at upper[0:2] ("lead"), at upper[1:3]
    ("behind") or at lower[0:2] ("lower"), or all real ("real"); the other
    parameters real."""
    q = 2 if where in ("behind", "lower") else rng.choice((1, 2))
    rows = ([complex(rng.uniform(-3.0, 3.0)) for _ in range(q + 1)],
            [complex(rng.uniform(-3.0, 3.0)) for _ in range(q)])
    pair = {"lead": [(0, 0), (0, 1)], "behind": [(0, 1), (0, 2)],
            "lower": [(1, 0), (1, 1)], "real": []}[where]
    x = rng.uniform(-3.0, 3.0)
    y = rng.choice((0.1, 1.0, 8.0)) * rng.uniform(-2.0, 2.0)
    for (r, i), sign in zip(pair, (1.0, -1.0)):
        rows[r][i] = complex(x, sign * y)
    # the last real parameter takes the shift that sets s
    r, i = [(r, i) for r, row in enumerate(rows) for i in range(len(row))
            if (r, i) not in pair][-1]
    shift = rng.uniform(0.05, rng.choice((3.0, 20.0))) - (sum(rows[1]) - sum(rows[0])).real
    rows[r][i] += shift if r else -shift
    return tuple(rows[0]), tuple(rows[1])


def test_unit_sum_heads_match_reference(monkeypatch):
    """The head runs in floats exactly when every parameter is real or a
    conjugate pair leads the upper row, and in complex arithmetic for a
    pair behind a real upper parameter or among the lower ones; either way
    the result is repr-equal to the complex reference.  All 48 z = 1 sums
    of the registry take the float head.

    Each head is compiled per shape from _HEAD, with the factors of the
    direct loop of its kind (see test_direct_sum_compiles_one_loop_per_shape
    for why they keep the bits).  The float head adds the float x = n, not
    the int n, to its parameters, drops the reference's leading
    1.0 + 0.0j and + 0.0j (1.0 * v and v + 0.0 are v for every float and
    for den >= 1) and forms the pair's factor as xk * xk + a1 from
    xk = a0 + x and a1 = y * y, formed once per sum.  Every head tests
    abs(t), formed once a term, against inf for a term that is not
    finite.  rho still counts a pair's steps as complex, so the estimate
    keeps its bits too."""
    rng = random.Random(0x4EAD)
    cases, floats = [], []
    for _ in range(200):
        where = rng.choice(("lead", "behind", "lower", "real"))
        upper, lower = _pair_draw(rng, where)
        tol = 10.0 ** rng.uniform(-15.0, -6.0)
        for max_terms in (10, 25, 10**6):
            cases.append((SeriesSpec(upper, lower, 1), SumPolicy(tol, max_terms)))
            floats.append(where in ("lead", "real"))
    got = []
    heads = _unit_heads(lambda: got.extend(_sweep_outcome(*case) for case in cases))
    assert [kind != "complex" for kind in heads] == floats
    assert min(sum(floats), len(floats) - sum(floats)) >= 100
    monkeypatch.setattr(series, "_unit_sum", reference_unit_sum)
    for (spec, policy), outcome in zip(cases, got):
        assert outcome == _sweep_outcome(spec, policy), (spec, policy)
    monkeypatch.undo()
    heads = _unit_heads(lambda: [verify(case) for case in registry()])
    assert len(heads) == 48 and "complex" not in heads, heads


def test_tail_kernel_is_compiled_once_and_holds_no_value():
    """One compiled kernel per kind serves every tail, float power sums or
    complex ones, and its code holds the weights and its own constants,
    never a parameter value, t or n; the complex kernel's constants are
    complex numbers with the same real parts and +0.0 imaginary parts."""
    series._tail_kernel.cache_clear()
    calls = [((0.3 + 1.7j, 0.3 - 1.7j, -1.234567), (2.345678, 0.75), 1000, 0.0123 + 0j),
             ((0.3 + 1.7j, 0.9), (2.345678 - 0.5j,), 1000, 0.0123 - 0.0456j)]
    for upper, lower, n, t in calls + calls:
        assert series._asymptotic_tail(upper, lower, n, t)[1] < math.inf
    info = series._tail_kernel.cache_info()
    assert (info.misses, info.hits, info.currsize) == (2, 2, 2)
    rows, euler = series._tail_weights()
    own = {w for row in rows for w in row} | {x for step in euler for x in step}
    own |= set(range(series._ORDERS + 2)) | {0.5}
    # and no value of the calls above is one of those constants
    assert not own & {1000, 1.7, 0.3, 1.234567, 2.345678, 0.75, 0.9, 0.0123, 0.0456}
    for kind, number in (("real", float), ("complex", complex)):
        kernel = series._tail_kernel(kind)
        assert kernel.__code__.co_filename == series.__file__
        numbers = _code_numbers(kernel.__code__.co_consts)
        assert numbers <= own, numbers - own
        weights = {w for w in numbers if type(w) is number and w not in (0.5, 1.0)}
        assert len(weights) > 40, (kind, weights)
        if number is complex:
            assert all(repr(w.imag) == "0.0" for w in weights), weights


def test_import_compiles_no_loop_or_kernel():
    """Importing the package and its CLI compiles no tail kernel, direct-sum
    loop or z = 1 head: each is built on first use."""
    code = ("import gelfond, gelfond.cli; from gelfond import series; "
            "print(series._tail_kernel.cache_info().currsize, "
            "series._term_loop.cache_info().currsize)")
    src = str(Path(series.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, check=True).stdout
    assert out == "0 0\n"


def test_bernoulli_table_satisfies_recurrence():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1, with B_0 = 1
    b = [Fraction(p, q) for p, q in complex_gamma.BERNOULLI]
    assert b[0] == 1
    for n in range(1, len(b)):
        assert sum(math.comb(n + 1, k) * b[k] for k in range(n + 1)) == 0


def test_unit_requires_argument_one():
    with pytest.raises(ValueError):
        sum_pfq_unit(SeriesSpec((I, -I), (0.5,), 0.5))


def test_divergence_gate_property(rng):
    # sum_pfq_unit never reports Converged when s <= 0
    for _ in range(30):
        a = random_complex(rng)
        b = random_complex(rng)
        s = rng.uniform(-1.5, 0.0)
        c = complex((a + b).real + s, (a + b).imag + rng.uniform(-1, 1))
        if abs(c.imag) < 1e-6 and c.real < 0.5:
            continue
        spec = SeriesSpec((a, b), (c,), 1.0)
        if spec.truncation_degree() is not None:
            continue
        r = sum_pfq_unit(spec)
        assert r.status is SumStatus.DIVERGENT


# ----------------------------------------------------------------------
# Levin acceleration
# ----------------------------------------------------------------------

def test_levin_alternating_harmonic():
    terms = [(-1) ** k / (k + 1) for k in range(30)]
    value, estimate = levin_accelerate(terms)
    assert abs(value.real - math.log(2)) <= 1e-10
    assert abs(value.real - math.log(2)) <= max(estimate, 1e-15) * 10


def test_levin_algebraic_zeta():
    reference = zeta_reference(1.5)
    assert abs(reference - 2.612375348685488) <= 1e-12
    terms = [(k + 1) ** -1.5 for k in range(60)]
    value, _ = levin_accelerate(terms)
    assert abs(value.real - reference) <= 1e-6


def test_levin_geometric_exact():
    value, _ = levin_accelerate([0.5**k for k in range(30)])
    assert abs(value.real - 2.0) <= 1e-14


def test_levin_insufficient_terms():
    with pytest.raises(InsufficientTermsError):
        levin_accelerate([1.0, 0.5, 0.25])


def test_levin_zero_term_rejected():
    with pytest.raises(ValueError):
        levin_accelerate([1.0, 0.0] + [0.5**k for k in range(10)])


@pytest.mark.parametrize("bad", [math.inf, math.nan, complex(1.0, math.inf)])
def test_levin_non_finite_term_is_range_error(bad):
    with pytest.raises(RangeError, match="not finite"):
        levin_accelerate([1.0] * 7 + [bad])


def test_levin_order_beyond_binary64_is_range_error():
    # terms near the top of the binary64 range give orders above it; the
    # rounding of such an order must not leak an OverflowError
    real = [complex(1e307 * (1 + 0.01 * j) ** -2) for j in range(21)]
    skew = [t * (1 + 1j) for t in real]
    for terms in (real, skew):
        with pytest.raises(RangeError):
            series._levin_orders(terms)
        with pytest.raises(RangeError):
            levin_accelerate(terms)


# levin_accelerate's (value, estimate) on 21-term windows at offsets 1, 4
# and 12 of 2F1(i, -i; 1/2; 1), eq. 1.1's first series, whose terms are
# real, and of 2F1(0.3+2i, 0.1; 3; 1), whose terms are complex; each order
# is the correctly rounded u-transform, so these bits hold on every
# supported Python
LEVIN_PINNED = (
    ("real", (1j, -1j), (0.5,), (
        "((10.591953275309397+0j), 1.267157045958811e-09)",
        "((6.369731011619929+0j), 5.027574534466339e-08)",
        "((3.743925235954886+0j), 1.6119070176401351e-06)")),
    ("complex", (0.3 + 2j, 0.1), (3.0,), (
        "((-0.02005535380679476+0.07309366498655293j), 8.988715717497376e-15)",
        "((-0.004075095473489219-0.008329501680121199j), 9.601253626305117e-14)",
        "((0.0008212396688223634+0.00017509420530513372j), 3.4328037755300925e-12)")),
)


@pytest.mark.parametrize("kind, upper, lower, expected", LEVIN_PINNED,
                         ids=[row[0] for row in LEVIN_PINNED])
def test_levin_pinned_windows(kind, upper, lower, expected):
    # terms by the pFq recurrence in complex arithmetic
    spec = SeriesSpec(upper, lower, 1.0)
    terms = [1.0 + 0.0j]
    for n in range(32):
        num = 1.0 + 0.0j
        for a in spec.upper:
            num *= a + n
        den = (n + 1) + 0.0j
        for b in spec.lower:
            den *= b + n
        terms.append(terms[-1] * spec.argument * num / den)
    assert all(t.imag == 0.0 for t in terms) == (kind == "real")
    got = tuple(repr(levin_accelerate(terms[m:m + 21])) for m in (1, 4, 12))
    assert got == expected
    # 21 terms give every order 1..LEVIN_MAX_ORDER
    assert len(series._levin_orders(terms[1:22])) == series.LEVIN_MAX_ORDER


def test_pick_transform_rules():
    pick = series._pick_transform
    # equal scores go to the lowest order, a strictly lower score wins
    assert repr(pick([0j, 1 + 0j, 2 + 0j, 3 + 0j, 4 + 0j])) == "((2+0j), 1.0)"
    assert repr(pick([0j, 1 + 0j, 2 + 0j, 3 + 0j, 3.5 + 0j, 3.75 + 0j])) == "((3.75+0j), 0.5)"
    # differences beyond binary64 give infinite scores, not an error, and
    # on all-infinite scores the first order wins
    huge = [complex(1e308), complex(-1e308), complex(1e308, 1e308),
            complex(-1e308, -1e308), 0j]
    assert repr(pick(huge)) == "((1e+308+1e+308j), inf)"
    for values in ([], [1 + 0j], [1 + 0j, 2 + 0j]):
        assert pick(values) is None


# ----------------------------------------------------------------------
# contiguous reduction
# ----------------------------------------------------------------------

def test_reduce_matches_direct_summation():
    combined = reduced_3f2(1, 1, 2, 3, 0.5)
    direct = sum_pfq(SeriesSpec((1, 1, 4), (2, 3), 0.5)).value
    assert abs(combined - direct) <= 1e-12 * max(1.0, abs(direct))


def test_reduce_zero_a_collapses():
    # a zero upper parameter truncates the 3F2 and both 2F1 pieces to 1
    assert reduced_3f2(0, 1.5, 2.5, 1.25, 0.5) == 1.0
    assert sum_pfq(SeriesSpec((0, 1.5, 2.25), (2.5, 1.25), 0.5)).value == 1.0


def test_reduce_cancellation_sanity():
    # d+1 equal to the 2F1 lower parameter: decomposition still matches the
    # direct 3F2 away from the unit argument
    combined = reduced_3f2(I, -I, 1.5, 0.5, 0.9)
    direct = sum_pfq(SeriesSpec((I, -I, 1.5), (1.5, 0.5), 0.9)).value
    assert abs(combined - direct) <= 1e-11 * max(1.0, abs(direct))


def test_reduction_equivalence_property(rng):
    checked = 0
    while checked < 200:
        a, b = random_complex(rng), random_complex(rng)
        c = complex(rng.uniform(0.3, 3.0), rng.uniform(-1.0, 1.0))
        d = complex(rng.uniform(0.3, 3.0) * rng.choice((-1, 1)),
                    rng.uniform(-1.0, 1.0))
        z = random_complex(rng, 0.5)
        if abs(z) > 0.8 or abs(d) < 0.2:
            continue
        try:
            direct = sum_pfq(SeriesSpec((a, b, d + 1), (c, d), z))
        except PoleError:
            continue
        combined = reduced_3f2(a, b, c, d, z)
        assert abs(combined - direct.value) <= 1e-11 * max(1.0, abs(direct.value))
        checked += 1


# ----------------------------------------------------------------------
# engine-wide properties
# ----------------------------------------------------------------------

def test_conjugate_pair_realness(rng):
    for _ in range(50):
        a = random_complex(rng)
        c = rng.uniform(0.3, 3.0)
        z = rng.uniform(-0.8, 0.8)
        r = sum_pfq(SeriesSpec((a, a.conjugate()), (c,), z))
        assert abs(r.value.imag) <= 1e-12 * max(1.0, abs(r.value))


def test_monotone_tolerance_on_examples():
    cases = [
        (SeriesSpec((1, 1), (2,), 0.5), 2 * math.log(2)),
        (SeriesSpec((), (0.5,), math.pi**2 / 4), COSH_PI),
        (SeriesSpec((I, -I), (0.5,), 0.5), COSH_HALF_PI),
    ]
    for spec, oracle in cases:
        errors = [
            abs(sum_pfq(spec, SumPolicy(tolerance=tol)).value.real - oracle)
            for tol in (1e-4, 1e-7, 1e-10, 1e-13)
        ]
        assert all(late <= early for early, late in zip(errors, errors[1:]))
