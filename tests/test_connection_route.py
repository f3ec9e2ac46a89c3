"""sum_pfq's 1 - z connection route for 2F1 and 1F0 near z = 1 (DLMF
15.8.4, and A&S 15.3.10-15.3.12 where c - a - b is an integer), checked
against tests/reference_pfq.py and against closed forms: every Converged
result lies within its tail_estimate."""

import cmath
import math
import random

import pytest

from gelfond import SeriesSpec, SumPolicy, SumStatus, series, sum_pfq
from reference_pfq import distance, reference_pfq

RHO = 1.0 / 16.0        # series.CONNECTION_RADIUS, stated here as the switch


def _error(result, spec, rel=1e-22) -> float:
    """|value - 2F1| rounded up, from the decimal reference and its bound."""
    value, bound = reference_pfq(spec.upper, spec.lower, spec.argument, rel=rel)
    return distance(result.value, value) + float(bound)


def _away(x: complex, margin: float = 0.05) -> bool:
    """x is at least margin from every pole of Gamma, or has Re x >= 1/2."""
    return x.real >= 0.5 or abs(x - round(x.real)) >= margin


SWITCH_SPECS = [
    ((0.5, 0.5), (1.5,), 0.0),
    ((0.83, 1.37), (2.9,), 0.0),
    ((-1.3, 2.2), (0.45,), 0.0),
    ((0.3 + 1j, 0.7), (2.1 - 0.5j,), 0.5),
    ((1.2 - 0.6j, -0.4 + 0.3j), (0.8 + 0.2j,), -0.8),
]


@pytest.mark.parametrize("upper, lower, angle", SWITCH_SPECS)
def test_switch_against_reference(upper, lower, angle):
    """|1 - z| from rho/2 to 2 rho: the route answers below rho and the
    direct sum from rho on, and both are within their tails of the
    reference."""
    policy = SumPolicy(tolerance=1e-10)
    for size in (0.5, 0.75, 0.95, 1.05, 1.5, 2.0):
        spec = SeriesSpec(upper, lower, 1.0 - size * RHO * cmath.exp(1j * angle))
        result = sum_pfq(spec, policy)
        routed = series._connection_sum(spec, policy)
        if size < 1.0:
            assert repr(result) == repr(routed), spec
        else:
            assert repr(result) == repr(series._direct_sum(spec, policy)), spec
        assert result.status is SumStatus.CONVERGED, spec
        assert _error(result, spec) <= result.tail_estimate, (spec, result)


@pytest.mark.parametrize("upper, lower, z", [
    ((0.5, 0.5), (1.5,), 0.999),
    ((0.3 + 1j, 0.7), (2.1 - 0.5j,), 0.999),
    ((2.3, -1.7), (0.4,), 0.999),
])
def test_route_at_0999_against_reference(upper, lower, z):
    spec = SeriesSpec(upper, lower, z)
    result = sum_pfq(spec, SumPolicy(tolerance=1e-10))
    assert result.status is SumStatus.CONVERGED
    assert result.terms_used < 40
    assert _error(result, spec, rel=1e-18) <= result.tail_estimate


@pytest.mark.parametrize("upper, lower, z, policy", [
    # s = 1 + 2.8e-17 exactly, though c - a - b rounds to 1.0
    ((0.1, 0.2), (1.3,), 0.999, SumPolicy(1e-10)),
    ((0.5, 1.5), (3.03,), 0.99, SumPolicy(1e-10)),       # s = 1.03, within 1/32
    ((0.5, 0.5), (1.5,), 0.999, SumPolicy()),            # 1e-13: below the bound
    ((0.5, 0.5), (1.5,), 0.999, SumPolicy(1e-10, 11)),   # the route takes 12 terms
    ((60.5, 0.5), (62.3,), 0.99, SumPolicy(1e-10)),      # Gamma(60.5) off the envelope
    ((0.5, 2.5), (1.5,), 0.99, SumPolicy(1e-10)),        # c - b = -1, a pole
    ((49.5, 0.5), (51.0,), 0.99, SumPolicy(1e-10)),      # s = 1, a + 1 off the envelope
    ((1.0, 1.0), (2.0,), 0.999, SumPolicy()),            # s = 0 at 1e-13
    # (1-z)^-12: the finite part alone has 12 terms, its log part none
    ((12.0, 0.3), (0.3,), 0.999, SumPolicy(1e-10, 10)),
    # 1F0(a;;z) = (1-z)^-a, taken as 2F1(a, a+1; a+1; z)
    ((-2.98,), (), 0.99, SumPolicy(1e-10)),             # a within 1/32 of -3
    ((1.5,), (), 1.0 - RHO, SumPolicy(1e-10)),          # |1 - z| = rho
    ((1.5,), (), 0.99, SumPolicy()),                    # 1e-13: below the bound
    # a + 1 within 1e-9 of -2, which a 2F1 spec would refuse as a pole
    ((-3.0 + 1e-10,), (), 0.99, SumPolicy(1e-10)),
], ids=["inexact-integer-s", "near-degenerate", "tight-tolerance", "max-terms",
        "off-envelope", "denominator-pole", "degenerate-off-envelope",
        "degenerate-tight-tolerance", "zero-factor-max-terms",
        "binomial-near-pole", "binomial-at-rho", "binomial-tight-tolerance",
        "binomial-near-lower-pole"])
def test_route_declines_to_the_direct_sum(upper, lower, z, policy):
    spec = SeriesSpec(upper, lower, z)
    assert series._connection_sum(spec, policy) is None
    assert repr(sum_pfq(spec, policy)) == repr(series._direct_sum(spec, policy))


@pytest.mark.parametrize("upper, lower, declines, answers, terms", [
    # s = 0 exactly: A&S 15.3.10's log sum runs past the cap
    ((1.0, 1.0), (2.0,), (10,), 12, 12),
    # DLMF 15.8.4: the first short sum runs past the cap at 10, the second
    # at 20
    ((0.5, 0.5), (1.5,), (10, 20), 30, 24),
], ids=["log-sum", "gauss-sums"])
def test_route_declines_past_its_term_cap(upper, lower, declines, answers, terms):
    """At z = 0.95 and tol 1e-10 each smaller max_terms leaves the route
    short of its bound, and sum_pfq returns exactly the direct sum; the
    larger budget answers, Converged in the given number of terms."""
    spec = SeriesSpec(upper, lower, 0.95)
    for max_terms in declines:
        policy = SumPolicy(1e-10, max_terms)
        assert series._connection_sum(spec, policy) is None, max_terms
        assert repr(sum_pfq(spec, policy)) == repr(series._direct_sum(spec, policy))
    policy = SumPolicy(1e-10, answers)
    result = sum_pfq(spec, policy)
    assert repr(result) == repr(series._connection_sum(spec, policy))
    assert result.status is SumStatus.CONVERGED and result.terms_used == terms


def test_route_declines_a_term_beyond_binary64():
    # (1-z)^s B is about 1e313 at s = -49.95, |1 - z| = 1e-6; at 1e-7 the
    # power alone overflows
    for w in (1e-6, 1e-7):
        spec = SeriesSpec((20.3, 30.1), (0.45,), 1.0 - w)
        assert series._connection_sum(spec, SumPolicy(1e-10)) is None


def _parameter(rng: random.Random, real: bool) -> complex:
    return complex(rng.uniform(-3.0, 3.0), 0.0 if real else rng.uniform(-2.0, 2.0))


def _sweep_draw(rng: random.Random):
    """(spec, closed form) over the route's domain, or (spec, None) for a
    draw that the decimal reference checks.  |1 - z| is log-uniform on
    [1e-4, rho), along a direction within 1.2 rad of the real axis for a
    complex draw; the reference's draws take |1 - z| >= rho/2."""
    real = rng.random() < 0.5
    w = 10.0 ** rng.uniform(-4.0, math.log10(RHO))
    if not real:
        w *= cmath.exp(1j * rng.uniform(-1.2, 1.2))
    z = 1.0 - w
    w = 1.0 - z                 # exact: the w the route sees
    family = rng.randrange(4)
    if family == 0:             # (1-z)^(-a) = 2F1(a, b; b; z)
        a, b = _parameter(rng, real), _parameter(rng, real)
        return SeriesSpec((a, b), (b,), z), cmath.exp(-a * cmath.log(w))
    if family == 1:             # cos 2ax = 2F1(a, -a; 1/2; sin^2 x), cos^2 x = 1 - z
        a = _parameter(rng, real)
        return SeriesSpec((a, -a), (0.5,), z), cmath.cos(2 * a * cmath.acos(cmath.sqrt(w)))
    if family == 2:             # asin(sqrt z) / sqrt z = 2F1(1/2, 1/2; 3/2; z)
        root = cmath.sqrt(z)
        return (SeriesSpec((0.5, 0.5), (1.5,), z),
                (math.pi / 2 - cmath.asin(cmath.sqrt(w))) / root)
    a, b, c = (_parameter(rng, real) for _ in range(3))
    return SeriesSpec((a, b), (c,), 1.0 - w * max(1.0, RHO / 2 / abs(w))), None


def test_route_sweep_never_breaks_its_claim():
    """400 seeded 2F1 near z = 1, real and complex, at tolerances 1e-10 to
    1e-6, inside the route's domain: s at least 0.05 from every integer,
    and every other gamma argument 0.05 from a pole (or c equal to b).
    The closed forms are binary64 expressions, allowed 1e-14 max(1, |F|)
    for their own rounding; the general draws, |1 - z| >= rho/2, go to the
    decimal reference.  No Converged result may lie beyond its
    tail_estimate."""
    rng = random.Random(0xC0EC7)
    broken, converged, checked = [], 0, 0
    while checked < 400:
        spec, exact = _sweep_draw(rng)
        (a, b), (c,) = spec.upper, spec.lower
        s = c - a - b
        if abs(spec.argument) >= 1.0 or abs(s - round(s.real)) < 0.05 or not all(
                _away(x) for x in (c, a, b) + tuple(x for x in (c - a, c - b) if x)):
            continue
        checked += 1
        result = sum_pfq(spec, SumPolicy(tolerance=10.0 ** rng.uniform(-10.0, -6.0)))
        if result.status is not SumStatus.CONVERGED:
            continue
        converged += 1
        if exact is None:
            error = _error(result, spec, rel=1e-18)
        else:
            error = abs(result.value - exact) - 1e-14 * max(1.0, abs(exact))
        if error > result.tail_estimate:
            broken.append((spec, result, error))
    assert not broken, (len(broken), broken[:3])
    assert converged >= 390


# ----------------------------------------------------------------------
# s = c - a - b an integer m: the logarithmic formulas (A&S 15.3.10-12)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("upper, lower, z", [
    ((1.0, 1.0), (2.0,), 0.999),                    # m = 0, -ln(1-z)/z
    ((1.0, 1.0), (3.0,), 0.999),                    # m = 1
    ((0.25 + 1j, 0.75 - 1j), (1.0,), 0.999 + 4e-4j),  # m = 0, complex
    ((2.25, -0.75 + 0.5j), (-0.5 + 0.5j,), 0.999),  # m = -2
    ((0.5, 0.25), (3.75,), 0.9995),                 # m = 3
], ids=["log", "log1", "complex-m0", "complex-m-2", "m3"])
def test_log_route_at_0999_against_reference(upper, lower, z):
    spec = SeriesSpec(upper, lower, z)
    result = sum_pfq(spec, SumPolicy(tolerance=1e-10))
    assert repr(result) == repr(series._connection_sum(spec, SumPolicy(tolerance=1e-10)))
    assert result.status is SumStatus.CONVERGED
    assert result.terms_used < 40
    assert _error(result, spec, rel=1e-18) <= result.tail_estimate


def test_log_route_zero_factor_skips_the_log_sum(monkeypatch):
    """2F1(2, 0.3; 0.3; z) = (1-z)^-2, m = -2: the log part's factor holds
    1/Gamma(a - 2) = 1/Gamma(0) = 0, so the route sums only the 2 terms of
    the finite part and calls no digamma."""
    calls = []
    digamma = series.digamma
    monkeypatch.setattr(series, "digamma", lambda x: calls.append(x) or digamma(x))
    spec = SeriesSpec((2.0, 0.3), (0.3,), 0.999)
    result = sum_pfq(spec, SumPolicy(tolerance=1e-10))
    assert result.status is SumStatus.CONVERGED
    assert result.terms_used == 2
    assert abs(result.value - (1.0 - 0.999) ** -2) <= result.tail_estimate
    assert calls == []


def test_zero_part_is_not_summed(monkeypatch):
    """c = b makes DLMF 15.8.4's first factor hold 1/Gamma(c - b) =
    1/Gamma(0) = 0: the route sums only the second part, F(c-a, 0; 1+s;
    1-z), with the value it gave when it summed both, since T1, |A| err_1
    and |T1| were 0 then too, and a 1F0 is that 2F1 with b = a + 1.  That
    part is the polynomial 1, one term with no truncation
    (test_short_sum_ends_a_polynomial_at_its_last_term)."""
    calls = []
    short_2f1 = series._short_2f1
    monkeypatch.setattr(series, "_short_2f1",
                        lambda a, b, c, w, cap: calls.append(b) or short_2f1(a, b, c, w, cap))
    policy = SumPolicy(tolerance=1e-10)
    result = sum_pfq(SeriesSpec((2.3, 0.7), (0.7,), 0.99), policy)
    assert (repr(result.value), repr(result.tail_estimate), result.terms_used) == (
        "(39810.717055349676+0j)", "1.687773316271551e-07", 1)
    assert calls == [0.0]
    calls.clear()
    result = sum_pfq(SeriesSpec((1.5,), (), 0.99), policy)
    assert (repr(result.value), repr(result.tail_estimate), result.terms_used) == (
        "(999.9999999999998+0j)", "4.37023541049856e-09", 1)
    assert repr(result) == repr(sum_pfq(SeriesSpec((1.5, 2.5), (2.5,), 0.99), policy))
    assert calls == [0.0, 0.0]


def test_short_sum_ends_a_polynomial_at_its_last_term():
    """An upper parameter of _short_2f1 exactly -k, k a non-negative
    integer with zero imaginary part, ends the sum at t_k with no
    truncation bound, as _direct_sum ends a polynomial: 1F0(a;;z) near
    z = 1 sums F(1, 0; 1-a; 1-z) = 1 in one term, whatever a, where the
    ratio bound alone needed about Re a terms, and a finite part of
    A&S 15.3.10 stops at its last nonzero term.  The values keep their
    bits; only the terms and the bound move."""
    policy = SumPolicy(tolerance=1e-10)
    for a, value in ((40.5, "(1.0000000000000077e+81+0j)"),
                     (7.25, "(316227766016836.8+0j)")):
        result = sum_pfq(SeriesSpec((a,), (), 0.99), policy)
        assert (repr(result.value), result.terms_used, result.status) == (
            value, 1, SumStatus.CONVERGED)
    for w in (0.01, 0.3 + 0.2j):
        assert series._short_2f1(1.0, 0.0, -39.5, w, 10**6) == (1.0, 0.0, 1, 0.0)
        value, bound, terms, _ = series._short_2f1(-3.0, 0.5 + 2j, 1.25, w, 10**6)
        reference = sum(math.prod((j - 3.0) * (0.5 + 2j + j) * w / ((1.25 + j) * (j + 1))
                                  for j in range(k)) for k in range(4))
        assert terms == 4 and abs(value - reference) <= bound
        # a finite part capped at M = 6 terms stops at t_2 of the degree-2 sum
        assert series._short_2f1(-2.0, 0.7, -5.0, w, 6)[2] == 3


def _binomial_draw(rng: random.Random):
    """(spec, (1-z)^(-a)) of a 1F0 near z = 1, or (spec, None) for a draw
    that the decimal reference checks.  a is a positive integer, a
    half-integer, or uniform, real or complex, all with |Re a| <= 20;
    |1 - z| is drawn as in _sweep_draw, and the reference's draws take
    |1 - z| >= rho/2."""
    real = rng.random() < 0.5
    w = 10.0 ** rng.uniform(-4.0, math.log10(RHO))
    if not real:
        w *= cmath.exp(1j * rng.uniform(-1.2, 1.2))
    kind = rng.randrange(4)
    if kind == 0:
        a = complex(rng.randint(1, 20))
    elif kind == 1:
        a = complex(rng.randint(-20, 19) + 0.5)
    else:
        a = complex(rng.uniform(-20.0, 20.0), 0.0 if kind == 2 else rng.uniform(-3.0, 3.0))
    if rng.random() < 0.04:
        return SeriesSpec((a,), (), 1.0 - w * max(1.0, RHO / 2 / abs(w))), None
    z = 1.0 - w
    w = 1.0 - z                 # exact: the w the route sees
    return SeriesSpec((a,), (), z), cmath.exp(-a * cmath.log(w))


def test_binomial_route_never_breaks_its_claim():
    """400 seeded 1F0(a;;z) = (1-z)^(-a) near z = 1, which the route takes
    as 2F1(a, a+1; a+1; z), at tolerances 1e-12 to 1e-6.  The closed form
    is exp(-a ln(1-z)) in binary64, allowed (4 |a ln(1-z)| + 4) eps |F|
    for its rounding; the draws with |1 - z| >= rho/2 go to the decimal
    reference.  No Converged result of the route may lie beyond its
    tail_estimate.  The draws it declines (a tolerance below its bound,
    a within 1/32 of an integer other than a positive one) take the
    direct sum, whose tail this near z = 1 is not yet a bound."""
    rng = random.Random(0xB1A0)
    broken, routed, referenced = [], 0, 0
    for _ in range(400):
        spec, exact = _binomial_draw(rng)
        policy = SumPolicy(tolerance=10.0 ** rng.uniform(-12.0, -6.0))
        result = sum_pfq(spec, policy)
        if repr(result) != repr(series._connection_sum(spec, policy)):
            continue
        routed += 1
        assert result.status is SumStatus.CONVERGED
        if exact is None:
            referenced += 1
            error = _error(result, spec, rel=1e-18)
        else:
            (a,), w = spec.upper, 1.0 - spec.argument
            error = abs(result.value - exact) - (
                (4.0 * abs(a * cmath.log(w)) + 4.0) * math.ulp(1.0) * abs(exact))
        if error > result.tail_estimate:
            broken.append((spec, policy, result, error))
    assert not broken, (len(broken), broken[:3])
    assert routed >= 340 and referenced >= 8, (routed, referenced)


def _agm(x: complex, y: complex) -> complex:
    """The arithmetic-geometric mean, principal square roots: right while
    both means keep positive real parts."""
    for _ in range(40):
        if abs(x - y) <= 1e-16 * abs(x):
            break
        x, y = (x + y) / 2, cmath.sqrt(x * y)
    return (x + y) / 2


def _log_draw(rng: random.Random):
    """(spec, closed form) of a 2F1 whose c - a - b is an integer, or
    (spec, None) for a draw that the decimal reference checks.  |1 - z| is
    log-uniform on [1e-4, rho), as in _sweep_draw; the reference's draws
    take |1 - z| >= rho/2 and m from -3 to 3."""
    real = rng.random() < 0.5
    w = 10.0 ** rng.uniform(-4.0, math.log10(RHO))
    if not real:
        w *= cmath.exp(1j * rng.uniform(-1.2, 1.2))
    z = 1.0 - w
    w = 1.0 - z
    family = rng.randrange(5)
    if family == 0:             # -ln(1-z)/z, m = 0
        return SeriesSpec((1.0, 1.0), (2.0,), z), -cmath.log(w) / z
    if family == 1:             # m = 1
        return (SeriesSpec((1.0, 1.0), (3.0,), z),
                2.0 * (w * cmath.log(w) + z) / (z * z))
    if family == 2:             # 1/AGM(1, sqrt(1-z)), DLMF 19.8.5, m = 0
        return SeriesSpec((0.5, 0.5), (1.0,), z), 1.0 / _agm(1.0, cmath.sqrt(w))
    if family == 3:             # (1-z)^(-a) = 2F1(a, b; b; z), m = -a
        a, b = rng.randint(1, 3), _parameter(rng, real)
        return SeriesSpec((a, b), (b,), z), w ** -a
    a, b = _parameter(rng, real), _parameter(rng, real)
    z = 1.0 - w * max(1.0, RHO / 2 / abs(w))
    return SeriesSpec((a, b), (a + b + rng.randint(-3, 3),), z), None


def test_log_route_sweep_never_breaks_its_claim():
    """400 seeded 2F1 near z = 1 whose s = c - a - b is exactly an integer
    m, -3 <= m <= 3, real and complex, at tolerances 1e-10 to 1e-6, every
    gamma and digamma argument 0.05 from a pole (or exactly 0): the
    closed forms within 1e-14 max(1, |F|) for their own rounding, the
    general draws against the decimal reference.  No Converged result
    may lie beyond its tail_estimate."""
    rng = random.Random(0x1065)
    broken, converged, checked = [], 0, 0
    while checked < 400:
        spec, exact = _log_draw(rng)
        (a, b), (c,) = spec.upper, spec.lower
        m = round((c - a - b).real)
        if (math.fsum((c.real, -a.real, -b.real, -m)) != 0.0
                or math.fsum((c.imag, -a.imag, -b.imag)) != 0.0
                or spec.truncation_degree() is not None
                or not all(_away(x) for x in (a, b, c, a + m, b + m) if x)):
            continue
        checked += 1
        result = sum_pfq(spec, SumPolicy(tolerance=10.0 ** rng.uniform(-10.0, -6.0)))
        if result.status is not SumStatus.CONVERGED:
            continue
        converged += 1
        if exact is None:
            error = _error(result, spec, rel=1e-18)
        else:
            error = abs(result.value - exact) - 1e-14 * max(1.0, abs(exact))
        if error > result.tail_estimate:
            broken.append((spec, result, error))
    assert not broken, (len(broken), broken[:3])
    assert converged >= 390


@pytest.mark.parametrize("upper, lower, count", [
    ((0.3 + 0.2j, 0.7), (2.1 - 0.5j,), 7),      # DLMF 15.8.4
    ((0.3, 0.45), (1.9,), 7),
    ((0.3, 0.45), (0.3,), 4),                   # c = a: first part exactly 0
    ((1.5,), (), 4),                            # 1F0 as 2F1(a, a+1; a+1; z)
    ((0.5, 0.5), (3.0,), 5),                    # A&S 15.3.11, m = 2
    ((0.5, 1.5), (1.0,), 5),                    # A&S 15.3.12, m = -1
    ((0.25 + 0.5j, 0.75 - 0.5j), (3.0,), 5),
    ((1.0, 1.0), (2.0,), 3),                    # A&S 15.3.10, m = 0
    ((0.5, 0.5), (1.0,), 3),
], ids=["gauss-complex", "gauss-real", "gauss-zero-part", "1F0", "log-m2",
        "log-m-1", "log-m2-complex", "log-m0", "log-m0-half"])
def test_log_gamma_calls_per_connection_answer(log_gamma_calls, upper, lower, count):
    """Both ratios of a formula divide one log Gamma(c): an answer of DLMF
    15.8.4 makes 7 log-gamma calls (4 when its first part is exactly 0),
    one of A&S 15.3.10-15.3.12 makes 5 (3 for m = 0)."""
    spec = SeriesSpec(upper, lower, 0.99)
    assert series._connection_sum(spec, SumPolicy(tolerance=1e-10)) is not None
    assert len(log_gamma_calls) == count
