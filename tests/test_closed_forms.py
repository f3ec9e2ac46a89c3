import cmath
import math
import random

import pytest

from gelfond import (
    ConvergenceDomainError,
    PoleError,
    RangeError,
    SeriesSpec,
    SumPolicy,
    SumStatus,
    bailey_ext_half,
    bailey_half,
    gamma,
    gauss_ext_unit,
    gauss_unit,
    second_gauss_ext_half,
    second_gauss_half,
    sum_pfq,
)
from gelfond.series import sum_pfq_unit
from gelfond import closed_forms
from gelfond.closed_forms import SERIES, gamma_ratio
from conftest import (
    COSH_HALF_PI,
    COSH_PI,
    E_MINUS_PI,
    E_PI,
    SINH_HALF_PI,
    SINH_PI,
    outcome,
    random_complex,
    reference_bailey_ext_half,
    reference_bailey_half,
    reference_gamma,
    reference_gamma_ratio,
    reference_gauss_ext_unit,
    reference_gauss_unit,
    reference_second_gauss_ext_half,
    reference_second_gauss_half,
    rel_err,
)

I = 1j
ROOT2 = math.sqrt(2.0)


# ----------------------------------------------------------------------
# spot values (expected sides all from exponentials)
# ----------------------------------------------------------------------

def test_gauss_unit_values():
    assert rel_err(gauss_unit(I, -I, 0.5).real, COSH_PI) <= 1e-13
    assert rel_err(gauss_unit(0.5 + I, 0.5 - I, 1.5).real, SINH_PI / 2) <= 1e-13
    assert rel_err(gauss_unit(0, 0.3 - 0.2j, 0.8).real, 1.0) <= 1e-13


def test_gauss_unit_convergence_domain():
    with pytest.raises(ConvergenceDomainError):
        gauss_unit(1.0, 1.0, 1.5)


def test_gauss_unit_numerator_pole():
    # c = -1 is a gamma pole while Re(c-a-b) = 1.5 keeps the domain valid
    with pytest.raises(PoleError):
        gauss_unit(-1.2, -1.3, -1.0)


def test_gauss_unit_denominator_pole_gives_zero():
    # c - a = -1 makes Gamma(c-a) infinite: 2F1(a,b;c;1) -> 0
    assert gauss_unit(2.5, -1.2, 1.5) == 0


def test_gauss_ext_unit_values():
    assert rel_err(gauss_ext_unit(I, -I, 0.5, 0.5).real, COSH_PI) <= 1e-13
    assert rel_err(gauss_ext_unit(I, -I, 0.5, 2.0).real,
                   (E_PI + E_MINUS_PI) / 5) <= 1e-13
    assert abs(gauss_ext_unit(0.5 + I, 0.5 - I, 1.5, -2.5)) <= 1e-13


def test_gauss_ext_unit_convergence_domain():
    with pytest.raises(ConvergenceDomainError):
        gauss_ext_unit(1, 1, 1.5, 2)


def test_gauss_ext_unit_d_guards():
    for d in (0.0, -1.0, -3.0, 5e-7):
        with pytest.raises(PoleError):
            gauss_ext_unit(I, -I, 0.5, d)


def test_second_gauss_half_values():
    assert rel_err(second_gauss_half(I, -I).real, COSH_HALF_PI) <= 1e-13
    assert rel_err(second_gauss_half(1, 1).real, math.pi / 2) <= 1e-13
    assert rel_err(second_gauss_half(0, 2.7 + 0.3j).real, 1.0) <= 1e-13


def test_bailey_half_values():
    assert rel_err(bailey_half(0.5 + I, 1.5).real, SINH_HALF_PI / ROOT2) <= 1e-13
    assert rel_err(bailey_half(0.5, 0.5).real, ROOT2) <= 1e-13
    assert rel_err(bailey_half(1, 2.3).real, 1.0) <= 1e-13


def test_second_gauss_ext_half_values():
    assert rel_err(second_gauss_ext_half(I, -I, 0.5).real, COSH_HALF_PI) <= 1e-13
    assert rel_err(second_gauss_ext_half(I, -I, 1.0).real,
                   0.6 * COSH_HALF_PI + 0.2 * SINH_HALF_PI) <= 1e-13
    assert rel_err(second_gauss_ext_half(0, 1.4 - 0.6j, 2.2).real, 1.0) <= 1e-12


def test_bailey_ext_half_values():
    assert rel_err(bailey_ext_half(0.5 + I, 1.5, 1.5).real,
                   SINH_HALF_PI / ROOT2) <= 1e-13
    # hand value confirmed against the direct series before pinning
    hand = (3 / (4 * ROOT2)) * ((2 / 3) * SINH_HALF_PI + 0.5 * COSH_HALF_PI)
    closed = bailey_ext_half(0.5 + I, 1.5, 3.0).real
    series = sum_pfq(SeriesSpec((0.5 + I, 0.5 - I, 4.0), (2.5, 3.0), 0.5))
    assert rel_err(closed, hand) <= 1e-13
    assert rel_err(closed, series.value.real) <= 1e-12
    assert rel_err(bailey_ext_half(1, 1.9 + 0.4j, 1.3).real, 1.0) <= 1e-12


# ----------------------------------------------------------------------
# oracle equivalence at z = 1/2 (the trust gate for both extension formulas)
# ----------------------------------------------------------------------

def _half_policy():
    return SumPolicy(tolerance=1e-15)


def _series(theorem, *args):
    """The spec of the series ``theorem`` sums, from the table the registry
    builds its series routes from."""
    return SeriesSpec(*SERIES[theorem](*args))


def _admissible(*params, floor=0.05):
    for p in params:
        if abs(p.imag) < 1e-6 and p.real < 0.5 and abs(p.real - round(p.real)) < floor:
            return False
    return True


def test_second_gauss_half_vs_series(rng):
    checked = 0
    while checked < 100:
        a, b = random_complex(rng, 5.0), random_complex(rng, 5.0)
        c = (a + b + 1) / 2
        if not _admissible(c):
            continue
        closed = second_gauss_half(a, b)
        r = sum_pfq(_series("second_gauss_half", a, b), _half_policy())
        assert abs(closed - r.value) <= 1e-11 * max(1.0, abs(r.value))
        checked += 1


def test_bailey_half_vs_series(rng):
    checked = 0
    while checked < 100:
        a, c = random_complex(rng, 5.0), random_complex(rng, 5.0)
        if not _admissible(c):
            continue
        closed = bailey_half(a, c)
        r = sum_pfq(_series("bailey_half", a, c), _half_policy())
        assert abs(closed - r.value) <= 1e-11 * max(1.0, abs(r.value))
        checked += 1


def test_second_gauss_ext_half_vs_series(rng):
    checked = 0
    while checked < 100:
        a, b = random_complex(rng, 5.0), random_complex(rng, 5.0)
        d = random_complex(rng, 5.0)
        c = (a + b + 3) / 2
        if abs(d) < 0.2 or not _admissible(c, d):
            continue
        try:
            closed = second_gauss_ext_half(a, b, d)
        except PoleError:
            continue
        r = sum_pfq(_series("second_gauss_ext_half", a, b, d), _half_policy())
        assert abs(closed - r.value) <= 1e-11 * max(1.0, abs(r.value))
        checked += 1


def test_bailey_ext_half_vs_series(rng):
    checked = 0
    while checked < 100:
        a, c = random_complex(rng, 5.0), random_complex(rng, 5.0)
        d = random_complex(rng, 5.0)
        if abs(d) < 0.2 or not _admissible(c + 1, d):
            continue
        try:
            closed = bailey_ext_half(a, c, d)
        except PoleError:
            continue
        r = sum_pfq(_series("bailey_ext_half", a, c, d), _half_policy())
        assert abs(closed - r.value) <= 1e-11 * max(1.0, abs(r.value))
        checked += 1


@pytest.mark.parametrize("a, d", [(0.2, 2.0), (0.3 + 0.4j, 1.5 - 0.5j)])
@pytest.mark.parametrize("diff", [-3, -5, -7])
def test_second_gauss_ext_half_at_removable_poles(diff, a, d):
    # a - b = diff puts Gamma((a-b)/2 - 1/2) at a pole, but Gamma(x) /
    # Gamma(x+2) = 1/(x (x+1)) stays finite there, and so does the 3F2
    b = a - diff
    closed = second_gauss_ext_half(a, b, d)
    r = sum_pfq(_series("second_gauss_ext_half", a, b, d), _half_policy())
    assert abs(closed - r.value) <= 1e-11 * max(1.0, abs(r.value))


@pytest.mark.parametrize("a, b", [(1.2, 0.2), (0.2, 1.2)], ids=["plus-one", "minus-one"])
def test_second_gauss_ext_half_at_unit_difference_is_pole_error(a, b):
    # a - b = +-1: 1/(x (x+1)) is infinite, and the finite 3F2 (1.1174319686
    # at (1.2, 0.2, 2), mpmath) is a limit with digamma values, not built;
    # 1e-6 away the brace has cancelled to 7.6e-11 - 5.9e-10 relative (mpmath)
    for gap in (0.0, 1e-6, -1e-6):
        with pytest.raises(PoleError):
            second_gauss_ext_half(a, b + gap, 2.0)


@pytest.mark.parametrize("gap", [2e-3, -2e-3])
@pytest.mark.parametrize("a, b", [(1.2, 0.2), (0.2, 1.2)], ids=["plus-one", "minus-one"])
def test_second_gauss_ext_half_outside_the_unit_difference_width(a, b, gap):
    # twice the width from a - b = +-1 the brace has cancelled to about
    # 1e-13 relative (mpmath: 7.8e-14 to 2.1e-13)
    b += gap
    assert min(abs(a - b - 1.0), abs(a - b + 1.0)) > closed_forms.UNIT_DIFFERENCE_WIDTH
    closed = second_gauss_ext_half(a, b, 2.0)
    r = sum_pfq(_series("second_gauss_ext_half", a, b, 2.0), _half_policy())
    assert abs(closed - r.value) <= r.tail_estimate + 1e-12 * abs(r.value)


def test_second_gauss_ext_half_small_value():
    # single gamma factors leave binary64 here, ratios summed in log space
    # do not (expected value: mpmath 1.3.0 at 50 digits)
    value = second_gauss_ext_half(-326.4509051558289 - 0.009282583630000072j,
                                  -147.62502764483608 - 2.8839044444084037j,
                                  3.851316280001126e+283)
    expected = 1.2696942586576464e-63 - 3.3815302640559736e-64j
    assert abs(value - expected) <= 1e-11 * abs(expected)


@pytest.mark.parametrize("c", [-1, -2, -3])
def test_bailey_ext_half_pole_at_negative_integer_c(c):
    # Gamma(c+1) = 2^c Gamma(c/2 + 1) Gamma(c/2 + 1/2) / Gamma(1/2)
    with pytest.raises(PoleError):
        bailey_ext_half(0.3, c, 2)


def test_bailey_ext_half_reflects_past_the_envelope():
    # Gamma(c/2 + 1/2) reflects at Re = 0.43, Im = 34.1, beyond the
    # envelope's |Im| <= 30 but well within sin_pi's range (expected
    # value: mpmath agrees within 3e-14)
    value = bailey_ext_half(18.262681841350506 + 74.7917760120817j,
                            -0.1395873192138481 + 68.29047084970213j,
                            -0.11158801430779958 + 0.3675812437588181j)
    assert abs(value - (-9.429039410184235e-4 + 1.1949155734984856e-4j)) <= 1e-13
# ----------------------------------------------------------------------

def test_gauss_unit_vs_accelerated_series(rng):
    checked = 0
    while checked < 30:
        a, b = random_complex(rng), random_complex(rng)
        c = complex((a + b).real + rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0))
        if (c - a - b).real < 0.5 or not _admissible(c):
            continue
        try:
            closed = gauss_unit(a, b, c)
        except PoleError:
            continue
        if abs(closed) < 1.0:
            continue
        r = sum_pfq_unit(_series("gauss_unit", a, b, c), SumPolicy(tolerance=1e-8))
        assert rel_err(r.value, closed) <= 1e-6
        checked += 1


def test_gauss_ext_unit_vs_accelerated_series(rng):
    checked = 0
    while checked < 30:
        a, b = random_complex(rng), random_complex(rng)
        c = complex((a + b).real + rng.uniform(0.5, 2.5), rng.uniform(-1.0, 1.0))
        d = rng.uniform(0.3, 5.0)
        if (c - a - b).real < 0.5 or not _admissible(c + 1):
            continue
        try:
            closed = gauss_ext_unit(a, b, c, d)
        except PoleError:
            continue
        if abs(closed) < 1.0:
            continue
        r = sum_pfq_unit(_series("gauss_ext_unit", a, b, c, d),
                         SumPolicy(tolerance=1e-8))
        assert rel_err(r.value, closed) <= 1e-6
        checked += 1


# ----------------------------------------------------------------------
# structural properties
# ----------------------------------------------------------------------

def test_cancellation_to_base_theorems(rng):
    checked = 0
    while checked < 40:
        a, b = random_complex(rng), random_complex(rng)
        c = complex((a + b).real + rng.uniform(0.5, 2.0), rng.uniform(-0.5, 0.5))
        if (c - a - b).real <= 0 or not _admissible(c, floor=0.2):
            continue
        try:
            ext = gauss_ext_unit(a, b, c, c)
            base = gauss_unit(a, b, c)
        except PoleError:
            continue
        assert abs(ext - base) <= 1e-12 * max(1.0, abs(base))
        checked += 1
    # half-argument analogues at one representative point each
    a, b = 0.7 + 0.4j, -0.2 - 0.4j
    assert abs(second_gauss_ext_half(a, b, (a + b + 1) / 2)
               - second_gauss_half(a, b)) <= 1e-12
    a, c = 0.5 + I, 1.5
    assert abs(bailey_ext_half(a, c, c) - bailey_half(a, c)) <= 1e-12


@pytest.mark.parametrize("f, args", [
    (gamma_ratio, ((200.0,), ())),
    (gauss_unit, (1e300j, -1e300j, 0.5)),           # through gamma_ratio
    (gamma_ratio, ((), (0.5 + 1e300j,))),          # 1/Gamma(z)
    (bailey_ext_half, (0.5 + 1000j, 400, 2)),       # 3F2 = 1.5e347 (mpmath)
], ids=["gamma_ratio", "gauss_unit", "reciprocal_gamma", "bailey_ext_half"])
def test_exp_overflow_is_range_error(f, args):
    # cmath.exp raises a bare OverflowError beyond binary64; gamma() already
    # raises RangeError there, and so do the closed forms
    with pytest.raises(RangeError, match="overflows binary64"):
        f(*args)


@pytest.mark.parametrize("f, args", [
    (gauss_unit, (0.1, 0.2, 1e307)),                # inf - inf
    (bailey_half, (0.3, 1e308)),                    # inf - inf
    (gamma_ratio, ((0.5 + 1e308j,), ())),           # imaginary part inf
], ids=["gauss_unit-nan", "bailey_half-nan", "gamma_ratio-inf-imag"])
def test_undefined_log_sum_is_range_error(f, args):
    # the log sum of gammas beyond binary64 is NaN or has an infinite
    # imaginary part; exp of it is NaN or a bare ValueError
    with pytest.raises(RangeError, match="log sum is"):
        f(*args)


def test_gamma_ratio_underflow_is_zero():
    # log sum -inf + 0j: the ratio underflows to zero and is no error
    assert gamma_ratio((1.0,), (1e306,)) == 0


def _ratio_of_two(a, b, c, d):
    return gamma_ratio((a, b), (c, d))


def _reciprocal(z):
    return gamma_ratio((), (z,))


# the nine functions that turn a log-gamma sum into a value, by arity
_GAMMA_LAYER = [
    (gamma, 1),
    (_reciprocal, 1),
    (_ratio_of_two, 4),
    (gauss_unit, 3),
    (gauss_ext_unit, 4),
    (second_gauss_half, 2),
    (bailey_half, 2),
    (second_gauss_ext_half, 3),
    (bailey_ext_half, 3),
]
_LOG_MAX_MODULUS = math.log(1.79e308)


def _wide_argument(rng: random.Random) -> complex:
    """Real or complex, half each, of modulus log-uniform on [1, 1.79e308]."""
    r = math.exp(rng.uniform(0.0, _LOG_MAX_MODULUS))
    if rng.random() < 0.5:
        return complex(rng.choice((-r, r)))
    return cmath.rect(r, rng.uniform(-math.pi, math.pi))


def test_gamma_layer_returns_finite_or_typed_error():
    """1,500 seeded draws per function over the whole binary64 range: each
    call returns a finite complex or raises RangeError, PoleError or
    ConvergenceDomainError, never inf, NaN or an untyped error."""
    rng = random.Random(29)
    bad = []
    for f, arity in _GAMMA_LAYER:
        for _ in range(1500):
            args = [_wide_argument(rng) for _ in range(arity)]
            try:
                value = f(*args)
            except (RangeError, PoleError, ConvergenceDomainError):
                continue
            except Exception as exc:
                bad.append((f.__name__, args, repr(exc)))
                continue
            if not cmath.isfinite(value):
                bad.append((f.__name__, args, repr(value)))
    assert not bad, f"{len(bad)} bad outcomes, first {bad[:3]}"


@pytest.mark.parametrize("call", [
    lambda: gamma_ratio((1e306,), ()),                  # log sum +inf
    lambda: bailey_ext_half(0.3, 1e308, 2),
    lambda: gamma(1 + 1e308j),                          # Im log sum inf
    lambda: gamma_ratio((), (1 + 1e308j,)),             # 1/Gamma(z)
    lambda: bailey_ext_half(0.5, 1 + 1e308j, 2),
    # a finite gamma product times a brace of 0 * inf
    lambda: gauss_ext_unit(3.5372662611579756e+272, -2.211889099253394e+83,
                           3.5372662611579756e+272, 27793664998.042355),
    # two finite gamma ratios, a term of the brace overflows
    lambda: second_gauss_ext_half(83.87059150583988,
                                  275012951.6383328 + 134297500.83962062j,
                                  -304641603652.627),
    lambda: second_gauss_ext_half(1e200, 1e306, 1.5),   # log sum inf - inf
], ids=["gamma_ratio-inf", "bailey_ext_half-nan", "gamma-inf-imag",
        "reciprocal_gamma-inf-imag", "bailey_ext_half-inf-imag",
        "gauss_ext_unit-brace", "second_gauss_ext_half-brace",
        "second_gauss_ext_half-huge"])
def test_beyond_binary64_is_range_error(call):
    with pytest.raises(RangeError):
        call()


@pytest.mark.parametrize("call", [
    lambda: second_gauss_ext_half(-4, -1, 2.0),        # G(-1) / (G(-2) G(0))
    lambda: gauss_unit(1, -2.5, -1),                   # G(-1) / G(-2)
    lambda: gauss_ext_unit(1e150, -1e306, -8, 2),      # G(-7) / G(-1e150)
], ids=["second_gauss_ext_half", "gauss_unit", "gauss_ext_unit"])
def test_numerator_pole_over_denominator_pole_is_pole_error(call):
    # only a denominator pole is a zero factor; a numerator pole raises
    # even when a denominator argument is a pole too (G above is Gamma)
    with pytest.raises(PoleError):
        call()


def test_log_sum_minus_inf_is_zero():
    # Re log sum = -inf is an underflow also when Im log sum is infinite:
    # log_gamma(1e306 + 1e308j) is inf + inf j
    assert gamma_ratio((), (1e306 + 1e308j,)) == 0
    assert gamma_ratio((1.0,), (1e306 + 1e308j,)) == 0


@pytest.mark.parametrize("c", [150, 197, 400])
def test_bailey_ext_half_large_c_against_series(c):
    """2^(-c) Gamma(1/2) Gamma(c+1) overflows from c = 197 on while the
    reciprocal gammas of the theorem's brace underflow; each term taken as
    one gamma ratio gives their product, the 3F2, near 1."""
    closed = bailey_ext_half(0.5, c, 2)
    r = sum_pfq(_series("bailey_ext_half", 0.5, c, 2), _half_policy())
    assert r.status is SumStatus.CONVERGED
    assert abs(closed - r.value) <= 1e-10 * abs(r.value)


def test_gauss_ext_unit_large_d_limit():
    # as |d| grows the brace tends to its d-free part, prefactor * (c-a-b)
    a, b, c = 0.3 + 0.7j, 0.1 - 0.7j, 1.9
    s = c - a - b
    d_free = gamma_ratio((c + 1, s), (c - a + 1, c - b + 1)) * s
    at_large_d = gauss_ext_unit(a, b, c, 1e6)
    assert abs(at_large_d - d_free) <= 1e-5 * abs(d_free)


def test_realness_on_conjugate_symmetric_inputs(rng):
    for _ in range(40):
        a = random_complex(rng)
        c = rng.uniform(0.5, 3.0) + abs(2 * a.real) + 0.5
        value = gauss_unit(a, a.conjugate(), c)
        assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))
        value = second_gauss_half(a, a.conjugate())
        assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))


# ----------------------------------------------------------------------
# the gamma layer keeps its bits and its log-gamma counts
# ----------------------------------------------------------------------

def _reference_ratio_of_two(a, b, c, d):
    return reference_gamma_ratio((a, b), (c, d))


# (function, its reference_* copy in conftest, arity, draws)
_BIT_SWEEP = [
    (gamma, reference_gamma, 1, 250),
    (_ratio_of_two, _reference_ratio_of_two, 4, 250),
    (gauss_unit, reference_gauss_unit, 3, 250),
    (gauss_ext_unit, reference_gauss_ext_unit, 4, 250),
    (second_gauss_half, reference_second_gauss_half, 2, 250),
    (bailey_half, reference_bailey_half, 2, 250),
    (second_gauss_ext_half, reference_second_gauss_ext_half, 3, 250),
    (bailey_ext_half, reference_bailey_ext_half, 3, 250),
]


def _sweep_argument(rng: random.Random) -> complex:
    """Modulus up to 700 one draw in ten (Gamma beyond binary64); else a
    real part on the half-integers of [-8, 8] (poles, zero ratios) or
    uniform there, and an imaginary part 0, up to 2 or up to 300 (past
    about 226 the reflection path's sin_pi overflows)."""
    if rng.random() < 0.1:
        return cmath.rect(rng.uniform(100.0, 700.0), rng.uniform(-math.pi, math.pi))
    re = rng.randint(-16, 16) / 2 if rng.random() < 0.6 else rng.uniform(-8.0, 8.0)
    im = rng.choice((0.0, 0.0, rng.uniform(-2.0, 2.0), rng.uniform(-300.0, 300.0)))
    return complex(re, im)


def test_gamma_layer_keeps_its_bits():
    """2,000 seeded draws: gamma, gamma_ratio and the six theorems give the
    repr, or the exception type and message, of the bodies they had before
    shared numerators were formed once and log_gamma's constants became
    complex (the reference_* copies in conftest)."""
    rng = random.Random(36)
    kinds, mismatches = set(), []
    for f, reference, arity, draws in _BIT_SWEEP:
        for _ in range(draws):
            args = [_sweep_argument(rng) for _ in range(arity)]
            got = outcome(f, *args)
            kinds.add(got[0])
            if got != outcome(reference, *args):
                mismatches.append((f.__name__, args, got))
    assert not mismatches, f"{len(mismatches)} differ, first {mismatches[:3]}"
    # the draws reach values, zero ratios' poles and every error kind
    assert kinds >= {"value", "PoleError", "RangeError", "ConvergenceDomainError"}


@pytest.mark.parametrize("f, args, count", [
    (gauss_unit, (0.3 + 0.2j, -0.1 + 0.4j, 2.2), 4),
    (gauss_ext_unit, (0.3 + 0.2j, -0.1 + 0.4j, 2.2, 1.7), 4),
    (second_gauss_half, (0.3 + 0.2j, -0.1 + 0.4j), 3),
    (bailey_half, (0.3 + 0.2j, 1.4), 4),
    (second_gauss_ext_half, (0.3 + 0.2j, -0.1 + 0.4j, 1.7), 5),
    (bailey_ext_half, (0.3 + 0.2j, 1.4, 1.7), 6),
], ids=lambda x: getattr(x, "__name__", None))
def test_log_gamma_calls_per_theorem(log_gamma_calls, f, args, count):
    """A numerator that two ratios share is formed once, and log Gamma(1/2)
    at import: 4, 4, 3, 4, 5 and 6 log-gammas."""
    f(*args)
    assert len(log_gamma_calls) == count
