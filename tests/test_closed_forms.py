import math

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
    gauss_ext_unit,
    gauss_unit,
    reciprocal_gamma,
    second_gauss_ext_half,
    second_gauss_half,
    sum_pfq,
    sum_pfq_unit,
)
from gelfond.closed_forms import SERIES, gamma_ratio
from conftest import (
    COSH_HALF_PI,
    COSH_PI,
    E_MINUS_PI,
    E_PI,
    SINH_HALF_PI,
    SINH_PI,
    random_complex,
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


# ----------------------------------------------------------------------
# oracle equivalence at z = 1
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
    (reciprocal_gamma, (0.5 + 1e300j,)),
    (bailey_ext_half, (0.5 + 1000j, 400, 2)),       # 3F2 = 1.5e347 (mpmath)
], ids=["gamma_ratio", "gauss_unit", "reciprocal_gamma", "bailey_ext_half"])
def test_exp_overflow_is_range_error(f, args):
    # cmath.exp raises a bare OverflowError beyond binary64; gamma() already
    # raises RangeError there, and so do the closed forms
    with pytest.raises(RangeError, match="overflows binary64"):
        f(*args)


@pytest.mark.parametrize("c", [150, 197, 400])
def test_bailey_ext_half_large_c_against_series(c):
    """2^(-c) Gamma(1/2) Gamma(c+1) overflows from c = 197 on while the
    brace's reciprocal gammas underflow; their product, the 3F2, is near 1."""
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
