import cmath
import math
import random
from fractions import Fraction

import pytest

from gelfond import (
    PoleError,
    RangeError,
    gamma,
    gauss_ext_unit,
    gauss_unit,
    log_gamma,
    reciprocal_gamma,
    sin_pi,
    theorem1,
)
from gelfond import complex_gamma
from conftest import COSH_PI, SINH_PI, random_complex, reference_log_gamma, rel_err


def test_log_gamma_at_one_and_half():
    assert abs(log_gamma(1)) <= 1e-14
    assert abs(log_gamma(0.5) - math.log(math.sqrt(math.pi))) <= 1e-14


def test_log_gamma_strip_product():
    # Gamma(1/2+iy) Gamma(1/2-iy) = pi / cosh(pi y) at y = 1, via exp oracle
    value = cmath.exp(log_gamma(0.5 + 1j)) * cmath.exp(log_gamma(0.5 - 1j))
    assert rel_err(value, math.pi / COSH_PI) <= 1e-13


def test_gamma_factorial():
    assert rel_err(gamma(5), 24.0) <= 1e-14


def test_gamma_conjugate_product():
    # Gamma(1+i) Gamma(1-i) = pi / sinh(pi), sinh from exponentials
    assert rel_err(gamma(1 + 1j) * gamma(1 - 1j), math.pi / SINH_PI) <= 1e-13


def test_gamma_negative_half_integer():
    # Gamma(-3/2) = Gamma(1/2) / ((-3/2)(-1/2)) = 4 sqrt(pi) / 3
    assert rel_err(gamma(-1.5), 4.0 * math.sqrt(math.pi) / 3.0) <= 1e-13


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3 + 1e-13, complex(0, 5e-13)])
def test_pole_error(z):
    with pytest.raises(PoleError):
        gamma(z)


def test_reflection_strip_limit():
    with pytest.raises(RangeError):
        log_gamma(complex(-0.25, 31.0))
    # the limit only applies to the reflection path
    assert cmath.isfinite(log_gamma(complex(2.0, 40.0)))


def test_gamma_overflow_raises():
    # exp overflows at 200; at 1e306 log_gamma itself is +inf, which
    # exp_log_sum refuses before exp would return inf
    for z in (200.0, 1e306):
        with pytest.raises(RangeError):
            gamma(z)


def test_reciprocal_gamma_zero_at_poles():
    assert reciprocal_gamma(0) == 0
    assert reciprocal_gamma(-4) == 0
    assert rel_err(reciprocal_gamma(0.5), 1 / math.sqrt(math.pi)) <= 1e-13


def _pole_safe(z: complex) -> bool:
    k = round(z.real)
    return not (k <= 0 and abs(z - k) < 0.05)


def test_recurrence_property(rng):
    checked = 0
    while checked < 1000:
        z = random_complex(rng, 20.0)
        if not (_pole_safe(z) and _pole_safe(z + 1)):
            continue
        lhs = gamma(z + 1)
        assert abs(lhs - z * gamma(z)) / abs(lhs) <= 1e-12
        checked += 1


def test_reflection_property(rng):
    checked = 0
    while checked < 1000:
        z = random_complex(rng, 20.0)
        if abs(z.imag) < 1e-3 and abs(z.real - round(z.real)) < 0.05:
            continue
        if not (_pole_safe(z) and _pole_safe(1 - z)):
            continue
        product = gamma(z) * gamma(1 - z)
        reference = math.pi / sin_pi(z)
        assert abs(product - reference) / abs(reference) <= 1e-12
        checked += 1


def test_conjugate_symmetry(rng):
    checked = 0
    while checked < 500:
        z = random_complex(rng, 20.0)
        if not _pole_safe(z):
            continue
        a, b = gamma(z.conjugate()), gamma(z).conjugate()
        assert abs(a - b) / abs(b) <= 1e-13
        checked += 1


def test_strip_product_real_positive():
    for k in range(101):
        y = 0.1 * k
        value = gamma(0.5 + 1j * y) * gamma(0.5 - 1j * y)
        assert abs(value.imag) <= 1e-12 * max(1.0, abs(value))
        assert value.real > 0.0


def test_log_gamma_branch(rng):
    # log Gamma(z+1) - log Gamma(z) - log z is 0 on the continuous branch.
    # log_gamma keeps to it for Re z >= 1/2; below, the reflection formula
    # is off it by multiples of 2 pi i, and a non-zero multiple shows that
    off_branch = 0
    checked = 0
    while checked < 2000:
        z = complex(rng.uniform(-50.0, 50.0), rng.uniform(-29.0, 29.0))
        if not _pole_safe(z):
            continue
        d = log_gamma(z + 1) - log_gamma(z) - cmath.log(z)
        k = round(d.imag / (2.0 * math.pi))
        if z.real >= 0.5:
            assert k == 0, z
        assert abs(d - 2j * math.pi * k) <= 1e-12, z
        off_branch += k != 0
        checked += 1
    assert off_branch > 0


# Fixed before the run; the error measured on this sample is 3.3e-13.
GAMMA_MODULUS_TOL = 1e-12


def test_gamma_modulus_against_dlmf(rng):
    # |Gamma(1/2+iy)|^2 = pi / cosh(pi y) (DLMF 5.4.4) and |Gamma(1+iy)|^2
    # = y^2 |Gamma(iy)|^2 = pi y / sinh(pi y) (DLMF 5.4.3), carried up to
    # x = 19/2 by |Gamma(x+1+iy)|^2 = (x^2 + y^2) |Gamma(x+iy)|^2
    for _ in range(150):
        y = rng.uniform(0.1, 30.0)
        half = math.pi / math.cosh(math.pi * y)
        whole = math.pi * y / math.sinh(math.pi * y)
        for x in range(10):
            checks = [(x + 0.5, half), (x + 1, whole)] if x < 9 else [(x + 0.5, half)]
            for re, modulus2 in checks:
                error = 2.0 * log_gamma(complex(re, y)).real - math.log(modulus2)
                assert abs(error) <= GAMMA_MODULUS_TOL, (re, y)
            half *= (x + 0.5) ** 2 + y * y
            whole *= (x + 1) ** 2 + y * y


@pytest.mark.parametrize("call", [
    lambda: log_gamma(complex(1, math.inf)),
    lambda: gamma(math.nan),
    lambda: reciprocal_gamma(math.nan),
    lambda: gauss_unit(math.nan, 1, 3),
    lambda: gauss_ext_unit(1j, -1j, 0.5, math.nan),
    lambda: theorem1(math.inf, 1),
], ids=["log_gamma-inf", "gamma-nan", "reciprocal_gamma-nan", "gauss_unit-nan",
        "gauss_ext_unit-nan-d", "theorem1-inf-d"])
def test_non_finite_arguments_raise_range_error(call):
    with pytest.raises(RangeError):
        call()


def test_lanczos_literals_are_the_coefficients():
    """log_gamma writes its Lanczos sum out with literal coefficients.  A
    one-ulp slip in the small last ones moves no bit at any reference
    point, so the literals are read from the compiled function and
    compared with _LANCZOS_COEF, in order."""
    coef = complex_gamma._LANCZOS_COEF[1:]
    consts = log_gamma.__code__.co_consts
    assert [c for c in consts if isinstance(c, float) and c in coef] == list(coef)


@pytest.mark.parametrize("f, z, message", [
    (sin_pi, 0.3 + 300j, "overflows binary64"),
    (sin_pi, math.inf, "not finite"),
    (log_gamma, complex(-1e308, 30.0), "not finite"),   # pi Re z overflows
], ids=["cosh-overflow", "inf", "log_gamma-reflection"])
def test_sin_pi_out_of_range_raises_range_error(f, z, message):
    # math.cosh raises OverflowError and math.sin of inf ValueError
    with pytest.raises(RangeError, match=message):
        f(z)


def _log_gamma_outcome(f, z) -> tuple[str, str]:
    """("value", repr of f(z)), or f's exception's name and message."""
    try:
        return "value", repr(f(z))
    except (ValueError, ArithmeticError) as exc:
        return type(exc).__name__, str(exc)


def test_log_gamma_matches_reference():
    """log_gamma against the index-loop reference: repr-equal on 2,400
    seeded points with -20 <= Re z <= 50 and |Im z| <= 30 (both branches,
    a tenth of them on the real axis), and the same exception and message
    at and near the poles and beyond the reflection strip.  The reference
    scans for poles everywhere, log_gamma only for Re z < 1/2 or a
    non-finite z: both sides of that guard, non-finite parts, signed zeros
    and non-complex arguments are pinned too."""
    rng = random.Random(0x1064)
    points = []
    for i in range(2400):
        x = rng.uniform(-20.0, 50.0)
        points.append(complex(x) if i % 10 == 0 else complex(x, rng.uniform(-30.0, 30.0)))
    reflected = sum(z.real < 0.5 for z in points)
    assert 400 <= reflected <= 2000
    for k in range(-20, 1):
        points += [complex(k), complex(k + 5e-13, -5e-13), complex(k, 2e-12),
                   complex(k - 1e-6), complex(k + 0.5, 30.0 + 1e-9)]
    points += [complex(-3.0, 31.0), complex(0.25, -1e3), 0.5 + 1e3j, 1e300, 0.5]
    below_half = math.nextafter(0.5, 0.0)
    for x in (0.5, below_half):
        points += [complex(x), complex(x, 2.5), complex(x, -0.0), complex(x, -2.5)]
    for v in (math.inf, -math.inf, math.nan):
        points += [complex(v, 1.0), complex(v, -0.0)]
        points += [complex(x, v) for x in (0.75, 0.5, below_half, 0.25, -2.0)]
    points += [complex(3.5, -0.0), complex(-2.5, -0.0), complex(-3.0, -0.0),
               3, Fraction(1, 2), Fraction(-2)]
    # t = (w + 7.0) + 0.5 and w + 7.5 differ here, and so does the value,
    # directly and through the reflection
    points += [complex(1.995480234601769, -4.242349685092563),
               complex(-0.995480234601769, 4.242349685092563)]
    seen = set()
    for z in points:
        outcome = _log_gamma_outcome(log_gamma, z)
        assert outcome == _log_gamma_outcome(reference_log_gamma, z), z
        seen.add(outcome[0])
    assert seen == {"value", "PoleError", "RangeError"}
