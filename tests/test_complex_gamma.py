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
    theorem1,
)
from gelfond.complex_gamma import sin_pi
from gelfond import complex_gamma
from gelfond.closed_forms import gamma_ratio
from conftest import (COSH_PI, LANCZOS_COEF, SINH_PI, outcome, random_complex,
                      reference_log_gamma, rel_err)


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
    # the reflection path reaches as far as sin_pi does: cosh(pi Im z)
    # overflows binary64 from |Im z| of about 226 on
    assert cmath.isfinite(log_gamma(complex(-0.25, 31.0)))
    assert cmath.isfinite(log_gamma(complex(-0.25, -225.0)))
    with pytest.raises(RangeError, match="overflows binary64"):
        log_gamma(complex(-0.25, 227.0))
    # the limit only applies to the reflection path
    assert cmath.isfinite(log_gamma(complex(2.0, 227.0)))


def test_reflection_beyond_the_envelope_by_recurrence(rng):
    """Past the envelope's |Im z| <= 30 the reflection path still keeps
    log Gamma(z+1) - log Gamma(z) - log z in 2 pi i Z, z + 1 on the
    Lanczos path: it reached 5.9e-13 on 2,000 such points."""
    for _ in range(500):
        z = complex(rng.uniform(-0.5, 0.5), rng.choice((-1.0, 1.0)) * rng.uniform(30.0, 220.0))
        d = log_gamma(z + 1) - log_gamma(z) - cmath.log(z)
        d -= 2j * math.pi * round(d.imag / (2.0 * math.pi))
        assert abs(d) <= 1e-12, z


def test_reflection_modulus_on_imaginary_axis():
    """Re log Gamma(iy) = ln(pi / (y sinh(pi y))) / 2 (DLMF 5.4.3) as far as
    sinh stays finite; the error reached 2.8e-13, against a modulus of up
    to 345."""
    for j in range(1, 441):
        y = 0.5 * j
        exact = 0.5 * (math.log(math.pi) - math.log(y) - math.log(math.sinh(math.pi * y)))
        for z in (1j * y, -1j * y):
            assert abs(log_gamma(z).real - exact) <= 1e-12, z


def test_gamma_overflow_raises():
    # exp overflows at 200; at 1e306 log_gamma itself is +inf, which
    # exp_log_sum refuses before exp would return inf
    for z in (200.0, 1e306):
        with pytest.raises(RangeError):
            gamma(z)


def test_reciprocal_gamma_zero_at_poles():
    # 1/Gamma(z) as a ratio with no numerator: a denominator pole is a zero
    assert gamma_ratio((), (0,)) == 0
    assert gamma_ratio((), (-4,)) == 0
    assert rel_err(gamma_ratio((), (0.5,)), 1 / math.sqrt(math.pi)) <= 1e-13


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


def test_gamma_modulus_against_dlmf(rng):
    # |Gamma(1/2+iy)|^2 = pi / cosh(pi y) (DLMF 5.4.4) and |Gamma(iy)|^2
    # = pi / (y sinh(pi y)) (DLMF 5.4.3), carried over the envelope's
    # region, x = -50 .. 50 in steps of 1/2, by |Gamma(x+1+iy)|^2 =
    # (x^2 + y^2) |Gamma(x+iy)|^2 both ways; the products, rounded once a
    # step, stay within 2.3e-14 of exact.  The error measured on this
    # sample is 3.3e-13.
    limit = int(complex_gamma.ENVELOPE_RE_LIMIT)
    for _ in range(150):
        y = rng.uniform(0.1, complex_gamma.ENVELOPE_IM_LIMIT)
        for start, modulus2 in ((0.5, math.pi / math.cosh(math.pi * y)),
                                (0.0, math.pi / (y * math.sinh(math.pi * y)))):
            up = down = modulus2
            for k in range(limit + 1):
                for re, m2 in ((start + k, up), (start - k, down)):
                    z = complex(re, y)
                    if complex_gamma.within_envelope(z):
                        error = 2.0 * log_gamma(z).real - math.log(m2)
                        assert abs(error) <= complex_gamma.LOG_GAMMA_ENVELOPE, z
                up *= (start + k) ** 2 + y * y
                down /= (start - k - 1) ** 2 + y * y


def test_log_gamma_near_poles_by_recurrence(rng):
    """At ENVELOPE_POLE_DISTANCE from a pole, where the reflection's sin(pi z)
    loses the most, log_gamma(z) agrees with log_gamma(z + m) - sum of
    log(z + k), k < m, which needs no reflection (modulo 2 pi i); the
    difference reached 3.0e-13 over 4,000 such points."""
    delta = complex_gamma.ENVELOPE_POLE_DISTANCE
    for _ in range(400):
        pole = -rng.randint(0, int(complex_gamma.ENVELOPE_RE_LIMIT) - 1)
        z = complex(pole + rng.choice((-delta, delta)),
                    rng.choice((0.0, rng.uniform(-delta, delta), rng.uniform(-30.0, 30.0))))
        if not complex_gamma.within_envelope(z):
            continue
        m = 1 - pole
        logs = [cmath.log(z + k) for k in range(m)]
        d = (log_gamma(z) - log_gamma(z + m)
             + complex(math.fsum(v.real for v in logs), math.fsum(v.imag for v in logs)))
        d -= 2j * math.pi * round(d.imag / (2.0 * math.pi))
        assert abs(d) <= 2 * complex_gamma.LOG_GAMMA_ENVELOPE, z


def test_envelope_region():
    inside = (50.0 + 30j, -50.0 - 30j, 0.5, 0.49 + 1j, -3.0 + 1 / 32, -1 / 32,
              0.03125j)
    outside = (50.5, 30.5j, -50.5, -3.0 + 1 / 64, 0.0, -2.0 + 0.03j,
               complex(math.nan, 0.0), complex(0.0, math.inf))
    assert all(map(complex_gamma.within_envelope, inside))
    assert not any(map(complex_gamma.within_envelope, outside))


@pytest.mark.parametrize("call", [
    lambda: log_gamma(complex(1, math.inf)),
    lambda: gamma(math.nan),
    lambda: gamma_ratio((), (math.nan,)),               # 1/Gamma(z)
    lambda: gauss_unit(math.nan, 1, 3),
    lambda: gauss_ext_unit(1j, -1j, 0.5, math.nan),
    lambda: theorem1(math.inf, 1),
], ids=["log_gamma-inf", "gamma-nan", "reciprocal_gamma-nan", "gauss_unit-nan",
        "gauss_ext_unit-nan-d", "theorem1-inf-d"])
def test_non_finite_arguments_raise_range_error(call):
    with pytest.raises(RangeError):
        call()


def test_lanczos_literals_are_the_coefficients():
    """log_gamma writes its Lanczos sum out with literal coefficients, as
    complex constants x + 0j.  A one-ulp slip in the small last ones moves
    no bit at any reference point, so the literals are read from the
    compiled function: their real parts are conftest's LANCZOS_COEF, all
    nine in order, and their imaginary parts exactly 0.0 (+0.0, so that the
    complex division has the operands of float / complex, and the sum
    starts from complex(LANCZOS_COEF[0]))."""
    consts = [c for c in log_gamma.__code__.co_consts
              if isinstance(c, complex) and c.real in LANCZOS_COEF]
    assert [c.real for c in consts] == list(LANCZOS_COEF)
    assert all(math.copysign(1.0, c.imag) == 1.0 and c.imag == 0.0 for c in consts)


@pytest.mark.parametrize("f, z, message", [
    (sin_pi, 0.3 + 300j, "overflows binary64"),
    (sin_pi, math.inf, "not finite"),
    (log_gamma, complex(-1e308, 30.0), "not finite"),   # pi Re z overflows
], ids=["cosh-overflow", "inf", "log_gamma-reflection"])
def test_sin_pi_out_of_range_raises_range_error(f, z, message):
    # math.cosh raises OverflowError and math.sin of inf ValueError
    with pytest.raises(RangeError, match=message):
        f(z)


def test_log_gamma_matches_reference():
    """log_gamma against the index-loop reference: repr-equal on 2,400
    seeded points with -20 <= Re z <= 50 and |Im z| <= 30 (both branches,
    a tenth of them on the real axis), and the same exception and message
    at and near the poles and where the reflection's sin_pi overflows.  The
    reference scans for poles everywhere, log_gamma only for Re z < 1/2 or
    a non-finite z: both sides of that guard, non-finite parts, signed
    zeros and non-complex arguments are pinned too."""
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
        got = outcome(log_gamma, z)
        assert got == outcome(reference_log_gamma, z), z
        seen.add(got[0])
    assert seen == {"value", "PoleError", "RangeError"}


# ----------------------------------------------------------------------
# digamma
# ----------------------------------------------------------------------

EULER_GAMMA = Fraction("0.5772156649015328606065120900824024310422")
LN2 = Fraction("0.6931471805599453094172321214581765680755")


def _digamma_error(value: complex, exact: Fraction) -> float:
    """|value - exact| in units of eps max(1, |exact|), exact real."""
    error = abs(Fraction(value.real) - exact) + abs(Fraction(value.imag))
    return float(error / max(1, abs(exact))) / 2.0 ** -52


def test_digamma_exact_values():
    # psi(1) = -gamma, psi(n+1) = H_n - gamma, psi(1/2) = -gamma - 2 ln 2
    # and psi(n + 1/2) = psi(1/2) + sum_{k<n} 2/(2k+1), within 3 eps
    # relative (measured: 2.5 and 4 ulp at psi(1) and psi(1/2), where the
    # shift sum cancels; at most 1.5 elsewhere)
    harmonic = half = Fraction(0)
    for n in range(61):
        assert _digamma_error(complex_gamma.digamma(n + 1), harmonic - EULER_GAMMA) <= 3.0, n
        exact = -EULER_GAMMA - 2 * LN2 + half
        limit = 4.5 if n == 0 else 3.0
        assert _digamma_error(complex_gamma.digamma(n + 0.5), exact) <= limit, n
        harmonic += Fraction(1, n + 1)
        half += Fraction(2, 2 * n + 1)


@pytest.mark.parametrize("x, pole, coth", [
    (0.0, 1.0, True),       # Im psi(iy) = 1/(2y) + (pi/2) coth(pi y), DLMF 5.4.16
    (0.5, 0.0, False),      # Im psi(1/2 + iy) = (pi/2) tanh(pi y), 5.4.17
    (1.0, -1.0, True),      # Im psi(1 + iy) = -1/(2y) + (pi/2) coth(pi y), 5.4.18
], ids=["iy", "half+iy", "1+iy"])
def test_digamma_imaginary_part_against_dlmf(x, pole, coth):
    """y = 0.1 .. 30, within 4 eps of the sum of the two terms' moduli,
    which bounds the reference's own rounding where they cancel."""
    for k in range(1, 301):
        y = 0.1 * k
        wave = math.pi / 2 * (1 / math.tanh(math.pi * y) if coth else math.tanh(math.pi * y))
        exact = pole / (2 * y) + wave
        value = complex_gamma.digamma(complex(x, y)).imag
        assert abs(value - exact) <= 4 * 2.0 ** -52 * (abs(pole) / (2 * y) + wave), y


def _pi_cot_pi(z: complex) -> complex:
    """pi cot(pi z) with the argument reduced by the nearest integer first,
    which is exact, so that the reference keeps its digits near a pole."""
    r = z - round(z.real)
    return math.pi / cmath.tan(math.pi * r)


def test_digamma_reflection_over_the_envelope(rng):
    """psi(1 - z) - psi(z) = pi cot(pi z) (DLMF 5.5.4) wherever z and 1 - z
    both lie in the envelope's region, two thirds of the points with a
    real part ENVELOPE_POLE_DISTANCE from an integer: each side within
    DIGAMMA_ENVELOPE (measured: 1.7e-14 against mpmath on 20,000 points
    within half a unit of a pole)."""
    delta = complex_gamma.ENVELOPE_POLE_DISTANCE
    checked = 0
    while checked < 3000:
        pick = rng.randrange(3)
        if pick == 0:
            z = complex(rng.uniform(-49.0, 50.0), rng.uniform(-30.0, 30.0))
        else:
            z = complex(rng.randint(-49, 50) + rng.choice((-delta, delta)),
                        0.0 if pick == 1 else rng.uniform(-delta, delta))
        if not (complex_gamma.within_envelope(z) and complex_gamma.within_envelope(1 - z)):
            continue
        checked += 1
        lhs = complex_gamma.digamma(1 - z) - complex_gamma.digamma(z)
        exact = _pi_cot_pi(z)
        assert abs(lhs - exact) <= (2 * complex_gamma.DIGAMMA_ENVELOPE
                                    + 8 * 2.0 ** -52 * abs(exact)), z


@pytest.mark.parametrize("z, error", [
    (0.0, PoleError), (-3.0, PoleError), (complex(-7, 5e-13), PoleError),
    (math.inf, RangeError), (complex(1.0, math.nan), RangeError),
    (-complex_gamma.DIGAMMA_MAX_SHIFT - 0.5, RangeError),
], ids=["zero", "minus-3", "near-minus-7", "inf", "nan", "below-shift-limit"])
def test_digamma_refuses_poles_and_non_finite_arguments(z, error):
    with pytest.raises(error):
        complex_gamma.digamma(z)
