"""Complex gamma and log-gamma via the Lanczos approximation, and digamma.

Uses the fixed g=7 coefficient set (9 terms) for Re z >= 1/2 and the
reflection formula Gamma(z)Gamma(1-z) = pi/sin(pi z) otherwise, as far as
sin_pi stays within binary64 (|Im z| up to about 226).  The set has no
proven bound; the envelope is measured.  Against mpmath.loggamma at 30
digits (3,000 seeded points per region, up to the multiple of 2 pi i of
log_gamma's branch), |log_gamma error| reached 1.7e-13 over
0.5 <= Re z <= 50 and over -50 <= Re z < 0.5, both with |Im z| <= 30,
3.0e-13 over Re z >= 1/2, |z| <= 100, and 4.5e-13 over -50 <= Re z < 0.5,
30 <= |Im z| <= 225 (1,600 points).  The relative error of gamma() is
about the same.  LOG_GAMMA_ENVELOPE names the bound that callers may use,
over the region within_envelope admits; tests/test_complex_gamma.py holds
log_gamma to it there, against |Gamma(x+iy)|^2 of DLMF 5.4.3-5.4.4 and
against the recurrence near the poles.  digamma shifts its argument and
sums the asymptotic series, with DIGAMMA_ENVELOPE its measured error over
the same region; PSI_SLACK and TRIGAMMA_BOUND bound psi and psi' there.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError, RangeError, as_number

# Lanczos g=7; its 9 coefficients (Godfrey's set, widely published) are
# written once, as the literals of log_gamma's sum
_LANCZOS_G = 7.0
# complex, as are log_gamma's other constants that stand left of a complex
# operand (see log_gamma)
_LOG_SQRT_2PI = 0.91893853320467274178032973640562 + 0j
_LOG_PI = complex(math.log(math.pi))

POLE_TOLERANCE = 1e-12

# The measured error envelope of log_gamma, per log-gamma, over the region
# that within_envelope admits: -50 <= Re z <= 50, |Im z| <= 30 and, for
# Re z < 1/2, at least ENVELOPE_POLE_DISTANCE from every non-positive
# integer.  Against mpmath.loggamma at 30 digits (modulo 2 pi i, 1,500
# seeded points per set) the error reached 1.7e-13 over the box, 2.1e-13 at
# distance 1/32 from a pole (4.1e-13 at 1/64, 6.4e-13 at 0.01), and
# |log_gamma| stayed below 261, so that each log-gamma's share of the
# rounding of a sum of four (closed_forms.gamma_ratio) is below 9e-14.
# tests/test_complex_gamma.py holds the region to it.
LOG_GAMMA_ENVELOPE = 1e-12
ENVELOPE_RE_LIMIT = 50.0
ENVELOPE_IM_LIMIT = 30.0
ENVELOPE_POLE_DISTANCE = 1.0 / 32.0

# B_0 .. B_16 as (numerator, denominator), with B_1 = -1/2: digamma's
# asymptotic series and series._tail_weights share the table
BERNOULLI = ((1, 1), (-1, 2), (1, 6), (0, 1), (-1, 30), (0, 1), (1, 42),
             (0, 1), (-1, 30), (0, 1), (5, 66), (0, 1), (-691, 2730),
             (0, 1), (7, 6), (0, 1), (-3617, 510))


def nearest_nonpositive_int(z: complex, tol: float = POLE_TOLERANCE) -> int | None:
    """The k in 0, -1, -2, ... within ``tol`` of z, or None; RangeError
    for a non-finite z.

    Three tolerances are in use: POLE_TOLERANCE = 1e-12 for the poles of
    gamma, series.NEAR_INT_TOLERANCE = 1e-9 for the lower-pole guard of
    series parameters, and closed_forms.D_POLE_TOLERANCE =
    1e-6 for the extension parameter d.  log_gamma calls it only for
    Re z < 1/2 or a non-finite z; gamma and every gamma product of
    closed_forms go through log_gamma, so a non-finite argument to any of
    them raises here.
    """
    if not cmath.isfinite(z):
        raise RangeError(f"argument {z} is not finite")
    k = round(z.real)
    return k if k <= 0 and abs(z - k) <= tol else None


def within_envelope(z: complex) -> bool:
    """True when z lies in the region where LOG_GAMMA_ENVELOPE was
    measured: |Re z| <= 50, |Im z| <= 30 and, for Re z < 1/2, at least
    ENVELOPE_POLE_DISTANCE from every non-positive integer; False for a
    z that is not finite."""
    return (abs(z.real) <= ENVELOPE_RE_LIMIT and abs(z.imag) <= ENVELOPE_IM_LIMIT
            and (z.real >= 0.5 or abs(z - round(z.real)) >= ENVELOPE_POLE_DISTANCE))


def sin_pi(z: complex) -> complex:
    """sin(pi z) from real sin/cos and hyperbolic functions of Im z.

    RangeError when cosh(pi Im z) overflows binary64 (a finite |Im z|
    above about 226) or pi Re z is not finite (|Re z| above about 5.7e307);
    the first is the limit of log_gamma's reflection path."""
    x, y = z.real, z.imag
    try:
        return complex(
            math.sin(math.pi * x) * math.cosh(math.pi * y),
            math.cos(math.pi * x) * math.sinh(math.pi * y),
        )
    except OverflowError:
        raise RangeError(f"sin_pi({z}) overflows binary64") from None
    except ValueError:
        raise RangeError(f"sin_pi({z}): pi Re z is not finite") from None


def log_gamma(z: complex) -> complex:
    """A logarithm of Gamma(z): exp(log_gamma(z)) is Gamma(z), which is how
    every caller uses it.

    For Re z >= 1/2 it is the continuous branch (real on the positive axis,
    the branch of mpmath.loggamma).  For Re z < 1/2 the reflection formula,
    with principal logs, is off that branch by an exact multiple of 2 pi i,
    non-zero almost everywhere: at 2,940 of 3,000 seeded points with
    -50 <= Re z < 1/2 and |Im z| <= 30.  For example
    log_gamma(-7.3-12j).imag is -28.32 where the continuous branch has
    -3.19.  It is not the principal log of Gamma(z) either.

    ValueError for a z that is not a number (errors.as_number).  Raises
    PoleError within ``POLE_TOLERANCE`` of a non-positive integer,
    RangeError for a non-finite z and RangeError from sin_pi when the
    reflection path's sin(pi z) overflows (|Im z| above about 226).  The
    poles all have Re <= 0, so a finite z with Re z >= 1/2 is at least 1/2
    from one and skips the pole scan; a NaN real part fails ``< 0.5`` and
    is caught by ``isfinite``.

    The Lanczos sum is written out left to right with literal
    coefficients, the one copy of the set in the package: the operations
    of ``acc += coef[k] / (w + k)`` for k = 1..8 from complex(coef[0]), in
    that order, so it has the bits of the loop that tests/conftest.py keeps
    as its reference, with the set as that loop's data.

    Every constant left of a complex operand is complex (the numerators'
    x + 0j folds to one constant, and _LOG_SQRT_2PI, _LOG_PI and the 1 of
    1 - z): CPython 3.10-3.13 computes ``float op complex``, after the
    float method returns NotImplemented, as the complex operation on
    complex(x, 0.0), so the complex constant gives the same bits without
    that round trip (the conftest reference keeps the float form).
    """
    z = as_number(z, "z")
    reflect = z.real < 0.5
    if (reflect or not cmath.isfinite(z)) and nearest_nonpositive_int(z) is not None:
        raise PoleError(f"log_gamma: {z} is within {POLE_TOLERANCE} of a pole")
    if reflect:
        # Re(1 - z) > 1/2, never a pole: the Lanczos sum below applies
        head, z = _LOG_PI - cmath.log(sin_pi(z)), (1.0 + 0j) - z
    w = z - 1.0
    acc = ((0.99999999999980993 + 0j) + (676.5203681218851 + 0j) / (w + 1.0)
           + (-1259.1392167224028 + 0j) / (w + 2.0)
           + (771.32342877765313 + 0j) / (w + 3.0)
           + (-176.61502916214059 + 0j) / (w + 4.0)
           + (12.507343278686905 + 0j) / (w + 5.0)
           + (-0.13857109526572012 + 0j) / (w + 6.0)
           + (9.9843695780195716e-6 + 0j) / (w + 7.0)
           + (1.5056327351493116e-7 + 0j) / (w + 8.0))
    t = w + _LANCZOS_G + 0.5
    value = _LOG_SQRT_2PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)
    return head - value if reflect else value


# digamma shifts its argument to Re z >= _DIGAMMA_SHIFT and sums the
# asymptotic series there, with the coefficients B_2k / (2k), k = 1 .. 7
_DIGAMMA_SHIFT = 10.0
_DIGAMMA_COEF = tuple(p / (q * j) for j, (p, q) in enumerate(BERNOULLI[:15])
                      if j and not j % 2)
# more shift steps than this raise RangeError
DIGAMMA_MAX_SHIFT = 10_000
# The measured error envelope of digamma, absolute, over the region that
# within_envelope admits.  Against mpmath.digamma at 30 digits the error
# reached 1.9e-15 over the box (3,000 seeded points) and 1.7e-14 within
# half a unit of a pole (20,000 points, |psi| up to 35), where the shift
# sum's largest reciprocal, up to 1/delta = 32, sets it.
# tests/test_complex_gamma.py holds the region to it by the reflection
# formula.
DIGAMMA_ENVELOPE = 1e-13
# |psi(x)| <= ln(2 + |x|) + 1/delta + 1 over the envelope's region, delta
# its pole distance: measured against mpmath.digamma on 20,000 seeded
# points, half of them 1/32 to 0.2 from a pole, |psi| reached 0.975 of it
PSI_SLACK = 1.0 / ENVELOPE_POLE_DISTANCE + 1.0
# |psi'(x)| <= pi^2 + 1/delta^2 when every x + j, j >= 0, is at least
# delta from 0: one x + j may come within delta, the others add at most
# 2 sum_i 1/(i + 1/2)^2 = pi^2
TRIGAMMA_BOUND = math.pi ** 2 + 1.0 / ENVELOPE_POLE_DISTANCE ** 2
EULER_GAMMA = 0.57721566490153286


def digamma(z: complex) -> complex:
    """psi(z) = Gamma'(z) / Gamma(z) for complex z.

    psi(z) = psi(z + n) - sum_{k<n} 1/(z + k) with n the fewest steps that
    give Re(z + n) >= 10, and there
        psi(x) = ln x - 1/(2x) - sum_{k=1}^{7} B_2k / (2k x^2k) + R,
    |R| <= |B_16| / (16 (Re x)^16) <= 4.5e-17 for Re x > 0 (the remainder
    of the Bernoulli expansion of 1/(e^t - 1) - 1/t + 1/2 is at most its
    first omitted term for t > 0).  The rest is rounding, which the shift
    sum dominates near a pole; DIGAMMA_ENVELOPE bounds the whole error over
    the region within_envelope admits.

    ValueError for a z that is not a number, PoleError within
    POLE_TOLERANCE of a non-positive integer, RangeError for a non-finite
    z and for Re z < -DIGAMMA_MAX_SHIFT, where the shift would take more
    steps than that.
    """
    z = as_number(z, "z")
    if nearest_nonpositive_int(z) is not None:
        raise PoleError(f"digamma: {z} is within {POLE_TOLERANCE} of a pole")
    if z.real < -DIGAMMA_MAX_SHIFT:
        raise RangeError(f"digamma: Re z = {z.real} is below -{DIGAMMA_MAX_SHIFT}")
    steps = max(0, math.ceil(_DIGAMMA_SHIFT - z.real))
    shift = 0.0
    for k in range(steps):
        shift += 1.0 / (z + k)
    z += steps
    inv = 1.0 / z
    inv2 = inv * inv
    acc = 0.0
    for coef in reversed(_DIGAMMA_COEF):
        acc = (acc + coef) * inv2
    return cmath.log(z) - 0.5 * inv - acc - shift


def exp_log_sum(acc: complex) -> complex:
    """exp(acc) for a sum of log-gammas, the one rule by which gamma and
    every gamma product of closed_forms become a value.

    A real part of -inf is an underflow and gives 0.  RangeError when the
    real part is NaN (such as inf - inf from two gammas beyond binary64
    that cancel) or +inf, the imaginary part is not finite, or the
    exponential overflows binary64.
    """
    if not cmath.isfinite(acc) and acc.real != -math.inf:
        raise RangeError(f"gamma product is beyond binary64: its log sum is {acc}")
    try:
        return cmath.exp(acc)
    except OverflowError:
        raise RangeError("gamma product overflows binary64") from None


def gamma(z: complex) -> complex:
    """Gamma(z) for complex z, exp_log_sum(log_gamma(z)); PoleError at
    non-positive integers, RangeError beyond binary64."""
    return exp_log_sum(log_gamma(z))

