"""Complex gamma and log-gamma via the Lanczos approximation.

Uses the fixed g=7 coefficient set (9 terms) for Re z >= 1/2 and the
reflection formula Gamma(z)Gamma(1-z) = pi/sin(pi z) otherwise.  The set
has no proven bound; the envelope is measured.  Against mpmath.loggamma at
30 digits (3,000 seeded points per region, up to the multiple of 2 pi i of
log_gamma's branch), |log_gamma error| reached 1.7e-13 over
0.5 <= Re z <= 50 and over -50 <= Re z < 0.5, both with |Im z| <= 30, and
3.0e-13 over Re z >= 1/2, |z| <= 100.  The relative error of gamma() is
about the same.  Against |Gamma(x+iy)|^2 of DLMF 5.4.3-5.4.4, for
x = 1/2, 1, ..., 19/2 and 0.1 <= y <= 30, 2 Re log_gamma is within 3.3e-13;
tests/test_complex_gamma.py holds it to 1e-12.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError, RangeError

# Lanczos g=7, 9 coefficients (Godfrey's set, widely published).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
# the Lanczos sum's first coefficient; log_gamma writes out the other eight
_LANCZOS_HEAD = complex(_LANCZOS_COEF[0])
_LOG_SQRT_2PI = 0.91893853320467274178032973640562
_LOG_PI = math.log(math.pi)

POLE_TOLERANCE = 1e-12
# sin(pi z) in the reflection path uses cosh/sinh of pi*Im(z); beyond this
# strip the hyperbolic factors are not needed by anything in this package.
REFLECTION_IM_LIMIT = 30.0


def nearest_nonpositive_int(z: complex, tol: float = POLE_TOLERANCE) -> int | None:
    """The k in 0, -1, -2, ... within ``tol`` of z, or None; RangeError
    for a non-finite z.

    Three tolerances are in use: POLE_TOLERANCE = 1e-12 for the poles of
    gamma, series.NEAR_INT_TOLERANCE = 1e-9 for the lower-pole guard of
    series parameters, and closed_forms.D_POLE_TOLERANCE =
    1e-6 for the extension parameter d.  log_gamma calls it only for
    Re z < 1/2 or a non-finite z; gamma and reciprocal_gamma go through
    log_gamma, so a non-finite argument to any of them raises here.
    """
    if not cmath.isfinite(z):
        raise RangeError(f"argument {z} is not finite")
    k = round(z.real)
    return k if k <= 0 and abs(z - k) <= tol else None


def sin_pi(z: complex) -> complex:
    """sin(pi z) from real sin/cos and hyperbolic functions of Im z.

    RangeError when cosh(pi Im z) overflows binary64 (a finite |Im z|
    above about 226) or pi Re z is not finite (|Re z| above about 5.7e307).
    log_gamma's reflection strip, |Im z| <= 30, meets only the second."""
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

    Raises PoleError within ``POLE_TOLERANCE`` of a non-positive integer,
    RangeError for a non-finite z and RangeError when the reflection path
    would need |Im z| > 30.  The poles all have Re <= 0, so a finite z with
    Re z >= 1/2 is at least 1/2 from one and skips the pole scan; a NaN
    real part fails ``< 0.5`` and is caught by ``isfinite``.

    The Lanczos sum is written out left to right with literal
    coefficients: the operations of ``acc += _LANCZOS_COEF[k] / (w + k)``
    for k = 1..8 from _LANCZOS_HEAD, in that order, so it has the bits of
    the loop that tests/conftest.py keeps as its reference.
    """
    z = complex(z)
    reflect = z.real < 0.5
    if (reflect or not cmath.isfinite(z)) and nearest_nonpositive_int(z) is not None:
        raise PoleError(f"log_gamma: {z} is within {POLE_TOLERANCE} of a pole")
    if reflect:
        if abs(z.imag) > REFLECTION_IM_LIMIT:
            raise RangeError(
                f"log_gamma: |Im z| = {abs(z.imag)} exceeds the reflection strip"
            )
        # Re(1 - z) > 1/2, never a pole: the Lanczos sum below applies
        head, z = _LOG_PI - cmath.log(sin_pi(z)), 1.0 - z
    w = z - 1.0
    acc = (_LANCZOS_HEAD + 676.5203681218851 / (w + 1) + -1259.1392167224028 / (w + 2)
           + 771.32342877765313 / (w + 3) + -176.61502916214059 / (w + 4)
           + 12.507343278686905 / (w + 5) + -0.13857109526572012 / (w + 6)
           + 9.9843695780195716e-6 / (w + 7) + 1.5056327351493116e-7 / (w + 8))
    t = w + _LANCZOS_G + 0.5
    value = _LOG_SQRT_2PI + (w + 0.5) * cmath.log(t) - t + cmath.log(acc)
    return head - value if reflect else value


def exp_log_sum(acc: complex) -> complex:
    """exp(acc) for a sum of log-gammas, the one rule by which gamma,
    reciprocal_gamma and every gamma product of closed_forms become a value.

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


def reciprocal_gamma(z: complex) -> complex:
    """1/Gamma(z), exp_log_sum(-log_gamma(z)), defined as exactly 0 at (and
    within POLE_TOLERANCE of) the poles of Gamma.  RangeError when
    1/Gamma(z) is beyond binary64.  Public API; no closed form calls it,
    since closed_forms.gamma_ratio takes a denominator pole as a zero
    factor itself."""
    try:
        return exp_log_sum(-log_gamma(z))
    except PoleError:
        return 0.0 + 0.0j
