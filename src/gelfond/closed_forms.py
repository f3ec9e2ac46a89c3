"""Closed-form evaluators for six classical summation theorems.

Each function returns the exact gamma-ratio value of a specific
hypergeometric sum:

  gauss_unit             2F1(a, b; c; 1)
  gauss_ext_unit         3F2(a, b, d+1; c+1, d; 1)
  second_gauss_half      2F1(a, b; (a+b+1)/2; 1/2)
  bailey_half            2F1(a, 1-a; c; 1/2)
  second_gauss_ext_half  3F2(a, b, d+1; (a+b+3)/2, d; 1/2)
  bailey_ext_half        3F2(a, 1-a, d+1; c+1, d; 1/2)

SERIES is this list as code: name -> (upper, lower, argument) of the same
arguments, unrounded, so that an exact Fraction d gives an exact d+1.

Gamma ratios are assembled in log space (one exponential at the end) so
that ratios of four gammas do not lose digits to intermediate overflow or
cancellation.  Gamma factors in denominators are applied as reciprocal
gammas, so a denominator pole contributes a factor of zero instead of
raising; the two extension formulas rely on this to take their finite
limits (e.g. a zero upper parameter).
"""

from __future__ import annotations

import cmath
import math

from .complex_gamma import log_gamma, nearest_nonpositive_int, reciprocal_gamma
from .errors import ConvergenceDomainError, PoleError, RangeError

# d = 0 is the pole of the 1/d in every extension theorem, and d at a
# negative integer is a pole of the series; closer than this to either and
# the formula's value is dominated by the uncertainty of d itself.
D_POLE_TOLERANCE = 1e-6

_LN2 = math.log(2.0)


def check_d(d: complex) -> complex:
    """d as a complex number, or PoleError if no extension formula admits
    it, or RangeError if it lies beyond binary64; the theorem constructors
    in identities apply the same rule."""
    try:
        d = complex(d)
    except OverflowError:
        raise RangeError("extension parameter d overflows binary64") from None
    if nearest_nonpositive_int(d, D_POLE_TOLERANCE) is not None:
        raise PoleError(
            f"extension parameter d = {d} is within {D_POLE_TOLERANCE} of a "
            "non-positive integer"
        )
    return d


SERIES = {
    "gauss_unit": lambda a, b, c: ((a, b), (c,), 1),
    "gauss_ext_unit": lambda a, b, c, d: ((a, b, d + 1), (c + 1, d), 1),
    "second_gauss_half": lambda a, b: ((a, b), ((a + b + 1) / 2,), 0.5),
    "bailey_half": lambda a, c: ((a, 1 - a), (c,), 0.5),
    "second_gauss_ext_half": lambda a, b, d: ((a, b, d + 1), ((a + b + 3) / 2, d), 0.5),
    "bailey_ext_half": lambda a, c, d: ((a, 1 - a, d + 1), (c + 1, d), 0.5),
}


def gamma_ratio(numerator, denominator) -> complex:
    """prod Gamma(numerator) / prod Gamma(denominator), in log space.

    A pole among the numerator arguments raises PoleError; a pole among the
    denominator arguments makes the ratio zero (scanned for only when
    log_gamma raises, so each argument is checked once).  A ratio beyond
    binary64 raises RangeError.
    """
    acc = 0.0 + 0.0j
    try:
        for z in numerator:
            acc += log_gamma(complex(z))
        for z in denominator:
            acc -= log_gamma(complex(z))
    except (PoleError, RangeError):
        if any(nearest_nonpositive_int(complex(z)) is not None for z in denominator):
            return 0.0 + 0.0j
        raise
    try:
        return cmath.exp(acc)
    except OverflowError:
        raise RangeError("gamma ratio overflows binary64") from None


def gauss_unit(a: complex, b: complex, c: complex) -> complex:
    """2F1(a, b; c; 1) = Gamma(c) Gamma(c-a-b) / (Gamma(c-a) Gamma(c-b)),
    valid for Re(c-a-b) > 0."""
    a, b, c = complex(a), complex(b), complex(c)
    s = c - a - b
    if s.real <= 0.0:
        raise ConvergenceDomainError(
            f"gauss_unit requires Re(c-a-b) > 0, got {s.real}"
        )
    return gamma_ratio((c, s), (c - a, c - b))


def gauss_ext_unit(a: complex, b: complex, c: complex, d: complex) -> complex:
    """3F2(a, b, d+1; c+1, d; 1) for Re(c-a-b) > 0 and admissible d:

        Gamma(c+1) Gamma(c-a-b) / (Gamma(c-a+1) Gamma(c-b+1))
            * (c - a - b + a*b/d)
    """
    a, b, c = complex(a), complex(b), complex(c)
    d = check_d(d)
    s = c - a - b
    if s.real <= 0.0:
        raise ConvergenceDomainError(
            f"gauss_ext_unit requires Re(c-a-b) > 0, got {s.real}"
        )
    prefactor = gamma_ratio((c + 1, s), (c - a + 1, c - b + 1))
    return prefactor * (s + a * b / d)


def second_gauss_half(a: complex, b: complex) -> complex:
    """2F1(a, b; (a+b+1)/2; 1/2) =
    Gamma(1/2) Gamma((a+b+1)/2) / (Gamma((a+1)/2) Gamma((b+1)/2))."""
    a, b = complex(a), complex(b)
    return gamma_ratio((0.5, (a + b + 1) / 2), ((a + 1) / 2, (b + 1) / 2))


def bailey_half(a: complex, c: complex) -> complex:
    """2F1(a, 1-a; c; 1/2) =
    Gamma(c/2) Gamma(c/2 + 1/2) / (Gamma(c/2 + a/2) Gamma(c/2 - a/2 + 1/2))."""
    a, c = complex(a), complex(c)
    return gamma_ratio(
        (c / 2, c / 2 + 0.5), (c / 2 + a / 2, c / 2 - a / 2 + 0.5)
    )


def second_gauss_ext_half(a: complex, b: complex, d: complex) -> complex:
    """3F2(a, b, d+1; (a+b+3)/2, d; 1/2) for admissible d:

        Gamma(1/2) Gamma((a+b)/2 + 3/2) Gamma((a-b)/2 - 1/2)
            / Gamma((a-b)/2 + 3/2)
        * {  ((a+b-1)/2 - a*b/d) / (Gamma((a+1)/2) Gamma((b+1)/2))
           + ((a+b+1)/d - 2)     / (Gamma(a/2)     Gamma(b/2))     }
    """
    a, b = complex(a), complex(b)
    d = check_d(d)
    prefactor = gamma_ratio(
        (0.5, (a + b) / 2 + 1.5, (a - b) / 2 - 0.5), ((a - b) / 2 + 1.5,)
    )
    brace = (
        ((a + b - 1) / 2 - a * b / d)
        * reciprocal_gamma((a + 1) / 2) * reciprocal_gamma((b + 1) / 2)
        + ((a + b + 1) / d - 2.0)
        * reciprocal_gamma(a / 2) * reciprocal_gamma(b / 2)
    )
    return prefactor * brace


def bailey_ext_half(a: complex, c: complex, d: complex) -> complex:
    """3F2(a, 1-a, d+1; c+1, d; 1/2) for admissible d:

        2^(-c) Gamma(1/2) Gamma(c+1)
        * {  (2/d)     / (Gamma(c/2 + a/2)       Gamma(c/2 - a/2 + 1/2))
           + (1 - c/d) / (Gamma(c/2 + a/2 + 1/2) Gamma(c/2 - a/2 + 1))   }
    """
    a, c = complex(a), complex(c)
    d = check_d(d)
    try:
        prefactor = cmath.exp(-c * _LN2 + log_gamma(0.5) + log_gamma(c + 1))
    except OverflowError:
        # the prefactor leaves binary64 while the reciprocal gammas of the
        # brace underflow (a = 1/2, d = 2 from about c = 197 on); by Legendre's
        # duplication formula it is Gamma(c/2 + 1) Gamma(c/2 + 1/2), so
        # each brace term is one gamma ratio, one exponential
        top = (c / 2 + 1.0, c / 2 + 0.5)
        return ((2.0 / d) * gamma_ratio(top, (c / 2 + a / 2, c / 2 - a / 2 + 0.5))
                + (1.0 - c / d)
                * gamma_ratio(top, (c / 2 + a / 2 + 0.5, c / 2 - a / 2 + 1.0)))
    brace = (
        (2.0 / d)
        * reciprocal_gamma(c / 2 + a / 2) * reciprocal_gamma(c / 2 - a / 2 + 0.5)
        + (1.0 - c / d)
        * reciprocal_gamma(c / 2 + a / 2 + 0.5) * reciprocal_gamma(c / 2 - a / 2 + 1.0)
    )
    return prefactor * brace
