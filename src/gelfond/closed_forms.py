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

Every theorem is at most two terms, each a coefficient times one
gamma_ratio.  A ratio is assembled in log space (one exponential at the
end), so that ratios of four gammas do not lose digits to intermediate
overflow or cancellation.  A denominator argument at a pole of Gamma makes
its ratio zero instead of raising; the extension formulas rely on this to
take their finite limits (e.g. a zero upper parameter).

Every log-gamma sum becomes a value by one rule, complex_gamma.exp_log_sum:
a real part of -inf is an underflow and gives 0, and a sum that is NaN, has
a real part of +inf or an imaginary part that is not finite, or whose
exponential overflows raises RangeError.  The three extension theorems also
raise RangeError when their last step, a sum of coefficient-times-ratio
terms, is not finite.
"""

from __future__ import annotations

import cmath
import math

from .complex_gamma import exp_log_sum, log_gamma, nearest_nonpositive_int
from .errors import ConvergenceDomainError, PoleError, RangeError

# d = 0 is the pole of the 1/d in every extension theorem, and d at a
# negative integer is a pole of the series; closer than this to either and
# the formula's value is dominated by the uncertainty of d itself.
D_POLE_TOLERANCE = 1e-6

_SQRT_PI = math.sqrt(math.pi)  # Gamma(1/2)


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

    Each argument goes to log_gamma as given (it coerces to complex).  A
    pole among the numerator arguments raises PoleError, also when a
    denominator argument is a pole too; a pole among the denominator
    arguments otherwise makes the ratio zero (scanned for only when
    log_gamma raises on a denominator argument, so each argument is
    checked once).  The log sum becomes a value by
    complex_gamma.exp_log_sum's rule: zero for a real part of -inf (an
    underflow); RangeError for a NaN or +inf real part (inf - inf from two
    gammas beyond binary64 is NaN), an imaginary part that is not finite,
    or an exponential that overflows.
    """
    acc = 0.0 + 0.0j
    for z in numerator:
        acc += log_gamma(z)
    try:
        for z in denominator:
            acc -= log_gamma(z)
    except (PoleError, RangeError):
        if any(nearest_nonpositive_int(complex(z)) is not None for z in denominator):
            return 0.0 + 0.0j
        raise
    return exp_log_sum(acc)


def _finite(value: complex) -> complex:
    """value, or RangeError if the last step of an extension theorem, its
    sum of coefficient-times-ratio terms, left binary64 (an overflow,
    0 * inf or inf - inf)."""
    if not cmath.isfinite(value):
        raise RangeError(f"closed form is beyond binary64: {value}")
    return value


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
    return _finite(prefactor * (s + a * b / d))


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

        Gamma(1/2) Gamma(x) / Gamma(x+2) * Gamma((a+b)/2 + 3/2)
        * {  ((a+b-1)/2 - a*b/d) / (Gamma((a+1)/2) Gamma((b+1)/2))
           + ((a+b+1)/d - 2)     / (Gamma(a/2)     Gamma(b/2))     }

    with x = (a-b)/2 - 1/2, where Gamma(x) / Gamma(x+2) = 1/(x (x+1)).
    PoleError at a - b = 1 or -1 (x = 0 or -1): the series is finite there,
    but its value is a limit that needs the digamma function.
    """
    a, b = complex(a), complex(b)
    d = check_d(d)
    x = (a - b) / 2 - 0.5
    if nearest_nonpositive_int(x) in (0, -1):
        raise PoleError(f"second_gauss_ext_half: no closed form at a - b = {a - b}")
    top = ((a + b) / 2 + 1.5,)
    brace = (((a + b - 1) / 2 - a * b / d) * gamma_ratio(top, ((a + 1) / 2, (b + 1) / 2))
             + ((a + b + 1) / d - 2.0) * gamma_ratio(top, (a / 2, b / 2)))
    return _finite(_SQRT_PI / (x * (x + 1.0)) * brace)


def bailey_ext_half(a: complex, c: complex, d: complex) -> complex:
    """3F2(a, 1-a, d+1; c+1, d; 1/2) for admissible d:

        2^(-c) Gamma(1/2) Gamma(c+1)
        * {  (2/d)     / (Gamma(c/2 + a/2)       Gamma(c/2 - a/2 + 1/2))
           + (1 - c/d) / (Gamma(c/2 + a/2 + 1/2) Gamma(c/2 - a/2 + 1))   }

    where 2^(-c) Gamma(1/2) Gamma(c+1) = Gamma(c/2 + 1) Gamma(c/2 + 1/2) by
    Legendre's duplication formula, so each term is one gamma ratio.
    PoleError at c = -1, -2, ..., the poles of Gamma(c+1).
    """
    a, c = complex(a), complex(c)
    d = check_d(d)
    top = (c / 2 + 1.0, c / 2 + 0.5)
    return _finite((2.0 / d) * gamma_ratio(top, (c / 2 + a / 2, c / 2 - a / 2 + 0.5))
                   + (1.0 - c / d)
                   * gamma_ratio(top, (c / 2 + a / 2 + 0.5, c / 2 - a / 2 + 1.0)))
