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

Every theorem is at most two terms, each a coefficient times one gamma
ratio.  A ratio is assembled in log space (one exponential at the end), so
that ratios of four gammas do not lose digits to intermediate overflow or
cancellation.  A numerator that two ratios share (second_gauss_ext_half,
bailey_ext_half, the connection formulas of series) is summed once by
log_gamma_sum and divided twice by gamma_quotient, and log Gamma(1/2) is
summed at import: the fold and its operands are gamma_ratio's, with fewer
log-gammas.  A denominator argument at a pole of Gamma makes its ratio
zero instead of raising; the extension formulas rely on this to take
their finite limits (e.g. a zero upper parameter).

Every log-gamma sum becomes a value by one rule, complex_gamma.exp_log_sum:
a real part of -inf is an underflow and gives 0, and a sum that is NaN, has
a real part of +inf or an imaginary part that is not finite, or whose
exponential overflows raises RangeError.  The three extension theorems also
raise RangeError when their last step, a sum of coefficient-times-ratio
terms, is not finite.  Each argument is a number by errors.as_number (an
int, float, Fraction or complex, not a bool), or ValueError.
"""

from __future__ import annotations

import cmath
import math

from .complex_gamma import exp_log_sum, log_gamma, nearest_nonpositive_int
from .errors import ConvergenceDomainError, PoleError, RangeError, as_number

# d = 0 is the pole of the 1/d in every extension theorem, and d at a
# negative integer is a pole of the series; closer than this to either and
# the formula's value is dominated by the uncertainty of d itself.
D_POLE_TOLERANCE = 1e-6

# second_gauss_ext_half raises PoleError for a - b this near +-1, where its
# brace vanishes and the value loses relative accuracy as 1/|a - b -+ 1|:
# at (1.2, 0.2 -+ e, 2.0) and (0.2, 1.2 -+ e, 2.0) the loss against mpmath
# is below 9e-13 at e = 4e-4 and 1.8e-12 at 3e-4; other parameters lose
# more at this width (median 4.5e-12, at most 3.4e-9 over 149 draws with
# |Re a|, |Re d| <= 3)
UNIT_DIFFERENCE_WIDTH = 4e-4

_SQRT_PI = math.sqrt(math.pi)  # Gamma(1/2)


def check_d(d: complex) -> complex:
    """d as a complex number, or PoleError if no extension formula admits
    it, or RangeError if it lies beyond binary64, or ValueError if it is
    not a number (errors.as_number); the theorem constructors in
    identities apply the same rule."""
    d = as_number(d, "extension parameter d")
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


def log_gamma_sum(arguments, acc: complex = 0.0 + 0.0j) -> complex:
    """acc plus log_gamma of each argument, left to right: a numerator's
    log sum for gamma_quotient.  PoleError at a pole."""
    for z in arguments:
        acc += log_gamma(z)
    return acc


def gamma_quotient(acc: complex, denominator) -> complex:
    """exp(acc) / prod Gamma(denominator) for a numerator's log sum acc,
    by gamma_ratio's rules."""
    try:
        for z in denominator:
            acc -= log_gamma(z)
    except (PoleError, RangeError):
        if any(nearest_nonpositive_int(complex(z)) is not None for z in denominator):
            return 0.0 + 0.0j
        raise
    return exp_log_sum(acc)


def gamma_ratio(numerator, denominator) -> complex:
    """prod Gamma(numerator) / prod Gamma(denominator), as
    gamma_quotient(log_gamma_sum(numerator), denominator): one fold from
    0.0 + 0.0j, numerator first.

    Each argument goes to log_gamma as given (it coerces to complex).  A
    pole among the numerator arguments raises PoleError, also when a
    denominator argument is a pole too; a pole among the denominator
    arguments otherwise makes the ratio zero (scanned for only when
    log_gamma raises on a denominator argument, so each argument is
    checked once).  The log sum becomes a value by
    complex_gamma.exp_log_sum's rule (see the module docstring).
    """
    return gamma_quotient(log_gamma_sum(numerator), denominator)


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
    a, b, c = as_number(a, "a"), as_number(b, "b"), as_number(c, "c")
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
    a, b, c = as_number(a, "a"), as_number(b, "b"), as_number(c, "c")
    d = check_d(d)
    s = c - a - b
    if s.real <= 0.0:
        raise ConvergenceDomainError(
            f"gauss_ext_unit requires Re(c-a-b) > 0, got {s.real}"
        )
    prefactor = gamma_ratio((c + 1, s), (c - a + 1, c - b + 1))
    return _finite(prefactor * (s + a * b / d))


# the head of second_gauss_half's numerator
_LOG_GAMMA_HALF = log_gamma_sum((0.5,))


def second_gauss_half(a: complex, b: complex) -> complex:
    """2F1(a, b; (a+b+1)/2; 1/2) =
    Gamma(1/2) Gamma((a+b+1)/2) / (Gamma((a+1)/2) Gamma((b+1)/2))."""
    a, b = as_number(a, "a"), as_number(b, "b")
    return gamma_quotient(log_gamma_sum(((a + b + 1) / 2,), _LOG_GAMMA_HALF),
                          ((a + 1) / 2, (b + 1) / 2))


def bailey_half(a: complex, c: complex) -> complex:
    """2F1(a, 1-a; c; 1/2) =
    Gamma(c/2) Gamma(c/2 + 1/2) / (Gamma(c/2 + a/2) Gamma(c/2 - a/2 + 1/2))."""
    a, c = as_number(a, "a"), as_number(c, "c")
    return gamma_ratio(
        (c / 2, c / 2 + 0.5), (c / 2 + a / 2, c / 2 - a / 2 + 0.5)
    )


def second_gauss_ext_half(a: complex, b: complex, d: complex) -> complex:
    """3F2(a, b, d+1; (a+b+3)/2, d; 1/2) for admissible d:

        Gamma(1/2) Gamma(x) / Gamma(x+2) * Gamma((a+b)/2 + 3/2)
        * {  ((a+b-1)/2 - a*b/d) / (Gamma((a+1)/2) Gamma((b+1)/2))
           + ((a+b+1)/d - 2)     / (Gamma(a/2)     Gamma(b/2))     }

    with x = (a-b)/2 - 1/2, where Gamma(x) / Gamma(x+2) = 1/(x (x+1)).
    PoleError within UNIT_DIFFERENCE_WIDTH of a - b = 1 or -1 (x = 0 or
    -1): the series is finite there, but its value is the limit of the
    brace over x (x + 1), whose derivative brings in digamma values
    (complex_gamma.digamma); that limit form is not built, and near it
    the brace cancels (1.6e-5 relative at a - b = 1 + 1e-11).
    """
    a, b = as_number(a, "a"), as_number(b, "b")
    d = check_d(d)
    x = (a - b) / 2 - 0.5
    if min(abs(a - b - 1.0), abs(a - b + 1.0)) < UNIT_DIFFERENCE_WIDTH:
        raise PoleError(f"second_gauss_ext_half: no closed form within "
                        f"{UNIT_DIFFERENCE_WIDTH} of a - b = +-1, at {a - b}")
    top = log_gamma_sum(((a + b) / 2 + 1.5,))
    brace = (((a + b - 1) / 2 - a * b / d) * gamma_quotient(top, ((a + 1) / 2, (b + 1) / 2))
             + ((a + b + 1) / d - 2.0) * gamma_quotient(top, (a / 2, b / 2)))
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
    a, c = as_number(a, "a"), as_number(c, "c")
    d = check_d(d)
    top = log_gamma_sum((c / 2 + 1.0, c / 2 + 0.5))
    return _finite((2.0 / d) * gamma_quotient(top, (c / 2 + a / 2, c / 2 - a / 2 + 0.5))
                   + (1.0 - c / d)
                   * gamma_quotient(top, (c / 2 + a / 2 + 0.5, c / 2 - a / 2 + 1.0)))
