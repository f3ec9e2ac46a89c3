"""Exception types shared across the package, and the one rule for each
kind of argument that a public entry takes.

A number is any numbers.Complex but a bool (int, float, Fraction or
complex), returned as a complex, with RangeError for an int or Fraction
beyond binary64; a real is any numbers.Real but a bool, returned as
given; an index is an int, its exact type, so not a bool; a record, or
any other argument of one type, is an instance of that type.  Each rule
raises ValueError("<what> must be ..., got <x!r>") for anything else, a
str, None or a Decimal included.  The exact type is tested first, so the
common case skips the slower ABC check.
"""

from numbers import Complex, Real


def as_number(x, what: str) -> complex:
    if type(x) is complex:
        return x
    if type(x) is float or isinstance(x, Complex) and type(x) is not bool:
        try:
            return complex(x)
        except OverflowError:
            raise RangeError(f"{what} overflows binary64") from None
    raise ValueError(f"{what} must be a number, got {x!r}")


def as_real(x, what: str):
    if type(x) is float or isinstance(x, Real) and type(x) is not bool:
        return x
    raise ValueError(f"{what} must be a real number, got {x!r}")


def as_index(x, what: str) -> int:
    if type(x) is int:
        return x
    raise ValueError(f"{what} must be an int, got {x!r}")


def as_type(x, kind: type, what: str):
    if isinstance(x, kind):
        return x
    raise ValueError(f"{what} must be of type {kind.__name__}, got {x!r}")


class PoleError(ValueError):
    """An argument is at (or too close to) a pole of the gamma function,
    or a parameter value makes a formula's 1/d factors meaningless."""


class RangeError(ValueError):
    """An argument lies outside the supported numerical domain."""


class ConvergenceDomainError(ValueError):
    """A closed-form summation was requested outside its convergence region."""


class DivergentError(ArithmeticError):
    """A series evaluation was requested for a provably divergent series."""


class InsufficientTermsError(ValueError):
    """Too few terms were supplied for sequence acceleration."""


class DomainError(ValueError):
    """Invalid argument for a real-domain operation (e.g. sqrt of a negative)."""


class ParseError(ValueError):
    """Malformed textual input.  ``position`` is the 0-based offset of the
    first offending character."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.message = message
        self.position = position
