"""Exception types shared across the package."""


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
