"""Hypergeometric representations of e^pi and its relatives.

Library layout:

  complex_gamma   complex gamma / log-gamma (Lanczos + reflection), digamma
  series          pFq summation, unit argument by an asymptotic tail
  closed_forms    the six gamma-ratio summation theorems
  identities      identity registry (one row per registry variant of a
                  corollary family), exact coefficient algebra, verifier
  ddreal          double-double arithmetic and exp for the Heegner table
  heegner         near-integer table e^(pi sqrt n) for n in {19,43,67,163}
  cli             command-line interface (eval / verify / constants / heegner)
"""

from .complex_gamma import gamma, log_gamma, sin_pi
from .closed_forms import (
    bailey_ext_half,
    bailey_half,
    gauss_ext_unit,
    gauss_unit,
    second_gauss_ext_half,
    second_gauss_half,
)
from .ddreal import (
    DDReal,
    dd_add,
    dd_exp,
    dd_mul,
    dd_pi,
    dd_round,
    dd_sqrt,
    dd_sub,
    dd_to_decimal,
)
from .errors import (
    ConvergenceDomainError,
    DivergentError,
    DomainError,
    InsufficientTermsError,
    ParseError,
    PoleError,
    RangeError,
)
from .heegner import HEEGNER_BASES, HeegnerRow, heegner_row, heegner_table
from .identities import (
    ExpTerm,
    IdentityCase,
    VerificationReport,
    corollary_case,
    gelfond,
    gelfond_lambda,
    registry,
    sqrt_gelfond_pair,
    theorem1,
    theorem1_coefficients,
    theorem2,
    theorem2_coefficients,
    verify,
    verify_all,
)
from .series import (
    SeriesSpec,
    SumPolicy,
    SumResult,
    SumStatus,
    levin_accelerate,
    sum_pfq,
    sum_pfq_unit,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceDomainError", "DDReal", "DivergentError", "DomainError",
    "ExpTerm", "HEEGNER_BASES", "HeegnerRow", "IdentityCase",
    "InsufficientTermsError", "ParseError", "PoleError", "RangeError",
    "SeriesSpec", "SumPolicy", "SumResult", "SumStatus",
    "VerificationReport", "bailey_ext_half", "bailey_half",
    "corollary_case", "dd_add", "dd_exp", "dd_mul", "dd_pi", "dd_round",
    "dd_sqrt", "dd_sub", "dd_to_decimal", "gamma", "gauss_ext_unit",
    "gauss_unit", "gelfond", "gelfond_lambda", "heegner_row",
    "heegner_table", "levin_accelerate", "log_gamma", "registry",
    "second_gauss_ext_half", "second_gauss_half", "sin_pi",
    "sqrt_gelfond_pair", "sum_pfq", "sum_pfq_unit", "theorem1",
    "theorem1_coefficients", "theorem2", "theorem2_coefficients", "verify",
    "verify_all",
]
