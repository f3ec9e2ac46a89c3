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

__all__ holds what the paper, the CLI and the README use: the six closed
forms, the e^(pi lambda) and square-root constants, the registry and its
verifier, the series engine, gamma, the Heegner table and their records
and errors.  Helpers such as the dd_* operations (gelfond.ddreal),
sin_pi (gelfond.complex_gamma), the theorem coefficients
(gelfond.identities), sum_pfq_unit and levin_accelerate (gelfond.series)
import from their modules.  Every entry takes arguments by the rules of
gelfond.errors and raises ValueError for any other type.
"""

from .complex_gamma import gamma, log_gamma
from .closed_forms import (bailey_ext_half, bailey_half, gauss_ext_unit, gauss_unit,
                           second_gauss_ext_half, second_gauss_half)
from .ddreal import DDReal, dd_to_decimal
from .errors import ConvergenceDomainError, DivergentError, ParseError, PoleError, RangeError
from .heegner import HEEGNER_BASES, HeegnerRow, heegner_row, heegner_table
from .identities import (ExpTerm, IdentityCase, VerificationReport, corollary_case,
                         gelfond, gelfond_lambda, registry, sqrt_gelfond_pair,
                         theorem1, theorem2, verify, verify_all)
from .series import SeriesSpec, SumPolicy, SumResult, SumStatus, sum_pfq

__version__ = "0.1.0"

__all__ = [
    "ConvergenceDomainError", "DDReal", "DivergentError", "ExpTerm",
    "HEEGNER_BASES", "HeegnerRow", "IdentityCase", "ParseError", "PoleError",
    "RangeError", "SeriesSpec", "SumPolicy", "SumResult", "SumStatus",
    "VerificationReport", "bailey_ext_half", "bailey_half", "corollary_case",
    "dd_to_decimal", "gamma", "gauss_ext_unit", "gauss_unit", "gelfond",
    "gelfond_lambda", "heegner_row", "heegner_table", "log_gamma", "registry",
    "second_gauss_ext_half", "second_gauss_half", "sqrt_gelfond_pair",
    "sum_pfq", "theorem1", "theorem2", "verify", "verify_all",
]
