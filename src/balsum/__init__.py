"""Exact arithmetic for balancing numbers: sequence generation, linearization
of powers, closed-form partial sums, and Laurent-polynomial identity
verification over Q(sqrt 2).  All results are exact."""

from .arith import (
    ALPHA,
    BETA,
    FOUR_SQRT2,
    InexactResultError,
    QuadElem,
    SQRT2,
)
from .laurent import (
    LaurentPoly,
    verify_even_power_identity,
    verify_odd_power_identity,
    verify_power_sum_formula,
    verify_subsequence_recurrence,
)
from .linearize import LinearForm, linearize, linearize_even, linearize_odd
from .sequences import (
    balancing,
    balancing_binet,
    balancing_fast,
    gf_coefficients,
    lucas_balancing,
    lucas_balancing_binet,
    lucas_balancing_fast,
    sequence_table,
)
from .summation import (
    ClosedSumExpr,
    GFParams,
    brute_force_power_sum,
    closed_sum,
    gf_params,
    power_sum,
    power_sum_formula,
    shifted_closed_sum,
    subsequence_gf_check,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "BETA",
    "FOUR_SQRT2",
    "SQRT2",
    "ClosedSumExpr",
    "GFParams",
    "InexactResultError",
    "LaurentPoly",
    "LinearForm",
    "QuadElem",
    "balancing",
    "balancing_binet",
    "balancing_fast",
    "brute_force_power_sum",
    "closed_sum",
    "gf_coefficients",
    "gf_params",
    "linearize",
    "linearize_even",
    "linearize_odd",
    "lucas_balancing",
    "lucas_balancing_binet",
    "lucas_balancing_fast",
    "power_sum",
    "power_sum_formula",
    "sequence_table",
    "shifted_closed_sum",
    "subsequence_gf_check",
    "verify_even_power_identity",
    "verify_odd_power_identity",
    "verify_power_sum_formula",
    "verify_subsequence_recurrence",
]
