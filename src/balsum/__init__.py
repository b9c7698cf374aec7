"""Exact arithmetic for balancing numbers: sequence generation, linearization
of powers, closed-form partial sums, and Laurent-polynomial identity
verification over Q(sqrt 2).  All results are exact."""

# The function shares its name with its submodule, and the import system binds
# a submodule on the package when the submodule first loads.  Only a binding
# made after that load keeps `balsum.linearize` the function for good.
from .linearize import linearize

import importlib

__version__ = "0.1.0"

# The public names, each under the module that defines it; a name loads its
# module on first access (PEP 562), so a caller pays only for what it uses.
_EXPORTS = {
    "arith": ("ALPHA", "BETA", "FOUR_SQRT2", "InexactResultError", "QuadElem", "SQRT2"),
    "laurent": (
        "LaurentPoly",
        "verify_even_power_identity",
        "verify_odd_power_identity",
        "verify_power_sum_formula",
        "verify_subsequence_recurrence",
    ),
    "linearize": ("LinearForm", "linearize", "linearize_even", "linearize_odd"),
    "sequences": (
        "balancing",
        "balancing_binet",
        "balancing_fast",
        "gf_coefficients",
        "lucas_balancing",
        "lucas_balancing_binet",
        "lucas_balancing_fast",
        "sequence_table",
    ),
    "summation": (
        "ClosedSumExpr",
        "GFParams",
        "brute_force_power_sum",
        "closed_sum",
        "gf_params",
        "power_sum",
        "power_sum_formula",
        "shifted_closed_sum",
        "subsequence_gf_check",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str) -> object:
    """Load a public name's module, or a submodule, on first access."""
    if name in _HOME:
        value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
        globals()[name] = value
        return value
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __all__
