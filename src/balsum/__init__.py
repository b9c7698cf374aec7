"""Exact arithmetic for balancing numbers: sequence generation, linearization
of powers, closed-form partial sums, and Laurent-polynomial identity
verification over Q(sqrt 2).  All results are exact."""

import importlib
import sys
import types

__version__ = "0.1.0"

# The public names, each under the module that defines it; a name loads its
# module on first access (PEP 562), so `import balsum` loads no library module
# and a caller pays only for what it uses.
_EXPORTS = {
    "arith": ("InexactResultError",),
    "field": ("ALPHA", "BETA", "FOUR_SQRT2", "QuadElem", "SQRT2"),
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
        "brute_force_power_sum",
        "closed_sum",
        "lucas_balancing",
        "lucas_balancing_binet",
        "lucas_balancing_fast",
        "power_sum",
        "sequence_table",
        "shifted_closed_sum",
    ),
    "summation": (
        "ClosedSumExpr",
        "GFParams",
        "gf_coefficients",
        "gf_params",
        "power_sum_formula",
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


class _Package(types.ModuleType):
    """The package's type: ``balsum.linearize`` is the function, which shares
    its name with its submodule.  The import system binds a submodule on its
    package by ``setattr`` when the submodule first loads; that one binding is
    dropped, so the name falls through to ``__getattr__`` and loads the
    function like every other name.  Any other value, a function swapped in
    for ``linearize`` included, is set as usual."""

    def __setattr__(self, name: str, value: object) -> None:
        if not (name == "linearize" and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
