"""The public surface of the `balsum` package, each case in a fresh interpreter.

Every case runs in its own process: this file run as a script with the case
as its one argument.  HOMES is the one pin of where each public name lives;
tests and bench read public names through the package, which a guard test
keeps so.
"""

import ast
import importlib
import subprocess
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Every public name of `balsum`, under the module that defines it.
HOMES = {
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
PUBLIC_NAMES = sorted(name for names in HOMES.values() for name in names)

# Each case: the statement a fresh interpreter runs first.
FIRST_STATEMENT = {
    "surface": "import balsum",
    "submodules": "import balsum",
    "unknown_name": "import balsum",
    "linearize_after_import": "import balsum",
    "linearize_after_summation": "import balsum.summation",
    "linearize_after_laurent": "import balsum.laurent",
    "linearize_after_cli": "import balsum.cli",
    "linearize_after_star": "from balsum import *",
    "linearize_after_submodule": "import balsum.linearize",
    "linearize_after_from_submodule": "from balsum.linearize import LinearForm",
    "linearize_import_as": "import balsum.linearize as m",
    "linearize_swapped": "import balsum",
    "power_sum_alone": "import balsum",
    "quad_elem_alias": "import balsum.arith",
}


def check(case):
    """Run ``case`` in this interpreter; it must be the first to import balsum."""
    namespace = {}
    exec(FIRST_STATEMENT[case], namespace)
    import balsum

    if case == "surface":
        assert len(PUBLIC_NAMES) == 32
        assert sorted(balsum.__all__) == PUBLIC_NAMES
        assert dir(balsum) == PUBLIC_NAMES
        for home, names in HOMES.items():
            for name in names:
                value = getattr(balsum, name)
                assert value is getattr(sys.modules[f"balsum.{home}"], name), name
        # Every submodule has loaded and is bound on the package; dir lists
        # the public names alone still.
        assert dir(balsum) == PUBLIC_NAMES
    elif case == "submodules":
        for home in ("arith", "field", "laurent", "sequences", "summation"):
            module = getattr(balsum, home)
            assert isinstance(module, types.ModuleType), home
            assert module is sys.modules[f"balsum.{home}"], home
    elif case == "linearize_swapped":
        # A function set on the package stays, also when the submodule first
        # loads after it: the swap perfbench's tracer makes.
        def swapped(power):
            return power

        balsum.linearize = swapped
        import balsum.laurent  # noqa: F401  (loads balsum.linearize)

        assert "balsum.linearize" in sys.modules
        assert balsum.linearize is swapped
        setattr(balsum, "linearize", sys.modules["balsum.linearize"].linearize)
        assert balsum.linearize is sys.modules["balsum.linearize"].linearize
    elif case == "power_sum_alone":
        # The Binet sum loads its home and arith, and no form code.
        assert balsum.power_sum(2, 3, 10) == sum(balsum.balancing(2 * k) ** 3 for k in range(11))
        loaded = {name for name in sys.modules if name.startswith("balsum.")}
        assert loaded == {"balsum.arith", "balsum.sequences"}, loaded
        assert not {"fractions", "decimal"} & set(sys.modules)
    elif case == "quad_elem_alias":
        # arith.QuadElem, which perfbench's tracer patches, is the class of
        # field, its home; arith loads neither it nor fractions until read,
        # and never decimal.
        assert not {"balsum.field", "fractions", "decimal"} & set(sys.modules)
        assert balsum.arith.QuadElem is sys.modules["balsum.field"].QuadElem
        assert balsum.arith.QuadElem is balsum.QuadElem
        try:
            balsum.arith.ALPHA
        except AttributeError:
            pass
        else:
            raise AssertionError("balsum.arith.ALPHA resolved; only QuadElem is aliased")
    elif case == "unknown_name":
        try:
            balsum.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("balsum.no_such_name did not raise AttributeError")
    else:
        function = balsum.linearize
        assert isinstance(function, types.FunctionType)
        assert function is sys.modules["balsum.linearize"].linearize
        if case == "linearize_after_star":
            assert namespace["linearize"] is function
            assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_NAMES
        if case == "linearize_import_as":
            # `import a.b as m` binds the attribute b of a, so here the
            # function; importlib.import_module gives the submodule.
            assert namespace["m"] is function
            assert importlib.import_module("balsum.linearize") is sys.modules["balsum.linearize"]


def test_public_surface():
    # conftest loads pytest and hypothesis, so it is imported here and never
    # by a case's fresh interpreter, which must load nothing but balsum.
    from conftest import src_env

    failed = {}
    for case in FIRST_STATEMENT:
        run = subprocess.run([sys.executable, __file__, case], env=src_env(), capture_output=True, text=True)
        if run.returncode:
            failed[case] = run.stderr
    assert not failed


def test_tests_and_bench_read_public_names_from_the_package():
    # `_EXPORTS` states a public name's home and HOMES pins it; a test or a
    # bench script that imports the name from its module would have to change
    # whenever the name moves.  Private names and patched modules are exempt.
    found = [
        f"{path.relative_to(ROOT)}:{node.lineno}: from {node.module} import {alias.name}"
        for path in sorted([*ROOT.glob("tests/**/*.py"), *ROOT.glob("bench/**/*.py")])
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom) and node.level == 0 and (node.module or "").startswith("balsum.")
        for alias in node.names
        if alias.name in PUBLIC_NAMES
    ]
    assert not found


if __name__ == "__main__":
    check(sys.argv[1])
