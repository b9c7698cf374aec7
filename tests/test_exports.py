"""The public surface of the `balsum` package, each case in a fresh interpreter.

Under pytest every case runs in its own process.  Run as a script, the file
checks every case the same way with the interpreter that runs it, so the
surface can be checked on interpreters without pytest:

    PYTHONPATH=src python tests/test_exports.py
"""

import os
import subprocess
import sys
import types
from pathlib import Path

# Every public name of `balsum`, under the module that defines it.
HOMES = {
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
    "linearize_swapped": "import balsum",
}


def check(case):
    """Run ``case`` in this interpreter; it must be the first to import balsum."""
    namespace = {}
    exec(FIRST_STATEMENT[case], namespace)
    import balsum

    if case == "surface":
        assert len(PUBLIC_NAMES) == 32
        assert sorted(balsum.__all__) == PUBLIC_NAMES
        for home, names in HOMES.items():
            for name in names:
                value = getattr(balsum, name)
                assert value is getattr(sys.modules[f"balsum.{home}"], name), name
    elif case == "submodules":
        for home in ("arith", "laurent", "sequences", "summation"):
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


def run_case(case):
    """Check ``case`` in a fresh interpreter with this checkout's src on its path."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONDONTWRITEBYTECODE="1")
    return subprocess.run([sys.executable, __file__, case], env=env, capture_output=True, text=True)


def test_public_surface():
    failed = {case: run.stderr for case in FIRST_STATEMENT if (run := run_case(case)).returncode}
    assert not failed


if __name__ == "__main__":
    if len(sys.argv) > 1:
        check(sys.argv[1])
    else:
        failures = [case for case in FIRST_STATEMENT if run_case(case).returncode]
        print(f"{sys.version.split()[0]}: {len(FIRST_STATEMENT) - len(failures)} cases passed, failed: {failures}")
        sys.exit(1 if failures else 0)
