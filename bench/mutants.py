"""Mutation gate: every listed mutant of the library must fail the tests named for it.

    python3 bench/mutants.py

A mutant is one exact edit of one file under src/balsum: its old text, which
must occur exactly once in that file, replaced by its new text.  For each
mutant, src/, tests/ and pyproject.toml (the pytest settings) are copied into
a new temporary directory, the edit is made there, and pytest runs the
mutant's tests with -x -q --hypothesis-seed=0.  The mutant is killed when
pytest reports a failed test (exit code 1) and survives when every test
passes.  The identity mutant runs first: its new text is its old text, and it
runs every test file the list names.  It must survive, or the copy fails those
tests without any mutation and no kill means anything.

One line is printed per mutant.  The exit code is 1 if any mutant survives,
if any old text does not occur exactly once, if the identity mutant is
killed, or if pytest ends any other way (a collection error, a timeout); 0
otherwise.  Each mutant names only the test files, or test ids, that should
catch it, which keeps the whole run near half a minute.

A surviving mutant is a gap in the tests: it stays on the list, and the tests
are mended.  A change that moves the mutated code updates its entry here.
Only the standard library is used; pytest and hypothesis come from the
project's test extra.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
# A mutant whose tests run longer than this counts as an error, not a kill.
TIMEOUT_S = 300


class Mutant(NamedTuple):
    name: str
    path: str  # under src/balsum
    old: str
    new: str
    tests: tuple[str, ...]  # test files or test ids, relative to the repository


BINET_TERM = "total += (-1) ** s * 2 * comb(l, s) * _exact(part, 2 - 2 * cw, what)"

MUTANTS = (
    # The Binet engine behind power_sum, closed_sum and shifted_closed_sum.
    Mutant(
        "engine drops - br",
        "sequences.py",
        "bz, cz = bz - br, cz - cr",
        "bz, cz = bz, cz - cr",
        ("tests/test_summation.py",),
    ),
    Mutant(
        "engine reads comb(l, s + 1)",
        "sequences.py",
        BINET_TERM,
        BINET_TERM.replace("comb(l, s)", "comb(l, s + 1)"),
        ("tests/test_summation.py",),
    ),
    Mutant(
        "engine flips the sign at s = 0",
        "sequences.py",
        BINET_TERM,
        BINET_TERM.replace("(-1) ** s", "(-1) ** (s or 1)"),
        ("tests/test_summation.py",),
    ),
    Mutant(
        "engine drops its r check",
        "sequences.py",
        '("l", l, 1), ("r", r, 0)):',
        '("l", l, 1)):',
        (
            "tests/test_summation.py::test_argument_validation",
            "tests/test_arith.py::test_argument_error_messages",
        ),
    ),
    # Mutations the change log claims the tests catch.
    Mutant(
        "_pair_product drops its factor 2",
        "arith.py",
        "return xx + 2 * yy,",
        "return xx + yy,",
        ("tests/test_sequences.py",),
    ),
    Mutant(
        "QuadElem.__rsub__ with the wrong sign",
        "field.py",
        "else -self + other",
        "else self - other",
        ("tests/test_arith.py",),
    ),
    Mutant(
        "brute-force oracle reads balancing",
        "sequences.py",
        'return sum(b**l for b in islice(_recurrence("B"), 0, m * n + 1, m))',
        "return sum(balancing(k * m) ** l for k in range(n + 1))",
        ("tests/test_sequences.py::test_brute_force_shares_no_code_with_the_evaluators",),
    ),
    Mutant(
        "arith imports fractions at the top",
        "arith.py",
        "import decimal\nimport operator\n",
        "import decimal\nimport fractions\nimport operator\n",
        ("tests/test_exports.py",),
    ),
    Mutant(
        "_summed with a wrong sign",
        "summation.py",
        "((step, offset), -q)]",
        "((step, offset), q)]",
        ("tests/test_summation.py",),
    ),
    Mutant(
        "gf_coefficients off by one",
        "summation.py",
        'return list(islice(_recurrence("B"), count))',
        'return list(islice(_recurrence("B"), 1, count + 1))',
        ("tests/test_sequences.py",),
    ),
)

# The identity mutant runs every test file the list names, so a kill on the list
# stands for the mutation and not for a copy that fails without one.
IDENTITY = Mutant(
    "identity",
    "sequences.py",
    "bz, cz = bz - br, cz - cr",
    "bz, cz = bz - br, cz - cr",
    tuple(sorted({test.split("::")[0] for mutant in MUTANTS for test in mutant.tests})),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or what else happened, for ``mutant`` in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="balsum-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, work / tree, ignore=skip)
        shutil.copy(ROOT / "pyproject.toml", work)
        target = work / "src" / "balsum" / mutant.path
        text = target.read_text()
        if (count := text.count(mutant.old)) != 1:
            return f"old text found {count} times"
        target.write_text(text.replace(mutant.old, mutant.new))
        argv = [sys.executable, "-m", "pytest", "-x", "-q", "--hypothesis-seed=0", "-p", "no:cacheprovider"]
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            done = subprocess.run(
                [*argv, *mutant.tests], cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S
            )
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
    outcome = {0: "survived", 1: "killed"}.get(done.returncode)
    if outcome is None:
        print(done.stdout[-2000:], done.stderr[-2000:], sep="\n", file=sys.stderr)
        return f"pytest exit {done.returncode}"
    return outcome


def main() -> int:
    failures = 0
    for mutant in (IDENTITY, *MUTANTS):
        start = time.perf_counter()
        outcome = run(mutant)
        expected = "survived" if mutant.old == mutant.new else "killed"
        ok = outcome == expected
        failures += not ok
        seconds = time.perf_counter() - start
        mark = "ok  " if ok else "FAIL"
        print(f"{mark} {outcome:<9} {seconds:5.1f} s  {mutant.path}: {mutant.name}", flush=True)
    print(f"{1 + len(MUTANTS)} mutants, identity included: {failures} not as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
