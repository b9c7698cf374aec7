"""Mutation gate: every listed mutant must fail the tests named for it.

    python3 bench/mutants.py

A mutant is one exact edit of one file of the repository, of the library
under src/balsum or of the benchmark under perfbench: its old text, which must
occur exactly once in that file, replaced by its new text.  For each mutant,
src/, tests/, perfbench/, pyproject.toml (the pytest settings) and README.md
(whose examples tests/test_cli.py runs) are copied into a new temporary
directory, the edit is made in the copy alone, and pytest runs the mutant's
tests with -x -q --hypothesis-seed=0.  The outcome is read from pytest's
summary line, since pytest exits 1 on an error (a fixture that raises, say)
as on a failed test: the mutant is killed when pytest reports a failed test
and no error, and survives when every test passes.
The identity mutant runs first: its new text is its old text, and it runs
every test file the list names.  It must survive, or the copy fails those
tests without any mutation and no kill means anything.

One line is printed per mutant.  The exit code is 1 if any mutant survives,
if any old text does not occur exactly once, if the identity mutant is
killed, or if pytest ends any other way (an error, a timeout), and then
the tail of pytest's report is printed; 0 otherwise.  Each mutant names only
the test files, or test ids, that should catch it, which keeps the whole run
to about a minute.

A surviving mutant is a gap in the tests: it stays on the list, and the tests
are mended.  A change that moves the mutated code updates its entry here.
Only the standard library is used; pytest and hypothesis come from the
project's test extra.
"""

from __future__ import annotations

import os
import re
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
    path: str  # relative to the repository
    old: str
    new: str
    tests: tuple[str, ...]  # test files or test ids, relative to the repository


BINET_TERM = "total += (-1) ** s * 2 * comb(l, s) * _exact(part, 2 - 2 * cw, what)"

MUTANTS = (
    # The Binet engine behind power_sum, closed_sum and shifted_closed_sum.
    Mutant(
        "engine drops - br",
        "src/balsum/sequences.py",
        "bz, cz = bz - br, cz - cr",
        "bz, cz = bz, cz - cr",
        ("tests/test_summation.py",),
    ),
    Mutant(
        "engine reads comb(l, s + 1)",
        "src/balsum/sequences.py",
        BINET_TERM,
        BINET_TERM.replace("comb(l, s)", "comb(l, s + 1)"),
        ("tests/test_summation.py",),
    ),
    Mutant(
        "engine flips the sign at s = 0",
        "src/balsum/sequences.py",
        BINET_TERM,
        BINET_TERM.replace("(-1) ** s", "(-1) ** (s or 1)"),
        ("tests/test_summation.py",),
    ),
    Mutant(
        "engine drops its r check",
        "src/balsum/sequences.py",
        '("l", l, 1), ("r", r, 0)):',
        '("l", l, 1)):',
        ("tests/test_arith.py::test_argument_error_messages",),
    ),
    # Mutations the change log claims the tests catch.
    Mutant(
        "_pair_product drops its factor 2",
        "src/balsum/arith.py",
        "return xx + 2 * yy,",
        "return xx + yy,",
        ("tests/test_sequences.py",),
    ),
    Mutant(
        "QuadElem.__rsub__ with the wrong sign",
        "src/balsum/field.py",
        "else -self + other",
        "else self - other",
        ("tests/test_arith.py",),
    ),
    Mutant(
        "brute-force oracle reads balancing",
        "src/balsum/sequences.py",
        'return sum(b**l for b in islice(_recurrence("B"), 0, m * n + 1, m))',
        "return sum(balancing(k * m) ** l for k in range(n + 1))",
        ("tests/test_sequences.py::test_brute_force_shares_no_code_with_the_evaluators",),
    ),
    Mutant(
        "arith imports fractions at the top",
        "src/balsum/arith.py",
        "import decimal\nimport operator\n",
        "import decimal\nimport fractions\nimport operator\n",
        ("tests/test_exports.py",),
    ),
    Mutant(
        "_summed with a wrong sign",
        "src/balsum/summation.py",
        "((step, offset), -q)]",
        "((step, offset), q)]",
        ("tests/test_summation.py",),
    ),
    Mutant(
        "gf_coefficients off by one",
        "src/balsum/summation.py",
        'return list(islice(_recurrence("B"), count))',
        'return list(islice(_recurrence("B"), 1, count + 1))',
        ("tests/test_sequences.py",),
    ),
    # The Laurent proofs take ALPHA**o from arith, not from the doubling pair
    # that the even forms' coefficients read.
    Mutant(
        "encode reads ALPHA**o from the doubling pair",
        "src/balsum/laurent.py",
        "(num, den), (x, y) = coeff.as_integer_ratio(), _alpha_power(o)\n",
        "from .sequences import balancing_pair\n\n"
        "        b, c = balancing_pair(abs(o))\n"
        "        (num, den), (x, y) = coeff.as_integer_ratio(), (c, 2 * b if o >= 0 else -2 * b)\n",
        ("tests/test_laurent.py::test_even_verifier_reads_no_doubling_pair",),
    ),
    # The word of a flag's bound, the size refusal of a flag over the digit
    # limit, the matrix oracles' one index check, and the benchmark tracer's
    # span of the brute-force oracle.
    Mutant(
        "a flag's bound word chosen by its value",
        "src/balsum/cli.py",
        "{'positive' if low else 'non-negative'}",
        "{'non-negative' if value < 0 else 'positive'}",
        ("tests/test_cli.py::TestUsageMessages",),
    ),
    Mutant(
        "a flag over the digit limit is not an integer",
        "src/balsum/cli.py",
        "if 0 < limit < digits and",
        "if False and",
        ("tests/test_cli.py::TestUsageMessages",),
    ),
    Mutant(
        "_mat_pow drops its index check",
        "src/balsum/sequences.py",
        '_power(_STEP, _check_at_least("index", n, 0), _IDENTITY, _mat_mul)',
        "_power(_STEP, n, _IDENTITY, _mat_mul)",
        ("tests/test_arith.py::test_argument_error_messages",),
    ),
    Mutant(
        "the shim leaves the brute-force oracle untraced",
        "perfbench/shim.py",
        "for key, (name, fn) in originals[layer].items()\n",
        'for key, (name, fn) in originals[layer].items()\n        if name != "brute_force_power_sum"\n',
        ("tests/test_perfbench_shim.py",),
    ),
)

# The identity mutant runs every test file the list names, so a kill on the list
# stands for the mutation and not for a copy that fails without one.
IDENTITY = Mutant(
    "identity",
    "src/balsum/sequences.py",
    "bz, cz = bz - br, cz - cr",
    "bz, cz = bz - br, cz - cr",
    tuple(sorted({test.split("::")[0] for mutant in MUTANTS for test in mutant.tests})),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived', or what else happened, for ``mutant`` in a fresh copy."""
    with tempfile.TemporaryDirectory(prefix="balsum-mutant-") as tmp:
        work = Path(tmp)
        skip = shutil.ignore_patterns("__pycache__", "*.egg-info", ".hypothesis")
        for tree in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / tree, work / tree, ignore=skip)
        for name in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / name, work)
        target = work / mutant.path
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
    lines = done.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    # "1 failed, 3 passed in 0.5s" -> {"failed": 1, "passed": 3}; "errors" -> "error".
    counts = {word.removesuffix("s"): int(n) for n, word in re.findall(r"(\d+) (\w+)", summary)}
    if done.returncode == 0:
        return "survived"
    if done.returncode == 1 and counts.get("failed") and not counts.get("error"):
        return "killed"
    print(done.stdout[-2000:], done.stderr[-2000:], sep="\n", file=sys.stderr)
    return f"pytest exit {done.returncode}: {summary or 'no summary'}"


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
