"""In-process timing grid of the balsum evaluators, printed as one JSON object.

    PYTHONPATH=src python3 bench/grid.py

It times B(n) for n = 10**3 .. 10**6 by each generator (the doubling pair,
the matrix power and Binet), and ALPHA**n at the same n, checking it against
C(n) + 2*B(n)*sqrt 2 from the doubling pair, and power_sum against brute_force_power_sum at
l*m*n = 10**4, 3*10**4 and 10**5, checking that the two agree, and beside
them the derivation power_sum_formula(m, l) alone: power_sum is that
derivation plus one evaluation at n.  It times the QuadElem multiply on
small rationals (a batch of products) and on operands the size of
ALPHA**(10**5), the public LaurentPoly product P * (P + X) at
P = (X - 1/X)**200, checked against P**2 + P*X with the square by the power,
and each Laurent verifier at one bound (odd l = 30, even l = 20, the
subsequence lemma at m = 200, and the closed power sums for every m <= 6,
l <= 8), checking that each proof holds.  It times
decimal output: a table of B at 0..upto for upto = 1,000, 3,000 and 7,000 as
the int walk plus str against the exact Decimal walk of `balsum gen`,
checking that the two agree, and one integer B(N) for N = 10**4 .. 10**5,
the case of a single large output, by str and by `arith._text`, the
library's writer, which converts through exact Decimal to stay clear of the
int/str digit limit, checking that the two agree.  Each entry
is the median of five calls, or the time of a single call when that takes
over a second.  No cache is involved: every power_sum call derives its
formula afresh, so every call is cold.

The one row out of process is start-up: fresh `python -m balsum` processes,
one small request per subcommand and `--help`, against the floor
`python -c "import fractions, argparse"`, nine of each, interleaved, run from
a copy of the package without `__pycache__` and with
PYTHONDONTWRITEBYTECODE=1, so every module is compiled as in the benchmark.
It reports the median of each in ms.
"""

from __future__ import annotations

import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, TypeVar

import balsum
from balsum.arith import ALPHA, QuadElem, _text
from balsum.laurent import (
    LaurentPoly,
    verify_even_power_identity,
    verify_odd_power_identity,
    verify_power_sum_formula,
    verify_subsequence_recurrence,
)
from balsum.sequences import (
    balancing,
    balancing_binet,
    balancing_fast,
    balancing_pair,
    decimal_table,
    sequence_table,
)
from balsum.summation import brute_force_power_sum, power_sum, power_sum_formula

T = TypeVar("T")

GENERATORS = {
    "pair": lambda n: balancing_pair(n)[0],
    "matrix": balancing_fast,
    "binet": balancing_binet,
}
INDICES = (10**3, 10**4, 10**5, 10**6)
# (m, l) pairs; n is chosen so that l*m*n is each of SIZES.
SHAPES = ((1, 1), (1, 10), (3, 10), (5, 20), (12, 24))
SIZES = (10**4, 3 * 10**4, 10**5)
# Products per timed batch of small-rational QuadElem multiplies.
SMALL_MULS = 10_000
# P = (X - 1/X)**LAURENT_POWER in the laurent_mul row.
LAURENT_POWER = 200
TABLE_UPTOS = (1_000, 3_000, 7_000)
STR_INDICES = (10**4, 3 * 10**4, 10**5)
STARTUP_ROUNDS = 9
STARTUP_COMMANDS = {
    "balsum_help": ["-m", "balsum", "--help"],
    "balsum_gen": ["-m", "balsum", "gen", "--upto", "10"],
    "balsum_sum": ["-m", "balsum", "sum", "--m", "2", "--power", "5", "--upto", "30"],
    "balsum_formula": ["-m", "balsum", "formula", "--m", "3", "--power", "8"],
    "balsum_linearize": ["-m", "balsum", "linearize", "--power", "8"],
    "balsum_verify": ["-m", "balsum", "verify", "--odd-max-l", "2"],
    "floor": ["-c", "import fractions, argparse"],
}
VERIFIERS = {
    "odd_l30": lambda: verify_odd_power_identity(30),
    "even_l20": lambda: verify_even_power_identity(20),
    "lemma_m200": lambda: verify_subsequence_recurrence(200),
    "power_sum_formula_m6_l8": lambda: all(
        verify_power_sum_formula(m, l) for m in range(1, 7) for l in range(1, 9)
    ),
}


def timed(call: Callable[[], T]) -> tuple[float, T]:
    """Median wall time in ms over five calls (one if it takes over 1 s),
    and the result."""
    times = []
    while len(times) < 5:
        start = perf_counter()
        result = call()
        times.append(1e3 * (perf_counter() - start))
        if times[0] > 1e3:
            break
    return statistics.median(times), result


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def quad_mul_rows() -> dict[str, float]:
    """The QuadElem multiply: a batch of products of small rationals (numerators
    and denominators below 100), and one product of two distinct elements of
    the size of ALPHA**(10**5)."""
    rng = random.Random(4)

    def small() -> QuadElem:
        return QuadElem(*(Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in "ab"))

    pairs = [(small(), small()) for _ in range(SMALL_MULS)]
    small_ms, _ = timed(lambda: [x * y for x, y in pairs])
    x, y = ALPHA ** (10**5), ALPHA ** (10**5 + 1)
    big_ms, product = timed(lambda: x * y)
    if product != ALPHA ** (2 * 10**5 + 1):
        raise SystemExit("QuadElem multiply disagrees with ALPHA**(2*10**5 + 1)")
    return {f"small_rationals_x{SMALL_MULS}": round(small_ms, 3), "alpha_1e5": round(big_ms, 3)}


def laurent_mul_row() -> dict[str, float]:
    """The LaurentPoly product of two operands of 201 and 202 terms with
    coefficients up to C(200, 100), P * (P + X) at P = (X - 1/X)**200, checked
    against P**2 + P*X: the square goes through the power, P*X is a product by
    a monomial."""
    x = LaurentPoly.monomial(1)
    p = (x - LaurentPoly.monomial(-1)) ** LAURENT_POWER
    ms, product = timed(lambda: p * (p + x))
    if product != p**2 + p * x:
        raise SystemExit("P * (P + X) disagrees with P**2 + P*X")
    return {f"P_times_P_plus_X_at_{LAURENT_POWER}": round(ms, 3)}


def alpha_power_rows() -> dict[str, float]:
    """ALPHA**n at each of INDICES, by the powering loop of QuadElem."""
    rows = {}
    for n in INDICES:
        ms, power = timed(lambda: ALPHA**n)
        b, c = balancing_pair(n)
        if power != QuadElem(c, 2 * b):
            raise SystemExit(f"ALPHA**{n} disagrees with C(n) + 2*B(n)*sqrt 2")
        rows[str(n)] = round(ms, 3)
    return rows


def output_rows() -> dict[str, dict[str, dict[str, float]]]:
    """Decimal output: whole tables by the int walk and str against the Decimal
    walk, and one large integer by str against the library's writer."""
    tables = {}
    for upto in TABLE_UPTOS:
        int_ms, by_int = timed(lambda: [str(v) for v in sequence_table(upto)])
        decimal_ms, by_decimal = timed(lambda: list(decimal_table(upto)))
        if by_int != by_decimal:
            raise SystemExit(f"decimal_table({upto}) disagrees with str of sequence_table")
        tables[str(upto)] = {"int_walk_str": round(int_ms, 3), "decimal_walk": round(decimal_ms, 3)}
    singles = {}
    for n in STR_INDICES:
        value = balancing(n)
        ms, digits = timed(lambda: str(value))
        text_ms, text = timed(lambda: _text(value))
        if text != digits:
            raise SystemExit(f"_text(B({n})) disagrees with str")
        singles[str(n)] = {"digits": len(digits), "str": round(ms, 3), "_text": round(text_ms, 3)}
    return {"table": tables, "str_B_n": singles}


def startup_row() -> dict[str, float]:
    """Median wall time in ms of each STARTUP_COMMANDS process, the commands
    taking turns, from a bytecode-free copy of the package under test."""
    times: dict[str, list[float]] = {name: [] for name in STARTUP_COMMANDS}
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(balsum.__file__).parent
        shutil.copytree(package, Path(tmp, package.name), ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        for _ in range(STARTUP_ROUNDS):
            for name, args in STARTUP_COMMANDS.items():
                start = perf_counter()
                subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=True)
                times[name].append(1e3 * (perf_counter() - start))
    return {name: round(statistics.median(ms), 1) for name, ms in times.items()}


def main() -> None:
    # Tables and single values reach far past the 4,300-digit int/str limit
    # (Python 3.10 before 3.10.7 has none).
    getattr(sys, "set_int_max_str_digits", lambda limit: None)(0)
    generators = {}
    for n in INDICES:
        row = {name: timed(lambda: generate(n)) for name, generate in GENERATORS.items()}
        if len({value for _, value in row.values()}) != 1:
            raise SystemExit(f"generators disagree at B({n})")
        generators[str(n)] = {name: round(ms, 3) for name, (ms, _) in row.items()}
    sums = []
    for size in SIZES:
        for m, l in SHAPES:
            n = size // (l * m)
            formula_ms, _ = timed(lambda: power_sum_formula(m, l))
            closed_ms, closed = timed(lambda: power_sum(m, l, n))
            brute_ms, brute = timed(lambda: brute_force_power_sum(m, l, n))
            if closed != brute:
                raise SystemExit(f"power_sum({m}, {l}, {n}) disagrees with brute force")
            sums.append(
                {"m": m, "l": l, "n": n, "lmn": l * m * n,
                 "formula_ms": round(formula_ms, 3), "power_sum_ms": round(closed_ms, 3),
                 "brute_force_ms": round(brute_ms, 3)}
            )
    verifiers = {}
    for name, verify in VERIFIERS.items():
        ms, proved = timed(verify)
        if not proved:
            raise SystemExit(f"verifier {name} failed")
        verifiers[name] = round(ms, 3)
    print(json.dumps({
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "unit": "ms",
        "B_by_generator": generators,
        "alpha_power": alpha_power_rows(),
        "power_sum_vs_brute_force": sums,
        "quad_mul": quad_mul_rows(),
        "laurent_mul": laurent_mul_row(),
        "verifiers": verifiers,
        "decimal_output": output_rows(),
        "startup": startup_row(),
    }, indent=2))


if __name__ == "__main__":
    main()
