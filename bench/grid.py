"""In-process timing grid of the balsum evaluators, printed as one JSON object.

    PYTHONPATH=src python3 bench/grid.py

It times B(n) for n = 10**3 .. 10**6 by each generator (the doubling pair,
the matrix power and Binet), and ALPHA**n at the same n, checking it against
C(n) + 2*B(n)*sqrt 2 from the doubling pair, and power_sum, the Binet sum,
at l*m*n = 10**4, 3*10**4 and 10**5 against the record: the derivation
power_sum_formula(m, l) alone, and that derivation plus one evaluation at n,
the route power_sum took before it summed the Binet formula.  Where n*l is at
most 10**4, brute force is cheap enough to time, and a row also times
brute_force_power_sum and flags whether power_sum beats it; elsewhere both
entries are null.  The shifted_closed_sum row times sum_{k<=n} B(k*m + r), the
same Binet engine of `sequences` at l = 1, at two (m, r, n), and at r = 0 for
the same m and n, checking S(n) - S(n-1) = B(m*n + r), and S = power_sum(m, 1, n)
at r = 0.  Every value a row computes
is checked equal.  It times
the QuadElem multiply on small rationals (a batch of products) and on
operands the size of ALPHA**(10**5), the public LaurentPoly product P * (P + X) at
P = (X - 1/X)**200, checked against P**2 + P*X with the square by the power,
and each Laurent verifier at one bound (odd l = 30, even l = 20, the
subsequence lemma at m = 200, and the closed power sums for every m <= 6,
l <= 8), checking that each proof holds.  It times
decimal output: a table of B at 0..upto for upto = 1,000, 3,000 and 7,000 as
the int walk plus str against the exact Decimal walk of `balsum gen`,
checking that the two agree, and one integer B(N) for N = 10**4 .. 3*10**5,
the case of a single large output, by str and by `arith._text`, the
library's writer, which splits an int at powers 10**(640 * 2**k) into pieces
that no int/str digit limit refuses, checking that the two agree.  Each entry
is the median of five calls, or the time of a single call when that takes
over a second.  No cache is involved: power_sum derives no formula, and
every record call derives its formula afresh, so every call is cold.

Two rows run out of process.  Start-up times fresh `python -m balsum`
processes, one small request per subcommand, `sum --oracle` and `--help`,
against the floor `python -c "import argparse"`, what a `sum` request
loads outside balsum, nine of each, interleaved, run from
a copy of the package without `__pycache__` and with
PYTHONDONTWRITEBYTECODE=1, so every module is compiled as in the benchmark.
The `verify` request runs all three families, so it loads what a benchmark
`verify` loads.  It reports the median wall time of each in ms and its peak
RSS in MB, the largest ru_maxrss that os.wait4 gave over its runs.  A
child's ru_maxrss also counts the memory of the process that spawned it (the
kernel keeps the high-water mark across exec), so every process of both rows
is spawned by a small helper interpreter, as perfbench/launcher.py spawns the
benchmark's requests, and not by the grid.  The helper runs without `site`
(python -S), which keeps it below the RSS of any process it spawns.
Teardown times the end of each process: in the same rounds, each `balsum`
request of the start-up row runs once more, through `runpy` as `python -m`
runs it, and writes perf_counter (CLOCK_MONOTONIC, one clock for every
process) to stderr as the entry's `main` returns; the row is the median in
ms from then to the exit the helper sees, which covers atexit handlers, the
final flushes and the interpreter's finalization.
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
from balsum import (
    ALPHA,
    LaurentPoly,
    QuadElem,
    balancing,
    balancing_binet,
    balancing_fast,
    brute_force_power_sum,
    power_sum,
    power_sum_formula,
    sequence_table,
    shifted_closed_sum,
    verify_even_power_identity,
    verify_odd_power_identity,
    verify_power_sum_formula,
    verify_subsequence_recurrence,
)
from balsum.arith import _text
from balsum.sequences import balancing_pair, decimal_table

T = TypeVar("T")

GENERATORS = {
    "pair": lambda n: balancing_pair(n)[0],
    "matrix": balancing_fast,
    "binet": balancing_binet,
}
INDICES = (10**3, 10**4, 10**5, 10**6)
# (m, l) pairs; n is chosen so that l*m*n is each of SIZES.
SHAPES = ((1, 1), (1, 3), (1, 10), (3, 10), (5, 20), (12, 24))
SIZES = (10**4, 3 * 10**4, 10**5)
# (m, r, n) of the shifted_closed_sum row; each also runs at r = 0.
SHIFTED = ((12, 7, 10**4), (1, 3, 10**5))
# Brute force is timed only where n*l is at most this: above it, a few rows
# such as (1, 3, 33333) would take most of the grid's run.
BRUTE_FORCE_MAX_NL = 10**4
# Products per timed batch of small-rational QuadElem multiplies.
SMALL_MULS = 10_000
# P = (X - 1/X)**LAURENT_POWER in the laurent_mul row.
LAURENT_POWER = 200
TABLE_UPTOS = (1_000, 3_000, 7_000)
STR_INDICES = (10**4, 3 * 10**4, 10**5, 3 * 10**5)
STARTUP_ROUNDS = 9
STARTUP_COMMANDS = {
    "balsum_help": ["-m", "balsum", "--help"],
    "balsum_gen": ["-m", "balsum", "gen", "--upto", "10"],
    "balsum_sum": ["-m", "balsum", "sum", "--m", "2", "--power", "5", "--upto", "30"],
    "balsum_sum_oracle": ["-m", "balsum", "sum", "--m", "2", "--power", "5", "--upto", "30", "--oracle"],
    "balsum_formula": ["-m", "balsum", "formula", "--m", "3", "--power", "8"],
    "balsum_linearize": ["-m", "balsum", "linearize", "--power", "8"],
    "balsum_verify": [
        "-m", "balsum", "verify", "--odd-max-l", "2", "--even-max-l", "1", "--lemma-max-m", "3",
    ],
    # What a `sum` request loads outside balsum.
    "floor": ["-c", "import argparse"],
}
# Reads one argument list (JSON) a line, runs `python` on it and replies with
# [start, end, ru_maxrss in KB, exit code, stderr]: perf_counter at the spawn
# and at the exit, which os.wait4 reaps.
SPAWNER = (
    "import json, os, sys, time\n"
    "from subprocess import DEVNULL, PIPE, Popen\n"
    "for line in sys.stdin:\n"
    "    start = time.perf_counter()\n"
    "    proc = Popen([sys.executable, *json.loads(line)], stdout=DEVNULL, stderr=PIPE)\n"
    "    err = proc.stderr.read().decode()\n"
    "    _, status, usage = os.wait4(proc.pid, 0)\n"
    "    proc.returncode = os.waitstatus_to_exitcode(status)\n"
    "    end = time.perf_counter()\n"
    "    print(json.dumps([start, end, usage.ru_maxrss, proc.returncode, err]), flush=True)\n"
)
# Runs `balsum` as `python -m balsum` does, then writes the time its main
# returned as the last line of stderr.
TEARDOWN_WRAPPER = (
    "import runpy, sys, time\n"
    "try:\n"
    "    runpy.run_module('balsum', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    sys.stderr.write(f'\\n{time.perf_counter()}')\n"
)
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


def process_rows() -> dict[str, dict[str, float | dict[str, float]]]:
    """The start-up row, the median wall time in ms and the peak RSS in MB of
    each STARTUP_COMMANDS process, and the teardown row, the median time in ms
    from the return of each `balsum` request's main to its exit; the commands
    take turns, from a bytecode-free copy of the package under test, each
    spawned by SPAWNER."""
    startup: dict[str, list[float]] = {name: [] for name in STARTUP_COMMANDS}
    peak_kb = dict.fromkeys(STARTUP_COMMANDS, 0)
    teardown: dict[str, list[float]] = {
        name: [] for name, args in STARTUP_COMMANDS.items() if args[:2] == ["-m", "balsum"]
    }
    with tempfile.TemporaryDirectory() as tmp:
        package = Path(balsum.__file__).parent
        shutil.copytree(package, Path(tmp, package.name), ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        helper = [sys.executable, "-S", "-c", SPAWNER]
        with subprocess.Popen(
            helper, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
        ) as spawner:

            def spawned(args: list[str]) -> tuple[float, float, int, str]:
                """(start, end, ru_maxrss in KB, stderr) of one process; a failed one ends the grid."""
                print(json.dumps(args), file=spawner.stdin, flush=True)
                start, end, maxrss_kb, code, err = json.loads(spawner.stdout.readline())
                if code:
                    raise SystemExit(f"python {' '.join(args)} exited {code}:\n{err}")
                return start, end, maxrss_kb, err

            for _ in range(STARTUP_ROUNDS):
                for name, args in STARTUP_COMMANDS.items():
                    start, end, maxrss_kb, _ = spawned(args)
                    startup[name].append(1e3 * (end - start))
                    peak_kb[name] = max(peak_kb[name], maxrss_kb)
                    if name in teardown:
                        _, end, _, err = spawned(["-c", TEARDOWN_WRAPPER, *args[2:]])
                        main_returned = float(err.rsplit("\n", 1)[-1])
                        teardown[name].append(1e3 * (end - main_returned))
    return {
        "startup": {
            name: {"ms": round(statistics.median(ms), 1), "peak_rss_mb": round(peak_kb[name] / 1024, 2)}
            for name, ms in startup.items()
        },
        "teardown": {name: round(statistics.median(ms), 1) for name, ms in teardown.items()},
    }


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
            record_ms, by_record = timed(lambda: power_sum_formula(m, l).value_at(n))
            closed_ms, closed = timed(lambda: power_sum(m, l, n))
            if closed != by_record:
                raise SystemExit(f"power_sum({m}, {l}, {n}) disagrees with its record")
            brute = {"brute_force_ms": None, "beats_brute_force": None}
            if n * l <= BRUTE_FORCE_MAX_NL:
                brute_ms, by_brute = timed(lambda: brute_force_power_sum(m, l, n))
                if by_brute != closed:
                    raise SystemExit(f"power_sum({m}, {l}, {n}) disagrees with brute force")
                brute = {"brute_force_ms": round(brute_ms, 3), "beats_brute_force": closed_ms < brute_ms}
            sums.append(
                {"m": m, "l": l, "n": n, "lmn": l * m * n,
                 "formula_ms": round(formula_ms, 3), "record_ms": round(record_ms, 3),
                 "power_sum_ms": round(closed_ms, 3), **brute}
            )
    shifted = []
    for m, r, n in SHIFTED:
        for shift in (0, r):
            shifted_ms, total = timed(lambda: shifted_closed_sum(m, shift, n))
            if total - shifted_closed_sum(m, shift, n - 1) != balancing(m * n + shift):
                raise SystemExit(f"shifted_closed_sum({m}, {shift}, {n}) does not telescope")
            if shift == 0 and total != power_sum(m, 1, n):
                raise SystemExit(f"shifted_closed_sum({m}, 0, {n}) disagrees with power_sum")
            shifted.append({"m": m, "r": shift, "n": n, "ms": round(shifted_ms, 3)})
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
        "shifted_closed_sum": shifted,
        "quad_mul": quad_mul_rows(),
        "laurent_mul": laurent_mul_row(),
        "verifiers": verifiers,
        "decimal_output": output_rows(),
        **process_rows(),
    }, indent=2))


if __name__ == "__main__":
    main()
