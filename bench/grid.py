"""In-process timing grid of the balsum evaluators, printed as one JSON object.

    PYTHONPATH=src python3 bench/grid.py

It times B(n) for n = 10**3 .. 10**6 by each generator (the doubling pair,
the matrix power and Binet), and power_sum against brute_force_power_sum at
l*m*n = 10**4, 3*10**4 and 10**5, checking that the two agree.  Each entry
is the median of five calls, or the time of a single call when that takes
over a second.  No cache is involved: every power_sum call derives its
formula afresh, so every call is cold.
"""

from __future__ import annotations

import json
import platform
import statistics
from time import perf_counter
from typing import Callable

from balsum.sequences import balancing_binet, balancing_fast, balancing_pair
from balsum.summation import brute_force_power_sum, power_sum

GENERATORS = {
    "pair": lambda n: balancing_pair(n)[0],
    "matrix": balancing_fast,
    "binet": balancing_binet,
}
INDICES = (10**3, 10**4, 10**5, 10**6)
# (m, l) pairs; n is chosen so that l*m*n is each of SIZES.
SHAPES = ((1, 1), (1, 10), (3, 10), (5, 20), (12, 24))
SIZES = (10**4, 3 * 10**4, 10**5)


def timed(call: Callable[[], int]) -> tuple[float, int]:
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


def main() -> None:
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
            closed_ms, closed = timed(lambda: power_sum(m, l, n))
            brute_ms, brute = timed(lambda: brute_force_power_sum(m, l, n))
            if closed != brute:
                raise SystemExit(f"power_sum({m}, {l}, {n}) disagrees with brute force")
            sums.append(
                {"m": m, "l": l, "n": n, "lmn": l * m * n,
                 "power_sum_ms": round(closed_ms, 3), "brute_force_ms": round(brute_ms, 3)}
            )
    print(json.dumps({
        "python": platform.python_version(),
        "cpu": cpu_model(),
        "unit": "ms",
        "B_by_generator": generators,
        "power_sum_vs_brute_force": sums,
    }, indent=2))


if __name__ == "__main__":
    main()
