"""Seeded request sets for the three workloads.

A run measures one set of balsum CLI argument lists, made from its seed.  The
parameters that set a request's cost are stratified: every set has one
request in each cell of a fixed grid of strata, drawn at random from the
middle third of the cell, and the other choices (format, sequence) are
spread evenly.  So every seed gives the same mix of small and large
requests, and the seeds differ only inside the cells.  A median or a
percentile over a set then moves with the program's speed rather than with
the seed: the benchmark's timing percentiles sit where request costs are
steep, and draws from whole cells moved them by a tenth from seed to seed.
Only the generated argv reaches the CLI.
"""

from __future__ import annotations

import math
import random

_FORMATS3 = ("text", "json", "csv")
_FORMATS2 = ("text", "json")

# sum: l*m*n spans both sides of the 4,300-digit line (about 5,600): four
# log-uniform strata below it and two above, so that a third of the requests
# fail at the seed whatever the seed.
_SUM_LMN_BELOW = (100, 5_500)
_SUM_LMN_ABOVE = (5_800, 30_000)
_DIGIT_LIMIT = 4300
# log10 of B(N) is N*log10(3+2*sqrt(2)) - log10(4*sqrt(2)) to within 1e-6
# for N >= 2, and the top term B(m*n)**l carries the sum's leading digits.
_LOG10_UNIT, _LOG10_SCALE = math.log10(3 + 2 * math.sqrt(2)), math.log10(4 * math.sqrt(2))
_SUM_MAX_M = 12
_SUM_MAX_POWER = 24
# brute force costs about m*n**2 recurrence steps; keep it near a second.
_ORACLE_MAX_MN2 = 3_000_000
# --oracle also runs the closed form, which is slowest in the upper l*m*n
# strata (near 2 s with it); the oracle goes to the lower three of six.
_ORACLE_SIZE_STRATA = 3

# gen: --upto spans 500..7,000; the 4,300-digit line is at about 5,618, so
# about one stratum in eight lies above it and the others below.
_GEN_UPTO_BELOW = (500, 5_500)
_GEN_UPTO_ABOVE = (5_800, 7_000)
_GEN_ALT_UPTO = (500, 3_000)


def _draw(rng: random.Random, s: int, k: int) -> float:
    """A number in the middle third of stratum s of k equal strata of [0, 1)."""
    return (s + (1 + rng.random()) / 3) / k


def _strata(rng: random.Random, k: int) -> list[float]:
    """k numbers in [0, 1), one in each of k equal strata, in random order."""
    slots = list(range(k))
    rng.shuffle(slots)
    return [_draw(rng, s, k) for s in slots]


def _mirrored(rng: random.Random, strata: list[float]) -> list[float]:
    """A draw from the mirror image stratum of each of ``strata``."""
    k = len(strata)
    return [_draw(rng, k - 1 - int(u * k), k) for u in strata]


def _even(rng: random.Random, choices: tuple | str, k: int) -> list:
    """k of ``choices``, each as often as k allows, in random order."""
    picks = [choices[i % len(choices)] for i in range(k)]
    rng.shuffle(picks)
    return picks


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _int_in(u: float, lo: int, hi: int) -> int:
    """Map u in [0, 1) onto lo..hi inclusive."""
    return lo + int(u * (hi - lo + 1))


def _sum_digits(m: int, l: int, n: int) -> float:
    """About log10 of sum(B(k*m)**l for k in 0..n), for m*n >= 2."""
    return l * (m * n * _LOG10_UNIT - _LOG10_SCALE)


def _sum_size(u: float, m: int, l: int) -> int:
    """--upto for the size stratum draw u in [0, 6): the first four strata
    lie below the digit line and the last two above it, by a margin of at
    least 10 digits."""
    if u < 4:
        n = max(1, round(_log_uniform(u / 4, *_SUM_LMN_BELOW) / (l * m)))
        while n > 1 and _sum_digits(m, l, n) > _DIGIT_LIMIT - 10:
            n -= 1
    else:
        n = round(_log_uniform((u - 4) / 2, *_SUM_LMN_ABOVE) / (l * m))
        while _sum_digits(m, l, n) < _DIGIT_LIMIT + 10:
            n += 1
    return n


def sums(rng: random.Random) -> list[list[str]]:
    """`balsum sum` over log-uniform l*m*n; one in six asks for --oracle.

    One request in every cell of a 6 x 4 x 2 grid of (l*m*n, l, m) strata,
    since the cost grows with all three.  Inside each size stratum the eight
    (l, m) cells take l*m*n from eight sub-strata, in a fixed order that
    spreads each power and m stratum over the sizes, so the sizes, which set
    most of the cost, cover the range evenly and pair with l and m the same
    way whatever the seed.  For each power stratum and m stratum, one cell
    of the lower size strata adds --oracle, in turn, where brute force stays
    near a second (else the smallest size stratum, where it always does):
    one request in six.
    """
    size_strata, power_strata, m_strata = 6, 4, 2
    cells_per_size = power_strata * m_strata
    requests = []
    for j in range(power_strata):
        for k in range(m_strata):
            # 5 is prime to 8: cell c takes size sub-stratum 5*c mod 8.
            sub = 5 * (j * m_strata + k) % cells_per_size
            cells = []
            for i in range(size_strata):
                power = _int_in(_draw(rng, j, power_strata), 1, _SUM_MAX_POWER)
                m = _int_in(_draw(rng, k, m_strata), 1, _SUM_MAX_M)
                n = _sum_size(i + _draw(rng, sub, cells_per_size), m, power)
                argv = ["sum", "--m", str(m), "--power", str(power), "--upto", str(n)]
                cells.append((argv, i < _ORACLE_SIZE_STRATA and m * n * n <= _ORACLE_MAX_MN2))
            oracle = (j * m_strata + k) % _ORACLE_SIZE_STRATA
            cells[oracle if cells[oracle][1] else 0][0].append("--oracle")
            requests += [argv for argv, _ in cells]
    for request, fmt in zip(requests, _even(rng, _FORMATS3, len(requests))):
        request += ["--format", fmt]
    rng.shuffle(requests)
    return requests


def _gen_upto(u: float, k: int) -> int:
    """--upto for a draw u in [0, 1) from k strata: the top eighth of the
    strata (at least one) lie above the digit line, the rest below it, each
    log-uniform."""
    above = max(1, round(k / 8))
    u *= k
    if u >= k - above:
        return round(_log_uniform((u - (k - above)) / above, *_GEN_UPTO_ABOVE))
    return round(_log_uniform(u / (k - above), *_GEN_UPTO_BELOW))


def tables(rng: random.Random) -> list[list[str]]:
    """`balsum gen` prefixes; a quarter use --method fast or binet.

    Each format gets its own --upto strata, since output memory depends on
    both; json, whose output is held in memory whole, gets twice as many, and
    fast and binet four each.  The top strata of the recurrence requests lie
    above the digit line and fail at the seed.  One json request, the
    largest table below the line, is the same for every seed: it sets
    peak_rss_mb, which would otherwise follow the draw in the top json
    stratum below the line.
    """
    requests = [
        ["gen", "--upto", str(_gen_upto(u, k)), "--method", "recurrence", "--format", fmt]
        for fmt, k in (("text", 6), ("csv", 6), ("json", 12))
        for u in _strata(rng, k)
    ]
    requests.append(["gen", "--upto", str(_GEN_UPTO_BELOW[1]), "--method", "recurrence", "--format", "json"])
    for method in ("fast", "binet"):
        requests += [
            ["gen", "--upto", str(round(_log_uniform(u, *_GEN_ALT_UPTO))), "--method", method, "--format", fmt]
            for u, fmt in zip(_strata(rng, 4), _even(rng, _FORMATS3, 4))
        ]
    for request, seq in zip(requests, _even(rng, "BC", len(requests))):
        request += ["--seq", seq]
    rng.shuffle(requests)
    return requests


def symbolic(rng: random.Random) -> list[list[str]]:
    """verify (random bounds and the default sweep), linearize and formula.

    verify costs grow steeply with its odd and even bounds, so each request
    pairs a high odd stratum with a low even one and vice versa.  The light
    linearize and formula requests are more than half of the set and the
    random verify requests a third, so req_p50_ms and req_tail_ms each fall
    inside one group's stratified costs rather than at the edge between two.
    """
    verifies = 16
    requests: list[list[str]] = []
    for u in _strata(rng, 14):
        requests.append(["linearize", "--power", str(_int_in(u, 1, 60))])
    for u, m in zip(_strata(rng, 14), _even(rng, range(1, 13), 14)):
        requests.append(["formula", "--m", str(m), "--power", str(_int_in(u, 1, 40))])
    for request, fmt in zip(requests, _even(rng, _FORMATS2, len(requests))):
        request += ["--format", fmt]
    odd = _strata(rng, verifies)
    for u_odd, u_even, u_lemma in zip(odd, _mirrored(rng, odd), _strata(rng, verifies)):
        requests.append([
            "verify",
            "--odd-max-l", str(_int_in(u_odd, 0, 30)),
            "--even-max-l", str(_int_in(u_even, 0, 20)),
            "--lemma-max-m", str(_int_in(u_lemma, 0, 200)),
        ])
    requests += [["verify"] for _ in range(4)]
    rng.shuffle(requests)
    return requests


SETS = {"sums": sums, "tables": tables, "symbolic": symbolic}
# Requests in the set of each workload: small enough that a 30 s run makes
# two to three passes on the reference machine, so that a request's median
# can drop a slow run, and large enough that every stratum is there.
SET_SIZE = {"sums": 48, "tables": 33, "symbolic": 48}
# The percentile of request wall time reported as req_tail_ms: the highest
# one that leaves at least ten of the set's requests beyond it (79, 69, 79).
TAIL_PERCENTILE = {name: 100 * (size - 10) // size for name, size in SET_SIZE.items()}


def request_set(workload: str, seed: int) -> list[list[str]]:
    """The requests one run measures; the same seed gives the same set."""
    requests = SETS[workload](random.Random(f"{workload}:{seed}"))
    assert len(requests) == SET_SIZE[workload]
    return requests


def pass_order(workload: str, seed: int, pass_no: int) -> list[int]:
    """The order in which one pass sends the set: shuffled afresh each pass,
    so that no request always follows the same neighbour."""
    order = list(range(SET_SIZE[workload]))
    random.Random(f"{workload}:{seed}:pass{pass_no}").shuffle(order)
    return order
