"""Balancing numbers B(n), their companions C(n), and sums of powers of B by the Binet formula.

B(n) satisfies B(n) = 6*B(n-1) - B(n-2) with B(0) = 0, B(1) = 1 (OEIS
A001109): 0, 1, 6, 35, 204, 1189, ...  The companion sequence C(n) obeys the
same recurrence with C(0) = 1, C(1) = 3 and equals (3*B(n) - B(n-1)) for
n >= 1; it shows up as half the middle coefficient of every equally-spaced
subsequence recurrence, and it satisfies the Pell relation
C(n)**2 - 8*B(n)**2 = 1.

The evaluator is :func:`balancing_pair`, which doubles the pair (B, C) in
O(log n) multiplications; :func:`balancing`, :func:`lucas_balancing` and
:func:`_binet_sum`, the one sum of B(k*m + r)**l, read it.  :func:`power_sum`,
:func:`closed_sum` and :func:`shifted_closed_sum` are each one call of that sum.
The recurrence builds whole tables, in ints (:func:`sequence_table`) and in exact
decimal for output (:func:`decimal_table`), and sums powers in
:func:`brute_force_power_sum`.  These walks, an O(log n) 2x2 matrix power and powers
of ALPHA = 3 + 2*sqrt(2) share no code with the doubling, so each is a test oracle
for it.  All of it is integer work: no Fraction, no ``QuadElem``.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from math import comb
from typing import TYPE_CHECKING, Iterator

from .arith import _alpha_power, _check_at_least, _exact, _power

if TYPE_CHECKING:
    import decimal

Mat2 = tuple[tuple[int, int], tuple[int, int]]

_STEP: Mat2 = ((6, -1), (1, 0))
_IDENTITY: Mat2 = ((1, 0), (0, 1))

# (x(0), x(1)) of each sequence under x(n) = 6*x(n-1) - x(n-2).
_SEEDS = {"B": (0, 1), "C": (1, 3)}


def _check_table(upto: int, seq: str) -> None:
    _check_at_least("index", upto, 0)
    if seq not in _SEEDS:
        raise ValueError(f"seq must be 'B' or 'C', got {seq!r}")


def _recurrence(seq: str) -> Iterator[int]:
    """The values of B or C at indices 0, 1, 2, ... without end; the table
    walk, and a test oracle for :func:`balancing_pair`."""
    prev, cur = _SEEDS[seq]
    while True:
        yield prev
        prev, cur = cur, 6 * cur - prev


def balancing_pair(n: int) -> tuple[int, int]:
    """(B(n), C(n)) in O(log n) big-integer multiplications.

    Reads the bits of n from the top, doubling with B(2k) = 2*B(k)*C(k) and
    C(2k) = 2*C(k)**2 - 1, and stepping with B(k+1) = 3*B(k) + C(k) and
    C(k+1) = 8*B(k) + 3*C(k) at each set bit (the Lucas-sequence doubling of
    Joye and Quisquater, 1996).
    """
    _check_at_least("index", n, 0)
    b, c = 0, 1
    for bit in bin(n)[2:]:
        b, c = 2 * b * c, 2 * c * c - 1
        if bit == "1":
            b, c = 3 * b + c, 8 * b + 3 * c
    return b, c


def balancing(n: int) -> int:
    """B(n), read off :func:`balancing_pair`; O(log n) multiplications."""
    return balancing_pair(n)[0]


def lucas_balancing(n: int) -> int:
    """C(n), the companion sequence 1, 3, 17, 99, ..., read off
    :func:`balancing_pair`."""
    return balancing_pair(n)[1]


def _binet_sum(m: int, l: int, n: int, r: int) -> int:
    """sum_{0<=k<=n} B(k*m + r)**l, the one closed-sum evaluator, by B(x) = (ALPHA**x -
    ALPHA**-x)/(4*sqrt 2): the sum is (4*sqrt 2)**-l * sum_s (-1)**s * C(l, s) * G(l - 2s),
    where G(0) = n + 1 and G(j) = (Z - R)/(W - 1), with W = ALPHA**(m*j), R = ALPHA**(j*r)
    (1 at r = 0) and Z = ALPHA**(j*(m*(n+1) + r)) each C + 2B*sqrt 2 of :func:`balancing_pair`.
    G(-j) = conj G(j) pairs the terms s and l - s into twice the rational part of G(j) for
    even l, twice its sqrt(2) part for odd l: that part of (Z - R)*(conj W - 1) over the
    norm 2 - 2*C(m*j) of W - 1.  It checks n (as ``index``), then m, l >= 1 and r >= 0.  Both
    divisions, by each norm and last by 2**((5l - l%2)/2), are exact or raise
    InexactResultError naming m, l, r (where it is not 0) and n."""
    for name, value, low in (("index", n, 0), ("m", m, 1), ("l", l, 1), ("r", r, 0)):
        _check_at_least(name, value, low)
    what = f"the power sum for m={m}, l={l}{f', r={r}' if r else ''} at n={n}"
    odd = l % 2
    total = 0 if odd else (-1) ** (l // 2) * comb(l, l // 2) * (n + 1)
    for s, j in enumerate(range(l, 0, -2)):
        bw, cw = balancing_pair(m * j)
        (bz, cz), (br, cr) = balancing_pair(j * (m * (n + 1) + r)), balancing_pair(j * r)
        bz, cz = bz - br, cz - cr
        part = 2 * (bz * (cw - 1) - bw * cz) if odd else cz * (cw - 1) - 8 * bz * bw
        total += (-1) ** s * 2 * comb(l, s) * _exact(part, 2 - 2 * cw, what)
    return _exact(total, 1 << (5 * l - odd) // 2, what)


def power_sum(m: int, l: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m)**l: :func:`_binet_sum` at r = 0."""
    return _binet_sum(m, l, n, 0)


def closed_sum(m: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m): :func:`_binet_sum` at l = 1, r = 0."""
    return _binet_sum(m, 1, n, 0)


def shifted_closed_sum(m: int, r: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m + r): :func:`_binet_sum` at l = 1."""
    return _binet_sum(m, 1, n, r)


def _mat_mul(x: Mat2, y: Mat2) -> Mat2:
    """The 2x2 product x*y; a square (``x is y``) of [[a, b], [c, d]] takes
    five products, a*a, b*c, d*d, b*(a+d) and c*(a+d), where the general
    product takes eight."""
    if x is y:
        (a, b), (c, d) = x
        bc, trace = b * c, a + d
        return (a * a + bc, b * trace), (c * trace, d * d + bc)
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _mat_pow(n: int) -> Mat2:
    """The n-th power of the step matrix; the one check of the index its two callers read."""
    return _power(_STEP, _check_at_least("index", n, 0), _IDENTITY, _mat_mul)


def balancing_fast(n: int) -> int:
    """B(n) via the n-th power of the step matrix [[6, -1], [1, 0]]; O(log n);
    a test oracle for :func:`balancing_pair`, and ``balsum gen --method fast``."""
    return _mat_pow(n)[1][0]


def lucas_balancing_fast(n: int) -> int:
    """C(n) via the same matrix power, seeded with C(1) = 3, C(0) = 1; a test
    oracle for :func:`balancing_pair`."""
    m = _mat_pow(n)
    return 3 * m[1][0] + m[1][1]


def balancing_binet(n: int) -> int:
    """B(n) read off ALPHA**n.

    ALPHA**n = a + b*sqrt(2) with b = 2*B(n), because the conjugate power
    BETA**n contributes -b*sqrt(2) and the difference of the two powers is
    4*sqrt(2)*B(n); (a, b) is :func:`arith._alpha_power`, and an odd b raises InexactResultError.
    Test oracle for :func:`balancing_pair`; also ``balsum gen --method binet``.
    """
    _check_at_least("index", n, 0)
    return _exact(_alpha_power(n)[1], 2, f"half the sqrt(2) part of ALPHA**{n}")


def lucas_balancing_binet(n: int) -> int:
    """C(n) as the rational part of ALPHA**n; a test oracle."""
    _check_at_least("index", n, 0)
    return _alpha_power(n)[0]


def sequence_table(upto: int, seq: str = "B") -> list[int]:
    """Values of B or C at indices 0..upto in one recurrence pass; the oracle
    of :func:`decimal_table`."""
    _check_table(upto, seq)
    return list(islice(_recurrence(seq), upto + 1))


def brute_force_power_sum(m: int, l: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m)**l by direct exponentiation of every m-th value of one recurrence
    walk: the test oracle of :func:`power_sum`, of every closed form and of ``sum --oracle``,
    sharing no code with :func:`balancing_pair` or :func:`_binet_sum` behind them."""
    _check_at_least("m", m, 1)
    _check_at_least("l", l, 1)
    _check_at_least("n", n, 0)
    return sum(b**l for b in islice(_recurrence("B"), 0, m * n + 1, m))


@cache
def _exact_context() -> decimal.Context:
    """Built once and shared; no caller sets it or reads its flags: the largest precision and
    exponent libmpdec allows, every rounding trapped, so a result that does not fit raises.
    ``decimal`` is imported here, when the first walk starts, so importing this module loads none."""
    import decimal

    signals = [decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation]
    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=signals)


def decimal_table(upto: int, seq: str = "B") -> Iterator[str]:
    """B or C at indices 0..upto as decimal strings, each made when asked for.

    In libmpdec's radix 10**19 a step and its string are linear in the digits,
    where int's str is quadratic.  Each step is one ``fma`` of
    :func:`_exact_context`, never of the caller's decimal context."""
    _check_table(upto, seq)
    context = _exact_context()
    x0, x1 = _SEEDS[seq]
    prev, cur = map(context.create_decimal, (6 * x0 - x1, x0))  # x(-1), x(0)
    yield context.to_sci_string(cur)
    for _ in range(upto):
        prev, cur = cur, context.fma(cur, 6, prev.copy_negate())
        yield context.to_sci_string(cur)
