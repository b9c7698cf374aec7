"""Balancing numbers B(n) and their companions C(n), by independent routes.

B(n) satisfies B(n) = 6*B(n-1) - B(n-2) with B(0) = 0, B(1) = 1 (OEIS
A001109): 0, 1, 6, 35, 204, 1189, ...  The companion sequence C(n) obeys the
same recurrence with C(0) = 1, C(1) = 3 and equals (3*B(n) - B(n-1)) for
n >= 1; it shows up as half the middle coefficient of every equally-spaced
subsequence recurrence, and it satisfies the Pell relation
C(n)**2 - 8*B(n)**2 = 1.

The evaluator is :func:`balancing_pair`, which doubles the pair (B, C) in
O(log n) multiplications; :func:`balancing` and :func:`lucas_balancing` read
their value off it.  The O(n) recurrence builds whole tables, in ints
(:func:`sequence_table`, the table oracle) and in exact decimal for output
(:func:`decimal_table`).  The recurrence, an O(log n) 2x2 matrix power and
evaluation through powers of ALPHA = 3 + 2*sqrt(2) are implemented
independently of the doubling, so each serves as a test oracle for it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterator

from .arith import _alpha_power, _check_at_least, _exact_context, _power, as_integer

Mat2 = tuple[tuple[int, int], tuple[int, int]]

_STEP: Mat2 = ((6, -1), (1, 0))
_IDENTITY: Mat2 = ((1, 0), (0, 1))

# (x(0), x(1)) of each sequence under x(n) = 6*x(n-1) - x(n-2).
_SEEDS = {"B": (0, 1), "C": (1, 3)}


def _check_index(n: int, seq: str = "B") -> None:
    _check_at_least("index", n, 0)
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
    _check_index(n)
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


def _mat_mul(x: Mat2, y: Mat2) -> Mat2:
    return (
        (x[0][0] * y[0][0] + x[0][1] * y[1][0], x[0][0] * y[0][1] + x[0][1] * y[1][1]),
        (x[1][0] * y[0][0] + x[1][1] * y[1][0], x[1][0] * y[0][1] + x[1][1] * y[1][1]),
    )


def _mat_pow(n: int) -> Mat2:
    return _power(_STEP, n, _IDENTITY, _mat_mul)


def balancing_fast(n: int) -> int:
    """B(n) via the n-th power of the step matrix [[6, -1], [1, 0]]; O(log n);
    a test oracle for :func:`balancing_pair`, and ``balsum gen --method fast``."""
    _check_index(n)
    return _mat_pow(n)[1][0]


def lucas_balancing_fast(n: int) -> int:
    """C(n) via the same matrix power, seeded with C(1) = 3, C(0) = 1; a test
    oracle for :func:`balancing_pair`."""
    _check_index(n)
    m = _mat_pow(n)
    return 3 * m[1][0] + m[1][1]


def balancing_binet(n: int) -> int:
    """B(n) read off ALPHA**n.

    ALPHA**n = a + b*sqrt(2) with b = 2*B(n), because the conjugate power
    BETA**n contributes -b*sqrt(2) and the difference of the two powers is
    4*sqrt(2)*B(n); (a, b) is the integer pair of :func:`arith._alpha_power`.
    Test oracle for :func:`balancing_pair`; also ``balsum gen --method binet``.
    """
    _check_index(n)
    return as_integer(Fraction(_alpha_power(n)[1], 2), f"half the sqrt(2) part of ALPHA**{n}")


def lucas_balancing_binet(n: int) -> int:
    """C(n) as the rational part of ALPHA**n; a test oracle."""
    _check_index(n)
    return _alpha_power(n)[0]


def gf_coefficients(count: int) -> list[int]:
    """First ``count`` power-series coefficients of z / (1 - 6*z + z**2).

    The coefficients obey c(n) = 6*c(n-1) - c(n-2) with c(0) = 0, c(1) = 1,
    so they are read off the recurrence walk, independently of
    :func:`balancing_pair`: a test oracle for the generating function of B.
    """
    _check_at_least("count", count, 1)
    return list(islice(_recurrence("B"), count))


def sequence_table(upto: int, seq: str = "B") -> list[int]:
    """Values of B or C at indices 0..upto in one recurrence pass; the oracle
    of :func:`decimal_table`."""
    _check_index(upto, seq)
    return list(islice(_recurrence(seq), upto + 1))


def decimal_table(upto: int, seq: str = "B") -> Iterator[str]:
    """B or C at indices 0..upto as decimal strings, each made when asked for.

    In libmpdec's radix 10**19 a step and its string are linear in the digits,
    where int's str is quadratic.  Each step is one ``fma`` of
    :func:`_exact_context`, never of the caller's decimal context."""
    _check_index(upto, seq)
    context = _exact_context()
    x0, x1 = _SEEDS[seq]
    prev, cur = map(context.create_decimal, (6 * x0 - x1, x0))  # x(-1), x(0)
    yield context.to_sci_string(cur)
    for _ in range(upto):
        prev, cur = cur, context.fma(cur, 6, prev.copy_negate())
        yield context.to_sci_string(cur)
