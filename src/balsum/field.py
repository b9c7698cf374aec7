"""Q(sqrt 2): :class:`QuadElem`, an exact element kept as one integer triple, and
its constants.  No subcommand loads this module: the numeric paths and the proofs
work on integers.  ALPHA = 3 + 2*sqrt(2) and BETA = 3 - 2*sqrt(2) = 1/ALPHA."""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import TYPE_CHECKING

from .arith import _pair_product, _power, _repr, _text

if TYPE_CHECKING:
    from .linearize import RatLike


class QuadElem:
    """An exact element a + b*sqrt(2) of Q(sqrt 2).

    Stored as three integers (p, q, d) meaning (p + q*sqrt 2)/d, with d > 0
    and gcd(d, p, q) == 1, so each value has one representation and equality
    compares the triples.  An operation works on the integers and reduces
    once at the end.  Coordinates are rationals so that inverses stay inside
    the type; ``a`` and ``b`` read them as Fractions.  Values are immutable.
    Mixed arithmetic treats an int or Fraction as an element with b = 0.
    """

    __slots__ = ("_p", "_q", "_d")

    def __init__(self, a: RatLike, b: RatLike = 0) -> None:
        a, b = Fraction(a), Fraction(b)
        # The lcm of two reduced denominators shares no prime with both
        # scaled numerators, so the triple is already canonical.
        d = lcm(a.denominator, b.denominator)
        self._p = a.numerator * (d // a.denominator)
        self._q = b.numerator * (d // b.denominator)
        self._d = d

    @property
    def a(self) -> Fraction:
        """The rational part."""
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        """The coefficient of sqrt(2)."""
        return Fraction(self._q, self._d)

    def __add__(self, other: QuadElem | RatLike) -> QuadElem:
        o = _triple(other)
        if o is None:
            return NotImplemented
        p2, q2, d2 = o
        d1 = self._d
        return _reduced(self._p * d2 + p2 * d1, self._q * d2 + q2 * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: QuadElem | RatLike) -> QuadElem:
        return NotImplemented if _triple(other) is None else self + -other

    def __rsub__(self, other: QuadElem | RatLike) -> QuadElem:
        return NotImplemented if _triple(other) is None else -self + other

    def __neg__(self) -> QuadElem:
        return _reduced(-self._p, -self._q, self._d)

    def __mul__(self, other: QuadElem | RatLike) -> QuadElem:
        o = _triple(other)
        if o is None:
            return NotImplemented
        u = (self._p, self._q)
        x, y = _pair_product(u, u if other is self else o[:2])
        return _reduced(x, y, self._d * o[2])

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadElem:
        return _power(self, n, QUAD_ONE)

    def __eq__(self, other: object) -> bool:
        o = _triple(other)  # type: ignore[arg-type]
        if o is None:
            return NotImplemented
        return (self._p, self._q, self._d) == o

    def __hash__(self) -> int:
        # Equal values hash equal: a rational element hashes as its Fraction (or int).
        if self._q == 0:
            return hash(self.a)
        return hash((self._p, self._q, self._d))

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __repr__(self) -> str:
        return f"QuadElem(a={_repr(self.a)}, b={_repr(self.b)})"

    def conj(self) -> QuadElem:
        """The sqrt(2)-conjugate a - b*sqrt(2)."""
        return _reduced(self._p, -self._q, self._d)

    def inverse(self) -> QuadElem:
        """Multiplicative inverse; exists exactly when the element is nonzero.

        1 / ((p + q*sqrt 2)/d) = (p - q*sqrt 2)*d / (p**2 - 2*q**2).
        """
        p, q, d = self._p, self._q, self._d
        n = p * p - 2 * q * q
        if n == 0:
            raise ZeroDivisionError("zero element of Q(sqrt 2) has no inverse")
        if n < 0:
            p, q, n = -p, -q, -n
        return _reduced(p * d, -q * d, n)

    def __str__(self) -> str:
        if self._q == 0:
            return _text(self.a)
        sign = "-" if self._q < 0 else "+"
        return f"{_text(self.a)} {sign} {_text(abs(self.b))}*sqrt2"


def _reduced(p: int, q: int, d: int) -> QuadElem:
    """The element (p + q*sqrt 2)/d, d > 0, divided through by gcd(d, p, q): every
    :class:`QuadElem` operation builds its result here.  d goes first because math.gcd
    skips the remaining arguments once its running gcd is 1, so integral values such as
    the powers of ALPHA pay no big-integer gcd."""
    g = gcd(d, p, q)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    x = object.__new__(QuadElem)
    x._p, x._q, x._d = p, q, d
    return x


def _triple(value: QuadElem | RatLike) -> tuple[int, int, int] | None:
    """(p, q, d) of a QuadElem, int or Fraction; None for any other type."""
    if isinstance(value, QuadElem):
        return value._p, value._q, value._d
    if isinstance(value, (int, Fraction)):
        num, den = value.as_integer_ratio()
        return num, 0, den
    return None


QUAD_ZERO = QuadElem(0)
QUAD_ONE = QuadElem(1)
SQRT2 = QuadElem(0, 1)
ALPHA = QuadElem(3, 2)
BETA = QuadElem(3, -2)
# ALPHA - BETA; dividing by it turns power differences into sequence values.
FOUR_SQRT2 = QuadElem(0, 4)
