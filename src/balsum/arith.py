"""Exact scalar arithmetic: integers, rationals, and the field Q(sqrt 2).

Arbitrary-precision integers and canonical rationals come straight from the
standard library: ``int`` and :class:`fractions.Fraction`.  Fraction already
keeps the denominator positive and the fraction fully reduced, which is what
the rest of the library relies on for value equality and serialization.

What this module adds is :class:`QuadElem`, an exact element a + b*sqrt(2)
with rational coordinates.  It keeps them as one integer triple (p, q, d)
meaning (p + q*sqrt 2)/d, with d > 0 and gcd(d, p, q) == 1: a product costs
one :func:`_pair_product` and one gcd, and an integral value (d == 1) no
big-integer gcd at all, where a pair of Fractions would reduce every
intermediate.  The constants
ALPHA = 3 + 2*sqrt(2) and BETA = 3 - 2*sqrt(2) are the two roots of
x**2 - 6*x + 1; their powers drive every closed form in this package, and
ALPHA*BETA = 1 makes negative powers of one expressible through the other.

Every number the library writes or reads as text passes :func:`_text` or
:func:`_rational`; both convert in exact ``decimal``, which never reads the
interpreter's int/str digit limit.
"""

from __future__ import annotations

import decimal
import operator
import re
from fractions import Fraction
from functools import cache
from math import gcd, lcm
from typing import Callable, TypeVar

RatLike = int | Fraction
_T = TypeVar("_T")


class InexactResultError(ArithmeticError):
    """An exact formula produced a non-integer where an integer is guaranteed.

    This never signals bad user input; it means one of the library's closed
    forms is internally inconsistent, so it is raised as a hard error.
    """


def _check_at_least(name: str, value: object, low: int | None) -> int:
    """``value`` if its type is exactly int (a bool is not) and, unless ``low``
    is None, value >= low; otherwise ValueError, ``<name> must be an integer, got
    <repr>`` or ``<name> must be non-negative|positive|at least <low>, got <value>``.
    The one check of every integer the library reads: arguments, indices and record fields."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {_repr(value)}")
    if low is not None and value < low:
        bound = {0: "non-negative", 1: "positive"}.get(low, f"at least {low}")
        raise ValueError(f"{name} must be {bound}, got {_text(value)}")
    return value


def _exact(num: int, den: int, what: str) -> int:
    """num / den, which must be an integer; InexactResultError naming ``what`` otherwise."""
    quotient, remainder = divmod(num, den)
    if remainder:
        raise InexactResultError(f"{what} is not an integer: {_text(Fraction(num, den))}")
    return quotient


@cache
def _exact_context() -> decimal.Context:
    """Built once and shared; no caller sets it or reads its flags: the largest precision and
    exponent libmpdec allows, every rounding trapped, so a result that does not fit raises."""
    signals = [decimal.Inexact, decimal.Rounded, decimal.Overflow, decimal.InvalidOperation]
    return decimal.Context(prec=decimal.MAX_PREC, Emax=decimal.MAX_EMAX, traps=signals)


def _text(value: RatLike) -> str:
    """What ``str`` writes of an int or Fraction, at any number of digits;
    the one writer of the library's numbers."""
    context = _exact_context()
    num, den = (context.to_sci_string(context.create_decimal(k)) for k in value.as_integer_ratio())
    return num if den == "1" else f"{num}/{den}"


def _repr(value: object) -> str:
    """What ``repr`` writes of an int, a Fraction or a tuple of them, at any
    number of digits; any other value as ``repr`` writes it."""
    if type(value) is int:
        return _text(value)
    if type(value) is Fraction:
        return f"Fraction({_text(value.numerator)}, {_text(value.denominator)})"
    if type(value) is tuple:
        return f"({', '.join(map(_repr, value))}{',' * (len(value) == 1)})"
    return repr(value)


def _record_repr(record: tuple) -> str:
    """The ``repr`` of a named tuple, each field written by :func:`_repr`."""
    fields = ", ".join(f"{name}={_repr(value)}" for name, value in zip(record._fields, record))
    return f"{type(record).__name__}({fields})"


# The spellings _text writes; every other one is left to Fraction.
_WRITTEN = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")


def _rational(text: str | int) -> Fraction:
    """The rational a string spells, as ``Fraction(text)`` reads it, or an int;
    any other value (a float, a bool, None) raises ValueError.  The one reader
    of the library's numbers: it reads what :func:`_text` writes at any size."""
    if type(text) not in (str, int):
        raise ValueError(f"a number must be a string or an integer, got {text!r}")
    match = _WRITTEN.fullmatch(text) if type(text) is str else None
    if match is None:
        return Fraction(text)
    context = _exact_context()
    num, den = (int(context.create_decimal(digits)) for digits in match.groups("1"))
    return Fraction(num, den)


class QuadElem:
    """An exact element a + b*sqrt(2) of Q(sqrt 2).

    Stored as three integers (p, q, d) meaning (p + q*sqrt 2)/d, with d > 0
    and gcd(d, p, q) == 1, so each value has one representation and equality
    compares the triples.  An operation works on the integers and reduces
    once at the end.  Coordinates are rationals so that inverses (of
    4*sqrt(2), of powers of two, ...) stay inside the type; ``a`` and ``b``
    read them as Fractions.  Values are immutable; all operators return new
    instances.  Mixed arithmetic with int and Fraction works and treats them
    as elements with b = 0.
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
        if _triple(other) is None:
            return NotImplemented
        return self + -other

    def __rsub__(self, other: QuadElem | RatLike) -> QuadElem:
        if _triple(other) is None:
            return NotImplemented
        return -self + other

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
        # Equal values hash equal: a rational element hashes as its Fraction,
        # and so as an int when it is one.
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


def _power(base: _T, n: int, one: _T, mul: Callable[[_T, _T], _T] = operator.mul) -> _T:
    """base**n by the left-to-right binary method (Knuth, TAOCP vol. 2,
    §4.6.3), every product through ``mul``: from ``base``, each later bit of n
    squares the result, as ``mul(result, result)``, and a set bit then
    multiplies it by the original ``base``, so n takes n.bit_length() - 1
    squarings and one product by ``base`` per set bit after the first.  The
    one exponentiation loop of QuadElem, LaurentPoly, :func:`_alpha_power` and
    the matrix oracle of :mod:`balsum.sequences`; n = 0 gives ``one``.  A
    negative or non-int n raises ValueError."""
    _check_at_least("exponent", n, 0)
    if n == 0:
        return one
    result = base
    for bit in bin(n)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, base)
    return result


def _pair_product(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """(x1 + y1*sqrt 2)*(x2 + y2*sqrt 2) as an integer pair: the one product in Z[sqrt 2],
    of QuadElem numerators, ALPHA powers and packed Laurent polynomials.  A square
    (``u is v``) takes x*x, y*y and x*y; any other pair x1*x2, y1*y2 and (x1 + y1)*(x2 + y2)."""
    (x1, y1), (x2, y2) = u, v
    if u is v:
        return x1 * x1 + 2 * y1 * y1, 2 * x1 * y1
    xx, yy = x1 * x2, y1 * y2
    return xx + 2 * yy, (x1 + y1) * (x2 + y2) - xx - yy


def _alpha_power(o: int) -> tuple[int, int]:
    """(x, y) with ALPHA**o = x + y*sqrt 2 at any integer o, by
    :func:`_pair_product` through :func:`_power`; ALPHA**-o is the conjugate
    of ALPHA**o, since ALPHA*BETA = 1."""
    x, y = _power((3, 2), abs(o), (1, 0), _pair_product)
    return (x, y) if o >= 0 else (x, -y)


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
    if isinstance(value, int):
        return value, 0, 1
    if isinstance(value, Fraction):
        return value.numerator, 0, value.denominator
    return None


QUAD_ZERO = QuadElem(0)
QUAD_ONE = QuadElem(1)
SQRT2 = QuadElem(0, 1)
ALPHA = QuadElem(3, 2)
BETA = QuadElem(3, -2)
# ALPHA - BETA; dividing by it turns power differences into sequence values.
FOUR_SQRT2 = QuadElem(0, 4)
