"""Exact scalar arithmetic: integers, rationals, and the field Q(sqrt 2).

Arbitrary-precision integers and canonical rationals come straight from the
standard library: ``int`` and :class:`fractions.Fraction`.  Fraction already
keeps the denominator positive and the fraction fully reduced, which is what
the rest of the library relies on for value equality and serialization.

What this module adds is :class:`QuadElem`, an exact element a + b*sqrt(2)
with rational coordinates.  The constants ALPHA = 3 + 2*sqrt(2) and
BETA = 3 - 2*sqrt(2) are the two roots of x**2 - 6*x + 1; their powers drive
every closed form in this package, and ALPHA*BETA = 1 makes negative powers
of one expressible through the other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

Rational = Fraction

RatLike = int | Fraction


class InexactResultError(ArithmeticError):
    """An exact formula produced a non-integer where an integer is guaranteed.

    This never signals bad user input; it means one of the library's closed
    forms is internally inconsistent, so it is raised as a hard error.
    """


def rat_add(x: RatLike, y: RatLike) -> Fraction:
    """Exact rational sum in canonical reduced form."""
    return Fraction(x) + Fraction(y)


def rat_mul(x: RatLike, y: RatLike) -> Fraction:
    """Exact rational product in canonical reduced form."""
    return Fraction(x) * Fraction(y)


def rat_div(x: RatLike, y: RatLike) -> Fraction:
    """Exact rational quotient; raises ZeroDivisionError when y == 0."""
    return Fraction(x) / Fraction(y)


def rat_to_str(q: RatLike) -> str:
    """Render as "num/den", omitting the denominator when it is 1."""
    return str(Fraction(q))


def rat_from_str(s: str) -> Fraction:
    return Fraction(s)


def as_integer(value: Fraction | int, what: str = "result") -> int:
    """Strip a denominator that must be 1; hard error otherwise."""
    q = Fraction(value)
    if q.denominator != 1:
        raise InexactResultError(f"{what} is not an integer: {q}")
    return q.numerator


@dataclass(frozen=True)
class QuadElem:
    """An exact element a + b*sqrt(2) of Q(sqrt 2).

    Coordinates are rationals so that division (by 4*sqrt(2), by powers of
    two, ...) stays inside the type.  Values are immutable; all operators
    return new instances.  Mixed arithmetic with int and Fraction works and
    treats them as elements with b = 0.
    """

    a: Fraction
    b: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @staticmethod
    def _coerce(value: QuadElem | RatLike) -> QuadElem | None:
        if isinstance(value, QuadElem):
            return value
        if isinstance(value, (int, Fraction)):
            return QuadElem(value)
        return None

    def __add__(self, other: QuadElem | RatLike) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other: QuadElem | RatLike) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a - o.a, self.b - o.b)

    def __rsub__(self, other: QuadElem | RatLike) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> QuadElem:
        return QuadElem(-self.a, -self.b)

    def __mul__(self, other: QuadElem | RatLike) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return QuadElem(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> QuadElem:
        if n < 0:
            raise ValueError("exponent must be non-negative")
        result = QUAD_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __truediv__(self, other: QuadElem | RatLike) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other: QuadElem | RatLike) -> QuadElem:
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __eq__(self, other: object) -> bool:
        o = self._coerce(other)  # type: ignore[arg-type]
        if o is None:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def conj(self) -> QuadElem:
        """The sqrt(2)-conjugate a - b*sqrt(2)."""
        return QuadElem(self.a, -self.b)

    def norm(self) -> Fraction:
        """a**2 - 2*b**2, the product with the conjugate."""
        return self.a * self.a - 2 * self.b * self.b

    def inverse(self) -> QuadElem:
        """Multiplicative inverse; exists exactly when the element is nonzero."""
        n = self.norm()
        if n == 0:
            raise ZeroDivisionError("zero element of Q(sqrt 2) has no inverse")
        return QuadElem(self.a / n, -self.b / n)

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "-" if self.b < 0 else "+"
        return f"{self.a} {sign} {abs(self.b)}*sqrt2"

    def to_json_dict(self) -> dict[str, str]:
        return {"a": rat_to_str(self.a), "b": rat_to_str(self.b)}

    @classmethod
    def from_json_dict(cls, data: dict[str, str]) -> QuadElem:
        return cls(Fraction(data["a"]), Fraction(data["b"]))


QUAD_ZERO = QuadElem(0)
QUAD_ONE = QuadElem(1)
SQRT2 = QuadElem(0, 1)
ALPHA = QuadElem(3, 2)
BETA = QuadElem(3, -2)
# ALPHA - BETA; dividing by it turns power differences into sequence values.
FOUR_SQRT2 = QuadElem(0, 4)
