"""Exact integer arithmetic: the one integer check, exact division, text and powering.

:func:`_pair_product` is the one product in Z[sqrt 2] and :func:`_alpha_power`
the powers of ALPHA = 3 + 2*sqrt(2); ``QuadElem``, the field Q(sqrt 2), lives
in :mod:`balsum.field`.  Rationals are :class:`fractions.Fraction`, which
keeps them canonical (denominator positive, fully reduced); ``fractions`` is
imported only inside the three functions that make one, so ``sum`` and ``gen``
never load it.

Every number the library writes or reads as text passes :func:`_text` or
:func:`_rational`, in ints cut into pieces that no int/str digit limit refuses.
"""

from __future__ import annotations

import operator
import re
from typing import TYPE_CHECKING, Callable, TypeVar

if TYPE_CHECKING:
    from fractions import Fraction

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
        from fractions import Fraction

        raise InexactResultError(f"{what} is not an integer: {_text(Fraction(num, den))}")
    return quotient


# The least int/str digit limit the interpreter allows, so str and int take such a piece under any.
_PIECE = 640
_PIECE_POWER = 10**_PIECE


def _split(digits: int) -> tuple[int, int]:
    """(s, 10**s) for the largest s = 640 * 2**k below ``digits``, or s = 640; by squaring."""
    split, power = _PIECE, _PIECE_POWER
    while 2 * split < digits:
        split, power = 2 * split, power * power
    return split, power


def _digits(n: int) -> str:
    """What ``str`` writes of an int n >= 0, at any number of digits: from
    10**640 on, n is split by ``divmod`` at a power 10**(640 * 2**k) below it,
    and the low half is zero-padded to 640 * 2**k digits."""
    if n < _PIECE_POWER:
        return str(n)
    # 0.3 < log10(2), so the power is below n and the high half is not 0.
    split, power = _split(n.bit_length() * 3 // 10)
    high, low = divmod(n, power)
    return _digits(high) + _digits(low).zfill(split)


def _text(value: int | Fraction) -> str:
    """What ``str`` writes of an int or Fraction, at any number of digits;
    the one writer of the library's numbers."""
    num, den = value.as_integer_ratio()
    text = "-" * (num < 0) + _digits(abs(num))
    return text if den == 1 else f"{text}/{_digits(den)}"


def _repr(value: object) -> str:
    """What ``repr`` writes of an int, a Fraction or a tuple of them, at any
    number of digits; any other value as ``repr`` writes it."""
    if type(value) is int:
        return _text(value)
    from fractions import Fraction

    if type(value) is Fraction:
        return f"Fraction({_text(value.numerator)}, {_text(value.denominator)})"
    if type(value) is tuple:
        return f"({', '.join(map(_repr, value))}{',' * (len(value) == 1)})"
    return repr(value)


def _record_repr(record: tuple) -> str:
    """The ``repr`` of a named tuple, each field written by :func:`_repr`."""
    fields = ", ".join(f"{name}={_repr(value)}" for name, value in zip(record._fields, record))
    return f"{type(record).__name__}({fields})"


def _from_digits(digits: str) -> int:
    """The int a string of ASCII digits spells, at any length: at most 640 digits
    by ``int``, and more as two halves split 640 * 2**k digits from the right."""
    if len(digits) <= _PIECE:
        return int(digits)
    split, power = _split(len(digits))
    return _from_digits(digits[:-split]) * power + _from_digits(digits[-split:])


# The spellings _text writes; every other one is left to Fraction.
_WRITTEN = re.compile(r"(-?)([0-9]+)(?:/([0-9]+))?")


def _rational(text: str | int) -> Fraction:
    """The rational a string spells, as ``Fraction(text)`` reads it, or an int;
    any other value (a float, a bool, None) raises ValueError.  The one reader
    of the library's numbers: it reads what :func:`_text` writes at any size."""
    from fractions import Fraction

    if type(text) not in (str, int):
        raise ValueError(f"a number must be a string or an integer, got {text!r}")
    match = _WRITTEN.fullmatch(text) if type(text) is str else None
    if match is None:
        return Fraction(text)
    sign, num, den = match.groups("1")
    value = _from_digits(num)
    return Fraction(-value if sign else value, _from_digits(den))


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


def __getattr__(name: str) -> object:
    """``QuadElem`` from :mod:`balsum.field` on first access (PEP 562), the alias perfbench's
    tracer reads; it ends when the tracer reads ``field.QuadElem`` (ROADMAP direction 4)."""
    if name == "QuadElem":
        from .field import QuadElem

        return QuadElem
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
