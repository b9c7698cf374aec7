"""Rewrite a power B(n)**l as a rational combination of balancing numbers.

:func:`_power_form`, the one derivation, reads every form off the Binet
expansion of B(n)**l.  A form maps a key (multiplier j, shift s in {0, 1}) to
the coefficient of B(j*(n+s)) and adds a constant; at every n >= 0 it
evaluates to the exact integer B(n)**l.

A linear form and a closed sum of :mod:`balsum.summation` are the same kind
of expression, constant + linear*(n+1) + sum of coeff * B(stride*n + offset),
and share one core, :class:`_AffineForm`: one evaluator, one integrality
check, one text renderer.  Only the label of a term differs: a closed sum
writes B(2n+2), a linear form writes its shifted term as B(2(n+1)).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, lcm
from typing import Callable, Iterable, NamedTuple, Sequence

from .arith import RatLike, _check_at_least, _exact, _rational, _record_repr, _text
from .sequences import balancing_pair

# (index multiplier j, index shift s): the term's argument is j*(n+s).
TermKey = tuple[int, int]
# (coeff, stride, offset): the term coeff * B(stride*n + offset).
BTerm = tuple[Fraction, int, int]


def _signed_pair(k: int) -> tuple[int, int]:
    """(B(k), C(k)) at any integer k, by B(-k) = -B(k) and C(-k) = C(k)."""
    b, c = balancing_pair(abs(k))
    return (-b if k < 0 else b), c


def _affine_value(constant: Fraction, linear: RatLike, bterms: Sequence[BTerm], n: int) -> Fraction:
    """constant + linear*(n+1) + sum of coeff * B(stride*n + offset), exactly;
    the one evaluator of linear forms and closed sums.

    By B(y + o) = C(o)*B(y) + B(o)*C(y), the terms of one stride fold into
    P*B(y) + Q*C(y) at y = stride*n, P and Q integers over one common
    denominator: one :func:`balancing_pair` at a large index and two big
    products per stride.  Strides and offsets may be negative; n may not.
    """
    _check_at_least("index", n, 0)
    start = constant + linear * (n + 1)
    den = lcm(start.denominator, *(coeff.denominator for coeff, _, _ in bterms))
    folded: dict[int, tuple[int, int]] = {}
    for coeff, stride, offset in bterms:
        b_o, c_o = _signed_pair(offset)
        scaled = coeff.numerator * (den // coeff.denominator)
        p, q = folded.get(stride, (0, 0))
        folded[stride] = (p + scaled * c_o, q + scaled * b_o)
    num = start.numerator * (den // start.denominator)
    for stride, (p, q) in folded.items():
        b_y, c_y = _signed_pair(stride * n)
        num += p * b_y + q * c_y
    return Fraction(num, den)


class _AffineForm:
    """The shared core of :class:`LinearForm` and
    :class:`~balsum.summation.ClosedSumExpr`: constant + linear_coeff*(n+1) +
    sum of coeff * B(stride*n + offset) over ``bterms``, evaluated by
    :func:`_affine_value` and rendered as text.  Each form mixes it into a
    named tuple of its own fields, so a form unpacks, indexes and compares
    equal to a plain tuple of them; records of two types never compare equal."""

    __slots__ = ()
    power: int
    constant: Fraction
    linear_coeff: RatLike
    bterms: tuple[BTerm, ...]
    __repr__ = _record_repr
    # Set by each form for :func:`_merge`: the names of a key's two parts, the
    # order of the keys, and the term made of a key and its coefficient.
    _key_names: tuple[str, str]
    _order: Callable[[TermKey], tuple[int, int]]
    _term: Callable[[TermKey, Fraction], tuple]

    def exact_value_at(self, n: int) -> Fraction:
        """Evaluate at n without the integrality check."""
        return _affine_value(self.constant, self.linear_coeff, self.bterms, n)

    def value_at(self, n: int) -> int:
        """Evaluate at n; the result must be an integer."""
        what = f"{type(self).__name__} for power {self.power} at n={n}"
        return _exact(*self.exact_value_at(n).as_integer_ratio(), what)

    @staticmethod
    def _label(stride: int, offset: int) -> str:
        """B(jn+o), B(jn) at offset 0, and n alone at stride 1 (-n at -1)."""
        head = {1: "n", -1: "-n"}.get(stride, f"{stride}n")
        return f"B({head})" if offset == 0 else f"B({head}{offset:+d})"

    def render(self) -> str:
        """'a*x + b*y - c': B terms, then (n+1), then the constant; zero
        parts are left out and unit coefficients drop the numeric factor."""
        pieces: list[tuple[Fraction, str | None]] = [
            (coeff, self._label(stride, offset)) for coeff, stride, offset in self.bterms
        ]
        if self.linear_coeff:
            pieces.append((self.linear_coeff, "(n+1)"))
        if self.constant:
            pieces.append((self.constant, None))
        if not pieces:
            return "0"
        out = []
        for i, (coeff, body) in enumerate(pieces):
            mag = abs(coeff)
            if body is None:
                text = _text(mag)
            elif mag == 1:
                text = body
            else:
                text = f"({_text(mag)})*{body}"
            if i == 0:
                out.append(f"-{text}" if coeff < 0 else text)
            else:
                out.append(f"- {text}" if coeff < 0 else f"+ {text}")
        return " ".join(out)


class _LinearFormFields(NamedTuple):
    power: int
    constant: Fraction
    terms: tuple[tuple[TermKey, Fraction], ...]


class LinearForm(_AffineForm, _LinearFormFields):
    """constant + sum of coeff * B(j*(n+s)), representing B(n)**power.

    ``terms`` is sorted by multiplier descending, shift ascending, holds no
    zero coefficients, and has unique keys, so equal forms compare equal.
    """

    __slots__ = ()
    linear_coeff = 0
    _key_names = ("multiplier", "shift")
    _order = staticmethod(lambda key: (-key[0], key[1]))
    _term = staticmethod(lambda key, coeff: (key, coeff))

    @property
    def bterms(self) -> tuple[BTerm, ...]:
        """The terms as (coeff, stride, offset): B(j*(n+s)) is B(j*n + j*s)."""
        return tuple((coeff, mult, mult * shift) for (mult, shift), coeff in self.terms)

    @staticmethod
    def _label(stride: int, offset: int) -> str:
        """B(j(n+1)) for a term at shift 1 with j > 1, as the paper writes it."""
        if offset == stride > 1:
            return f"B({stride}(n+1))"
        return _AffineForm._label(stride, offset)

    def to_json_dict(self) -> dict:
        return {
            "power": self.power,
            "constant": _text(self.constant),
            "terms": [
                {"multiplier": mult, "shift": shift, "coeff": _text(coeff)}
                for (mult, shift), coeff in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> LinearForm:
        """What :meth:`to_json_dict` writes, its terms made canonical by :func:`_merge`.  A key
        or ``power`` failing :func:`arith._check_at_least` (named like ``LinearForm term shift``),
        or a number neither a string nor an int, raises ValueError; a missing field KeyError."""
        pairs = [((t["multiplier"], t["shift"]), _rational(t["coeff"])) for t in data["terms"]]
        power = _check_at_least(f"{cls.__name__} power", data["power"], 1)
        return cls(power, _rational(data["constant"]), _merge(cls, pairs))


def _merge(form: type[_AffineForm], pairs: Iterable[tuple[TermKey, Fraction]]) -> tuple[tuple, ...]:
    """The canonical terms of a ``form`` record, derived or read: keys of two
    ints (each through :func:`_check_at_least`), the coefficients of equal
    keys summed, zero sums dropped, sorted by ``form._order``."""
    merged: dict[TermKey, Fraction] = {}
    for key, coeff in pairs:
        for name, part in zip(form._key_names, key):
            _check_at_least(f"{form.__name__} term {name}", part, None)
        merged[key] = merged[key] + coeff if key in merged else coeff
    keys = sorted((key for key, coeff in merged.items() if coeff), key=form._order)
    return tuple(form._term(key, merged[key]) for key in keys)


def _power_form(power: int) -> LinearForm:
    """The form for B(n)**power, power >= 1, read off the binomial expansion
    of (X - 1/X)**power / (4*sqrt 2)**power, X = ALPHA**n: for s < power/2,
    with j = power - 2s and c = (-1)**s * C(power, s) / 2**(5*(power//2)),
    the pair X**j, X**-j gives c*B(j*n) in an odd power and c*2*C(j*n) =
    (2c/B(j))*B(j*(n+1)) - (2c*C(j)/B(j))*B(j*n) in an even one, whose middle
    term X**0 is the constant."""
    half = power // 2
    denom = 2 ** (5 * half)
    pairs: list[tuple[TermKey, Fraction]] = []
    for s in range((power + 1) // 2):
        j = power - 2 * s
        top = (-1) ** s * comb(power, s)
        if power % 2:
            pairs.append(((j, 0), Fraction(top, denom)))
        else:
            b_j, c_j = balancing_pair(j)
            pairs.append(((j, 1), Fraction(2 * top, denom * b_j)))
            pairs.append(((j, 0), Fraction(-2 * top * c_j, denom * b_j)))
    constant = Fraction(0) if power % 2 else Fraction((-1) ** half * comb(power, half), denom)
    return LinearForm(power, constant, _merge(LinearForm, pairs))


def linearize_odd(l: int) -> LinearForm:
    """The form for B(n)**(2l+1), l >= 0, from :func:`_power_form`."""
    _check_at_least("l", l, 0)
    return _power_form(2 * l + 1)


def linearize_even(l: int) -> LinearForm:
    """The form for B(n)**(2l), l >= 1, from :func:`_power_form`.  The paper
    writes the coefficient -2c*C(j)/B(j) of B(jn) as 2c/B(j) - c*B(j)/B(j/2)**2,
    the same number by 2C(j)/B(j) = B(j)/B(j/2)**2 - 2/B(j)."""
    _check_at_least("l", l, 1)
    return _power_form(2 * l)


def linearize(power: int) -> LinearForm:
    """The form for B(n)**power, power >= 1."""
    _check_at_least("power", power, 1)
    return _power_form(power)
