"""Rewrite a power B(n)**l as a rational combination of balancing numbers.

Odd powers B(n)**(2l+1) expand into terms B((2(l-s)+1)*n) with binomial
coefficients over 2**(5l).  Even powers B(n)**(2l) additionally need terms at
the shifted argument n+1 and a constant, so the combination is kept as a map
from a key (multiplier j, shift s in {0, 1}) to the coefficient of
B(j*(n+s)), plus a standalone constant.  Every form built here evaluates to
an exact integer, namely the power it represents, at every n >= 0.

A linear form and a closed sum of :mod:`balsum.summation` are the same kind
of expression, constant + linear*(n+1) + sum of coeff * B(stride*n + offset),
and share one core, :class:`_AffineForm`: one evaluator, one integrality
check, one text renderer.  Only the label of a term differs: a closed sum
writes B(2n+2), a linear form writes its shifted term as B(2(n+1)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from typing import Callable, Iterable

from .arith import RatLike, as_integer
from .sequences import balancing, balancing_pair

# (index multiplier j, index shift s): the term's argument is j*(n+s).
TermKey = tuple[int, int]
# (coeff, stride, offset): the term coeff * B(stride*n + offset).
BTerm = tuple[Fraction, int, int]


def _affine_value(constant: Fraction, linear: RatLike, bterms: Iterable[BTerm], n: int) -> Fraction:
    """constant + linear*(n+1) + sum of coeff * B(stride*n + offset), exactly;
    the one evaluator of linear forms and closed sums.

    Each stride costs one :func:`balancing_pair` at the large index
    y = stride*n; each term then follows from the small pair at its offset o
    by the addition formula B(y + o) = B(y)*C(o) + C(y)*B(o).  The terms are
    summed as one integer numerator over a common denominator, so the large
    values meet a single gcd, in the final Fraction.
    """
    if n < 0:
        raise ValueError(f"index must be non-negative, got {n}")
    start = constant + linear * (n + 1)
    num, den = start.numerator, start.denominator
    at_stride: dict[int, tuple[int, int]] = {}
    for coeff, stride, offset in bterms:
        if stride not in at_stride:
            at_stride[stride] = balancing_pair(stride * n)
        b_y, c_y = at_stride[stride]
        b_o, c_o = balancing_pair(offset)
        c_num, c_den = coeff.numerator, coeff.denominator
        if den % c_den:
            scale = c_den // gcd(den, c_den)
            num, den = num * scale, den * scale
        num += c_num * (den // c_den) * (b_y * c_o + c_y * b_o)
    return Fraction(num, den)


class _AffineForm:
    """The shared core of :class:`LinearForm` and
    :class:`~balsum.summation.ClosedSumExpr`: constant + linear_coeff*(n+1) +
    sum of coeff * B(stride*n + offset) over ``bterms``, evaluated by
    :func:`_affine_value` and rendered as text."""

    power: int
    constant: Fraction
    linear_coeff: RatLike
    bterms: tuple[BTerm, ...]

    def exact_value_at(self, n: int) -> Fraction:
        """Evaluate at n without the integrality check."""
        return _affine_value(self.constant, self.linear_coeff, self.bterms, n)

    def value_at(self, n: int) -> int:
        """Evaluate at n; the result must be an integer."""
        what = f"{type(self).__name__} for power {self.power} at n={n}"
        return as_integer(self.exact_value_at(n), what)

    @staticmethod
    def _label(stride: int, offset: int) -> str:
        """B(jn+o), B(jn) at offset 0, and n alone at stride 1."""
        head = "n" if stride == 1 else f"{stride}n"
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
                text = str(mag)
            elif mag == 1:
                text = body
            else:
                text = f"({mag})*{body}"
            if i == 0:
                out.append(f"-{text}" if coeff < 0 else text)
            else:
                out.append(f"- {text}" if coeff < 0 else f"+ {text}")
        return " ".join(out)


@dataclass(frozen=True)
class LinearForm(_AffineForm):
    """constant + sum of coeff * B(j*(n+s)), representing B(n)**power.

    ``terms`` is sorted by multiplier descending, shift ascending, holds no
    zero coefficients, and has unique keys, so equal forms compare equal.
    """

    power: int
    constant: Fraction
    terms: tuple[tuple[TermKey, Fraction], ...]

    linear_coeff = 0

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
            "constant": str(self.constant),
            "terms": [
                {"multiplier": mult, "shift": shift, "coeff": str(coeff)}
                for (mult, shift), coeff in self.terms
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> LinearForm:
        pairs = [((t["multiplier"], t["shift"]), Fraction(t["coeff"])) for t in data["terms"]]
        return _build_form(data["power"], Fraction(data["constant"]), pairs)


def _merge(
    pairs: Iterable[tuple[TermKey, Fraction]], order: Callable[[TermKey], tuple[int, int]]
) -> list[tuple[TermKey, Fraction]]:
    """Sum the coefficients of equal keys, drop zero sums, and sort by ``order``."""
    merged: dict[TermKey, Fraction] = {}
    for key, coeff in pairs:
        merged[key] = merged.get(key, Fraction(0)) + coeff
    return sorted(((k, c) for k, c in merged.items() if c != 0), key=lambda kv: order(kv[0]))


def _build_form(power: int, constant: Fraction, pairs: Iterable[tuple[TermKey, Fraction]]) -> LinearForm:
    return LinearForm(power, constant, tuple(_merge(pairs, lambda key: (-key[0], key[1]))))


def linearize_odd(l: int) -> LinearForm:
    """The form for B(n)**(2l+1).

    Terms are B((2(l-s)+1)*n) with coefficient (-1)**s * C(2l+1, s) / 2**(5l)
    for 0 <= s <= l; there is no shifted term and no constant.
    """
    if l < 0:
        raise ValueError(f"l must be non-negative, got {l}")
    denom = 2 ** (5 * l)
    pairs = [
        ((2 * (l - s) + 1, 0), Fraction((-1) ** s * comb(2 * l + 1, s), denom))
        for s in range(l + 1)
    ]
    return _build_form(2 * l + 1, Fraction(0), pairs)


def linearize_even(l: int) -> LinearForm:
    """The form for B(n)**(2l), l >= 1.

    For each 0 <= s < l, writing j = 2(l-s), the keys (j, 0) and (j, 1) both
    receive 2*(-1)**s * C(2l, s) / (2**(5l) * B(j)), and (j, 0) additionally
    receives -(-1)**s * C(2l, s) * B(j) / (2**(5l) * B(l-s)**2).  The constant
    is (-1)**l * C(2l, l) / 2**(5l); the 2**(5l) denominator on the constant
    is required for the form to reproduce B(n)**(2l) (checked against the
    brute-force oracle in the test suite).
    """
    if l < 1:
        raise ValueError(f"l must be positive, got {l}")
    denom = 2 ** (5 * l)
    pairs: list[tuple[TermKey, Fraction]] = []
    for s in range(l):
        j = 2 * (l - s)
        sign = (-1) ** s
        binom = comb(2 * l, s)
        both = Fraction(2 * sign * binom, denom * balancing(j))
        pairs.append(((j, 0), both))
        pairs.append(((j, 1), both))
        pairs.append(((j, 0), Fraction(-sign * binom * balancing(j), denom * balancing(l - s) ** 2)))
    constant = Fraction((-1) ** l * comb(2 * l, l), denom)
    return _build_form(2 * l, constant, pairs)


def linearize(power: int) -> LinearForm:
    """The form for B(n)**power, power >= 1, dispatching on parity."""
    if power < 1:
        raise ValueError(f"power must be positive, got {power}")
    if power % 2:
        return linearize_odd((power - 1) // 2)
    return linearize_even(power // 2)
