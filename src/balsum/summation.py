"""Closed forms for partial sums of powers of equally spaced balancing numbers.

The backbone is the generating function of the subsequence B(k*m):

    sum_k B(k*m) z**k  =  B(m)*z / (1 - 2*C(m)*z + z**2)

whose partial sums telescope.  :func:`_shifted_sum_parts` derives the
telescoped sum of B(k*M + R) once, from :func:`gf_params`; :func:`closed_sum`
and :func:`shifted_closed_sum` evaluate it, and :func:`power_sum_formula`
applies it to every term of the linearization of B(n)**l: an exact closed
form of sum_{0<=k<=n} B(k*m)**l, which :func:`power_sum` evaluates.

:class:`ClosedSumExpr` shares the exact evaluator, integrality check and text
renderer of :class:`~balsum.linearize.LinearForm`; it adds the coefficient of
(n+1) and keeps its own JSON schema.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .arith import _check_at_least, _rational, _record_repr, _text, as_integer
from .linearize import BTerm, _AffineForm, _affine_value, _merge, linearize
from .sequences import _recurrence, balancing, balancing_pair


class GFParams(NamedTuple):
    """Numerator coefficient and denominator middle coefficient of the
    subsequence generating function B(m)*z / (1 - middle*z + z**2)."""

    numer: int
    middle: int
    m: int
    __repr__ = _record_repr


def gf_params(m: int) -> GFParams:
    """Parameters of the generating function of k -> B(k*m), m >= 1."""
    _check_at_least("m", m, 1)
    numer, half_middle = balancing_pair(m)
    return GFParams(numer, 2 * half_middle, m)


def subsequence_gf_check(m: int, n_terms: int) -> bool:
    """Check (1 - middle*z + z**2) * sum_{k<=n_terms} B(k*m) z**k == B(m)*z
    coefficient-wise up to degree n_terms - 1; the series is every m-th value
    of one recurrence walk, so it shares no code with :func:`gf_params`."""
    _check_at_least("m", m, 1)
    _check_at_least("n_terms", n_terms, 2)
    params = gf_params(m)
    prev2 = prev = 0
    for j, b in enumerate(islice(_recurrence("B"), 0, m * n_terms, m)):
        if b - params.middle * prev + prev2 != (params.numer if j == 1 else 0):
            return False
        prev2, prev = prev, b
    return True


def _shifted_sum_parts(stride: int, offset: int) -> tuple[tuple[BTerm, BTerm], Fraction]:
    """The telescoped sum_{0<=k<=n} B(k*stride + offset), symbolic in n.

    With q = 1/(gf_params(stride).middle - 2) (a stride below 1 raises there),
    returns q*B(stride*n + stride + offset) - q*B(stride*n + offset) as a pair
    of terms and the constant q*(B(offset) - B(stride + offset)) + B(offset).
    """
    q = Fraction(1, gf_params(stride).middle - 2)
    b_offset = balancing(offset)
    pair = ((q, stride, stride + offset), (-q, stride, offset))
    return pair, q * (b_offset - balancing(stride + offset)) + b_offset


def closed_sum(m: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m) in closed form: :func:`shifted_closed_sum` at r = 0."""
    return shifted_closed_sum(m, 0, n)


def shifted_closed_sum(m: int, r: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m + r), evaluated from :func:`_shifted_sum_parts`.

    The formula is pinned to the direct-summation oracle over a grid of
    (m, r, n) in the test suite.
    """
    _check_at_least("r", r, 0)
    pair, constant = _shifted_sum_parts(m, r)
    return as_integer(_affine_value(constant, 0, pair, n), f"shifted sum m={m}, r={r}, n={n}")


def brute_force_power_sum(m: int, l: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m)**l by direct exponentiation; the test oracle for
    every closed form in this module.

    It takes every m-th value of one walk of the recurrence, so it shares no
    code with the doubling evaluator behind the closed forms.
    """
    _check_at_least("m", m, 1)
    _check_at_least("l", l, 1)
    _check_at_least("n", n, 0)
    return sum(b**l for b in islice(_recurrence("B"), 0, m * n + 1, m))


def power_sum(m: int, l: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m)**l: the closed form of :func:`power_sum_formula`
    evaluated at n."""
    return power_sum_formula(m, l).value_at(n)


class _ClosedSumFields(NamedTuple):
    m: int
    power: int
    bterms: tuple[BTerm, ...]
    linear_coeff: Fraction
    constant: Fraction


class ClosedSumExpr(_AffineForm, _ClosedSumFields):
    """Symbolic closed form of sum_{0<=k<=n} B(k*m)**power.

    Evaluates as constant + linear_coeff*(n+1) + sum of
    coeff * B(stride*n + offset) over ``bterms``; the result is an exact
    integer for every n >= 0.  ``bterms`` is sorted by stride, then offset,
    descending, holds no zero coefficients, and has unique (stride, offset)
    keys, so equal sums compare equal.
    """

    __slots__ = ()
    _key_names = ("stride", "offset")
    _order = staticmethod(lambda key: (-key[0], -key[1]))
    _term = staticmethod(lambda key, coeff: (coeff, *key))

    def to_json_dict(self) -> dict:
        return {
            "m": self.m,
            "power": self.power,
            "bterms": [
                {"coeff": _text(coeff), "stride": stride, "offset": offset}
                for coeff, stride, offset in self.bterms
            ],
            "linear_coeff": _text(self.linear_coeff),
            "constant": _text(self.constant),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> ClosedSumExpr:
        pairs = [((t["stride"], t["offset"]), _rational(t["coeff"])) for t in data["bterms"]]
        linear_coeff, constant = _rational(data["linear_coeff"]), _rational(data["constant"])
        return cls(data["m"], data["power"], _merge(cls, pairs), linear_coeff, constant)


def power_sum_formula(m: int, l: int) -> ClosedSumExpr:
    """The symbolic closed form of sum_{0<=k<=n} B(k*m)**l.

    At the index k*m, each term coeff * B(stride*x + offset) of the
    linearization of B(x)**l becomes coeff * B((stride*m)*k + offset), an
    equally spaced shifted sum.  Its telescoped parts, scaled by coeff, are
    the terms of the closed form; the linearization constant becomes the
    coefficient of (n+1).
    """
    _check_at_least("m", m, 1)
    form = linearize(l)
    parts = [(coeff, *_shifted_sum_parts(stride * m, offset)) for coeff, stride, offset in form.bterms]
    pairs = [((s, o), coeff * q) for coeff, pair, _ in parts for q, s, o in pair]
    constant = sum(coeff * pair_constant for coeff, _, pair_constant in parts)
    return ClosedSumExpr(m, l, _merge(ClosedSumExpr, pairs), form.constant, constant)
