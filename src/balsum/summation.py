"""Closed forms for partial sums of powers of equally spaced balancing numbers.

The backbone is the generating function of the subsequence B(k*m):

    sum_k B(k*m) z**k  =  B(m)*z / (1 - 2*C(m)*z + z**2)

whose partial sums telescope.  :func:`_summed`, the one derivation, sums a
linear form F into the :class:`ClosedSumExpr` of sum_{0<=k<=n} F(k*m): of
B(x)**l in :func:`power_sum_formula` (evaluated by :func:`power_sum`), of
B(x + r) in :func:`shifted_closed_sum` and :func:`closed_sum`, which evaluate it.

:class:`ClosedSumExpr` shares the exact evaluator, integrality check and text
renderer of :class:`~balsum.linearize.LinearForm`; it adds the coefficient of
(n+1) and keeps its own JSON schema.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import NamedTuple

from .arith import _check_at_least, _rational, _record_repr, _text
from .linearize import BTerm, LinearForm, TermKey, _AffineForm, _merge, linearize
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


def closed_sum(m: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m) in closed form: :func:`shifted_closed_sum` at r = 0."""
    return shifted_closed_sum(m, 0, n)


def shifted_closed_sum(m: int, r: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m + r): :func:`_summed` of the one-term form B(x + r)
    at n, pinned to direct summation over an (m, r, n) grid in the tests."""
    _check_at_least("m", m, 1)
    _check_at_least("r", r, 0)
    term = LinearForm(1, Fraction(0), _merge(LinearForm, [((1, r), Fraction(1))]))
    return _summed(m, term).value_at(n)


def brute_force_power_sum(m: int, l: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m)**l by direct exponentiation, the test oracle of
    every closed form in this module: every m-th value of one walk of the
    recurrence, so it shares no code with the doubling evaluator behind them."""
    _check_at_least("m", m, 1)
    _check_at_least("l", l, 1)
    _check_at_least("n", n, 0)
    return sum(b**l for b in islice(_recurrence("B"), 0, m * n + 1, m))


def power_sum(m: int, l: int, n: int) -> int:
    """sum_{0<=k<=n} B(k*m)**l: :func:`power_sum_formula` at n, n checked before deriving it."""
    _check_at_least("index", n, 0)
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
        m, power = (_check_at_least(f"{cls.__name__} {k}", data[k], 1) for k in ("m", "power"))
        linear_coeff, constant = _rational(data["linear_coeff"]), _rational(data["constant"])
        return cls(m, power, _merge(cls, pairs), linear_coeff, constant)


def _summed(m: int, form: LinearForm) -> ClosedSumExpr:
    """The closed form of sum_{0<=k<=n} F(k*m) of a linear form F: at x = k*m,
    F's term coeff * B(stride*x + offset) is coeff * B(M*k + offset) with
    M = stride*m (below 1 raises in :func:`gf_params`), and with
    q = coeff/(gf_params(M).middle - 2) it telescopes to q*B(M*n + M + offset)
    - q*B(M*n + offset) + q*(B(offset) - B(M + offset)) + coeff*B(offset).
    F's constant becomes the coefficient of (n+1)."""
    pairs: list[tuple[TermKey, Fraction]] = []
    constant = Fraction(0)
    for coeff, stride, offset in form.bterms:
        step = stride * m
        q = coeff / (gf_params(step).middle - 2)
        b_offset = balancing(offset)
        pairs += [((step, step + offset), q), ((step, offset), -q)]
        constant += q * (b_offset - balancing(step + offset)) + coeff * b_offset
    return ClosedSumExpr(m, form.power, _merge(ClosedSumExpr, pairs), form.constant, constant)


def power_sum_formula(m: int, l: int) -> ClosedSumExpr:
    """The symbolic closed form of sum_{0<=k<=n} B(k*m)**l: :func:`_summed`
    of the linearization of B(x)**l."""
    _check_at_least("m", m, 1)
    _check_at_least("l", l, 1)
    return _summed(m, linearize(l))
