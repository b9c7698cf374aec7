"""The paper's second route: closed forms of power sums by generating functions.

The generating function of B is z / (1 - 6*z + z**2) (:func:`gf_coefficients`),
and that of the subsequence B(k*m) is

    sum_k B(k*m) z**k  =  B(m)*z / (1 - 2*C(m)*z + z**2)

(:func:`gf_params`, checked by :func:`subsequence_gf_check`), whose partial sums
telescope.  :func:`_summed`, the one derivation, sums F = linear + a combination
of B terms into the :class:`ClosedSumExpr` of sum_{0<=k<=n} F(k*m): the linear
form of B(x)**l in :func:`power_sum_formula`.  :class:`ClosedSumExpr` shares the
evaluator, integrality check and renderer of :class:`~balsum.linearize.LinearForm`.
The values of the sums come from the first route, :func:`~balsum.sequences.power_sum`,
which builds no record, so the two routes check each other.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from typing import Iterable, NamedTuple

from .arith import _check_at_least, _rational, _record_repr, _text
from .linearize import BTerm, TermKey, _AffineForm, _merge, _power_form
from .sequences import _recurrence, balancing, balancing_pair


def gf_coefficients(count: int) -> list[int]:
    """First ``count`` power-series coefficients of z / (1 - 6*z + z**2).

    The coefficients obey c(n) = 6*c(n-1) - c(n-2) with c(0) = 0, c(1) = 1,
    so they are read off the recurrence walk, independently of
    :func:`~balsum.sequences.balancing_pair`: a test oracle for the generating function of B.
    """
    _check_at_least("count", count, 1)
    return list(islice(_recurrence("B"), count))


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
    params = gf_params(m)
    _check_at_least("n_terms", n_terms, 2)
    prev2 = prev = 0
    for j, b in enumerate(islice(_recurrence("B"), 0, m * n_terms, m)):
        if b - params.middle * prev + prev2 != (params.numer if j == 1 else 0):
            return False
        prev2, prev = prev, b
    return True


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
        """What :meth:`to_json_dict` writes, by the rules of :meth:`LinearForm.from_json_dict`."""
        pairs = [((t["stride"], t["offset"]), _rational(t["coeff"])) for t in data["bterms"]]
        m, power = (_check_at_least(f"{cls.__name__} {k}", data[k], 1) for k in ("m", "power"))
        linear_coeff, constant = _rational(data["linear_coeff"]), _rational(data["constant"])
        for key, _ in pairs:
            for name, part in zip(("stride", "offset"), key):
                _check_at_least(f"{cls.__name__} term {name}", part, None)
        return cls(m, power, _closed_terms(pairs), linear_coeff, constant)


def _closed_terms(pairs: Iterable[tuple[TermKey, Fraction]]) -> tuple[BTerm, ...]:
    """The bterms of a :class:`ClosedSumExpr`, in its order."""
    return tuple((coeff, *key) for key, coeff in _merge(pairs, lambda key: (-key[0], -key[1])))


def _summed(m: int, power: int, linear: Fraction, bterms: Iterable[BTerm]) -> ClosedSumExpr:
    """The :class:`ClosedSumExpr`, labelled ``power``, of sum_{0<=k<=n} F(k*m) with
    F(x) = ``linear`` + sum of coeff * B(stride*x + offset) over ``bterms``.  With M = stride*m
    (below 1 raises in :func:`gf_params`) and q = coeff/(gf_params(M).middle - 2), a term
    telescopes to q*B(M*n + M + offset) - q*B(M*n + offset) + q*(B(offset) - B(M + offset))
    + coeff*B(offset), and ``linear`` becomes the coefficient of (n+1)."""
    pairs: list[tuple[TermKey, Fraction]] = []
    constant = Fraction(0)
    for coeff, stride, offset in bterms:
        step = stride * m
        q = coeff / (gf_params(step).middle - 2)
        b_offset = balancing(offset)
        pairs += [((step, step + offset), q), ((step, offset), -q)]
        constant += q * (b_offset - balancing(step + offset)) + coeff * b_offset
    return ClosedSumExpr(m, power, _closed_terms(pairs), linear, constant)


def power_sum_formula(m: int, l: int) -> ClosedSumExpr:
    """The symbolic closed form of sum_{0<=k<=n} B(k*m)**l: :func:`_summed`
    of the linearization of B(x)**l."""
    _check_at_least("m", m, 1)
    _check_at_least("l", l, 1)
    form = _power_form(l)
    return _summed(m, l, form.constant, form.bterms)
