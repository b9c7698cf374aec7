"""Laurent polynomials over Q(sqrt 2) and mechanical identity verification.

Every identity this library relies on is, after the substitution
X = ALPHA**n, a polynomial identity in X with negative exponents allowed:
BETA being the inverse of ALPHA turns its powers into negative powers of X.
:func:`encode` is the one map from balancing numbers at affine indices to
such a :class:`LaurentPoly`, a finitely supported map from integer exponents
to :class:`QuadElem` coefficients, so checking an identity for all n at once
reduces to testing the encoded difference of its sides for zero.  The
verifiers encode the objects the library emits (linear forms, generating
function parameters and closed sums), not copies of their formulas.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from .arith import ALPHA, QUAD_ONE, QUAD_ZERO, QuadElem, RatLike, _check_at_least, _power, _reduced, _triple
from .linearize import LinearForm, linearize_even, linearize_odd
from .summation import ClosedSumExpr, gf_params, power_sum_formula

# 1 / (4*sqrt(2)) = sqrt(2)/8, the factor converting a power difference
# ALPHA**o * X**s - BETA**o * X**-s into the balancing number it encodes.
_INV_FOUR_SQRT2 = QuadElem(0, Fraction(1, 8))


class LaurentPoly:
    """A sparse Laurent polynomial: {exponent: coefficient}, zeros purged.

    Every exponent, a zero coefficient's too, must be an int; coefficients live
    in Q(sqrt 2), and ints and Fractions coerce.  The canonical support makes
    equality and the zero test trivial.

    A product is made in integers by Kronecker substitution (Harvey 2009,
    J. Symbolic Comput. 44).  Each operand becomes its lowest exponent and two
    dense integer lists P and Q over one common denominator, coefficient k
    sitting at X**(low + k*g), where the step g is the gcd of the exponent gaps
    of both operands.  Each list is packed into one int at a width that bounds
    every coefficient of the product, so three big-integer products,
    P*P', Q*Q' and (P+Q)*(P'+Q'), give its rational part P*P' + 2*Q*Q' and its
    sqrt 2 part; their signed digits are unpacked and each coefficient is
    reduced once.  A scalar multiplies as a constant polynomial.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: dict[int, QuadElem | RatLike] | None = None) -> None:
        cleaned: dict[int, QuadElem] = {}
        for exponent, value in (coeffs or {}).items():
            _check_at_least("exponent", exponent, None)
            coeff = value if isinstance(value, QuadElem) else QuadElem(value)
            if coeff:
                cleaned[exponent] = coeff
        self._coeffs = cleaned

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: QUAD_ONE})

    @classmethod
    def monomial(cls, exponent: int, coeff: QuadElem | RatLike = 1) -> LaurentPoly:
        return cls({exponent: coeff})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def coefficient(self, exponent: int) -> QuadElem:
        return self._coeffs.get(_check_at_least("exponent", exponent, None), QUAD_ZERO)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        merged = dict(self._coeffs)
        for exponent, coeff in other._coeffs.items():
            merged[exponent] = merged.get(exponent, QUAD_ZERO) + coeff
        return LaurentPoly(merged)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return LaurentPoly({e: -c for e, c in self._coeffs.items()})

    def __mul__(self, other: LaurentPoly | QuadElem | RatLike) -> LaurentPoly:
        if isinstance(other, (QuadElem, int, Fraction)):
            other = LaurentPoly({0: other})
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if not (self._coeffs and other._coeffs):
            return LaurentPoly()
        low1, low2 = min(self._coeffs), min(other._coeffs)
        step = gcd(*(e - low1 for e in self._coeffs), *(e - low2 for e in other._coeffs)) or 1
        p1, q1, d1, bound1 = lists = _integer_lists(self, low1, step)
        p2, q2, d2, bound2 = lists if other is self else _integer_lists(other, low2, step)
        count = len(p1) + len(p2) - 1
        # A product digit sums at most min(len) terms p1*p2 + 2*q1*q2 or
        # p1*q2 + q1*p2, each at most 2*bound1*bound2 in size; one more bit
        # holds the sign.
        size = (2 * min(len(p1), len(p2)) * bound1 * bound2).bit_length() // 8 + 1
        x1, y1 = _pack(p1, size), _pack(q1, size)
        x2, y2 = (x1, y1) if other is self else (_pack(p2, size), _pack(q2, size))
        pp, qq = x1 * x2, y1 * y2
        rational = _unpack(pp + 2 * qq, count, size)
        root2 = _unpack((x1 + y1) * (x2 + y2) - pp - qq, count, size)
        d, low = d1 * d2, low1 + low2
        return LaurentPoly(
            {low + step * k: _reduced(p, q, d) for k, (p, q) in enumerate(zip(rational, root2)) if p or q}
        )

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        return _power(self, n, LaurentPoly.one())

    def evaluate(self, x: QuadElem) -> QuadElem:
        """Exact value at X = x; x must be invertible if negative exponents
        are present."""
        inv = x.inverse() if any(e < 0 for e in self._coeffs) else None
        total = QUAD_ZERO
        for exponent, coeff in self._coeffs.items():
            power = x**exponent if exponent >= 0 else inv ** (-exponent)  # type: ignore[operator]
            total = total + coeff * power
        return total

    def __repr__(self) -> str:
        if not self._coeffs:
            return "LaurentPoly(0)"
        terms = " + ".join(f"({self._coeffs[e]})*X^{e}" for e in sorted(self._coeffs, reverse=True))
        return f"LaurentPoly({terms})"


def _integer_lists(poly: LaurentPoly, low: int, step: int) -> tuple[list[int], list[int], int, int]:
    """(P, Q, d, bound) of a nonzero polynomial whose exponents are ``low``
    plus multiples of ``step``: its coefficient at X**(low + k*step) is
    (P[k] + Q[k]*sqrt 2)/d over the one common denominator d, and every
    |P[k]| + |Q[k]| is at most ``bound``."""
    triples = {(e - low) // step: _triple(c) for e, c in poly._coeffs.items()}
    d, length = lcm(*(c_d for _, _, c_d in triples.values())), max(triples) + 1
    rational, root2 = [0] * length, [0] * length
    for k, (p, q, c_d) in triples.items():
        rational[k], root2[k] = p * (d // c_d), q * (d // c_d)
    return rational, root2, d, max(abs(p) + abs(q) for p, q in zip(rational, root2))


def _halves(count: int, size: int) -> int:
    """Half the range of each of ``count`` digits of ``size`` bytes, packed."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _pack(digits: list[int], size: int) -> int:
    """sum digits[k] * 2**(8*size*k), the Kronecker substitution of a list of
    signed digits each smaller in size than 2**(8*size - 1): shifted by half a
    digit's range, the digits are the bytes of one int."""
    half = 1 << (8 * size - 1)
    raw = b"".join((digit + half).to_bytes(size, "little") for digit in digits)
    return int.from_bytes(raw, "little") - _halves(len(digits), size)


def _unpack(value: int, count: int, size: int) -> list[int]:
    """The ``count`` signed digits that :func:`_pack` packs into ``value``."""
    half = 1 << (8 * size - 1)
    raw = (value + _halves(count, size)).to_bytes(count * size, "little")
    return [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, count * size, size)]


def encode(bterms: Iterable[tuple[RatLike, int, int]], constant: RatLike = 0) -> LaurentPoly:
    """constant + sum of coeff * B(s*n + o) as a Laurent polynomial in X = ALPHA**n,
    by B(s*n + o) = (ALPHA**o * X**s - BETA**o * X**-s) / (4*sqrt 2).

    BETA**o is the conjugate of ALPHA**o, and so is ALPHA**o of ALPHA**(-o)
    for a negative offset o.
    """
    coeffs: dict[int, QuadElem] = {0: QuadElem(constant)}
    for coeff, s, o in bterms:
        alpha_o = ALPHA**o if o >= 0 else (ALPHA**-o).conj()
        scale = _INV_FOUR_SQRT2 * coeff
        coeffs[s] = coeffs.get(s, QUAD_ZERO) + alpha_o * scale
        coeffs[-s] = coeffs.get(-s, QUAD_ZERO) - alpha_o.conj() * scale
    return LaurentPoly(coeffs)


def _proves_power(form: LinearForm, power: int) -> bool:
    """Whether ``form`` equals B(n)**power for every n."""
    return (encode(form.bterms, form.constant) - encode([(1, 1, 0)]) ** power).is_zero()


def verify_odd_power_identity(l: int) -> bool:
    """Check the form :func:`linearize_odd` emits against the encoding of
    B(n)**(2l+1): one polynomial identity proves it for every n at once.  A
    negative l raises ValueError."""
    return _proves_power(linearize_odd(l), 2 * l + 1)


def verify_even_power_identity(l: int) -> bool:
    """Check the form :func:`linearize_even` emits for B(n)**(2l), as for odd
    powers; its constant sits at X**0.  An l below 1 raises ValueError."""
    return _proves_power(linearize_even(l), 2 * l)


def verify_subsequence_recurrence(m: int) -> bool:
    """Check B(k*m) = middle*B((k-1)*m) - B((k-2)*m) for all k, with the
    middle coefficient that :func:`gf_params` emits, encoded in X = ALPHA**k.

    The m = 1 instance is the defining recurrence itself and is excluded.
    """
    _check_at_least("m", m, 2)
    middle = gf_params(m).middle
    return encode([(1, m, 0), (-middle, m, -m), (1, m, -2 * m)]).is_zero()


def _proves_sum(expr: ClosedSumExpr, summand: LaurentPoly) -> bool:
    """Whether the record ``expr`` is S(n) = sum_{0<=k<=n} F(k) for every n,
    ``summand`` being F(k) in X = ALPHA**k.  S(n) - S(n-1) = F(n) is one
    identity, with each term B(s*n + o) of S(n-1) at offset o - s and its linear
    part one coefficient lower; S(0) = F(0) is read at X = 1, that is n = 0,
    where a polynomial's value is the sum of its coefficients."""
    terms = encode(expr.bterms)
    minus_previous = encode([(-coeff, s, o - s) for coeff, s, o in expr.bterms], expr.linear_coeff)
    first = sum(terms._coeffs.values(), QuadElem(expr.linear_coeff + expr.constant))
    return first == sum(summand._coeffs.values(), QUAD_ZERO) and (terms + minus_previous - summand).is_zero()


def verify_power_sum_formula(m: int, l: int) -> bool:
    """Check the closed form :func:`power_sum_formula` emits for
    S(n) = sum_{0<=k<=n} B(k*m)**l, by :func:`_proves_sum` against the
    encoding of B(m*k)**l; an m or l below 1 raises ValueError."""
    return _proves_sum(power_sum_formula(m, l), encode([(1, m, 0)]) ** l)
