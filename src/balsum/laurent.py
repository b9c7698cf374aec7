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
from itertools import chain
from math import gcd, lcm
from typing import Iterable

from .arith import QUAD_ONE, QUAD_ZERO, QuadElem, RatLike, _alpha_power, _check_at_least, _pair_product
from .arith import _power, _reduced, _triple
from .linearize import LinearForm, linearize_even, linearize_odd
from .summation import ClosedSumExpr, gf_params, power_sum_formula


class LaurentPoly:
    """A Laurent polynomial in X over Q(sqrt 2), held as integers over one
    denominator: a map {exponent: (p, q)} and d > 0, its coefficient at X**e
    being (p + q*sqrt 2)/d.  In canonical form no pair is (0, 0) and d shares
    no factor with every p and q; zero is the empty map over 1.  So each
    polynomial has one form, and equality and the zero test read it.

    A dict {exponent: coefficient} builds one: every exponent, a zero
    coefficient's too, must be an int; coefficients live in Q(sqrt 2), and
    ints and Fractions coerce.  Sums and negation work on the integers.

    The map is laid out densely only inside a product or a power.  A product
    is made by Kronecker substitution (Harvey 2009, J. Symbolic Comput. 44):
    both operands are laid out on the gcd of their exponent gaps, and each of
    P and Q is packed into one int at the width :func:`_width` gives from the
    l1 norms; the packed pairs multiply in Z[sqrt 2] by
    :func:`arith._pair_product`, and the signed digits unpack once.  A power
    packs once, powers the packed pair by :func:`arith._power` and unpacks
    once.  A scalar multiplies as a constant polynomial.
    """

    __slots__ = ("_coeffs", "_d")

    def __init__(self, coeffs: dict[int, QuadElem | RatLike] | None = None) -> None:
        triples = {}
        for exponent, value in (coeffs or {}).items():
            _check_at_least("exponent", exponent, None)
            triples[exponent] = _triple(value if isinstance(value, QuadElem) else QuadElem(value))
        d = lcm(*(k for _, _, k in triples.values()))
        poly = _canonical(((e, (p * (d // k), q * (d // k))) for e, (p, q, k) in triples.items()), d)
        self._coeffs, self._d = poly._coeffs, poly._d

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
        p, q = self._coeffs.get(_check_at_least("exponent", exponent, None), (0, 0))
        return _reduced(p, q, self._d)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._d == other._d and self._coeffs == other._coeffs

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        d = lcm(self._d, other._d)
        sums: dict[int, tuple[int, int]] = {}
        for poly in (self, other):
            scale = d // poly._d
            for e, (p, q) in poly._coeffs.items():
                p0, q0 = sums.get(e, (0, 0))
                sums[e] = (p0 + p * scale, q0 + q * scale)
        return _canonical(sums.items(), d)

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        return _canonical(((e, (-p, -q)) for e, (p, q) in self._coeffs.items()), self._d)

    def __mul__(self, other: LaurentPoly | QuadElem | RatLike) -> LaurentPoly:
        if isinstance(other, (QuadElem, int, Fraction)):
            other = LaurentPoly({0: other})
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return LaurentPoly()
        low1, low2 = min(self._coeffs), min(other._coeffs)
        step = gcd(*(e - low1 for e in self._coeffs), *(e - low2 for e in other._coeffs)) or 1
        size = _width(self, other)
        packed = _pack(self, low1, step, size)
        product = _pair_product(packed, packed if other is self else _pack(other, low2, step, size))
        count = (max(self._coeffs) - low1 + max(other._coeffs) - low2) // step + 1
        return _unpacked(product, low1 + low2, step, count, size, self._d * other._d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        _check_at_least("exponent", n, 0)
        if not (n and self._coeffs):
            return self if n else LaurentPoly.one()
        low = min(self._coeffs)
        step = gcd(*(e - low for e in self._coeffs)) or 1
        size = _width(self, n=n)
        power = _power(_pack(self, low, step, size), n, (1, 0), _pair_product)
        count = (max(self._coeffs) - low) // step * n + 1
        return _unpacked(power, low * n, step, count, size, self._d**n)

    def evaluate(self, x: QuadElem) -> QuadElem:
        """Exact value at X = x; x must be invertible if negative exponents
        are present."""
        terms = self._terms()
        inv = x.inverse() if any(e < 0 for e, _ in terms) else None
        total = QUAD_ZERO
        for exponent, coeff in terms:
            power = x**exponent if exponent >= 0 else inv ** (-exponent)  # type: ignore[operator]
            total = total + coeff * power
        return total

    def _terms(self) -> list[tuple[int, QuadElem]]:
        """(exponent, coefficient) of every nonzero coefficient, exponents rising."""
        return [(e, _reduced(p, q, self._d)) for e, (p, q) in sorted(self._coeffs.items())]

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPoly(0)"
        terms = " + ".join(f"({coeff})*X^{exponent}" for exponent, coeff in reversed(self._terms()))
        return f"LaurentPoly({terms})"


def _canonical(terms: Iterable[tuple[int, tuple[int, int]]], d: int) -> LaurentPoly:
    """The polynomial sum (p + q*sqrt 2)/d * X**e over ``terms`` (e, (p, q)),
    each exponent once, d > 0, in canonical form: the pairs (0, 0) dropped
    and d divided through by gcd(d, every p and q).  d goes first, so an
    integral polynomial pays no gcd."""
    coeffs = {e: pair for e, pair in terms if pair != (0, 0)}
    content = gcd(d, *chain.from_iterable(coeffs.values()))
    if content != 1:
        coeffs = {e: (p // content, q // content) for e, (p, q) in coeffs.items()}
    poly = object.__new__(LaurentPoly)
    poly._coeffs, poly._d = coeffs, d // content
    return poly


def _width(*factors: LaurentPoly, n: int = 1) -> int:
    """The bytes of a packed digit of the n-th power of the product of
    ``factors``: no numerator of it is larger than the n-th power of the
    product of their l1 norms sum(|p| + 2*|q|), the value at X = 1 of the
    polynomial of the sizes, with sqrt 2 read as 2.  One more bit holds the
    sign."""
    bound = 1
    for poly in factors:
        bound *= sum(abs(p) + 2 * abs(q) for p, q in poly._coeffs.values())
    return (bound**n).bit_length() // 8 + 1


def _halves(count: int, size: int) -> int:
    """Half the range of each of ``count`` digits of ``size`` bytes, packed."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _pack(poly: LaurentPoly, low: int, step: int, size: int) -> tuple[int, int]:
    """The Kronecker substitution of the numerators of ``poly`` laid out from
    X**low at every ``step``-th exponent: sum p_k * 2**(8*size*k) and the same
    of the q_k, each digit smaller in size than 2**(8*size - 1).  Shifted by
    half a digit's range, the digits are the bytes of one int."""
    half = 1 << (8 * size - 1)
    count = (max(poly._coeffs) - low) // step + 1
    zero = half.to_bytes(size, "little")
    rational, root2 = [zero] * count, [zero] * count
    for e, (p, q) in poly._coeffs.items():
        k = (e - low) // step
        rational[k], root2[k] = (p + half).to_bytes(size, "little"), (q + half).to_bytes(size, "little")
    halves = _halves(count, size)
    return tuple(int.from_bytes(b"".join(digits), "little") - halves for digits in (rational, root2))


def _unpacked(packed: tuple[int, int], low: int, step: int, count: int, size: int, d: int) -> LaurentPoly:
    """The polynomial whose numerators at X**(low + k*step), k < count, are
    the signed digits :func:`_pack` packs into the pair ``packed``, over d."""
    half, halves = 1 << (8 * size - 1), _halves(count, size)
    rational, root2 = (
        [int.from_bytes(raw[i : i + size], "little") - half for i in range(0, count * size, size)]
        for raw in ((value + halves).to_bytes(count * size, "little") for value in packed)
    )
    return _canonical(zip(range(low, low + count * step, step), zip(rational, root2)), d)


def encode(bterms: Iterable[tuple[RatLike, int, int]], constant: RatLike = 0) -> LaurentPoly:
    """constant + sum of coeff * B(s*n + o) as a Laurent polynomial in X = ALPHA**n,
    by B(s*n + o) = (ALPHA**o * X**s - BETA**o * X**-s) / (4*sqrt 2).

    With ALPHA**o = x + y*sqrt 2 and BETA**o its conjugate, a term puts
    coeff*(2y + x*sqrt 2)/8 at X**s and coeff*(2y - x*sqrt 2)/8 at X**-s; the
    polynomial is built from these integers over one common denominator.
    """
    terms = [(Fraction(coeff), s, _alpha_power(o)) for coeff, s, o in bterms]
    constant = Fraction(constant)
    d = lcm(constant.denominator, *(8 * coeff.denominator for coeff, _, _ in terms))
    numerators = {0: (constant.numerator * (d // constant.denominator), 0)}
    for coeff, s, (x, y) in terms:
        k = coeff.numerator * (d // (8 * coeff.denominator))
        for exponent, root2 in ((s, x * k), (-s, -x * k)):
            p, q = numerators.get(exponent, (0, 0))
            numerators[exponent] = (p + 2 * y * k, q + root2)
    return _canonical(numerators.items(), d)


def _proves_power(form: LinearForm, power: int) -> bool:
    """Whether ``form`` equals B(n)**power for every n."""
    return encode(form.bterms, form.constant) == encode([(1, 1, 0)]) ** power


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
    first = _at_one(terms) + QuadElem(expr.linear_coeff + expr.constant)
    return first == _at_one(summand) and terms + minus_previous == summand


def _at_one(poly: LaurentPoly) -> QuadElem:
    """The value at X = 1: the sum of the coefficients."""
    pairs = poly._coeffs.values()
    return _reduced(sum(p for p, _ in pairs), sum(q for _, q in pairs), poly._d)


def verify_power_sum_formula(m: int, l: int) -> bool:
    """Check the closed form :func:`power_sum_formula` emits for
    S(n) = sum_{0<=k<=n} B(k*m)**l, by :func:`_proves_sum` against the
    encoding of B(m*k)**l; an m or l below 1 raises ValueError."""
    return _proves_sum(power_sum_formula(m, l), encode([(1, m, 0)]) ** l)
