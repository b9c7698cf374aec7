"""Laurent polynomials over Q(sqrt 2), and mechanical identity verification.

A polynomial keeps integer numerators over one denominator.  Only the methods
that take or give a coefficient, a :class:`balsum.field.QuadElem`, load
:mod:`balsum.field`; :func:`encode`, products, powers and the verifiers never do.

Every identity this library relies on is, after the substitution X = ALPHA**n,
ALPHA = 3 + 2*sqrt(2), a polynomial identity in X with negative exponents
allowed: BETA = 1/ALPHA turns its powers into negative powers of X.
:func:`encode` is the one map from balancing numbers at affine indices to
such a :class:`LaurentPoly`, a finitely supported map from integer exponents
to coefficients in Q(sqrt 2), so checking an identity for all n at once
reduces to testing the encoded difference of its sides for zero.  The
verifiers encode the objects the library emits (linear forms, generating
function parameters and closed sums), not copies of their formulas.
"""

from __future__ import annotations

from itertools import chain, repeat
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator

from .arith import _alpha_power, _check_at_least, _pair_product, _power
from .linearize import LinearForm, RatLike, linearize_even, linearize_odd
from .summation import ClosedSumExpr, gf_params, power_sum_formula

if TYPE_CHECKING:
    from .field import QuadElem


class LaurentPoly:
    """A Laurent polynomial in X over Q(sqrt 2), held as integers over one
    denominator: a map {exponent: (p, q)} and d > 0, its coefficient at X**e
    being (p + q*sqrt 2)/d.  In canonical form no pair is (0, 0) and d shares
    no factor with every p and q; zero is the empty map over 1.  So each
    polynomial has one form, and equality and the zero test read it.

    A dict {exponent: coefficient} builds one, each exponent an int (under a zero
    coefficient too, as in :meth:`coefficient`); ints and Fractions coerce to
    Q(sqrt 2).  Every polynomial is built by :func:`_canonical`.

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
        if coeffs:
            from .field import QuadElem, _triple
        poly = _canonical(
            (_check_at_least("exponent", e, None), *_triple(value if isinstance(value, QuadElem) else QuadElem(value)))
            for e, value in (coeffs or {}).items()
        )
        self._coeffs, self._d = poly._coeffs, poly._d

    @classmethod
    def one(cls) -> LaurentPoly:
        return _canonical([(0, 1, 0, 1)])

    @classmethod
    def monomial(cls, exponent: int, coeff: QuadElem | RatLike = 1) -> LaurentPoly:
        return cls({exponent: coeff})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._coeffs))

    def coefficient(self, exponent: int) -> QuadElem:
        from .field import _reduced

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
        return _canonical(chain(self._parts(), other._parts()))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return _canonical(chain(self._parts(), other._parts(-1)))

    def __neg__(self) -> LaurentPoly:
        return _canonical(self._parts(-1))

    def _parts(self, sign: int = 1) -> Iterator[tuple[int, int, int, int]]:
        """The terms (e, p, q, d) of ``sign`` times this polynomial."""
        return ((e, sign * p, sign * q, self._d) for e, (p, q) in self._coeffs.items())

    def __mul__(self, other: LaurentPoly | QuadElem | RatLike) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            from .field import _triple

            if _triple(other) is None:
                return NotImplemented
            other = LaurentPoly({0: other})
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
        from .field import QUAD_ZERO

        terms = self._terms()
        inv = x.inverse() if any(e < 0 for e, _ in terms) else None
        total = QUAD_ZERO
        for exponent, coeff in terms:
            power = x**exponent if exponent >= 0 else inv ** (-exponent)  # type: ignore[operator]
            total = total + coeff * power
        return total

    def _terms(self) -> list[tuple[int, QuadElem]]:
        """(exponent, coefficient) of every nonzero coefficient, exponents rising."""
        return [(e, self.coefficient(e)) for e in self.support]

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPoly(0)"
        terms = " + ".join(f"({coeff})*X^{exponent}" for exponent, coeff in reversed(self._terms()))
        return f"LaurentPoly({terms})"


def _canonical(terms: Iterable[tuple[int, int, int, int]]) -> LaurentPoly:
    """The polynomial sum (p + q*sqrt 2)/d * X**e over ``terms`` (e, p, q, d),
    d > 0, in canonical form: over the lcm of the d, only terms not over it
    rescaled, equal exponents summed, (0, 0) pairs dropped and the lcm divided
    by gcd(lcm, every p and q), lcm first so that integers pay no gcd."""
    terms = list(terms)
    d = lcm(*{term[3] for term in terms})
    sums: dict[int, tuple[int, int]] = {}
    for e, p, q, k in terms:
        if k != d:
            scale = d // k
            p, q = p * scale, q * scale
        if e in sums:
            p0, q0 = sums[e]
            p, q = p0 + p, q0 + q
        sums[e] = p, q
    content = gcd(d, *chain.from_iterable(sums.values()))
    if content != 1:
        sums = {e: (p // content, q // content) for e, (p, q) in sums.items()}
    poly = object.__new__(LaurentPoly)
    poly._coeffs, poly._d = {e: pair for e, pair in sums.items() if pair != (0, 0)}, d // content
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
    return _canonical(zip(range(low, low + count * step, step), rational, root2, repeat(d)))


def encode(bterms: Iterable[tuple[RatLike, int, int]], constant: RatLike = 0) -> LaurentPoly:
    """constant + sum of coeff * B(s*n + o) as a Laurent polynomial in X = ALPHA**n,
    by B(s*n + o) = (ALPHA**o * X**s - BETA**o * X**-s) / (4*sqrt 2).

    With ALPHA**o = x + y*sqrt 2 and BETA**o its conjugate, a term puts
    coeff*(2y + x*sqrt 2)/8 at X**s and coeff*(2y - x*sqrt 2)/8 at X**-s, as
    the integer terms :func:`_canonical` reads.  ALPHA**o comes from
    :func:`~balsum.arith._alpha_power` and not from
    :func:`~balsum.sequences.balancing_pair`, which the even forms'
    coefficients read: a pair wrong the same way in both would cancel out of
    every even-power proof.
    """
    terms = []
    for coeff, s, o in bterms:
        (num, den), (x, y) = coeff.as_integer_ratio(), _alpha_power(o)
        p, q, k = 2 * y * num, x * num, 8 * den
        terms += [(s, p, q, k), (-s, p, -q, k)]
    num, den = constant.as_integer_ratio()
    return _canonical([*terms, (0, num, 0, den)])


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
    ``summand`` being F(k) in X = ALPHA**k.  Both checks read ``head``, the
    encoding of S(n) less its linear term linear_coeff*n.  S(n) - S(n-1) = F(n)
    is one identity, with each term B(s*n + o) of S(n-1) at offset o - s.
    S(0) = F(0) compares constant polynomials, the values at X = 1, that is
    n = 0, where a polynomial's value is the sum of its coefficients."""
    head = encode(expr.bterms, expr.linear_coeff + expr.constant)
    minus_previous = encode([(-coeff, s, o - s) for coeff, s, o in expr.bterms], -expr.constant)
    # The sums of every p and every q, from (0, 0), give the value at X = 1.
    s0, f0 = ((0, *map(sum, zip((0, 0), *poly._coeffs.values())), poly._d) for poly in (head, summand))
    return _canonical([s0]) == _canonical([f0]) and head + minus_previous == summand


def verify_power_sum_formula(m: int, l: int) -> bool:
    """Check the closed form :func:`power_sum_formula` emits for
    S(n) = sum_{0<=k<=n} B(k*m)**l, by :func:`_proves_sum` against the
    encoding of B(m*k)**l; an m or l below 1 raises ValueError."""
    return _proves_sum(power_sum_formula(m, l), encode([(1, m, 0)]) ** l)
