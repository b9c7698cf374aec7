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
from typing import Iterable, Sequence

from .arith import QUAD_ONE, QUAD_ZERO, QuadElem, RatLike, _check_at_least, _power, _reduced, _triple
from .linearize import LinearForm, linearize_even, linearize_odd
from .summation import ClosedSumExpr, gf_params, power_sum_formula

# (low, step, P, Q, d): the coefficient at X**(low + k*step) is
# (P[k] + Q[k]*sqrt 2)/d.
Record = tuple[int, int, tuple[int, ...], tuple[int, ...], int]
_ZERO: Record = (0, 0, (), (), 1)


class LaurentPoly:
    """A Laurent polynomial in X over Q(sqrt 2), held as one canonical integer
    record (low, step, P, Q, d): its coefficient at X**(low + k*step) is
    (P[k] + Q[k]*sqrt 2)/d.  In canonical form P[0] + Q[0]*sqrt 2 and the last
    coefficient are nonzero, the step is the gcd of the gaps between the
    exponents of the nonzero coefficients (0 for a single term), and d > 0
    shares no factor with every P[k] and Q[k]; zero is (0, 0, (), (), 1).  So
    each polynomial has one record, and equality and the zero test read it.

    A dict {exponent: coefficient} builds one: every exponent, a zero
    coefficient's too, must be an int; coefficients live in Q(sqrt 2), and
    ints and Fractions coerce.  Sums and negation work on the integers.

    A product is made by Kronecker substitution (Harvey 2009, J. Symbolic
    Comput. 44): both operands are spread to the gcd of their steps, and each
    of P and Q is packed into one int at a width that bounds every coefficient
    of the product; the packed pairs x + y*sqrt 2 multiply in Z[sqrt 2] by
    three big-integer products, and the signed digits unpack once.  A power
    packs once, at a width from the l1 norm, powers the packed pair by
    :func:`arith._power` and unpacks once.  A scalar multiplies as a constant
    polynomial.
    """

    __slots__ = ("_record",)

    def __init__(self, coeffs: dict[int, QuadElem | RatLike] | None = None) -> None:
        triples = {}
        for exponent, value in (coeffs or {}).items():
            _check_at_least("exponent", exponent, None)
            triples[exponent] = _triple(value if isinstance(value, QuadElem) else QuadElem(value))
        d = lcm(*(c_d for _, _, c_d in triples.values()))
        scaled = {e: (p * (d // c_d), q * (d // c_d)) for e, (p, q, c_d) in triples.items()}
        self._record = _sparse_record(scaled, d)

    @classmethod
    def one(cls) -> LaurentPoly:
        return cls({0: QUAD_ONE})

    @classmethod
    def monomial(cls, exponent: int, coeff: QuadElem | RatLike = 1) -> LaurentPoly:
        return cls({exponent: coeff})

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(exponent for exponent, _ in self._terms())

    def coefficient(self, exponent: int) -> QuadElem:
        low, step, rational, root2, d = self._record
        k, off_step = divmod(_check_at_least("exponent", exponent, None) - low, step or 1)
        if off_step or not 0 <= k < len(rational):
            return QUAD_ZERO
        return _reduced(rational[k], root2[k], d)

    def is_zero(self) -> bool:
        return not self._record[2]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self._record == other._record

    def __add__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return other if self.is_zero() else self
        (low1, step1, p1, _, d1), (low2, step2, p2, _, d2) = self._record, other._record
        low, step, d = min(low1, low2), gcd(step1, step2, low1 - low2) or 1, lcm(d1, d2)
        length = (max(low1 + step1 * (len(p1) - 1), low2 + step2 * (len(p2) - 1)) - low) // step + 1
        rational, root2 = [0] * length, [0] * length
        for low_i, step_i, p_i, q_i, d_i in (self._record, other._record):
            scale, start, stride = d // d_i, (low_i - low) // step, step_i // step
            for k, (p, q) in enumerate(zip(p_i, q_i)):
                rational[start + k * stride] += p * scale
                root2[start + k * stride] += q * scale
        return _new(_record(low, step, rational, root2, d))

    def __sub__(self, other: LaurentPoly) -> LaurentPoly:
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> LaurentPoly:
        low, step, rational, root2, d = self._record
        return _new((low, step, tuple(-p for p in rational), tuple(-q for q in root2), d))

    def __mul__(self, other: LaurentPoly | QuadElem | RatLike) -> LaurentPoly:
        if isinstance(other, (QuadElem, int, Fraction)):
            other = LaurentPoly({0: other})
        elif not isinstance(other, LaurentPoly):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return _new(_ZERO)
        (low1, step1, p1, q1, d1), (low2, step2, p2, q2, d2) = self._record, other._record
        step = gcd(step1, step2) or 1
        p1, q1 = _spread(p1, step1 // step), _spread(q1, step1 // step)
        p2, q2 = _spread(p2, step2 // step), _spread(q2, step2 // step)
        bound1, bound2 = _bound(p1, q1), _bound(p2, q2)
        # A product digit sums at most min(len) terms p1*p2 + 2*q1*q2 or
        # p1*q2 + q1*p2, each at most 2*bound1*bound2 in size; one more bit
        # holds the sign.
        size = (2 * min(len(p1), len(p2)) * bound1 * bound2).bit_length() // 8 + 1
        packed = (_pack(p1, size), _pack(q1, size))
        x, y = _pair_product(packed, packed if other is self else (_pack(p2, size), _pack(q2, size)))
        count = len(p1) + len(p2) - 1
        return _new(_record(low1 + low2, step, _unpack(x, count, size), _unpack(y, count, size), d1 * d2))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> LaurentPoly:
        _check_at_least("exponent", n, 0)
        low, step, rational, root2, d = self._record
        if not (n and rational):
            return self if n else LaurentPoly.one()
        # Every coefficient of the power is at most (sum|P| + 2*sum|Q|)**n in
        # size: that is the value at X = 1 of the power of the polynomial of
        # the sizes, with sqrt 2 read as 2.  One more bit holds the sign.
        l1_norm = sum(map(abs, rational)) + 2 * sum(map(abs, root2))
        size = (l1_norm**n).bit_length() // 8 + 1
        x, y = _power((_pack(rational, size), _pack(root2, size)), n, (1, 0), _pair_product)
        count = (len(rational) - 1) * n + 1
        return _new(_record(low * n, step, _unpack(x, count, size), _unpack(y, count, size), d**n))

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
        low, step, rational, root2, d = self._record
        pairs = enumerate(zip(rational, root2))
        return [(low + step * k, _reduced(p, q, d)) for k, (p, q) in pairs if p or q]

    def __repr__(self) -> str:
        if self.is_zero():
            return "LaurentPoly(0)"
        terms = " + ".join(f"({coeff})*X^{exponent}" for exponent, coeff in reversed(self._terms()))
        return f"LaurentPoly({terms})"


def _new(record: Record) -> LaurentPoly:
    """The polynomial of a record already in canonical form."""
    poly = object.__new__(LaurentPoly)
    poly._record = record
    return poly


def _record(low: int, step: int, rational: list[int], root2: list[int], d: int) -> Record:
    """The canonical record of the sum of (rational[k] + root2[k]*sqrt 2)/d *
    X**(low + k*step), d > 0: the zero coefficients at either end dropped, the
    step widened to the gcd of the exponent gaps, and d divided through by
    gcd(d, *P, *Q).  d goes first, so an integral polynomial pays no gcd."""
    nonzero = [k for k, (p, q) in enumerate(zip(rational, root2)) if p or q]
    if not nonzero:
        return _ZERO
    first, stop = nonzero[0], nonzero[-1] + 1
    widen = gcd(*(k - first for k in nonzero))
    rational, root2 = rational[first : stop : widen or 1], root2[first : stop : widen or 1]
    content = gcd(d, *rational, *root2)
    if content != 1:
        rational, root2, d = [p // content for p in rational], [q // content for q in root2], d // content
    return low + step * first, step * widen, tuple(rational), tuple(root2), d


def _sparse_record(numerators: dict[int, tuple[int, int]], d: int) -> Record:
    """The record of the sum of (p + q*sqrt 2)/d * X**e over {e: (p, q)}."""
    exponents = [e for e, (p, q) in numerators.items() if p or q]
    if not exponents:
        return _ZERO
    low = min(exponents)
    step = gcd(*(e - low for e in exponents)) or 1
    length = (max(exponents) - low) // step + 1
    rational, root2 = [0] * length, [0] * length
    for e in exponents:
        rational[(e - low) // step], root2[(e - low) // step] = numerators[e]
    return _record(low, step, rational, root2, d)


def _spread(digits: tuple[int, ...], stride: int) -> list[int]:
    """``digits`` at every ``stride``-th place, zeros between; a stride of 0
    (a single term) or 1 leaves them as they are."""
    if stride <= 1:
        return list(digits)
    spread = [0] * ((len(digits) - 1) * stride + 1)
    spread[::stride] = digits
    return spread


def _bound(rational: list[int], root2: list[int]) -> int:
    """The largest |P[k]| + |Q[k]|."""
    return max(abs(p) + abs(q) for p, q in zip(rational, root2))


def _pair_product(u: tuple[int, int], v: tuple[int, int]) -> tuple[int, int]:
    """(x1 + y1*sqrt 2)*(x2 + y2*sqrt 2) in Z[sqrt 2] as an integer pair, by
    three products: x1*x2, y1*y2 and (x1 + y1)*(x2 + y2), or for a square
    (``u is v``) x*x, y*y and x*y."""
    (x1, y1), (x2, y2) = u, v
    if u is v:
        return x1 * x1 + 2 * y1 * y1, 2 * x1 * y1
    xx, yy = x1 * x2, y1 * y2
    return xx + 2 * yy, (x1 + y1) * (x2 + y2) - xx - yy


def _halves(count: int, size: int) -> int:
    """Half the range of each of ``count`` digits of ``size`` bytes, packed."""
    return int.from_bytes((bytes(size - 1) + b"\x80") * count, "little")


def _pack(digits: Sequence[int], size: int) -> int:
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


def _alpha_power(o: int) -> tuple[int, int]:
    """(x, y) with ALPHA**o = x + y*sqrt 2 at any integer o, by the pair
    product through :func:`arith._power`; ALPHA**-o is the conjugate of
    ALPHA**o, since ALPHA*BETA = 1."""
    x, y = _power((3, 2), abs(o), (1, 0), _pair_product)
    return (x, y) if o >= 0 else (x, -y)


def encode(bterms: Iterable[tuple[RatLike, int, int]], constant: RatLike = 0) -> LaurentPoly:
    """constant + sum of coeff * B(s*n + o) as a Laurent polynomial in X = ALPHA**n,
    by B(s*n + o) = (ALPHA**o * X**s - BETA**o * X**-s) / (4*sqrt 2).

    With ALPHA**o = x + y*sqrt 2 and BETA**o its conjugate, a term puts
    coeff*(2y + x*sqrt 2)/8 at X**s and coeff*(2y - x*sqrt 2)/8 at X**-s; the
    record is built from these integers over one common denominator.
    """
    terms = [(Fraction(coeff), s, _alpha_power(o)) for coeff, s, o in bterms]
    constant = Fraction(constant)
    d = lcm(constant.denominator, *(8 * coeff.denominator for coeff, _, _ in terms))
    numerators = {0: [constant.numerator * (d // constant.denominator), 0]}
    for coeff, s, (x, y) in terms:
        k = coeff.numerator * (d // (8 * coeff.denominator))
        for exponent, root2 in ((s, x * k), (-s, -x * k)):
            entry = numerators.setdefault(exponent, [0, 0])
            entry[0] += 2 * y * k
            entry[1] += root2
    return _new(_sparse_record(numerators, d))


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
    _, _, rational, root2, d = poly._record
    return _reduced(sum(rational), sum(root2), d)


def verify_power_sum_formula(m: int, l: int) -> bool:
    """Check the closed form :func:`power_sum_formula` emits for
    S(n) = sum_{0<=k<=n} B(k*m)**l, by :func:`_proves_sum` against the
    encoding of B(m*k)**l; an m or l below 1 raises ValueError."""
    return _proves_sum(power_sum_formula(m, l), encode([(1, m, 0)]) ** l)
