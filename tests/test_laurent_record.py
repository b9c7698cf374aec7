"""The integer form of a LaurentPoly: powers packed at the l1 width, ALPHA**o
as an integer pair, and one form per polynomial however it is made."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balsum import laurent
from balsum.arith import ALPHA, QUAD_ZERO, SQRT2, QuadElem
from balsum.laurent import LaurentPoly, encode
from test_laurent import dict_product, rational_coefficients, sparse_polys

ZERO_FORM = ({}, 1)


def form(poly):
    """The integers ``poly`` is held as: its map {exponent: (p, q)} and its d."""
    return poly._coeffs, poly._d


def is_canonical(poly):
    """Whether ``poly`` is in the canonical form the class docstring states."""
    coeffs, d = form(poly)
    numerators = [value for pair in coeffs.values() for value in pair]
    return (
        all(type(e) is int and type(pair) is tuple and pair != (0, 0) for e, pair in coeffs.items())
        and all(type(value) is int for value in numerators)
        and d > 0
        and gcd(d, *numerators) == 1
    )


def quad_encode(bterms, constant=0):
    """encode by QuadElem arithmetic, as it was written before the integer form: the
    oracle of the integer encoding."""
    coeffs = {0: QuadElem(constant)}
    for coeff, s, o in bterms:
        alpha_o = ALPHA**o if o >= 0 else (ALPHA**-o).conj()
        scale = QuadElem(0, Fraction(1, 8)) * coeff
        coeffs[s] = coeffs.get(s, QUAD_ZERO) + alpha_o * scale
        coeffs[-s] = coeffs.get(-s, QUAD_ZERO) - alpha_o.conj() * scale
    return LaurentPoly(coeffs)


# Numerators at each side of every byte border up to 2**80, and their signs.
BORDER_NUMERATORS = sorted({sign * (2**bits + delta) for bits in range(81) for delta in (-1, 0) for sign in (1, -1)})


@pytest.mark.parametrize("exponent", [-3, 0, 5])
def test_powers_of_monomials_at_the_l1_width(exponent):
    # c*X**k has the one coefficient c**n in its n-th power, as large as the
    # l1 bound |c|**n itself, so a width a byte narrower cannot hold it.
    for numerator in BORDER_NUMERATORS:
        for coeff in (numerator, Fraction(numerator, 3)):
            monomial = LaurentPoly.monomial(exponent, coeff)
            for n in (0, 1, 2, 3, 7, 8, 9):
                assert monomial**n == LaurentPoly({exponent * n: coeff**n}), (coeff, n)


def test_powers_match_repeated_products():
    # sqrt 2 parts and several terms: the width from the l1 norm bounds them.
    for poly in (
        LaurentPoly({1: 1, -1: -1}),
        LaurentPoly({2: ALPHA, 0: -3, -4: SQRT2}),
        LaurentPoly({3: QuadElem(Fraction(-5, 6), Fraction(7, 4))}),
        encode([(1, 3, 0)]),
        encode([(Fraction(2, 3), 2, -1), (5, 4, 2)], 7),
    ):
        repeated = LaurentPoly.one()
        for n in range(20):
            assert poly**n == repeated, (poly, n)
            repeated = dict_product(repeated, poly)


def test_alpha_power_pair_matches_quad_elem():
    for o in range(-500, 501):
        power = ALPHA**o if o >= 0 else (ALPHA**-o).inverse()
        assert QuadElem(*laurent._alpha_power(o)) == power, o


def test_zero_has_one_record():
    x = LaurentPoly.monomial(1)
    zeros = [
        LaurentPoly(),
        LaurentPoly({}),
        LaurentPoly({3: 0, -2: QUAD_ZERO}),
        x - x,
        x * 0,
        0 * x,
        LaurentPoly() * x,
        LaurentPoly() ** 3,
        -LaurentPoly(),
        encode([]),
        encode([(1, 2, 0), (-1, 2, 0)]),
        encode([(Fraction(1, 3), 1, 1)], 0) - encode([(Fraction(1, 3), 1, 1)], 0),
    ]
    for zero in zeros:
        assert form(zero) == ZERO_FORM
        assert zero.is_zero()
    assert LaurentPoly() ** 0 == LaurentPoly.one()


@given(sparse_polys(), sparse_polys(), rational_coefficients)
def test_equal_polynomials_have_equal_records(p, q, scalar):
    made = {
        "constructor": LaurentPoly({e: p.coefficient(e) for e in p.support}),
        "sum": (p + q) - q,
        "sums of terms": sum((LaurentPoly.monomial(e, p.coefficient(e)) for e in p.support), LaurentPoly()),
        "product by one": p * LaurentPoly.one(),
        "product by a scalar and back": (p * scalar) * (1 / scalar) if scalar else p,
        "square": p**2,
        "dict square": dict_product(p, p),
    }
    for way, poly in made.items():
        assert is_canonical(poly), way
    assert form(made["square"]) == form(made["dict square"])
    for way in ("constructor", "sum", "sums of terms", "product by one", "product by a scalar and back"):
        assert form(made[way]) == form(p), way
    assert is_canonical(p * q) and is_canonical(p + q) and is_canonical(-p)


offsets = st.integers(-40, 40)
bterm_lists = st.lists(
    st.tuples(st.one_of(st.integers(-9, 9), rational_coefficients), st.integers(-6, 6), offsets), max_size=6
)


@given(bterm_lists, st.one_of(st.integers(-9, 9), rational_coefficients))
def test_encode_builds_the_record_of_the_quad_elem_encoding(bterms, constant):
    encoded = encode(bterms, constant)
    assert is_canonical(encoded)
    assert form(encoded) == form(quad_encode(bterms, constant))
