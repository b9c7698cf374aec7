from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balsum.arith import (
    ALPHA,
    BETA,
    FOUR_SQRT2,
    InexactResultError,
    QuadElem,
    SQRT2,
    as_integer,
    rat_add,
    rat_div,
    rat_from_str,
    rat_mul,
    rat_to_str,
)

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
quad_elems = st.builds(QuadElem, small_rationals, small_rationals)


class TestRational:
    def test_add(self):
        assert rat_add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)

    def test_construction_canonicalizes(self):
        assert Fraction(3, 6) == Fraction(1, 2)
        assert (Fraction(3, 6).numerator, Fraction(3, 6).denominator) == (1, 2)

    def test_even_power_constant_reduces(self):
        assert Fraction(-2, 32) == Fraction(-1, 16)

    def test_negative_denominator_normalized(self):
        q = Fraction(1, -2)
        assert q.denominator == 2 and q.numerator == -1

    def test_div_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            rat_div(Fraction(1), Fraction(0))

    def test_mul(self):
        assert rat_mul(Fraction(2, 3), Fraction(9, 4)) == Fraction(3, 2)

    @given(st.integers(-20, 20), st.integers(1, 20), st.integers(-9, 9).filter(bool))
    def test_scaled_construction_identical(self, p, q, k):
        assert Fraction(p, q) == Fraction(k * p, k * q)

    def test_str_round_trip(self):
        assert rat_to_str(Fraction(1, 2)) == "1/2"
        assert rat_to_str(Fraction(5)) == "5"
        assert rat_from_str("-1/16") == Fraction(-1, 16)
        assert rat_from_str("7") == Fraction(7)


class TestQuadElem:
    def test_alpha_times_beta_is_one(self):
        assert ALPHA * BETA == 1

    def test_mul_identity(self):
        assert ALPHA * QuadElem(1) == ALPHA

    def test_alpha_squared(self):
        assert ALPHA * ALPHA == QuadElem(17, 12)

    def test_pow(self):
        assert ALPHA**2 == QuadElem(17, 12)
        assert ALPHA**3 == QuadElem(99, 70)
        assert ALPHA**0 == QuadElem(1)

    def test_pow_matches_repeated_mul(self):
        acc = QuadElem(1)
        for n in range(8):
            assert ALPHA**n == acc
            acc = acc * ALPHA

    def test_pow_negative_rejected(self):
        with pytest.raises(ValueError):
            ALPHA ** (-1)

    def test_alpha_minus_beta(self):
        assert ALPHA - BETA == FOUR_SQRT2
        assert FOUR_SQRT2 == QuadElem(0, 4)

    def test_conj(self):
        assert ALPHA.conj() == BETA
        assert SQRT2.conj() == -SQRT2

    def test_norm_and_inverse(self):
        assert ALPHA.norm() == 1
        assert ALPHA.inverse() == BETA
        x = QuadElem(Fraction(3, 2), Fraction(-1, 4))
        assert x * x.inverse() == 1

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadElem(0).inverse()

    def test_division(self):
        assert (QuadElem(1) / FOUR_SQRT2) == QuadElem(0, Fraction(1, 8))
        assert SQRT2 * SQRT2 == 2

    def test_mixed_scalar_arithmetic(self):
        assert 2 * SQRT2 == QuadElem(0, 2)
        assert SQRT2 + 1 == QuadElem(1, 1)
        assert 1 - SQRT2 == QuadElem(1, -1)
        assert ALPHA * Fraction(1, 2) == QuadElem(Fraction(3, 2), 1)

    def test_unit_power_products(self):
        for n in range(51):
            assert (ALPHA**n) * (BETA**n) == 1

    @given(quad_elems, quad_elems)
    def test_add_commutes(self, x, y):
        assert x + y == y + x

    @given(quad_elems, quad_elems)
    def test_mul_commutes(self, x, y):
        assert x * y == y * x

    @given(quad_elems, quad_elems, quad_elems)
    def test_mul_associates(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(quad_elems, quad_elems, quad_elems)
    def test_add_associates(self, x, y, z):
        assert (x + y) + z == x + (y + z)

    @given(quad_elems, quad_elems, quad_elems)
    def test_distributivity(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(quad_elems, quad_elems)
    def test_conj_is_multiplicative(self, x, y):
        assert (x * y).conj() == x.conj() * y.conj()

    def test_json_dict(self):
        d = ALPHA.to_json_dict()
        assert d == {"a": "3", "b": "2"}
        assert QuadElem.from_json_dict(d) == ALPHA
        half = QuadElem(Fraction(1, 2), Fraction(-3, 8))
        assert QuadElem.from_json_dict(half.to_json_dict()) == half

    def test_str(self):
        assert str(ALPHA) == "3 + 2*sqrt2"
        assert str(BETA) == "3 - 2*sqrt2"
        assert str(QuadElem(5)) == "5"


class TestIntegerHelpers:
    def test_as_integer(self):
        assert as_integer(Fraction(12, 4)) == 3
        with pytest.raises(InexactResultError):
            as_integer(Fraction(1, 2))
