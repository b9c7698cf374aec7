import ast
import decimal
import operator
import re
from collections import Counter
from fractions import Fraction
from functools import partial
from math import gcd
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import balsum
from balsum import sequences
from balsum import ALPHA, BETA, FOUR_SQRT2, SQRT2, InexactResultError, QuadElem
from balsum.arith import _exact, _power, _rational, _text
from conftest import DEFAULT_DIGIT_LIMIT

small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=12)
quad_elems = st.builds(QuadElem, small_rationals, small_rationals)
# Wider denominators, so that sums and products meet common factors to cancel.
rationals = st.fractions(min_value=-60, max_value=60, max_denominator=96)
pairs = st.tuples(rationals, rationals)


# Reference formulas on (a, b) pairs of Fractions, for a + b*sqrt(2).
def ref_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def ref_sub(x, y):
    return x[0] - y[0], x[1] - y[1]


def ref_mul(x, y):
    return x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0]


def ref_norm(x):
    return x[0] * x[0] - 2 * x[1] * x[1]


def ref_inverse(x):
    n = ref_norm(x)
    return x[0] / n, -x[1] / n


def ref_div(x, y):
    return ref_mul(x, ref_inverse(y))


def coords(x):
    """(a, b) of a QuadElem, after checking its stored triple is canonical."""
    assert x._d > 0 and gcd(x._d, x._p, x._q) == 1
    return x.a, x.b


class TestRational:
    def test_construction_canonicalizes(self):
        assert Fraction(3, 6) == Fraction(1, 2)
        assert (Fraction(3, 6).numerator, Fraction(3, 6).denominator) == (1, 2)

    def test_even_power_constant_reduces(self):
        assert Fraction(-2, 32) == Fraction(-1, 16)

    def test_negative_denominator_normalized(self):
        q = Fraction(1, -2)
        assert q.denominator == 2 and q.numerator == -1

    @given(st.integers(-20, 20), st.integers(1, 20), st.integers(-9, 9).filter(bool))
    def test_scaled_construction_identical(self, p, q, k):
        assert Fraction(p, q) == Fraction(k * p, k * q)


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

    def test_alpha_minus_beta(self):
        assert ALPHA - BETA == FOUR_SQRT2
        assert FOUR_SQRT2 == QuadElem(0, 4)

    def test_conj(self):
        assert ALPHA.conj() == BETA
        assert SQRT2.conj() == -SQRT2

    def test_norm_and_inverse(self):
        assert ref_norm(coords(ALPHA)) == 1
        assert ALPHA.inverse() == BETA
        x = QuadElem(Fraction(3, 2), Fraction(-1, 4))
        assert x * x.inverse() == 1

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            QuadElem(0).inverse()

    def test_division(self):
        assert QuadElem(1) * FOUR_SQRT2.inverse() == QuadElem(0, Fraction(1, 8))
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

    def test_str(self):
        assert str(ALPHA) == "3 + 2*sqrt2"
        assert str(BETA) == "3 - 2*sqrt2"
        assert str(QuadElem(5)) == "5"
        assert str(QuadElem(Fraction(1, 2), Fraction(-3, 8))) == "1/2 - 3/8*sqrt2"


# (base, one, mul) of each algebra _power serves.
POWER_ALGEBRAS = {
    "QuadElem": (ALPHA, QuadElem(1), operator.mul),
    "LaurentPoly": (
        balsum.LaurentPoly.monomial(1) - balsum.LaurentPoly.monomial(-1),
        balsum.LaurentPoly.one(),
        operator.mul,
    ),
    "matrix": (sequences._STEP, sequences._IDENTITY, sequences._mat_mul),
}


@pytest.mark.parametrize("algebra", POWER_ALGEBRAS)
def test_power_reads_the_exponent_from_the_top(algebra):
    # base**n equals n repeated products, by n.bit_length() - 1 squarings and
    # one product by the original base per set bit after the first.
    base, one, mul = POWER_ALGEBRAS[algebra]
    counts = Counter()

    def counting(x, y):
        counts["square" if x is y else "by_base" if y is base else "other"] += 1
        return mul(x, y)

    repeated = one
    for n in range(300):
        counts.clear()
        assert _power(base, n, one, counting) == repeated, n
        # A Counter reads a missing kind as 0: n = 0 makes no product.
        assert counts == Counter(square=max(n.bit_length() - 1, 0), by_base=max(bin(n).count("1") - 1, 0)), n
        repeated = mul(repeated, base)


class TestAgainstReference:
    @given(pairs, pairs)
    def test_field_operations(self, x, y):
        qx, qy = QuadElem(*x), QuadElem(*y)
        assert coords(qx) == x
        assert coords(qx + qy) == ref_add(x, y)
        assert coords(qx - qy) == ref_sub(x, y)
        assert coords(qx * qy) == ref_mul(x, y)
        assert coords(qx * qx) == ref_mul(x, x)
        assert coords(-qx) == ref_sub((0, 0), x)
        assert coords(qx.conj()) == (x[0], -x[1])
        assert coords(qx * qx.conj()) == (ref_norm(x), 0)
        if any(y):
            assert coords(qy.inverse()) == ref_inverse(y)
            assert coords(qx * qy.inverse()) == ref_div(x, y)
        else:
            with pytest.raises(ZeroDivisionError):
                qy.inverse()

    @given(pairs, rationals, st.integers(-50, 50))
    def test_mixed_operands(self, x, r, k):
        qx = QuadElem(*x)
        for s in (r, k):
            rs = (Fraction(s), Fraction(0))
            assert coords(qx + s) == coords(s + qx) == ref_add(x, rs)
            assert coords(qx - s) == ref_sub(x, rs)
            assert coords(s - qx) == ref_sub(rs, x)
            assert coords(qx * s) == coords(s * qx) == ref_mul(x, rs)
            if s:
                assert coords(qx * QuadElem(s).inverse()) == ref_div(x, rs)
            if any(x):
                assert coords(s * qx.inverse()) == ref_div(rs, x)


class TestCanonicalForm:
    def test_equal_values_by_different_routes(self):
        x, y = QuadElem(Fraction(2, 4), 1), QuadElem(Fraction(1, 2), 1)
        assert x == y and hash(x) == hash(y)
        z = QuadElem(1, 2) * QuadElem(2).inverse()
        assert z == x and hash(z) == hash(x)
        w = QuadElem(Fraction(1, 3), Fraction(2, 3)) * Fraction(3, 2)
        assert w == x and hash(w) == hash(x)
        assert repr(w) == repr(y)

    def test_cancellation_reduces_to_integers(self):
        x = QuadElem(Fraction(1, 6), Fraction(5, 6)) + QuadElem(Fraction(5, 6), Fraction(1, 6))
        assert x == QuadElem(1, 1)
        assert coords(x) == (1, 1)
        zero = QuadElem(Fraction(1, 7), Fraction(2, 7)) - QuadElem(Fraction(1, 7), Fraction(2, 7))
        assert zero == 0 and not zero and coords(zero) == (0, 0)

    def test_coordinates_are_fractions(self):
        for x in (ALPHA, QuadElem(0), QuadElem(Fraction(1, 2), Fraction(-3, 8)), ALPHA**20):
            assert type(x.a) is Fraction and type(x.b) is Fraction
        assert QuadElem(Fraction(1, 2), Fraction(-3, 8)).b == Fraction(-3, 8)

    def test_inverse_of_negative_norm(self):
        x = QuadElem(1, 1)
        assert ref_norm(coords(x)) == -1
        assert x.inverse() == QuadElem(-1, 1)
        y = QuadElem(Fraction(1, 3), Fraction(1, 2))
        assert ref_norm(coords(y)) < 0
        assert y * y.inverse() == 1

    def test_coordinates_are_read_only(self):
        x = QuadElem(1, 2)
        with pytest.raises(AttributeError):
            x.a = Fraction(5)
        with pytest.raises(AttributeError):
            x.b = Fraction(5)
        with pytest.raises(AttributeError):
            x.c = 1
        assert x == QuadElem(1, 2)

    def test_repr(self):
        assert repr(ALPHA) == "QuadElem(a=Fraction(3, 1), b=Fraction(2, 1))"
        assert repr(QuadElem(0)) == "QuadElem(a=Fraction(0, 1), b=Fraction(0, 1))"
        assert (
            repr(QuadElem(Fraction(1, 2), Fraction(-3, 8)))
            == "QuadElem(a=Fraction(1, 2), b=Fraction(-3, 8))"
        )

    def test_constructor_coerces_like_fraction(self):
        assert QuadElem(True) == QuadElem(1)
        assert QuadElem("1/3", 0.5) == QuadElem(Fraction(1, 3), Fraction(1, 2))
        assert QuadElem(a=3, b=2) == ALPHA

    def test_unsupported_operand(self):
        assert ALPHA != 3.0
        assert ALPHA != "3 + 2*sqrt2"
        with pytest.raises(TypeError):
            ALPHA + 1.5
        with pytest.raises(TypeError):
            ALPHA - 1.5
        with pytest.raises(TypeError):
            1.5 - ALPHA
        with pytest.raises(TypeError):
            ALPHA * 1.5


class TestHash:
    def test_rational_elements_hash_as_their_value(self):
        assert len({QuadElem(1), 1}) == 1
        assert len({QuadElem(Fraction(1, 2)), Fraction(1, 2)}) == 1
        for value in (0, 1, -7, 10**30, Fraction(1, 2), Fraction(-22, 7)):
            assert QuadElem(value) == value
            assert hash(QuadElem(value)) == hash(value)
        assert {QuadElem(2): "x"}[2] == "x"

    @given(rationals)
    def test_hash_agrees_with_eq_on_rationals(self, r):
        assert QuadElem(r) == r and hash(QuadElem(r)) == hash(r)


class TestIntegerHelpers:
    def test_exact(self):
        assert _exact(12, 4, "result") == 3
        with pytest.raises(InexactResultError):
            _exact(1, 2, "result")

    def test_exact_error_over_digit_limit(self, default_digit_limit):
        # The message holds a 5,001-digit numerator.
        with pytest.raises(InexactResultError, match=r"is not an integer: 10{4999}1/2$"):
            _exact(10**5000 + 1, 2, "result")


# Numbers on both sides of the 4,300-digit default int/str limit, by name:
# pytest would name an int parameter by its str, which the limit forbids.
NUMBERS = {
    "zero": 0,
    "int": -7,
    "fraction": Fraction(-3, 4),
    "integral_fraction": Fraction(5, 1),
    "int_5001_digits": -(10**5000) - 1,
    "fraction_4295_over_5001_digits": Fraction(3**9000, 10**5000 + 1),
}
# The joins of the writer and reader, which split at 10**(640 * 2**k): a
# piece of 640 digits, and a half at each side of one, two and four pieces.
for k in (639, 640, 641, 1279, 1280, 1281, 2560):
    for d in (-1, 0, 1):
        NUMBERS[f"10**{k}{d:+}"] = 10**k + d
        NUMBERS[f"-(10**{k}{d:+})"] = -(10**k + d)

# 640 is the least limit the interpreter allows; the writer and reader hand
# str and int no piece longer.
LIMITS = [640, DEFAULT_DIGIT_LIMIT]


class TestTextAndRational:
    """The one writer and reader of the library's numbers."""

    @pytest.mark.parametrize("limit", LIMITS)
    @pytest.mark.parametrize("value", NUMBERS.values(), ids=NUMBERS.keys())
    def test_writer_matches_str(self, value, limit, digit_limit):
        with digit_limit(0):
            expected = str(value)
        with digit_limit(limit):
            assert _text(value) == expected

    @pytest.mark.parametrize("limit", LIMITS)
    @pytest.mark.parametrize("value", NUMBERS.values(), ids=NUMBERS.keys())
    def test_reader_inverts_writer(self, value, limit, digit_limit):
        with digit_limit(limit):
            read = _rational(_text(value))
        assert type(read) is Fraction and read == value

    # digit_limit hands back one context manager, which every example may share.
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.integers(0, 60_000).flatmap(lambda bits: st.integers(-(2**bits), 2**bits)),
        st.integers(0, 60_000).flatmap(lambda bits: st.integers(1, 2**bits)),
    )
    def test_writer_and_reader_at_any_size(self, digit_limit, num, den):
        for value in (num, Fraction(num, den)):
            with digit_limit(0):
                expected = str(value)
            with digit_limit(640):
                assert _text(value) == expected
                assert _rational(expected) == value

    def test_writer_and_reader_ignore_the_decimal_context(self):
        value = Fraction(-(10**40) - 1, 7)
        expected = _text(value)
        with decimal.localcontext(prec=5):
            assert _text(value) == expected
            assert _rational(expected) == value

    @pytest.mark.parametrize("text", ["3", "-3/4", "+3", " 3/4 ", "0.5", "1e3", "nan", "1/0", "06/08"])
    def test_reader_agrees_with_fraction(self, text):
        try:
            expected = Fraction(text)
        except Exception as error:
            with pytest.raises(type(error)):
                _rational(text)
        else:
            assert _rational(text) == expected

    def test_reader_takes_json_numbers_as_fraction_does(self):
        # A hand-written JSON form may give a coefficient as an integer, read
        # exactly; a float, bool or null would read as an inexact binary value.
        assert [_rational(x) for x in (3, -2, 2**53 + 1)] == [3, -2, 2**53 + 1]
        for value in (0.5, True, None):
            with pytest.raises(ValueError, match="must be a string or an integer"):
                _rational(value)


# Every argument check of the library, by the entry point that reaches it.
ARGUMENT_ERRORS = [
    (lambda: balsum.balancing(-1), "index must be non-negative, got -1"),
    (lambda: balsum.gf_coefficients(0), "count must be positive, got 0"),
    (lambda: balsum.linearize(1).value_at(-1), "index must be non-negative, got -1"),
    (lambda: balsum.linearize_odd(-1), "l must be non-negative, got -1"),
    (lambda: balsum.linearize_even(0), "l must be positive, got 0"),
    (lambda: balsum.linearize(0), "power must be positive, got 0"),
    (lambda: balsum.gf_params(0), "m must be positive, got 0"),
    (lambda: balsum.subsequence_gf_check(0, 5), "m must be positive, got 0"),
    (lambda: balsum.subsequence_gf_check(2, 1), "n_terms must be at least 2, got 1"),
    (lambda: balsum.shifted_closed_sum(2, -1, 3), "r must be non-negative, got -1"),
    (lambda: balsum.brute_force_power_sum(0, 1, 1), "m must be positive, got 0"),
    (lambda: balsum.brute_force_power_sum(1, 0, 1), "l must be positive, got 0"),
    (lambda: balsum.brute_force_power_sum(1, 1, -1), "n must be non-negative, got -1"),
    (lambda: balsum.power_sum_formula(0, 1), "m must be positive, got 0"),
    (lambda: balsum.verify_subsequence_recurrence(1), "m must be at least 2, got 1"),
    (lambda: balsum.balancing(-2.5), "index must be an integer, got -2.5"),
    (lambda: balsum.power_sum(1, 0, 5), "l must be positive, got 0"),
    (lambda: balsum.ALPHA**-1, "exponent must be non-negative, got -1"),
    (lambda: balsum.LaurentPoly.monomial(1) ** -1, "exponent must be non-negative, got -1"),
    (lambda: balsum.lucas_balancing(-1), "index must be non-negative, got -1"),
    (lambda: balsum.balancing_fast(-1), "index must be non-negative, got -1"),
    (lambda: balsum.balancing_binet(-1), "index must be non-negative, got -1"),
    (lambda: balsum.sequence_table(-1), "index must be non-negative, got -1"),
    (lambda: balsum.sequence_table(5, "X"), "seq must be 'B' or 'C', got 'X'"),
    (lambda: list(sequences.decimal_table(5, "X")), "seq must be 'B' or 'C', got 'X'"),
    (lambda: list(sequences.decimal_table(-1)), "index must be non-negative, got -1"),
    (lambda: balsum.closed_sum(0, 3), "m must be positive, got 0"),
    (lambda: balsum.closed_sum(1, -1), "index must be non-negative, got -1"),
    (lambda: balsum.shifted_closed_sum(0, 0, 0), "m must be positive, got 0"),
    (lambda: balsum.shifted_closed_sum(1, 0, -1), "index must be non-negative, got -1"),
    (lambda: balsum.power_sum(1, 1, -1), "index must be non-negative, got -1"),
    (lambda: balsum.power_sum(0, 1, 5), "m must be positive, got 0"),
    (lambda: balsum.verify_odd_power_identity(-1), "l must be non-negative, got -1"),
    (lambda: balsum.verify_even_power_identity(0), "l must be positive, got 0"),
    (lambda: balsum.verify_power_sum_formula(0, 1), "m must be positive, got 0"),
    (lambda: balsum.verify_power_sum_formula(1, 0), "l must be positive, got 0"),
]

# Each integer argument, by an entry point that reads it, under its name; a
# value whose type is not exactly int, a bool included, fails before its bound.
INTEGER_ARGUMENTS = [
    (balsum.balancing, "index"),
    (balsum.lucas_balancing, "index"),
    (balsum.balancing_fast, "index"),
    (balsum.lucas_balancing_fast, "index"),
    (balsum.balancing_binet, "index"),
    (balsum.lucas_balancing_binet, "index"),
    (balsum.sequence_table, "index"),
    (balsum.gf_coefficients, "count"),
    (balsum.linearize, "power"),
    (balsum.linearize_odd, "l"),
    (balsum.linearize_even, "l"),
    (lambda x: balsum.linearize(2).value_at(x), "index"),
    (lambda x: balsum.power_sum_formula(2, 3).exact_value_at(x), "index"),
    (balsum.gf_params, "m"),
    (lambda x: balsum.subsequence_gf_check(x, 5), "m"),
    (lambda x: balsum.subsequence_gf_check(2, x), "n_terms"),
    (lambda x: balsum.closed_sum(x, 3), "m"),
    (lambda x: balsum.closed_sum(2, x), "index"),
    (lambda x: balsum.shifted_closed_sum(x, 1, 3), "m"),
    (lambda x: balsum.shifted_closed_sum(2, x, 3), "r"),
    (lambda x: balsum.shifted_closed_sum(1, 0, x), "index"),
    (lambda x: balsum.brute_force_power_sum(x, 1, 1), "m"),
    (lambda x: balsum.brute_force_power_sum(1, x, 1), "l"),
    (lambda x: balsum.brute_force_power_sum(1, 1, x), "n"),
    (lambda x: balsum.power_sum_formula(x, 2), "m"),
    (lambda x: balsum.power_sum_formula(2, x), "l"),
    (lambda x: balsum.power_sum(x, 3, 4), "m"),
    (lambda x: balsum.power_sum(1, x, 5), "l"),
    (lambda x: balsum.power_sum(1, 1, x), "index"),
    (balsum.verify_odd_power_identity, "l"),
    (balsum.verify_even_power_identity, "l"),
    (balsum.verify_subsequence_recurrence, "m"),
    (lambda x: balsum.verify_power_sum_formula(x, 2), "m"),
    (lambda x: balsum.verify_power_sum_formula(2, x), "l"),
    (lambda x: balsum.ALPHA**x, "exponent"),
    (lambda x: balsum.LaurentPoly.monomial(1) ** x, "exponent"),
    (lambda x: balsum.LaurentPoly({x: 1}), "exponent"),
    (lambda x: balsum.LaurentPoly({x: 0}), "exponent"),
    (balsum.LaurentPoly.monomial, "exponent"),
    (balsum.LaurentPoly.one().coefficient, "exponent"),
]
ARGUMENT_ERRORS += [
    (partial(call, value), f"{name} must be an integer, got {value!r}")
    for call, name in INTEGER_ARGUMENTS
    for value in (2.0, True, "2", None)
]


@pytest.mark.parametrize("call, message", ARGUMENT_ERRORS)
def test_argument_error_messages(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_every_value_error_is_pinned_by_its_message():
    # A bare pytest.raises(ValueError) passes on any refusal, the wrong one
    # too: each refusal's test names its message, in the table above, in
    # test_cli's TestUsageMessages or in test_summation's reader tables.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(__file__).resolve().parent.glob("**/*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and ast.unparse(node.func) == "pytest.raises"
        and [ast.unparse(arg) for arg in node.args] == ["ValueError"]
        and not any(keyword.arg == "match" for keyword in node.keywords)
    ]
    assert not found, " ".join(found)


def test_argument_error_message_over_digit_limit(default_digit_limit):
    with pytest.raises(ValueError, match=r"^index must be non-negative, got -10{5000}$"):
        balsum.balancing(-(10**5000))
