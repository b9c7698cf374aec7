import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from balsum import laurent, summation
from balsum.arith import ALPHA, QUAD_ONE, QUAD_ZERO, QuadElem
from balsum.laurent import (
    LaurentPoly,
    encode,
    verify_even_power_identity,
    verify_odd_power_identity,
    verify_power_sum_formula,
    verify_subsequence_recurrence,
)
from balsum.linearize import LinearForm, linearize, linearize_even, linearize_odd
from balsum.sequences import balancing
from balsum.summation import ClosedSumExpr, GFParams, gf_params, power_sum_formula

X = LaurentPoly.monomial(1)
X_INV = LaurentPoly.monomial(-1)

laurent_polys = st.dictionaries(
    st.integers(-4, 4), st.integers(-5, 5), max_size=5
).map(LaurentPoly)


def test_difference_of_squares():
    assert (X - X_INV) * (X + X_INV) == LaurentPoly({2: 1, -2: -1})


def test_scale_by_zero_gives_empty_support():
    assert (X * 0).is_zero()
    assert (X * 0).support == ()


def test_cube_expansion():
    cube = (X - X_INV) ** 3
    assert cube == LaurentPoly({3: 1, 1: -3, -1: 3, -3: -1})


def test_pow_zero_is_one():
    assert (X - X_INV) ** 0 == LaurentPoly.one()
    with pytest.raises(ValueError):
        (X - X_INV) ** -1


def test_cancellation_purges_support():
    p = LaurentPoly({1: 1, 0: 2})
    q = LaurentPoly({1: -1, 0: 3})
    assert (p + q).support == (0,)


def test_quad_coefficients():
    p = LaurentPoly({1: ALPHA, -1: ALPHA.conj()})
    assert p.coefficient(1) == ALPHA
    assert p.coefficient(7) == QuadElem(0)
    assert (p * QuadElem(0, 1)).coefficient(1) == ALPHA * QuadElem(0, 1)


@given(laurent_polys, laurent_polys)
def test_add_commutes(p, q):
    assert p + q == q + p


@given(laurent_polys, laurent_polys)
def test_mul_commutes(p, q):
    assert p * q == q * p


@given(laurent_polys, laurent_polys, laurent_polys)
def test_mul_associates(p, q, r):
    assert (p * q) * r == p * (q * r)


@given(laurent_polys, laurent_polys, laurent_polys)
def test_distributivity(p, q, r):
    assert p * (q + r) == p * q + p * r


@given(laurent_polys, laurent_polys)
def test_support_bound(p, q):
    assert len((p * q).support) <= len(p.support) * len(q.support)


@given(laurent_polys, laurent_polys)
def test_evaluation_at_one_is_multiplicative(p, q):
    one = QUAD_ONE
    assert (p * q).evaluate(one) == p.evaluate(one) * q.evaluate(one)


def dict_product(p, q):
    """The product by one QuadElem product per pair of coefficients: the
    dict double loop LaurentPoly.__mul__ once ran, kept as its oracle."""
    product = {}
    for e1 in p.support:
        for e2 in q.support:
            e = e1 + e2
            product[e] = product.get(e, QUAD_ZERO) + p.coefficient(e1) * q.coefficient(e2)
    return LaurentPoly(product)


# Signed numerators of every size up to 2**96, wider than a machine word, and
# denominators that rarely cancel: mixed signs make the borrows cross digit
# borders.
numerators = st.one_of(st.integers(-9, 9), st.integers(-(2**96), 2**96))
rational_coefficients = st.builds(Fraction, numerators, st.integers(1, 2**70))
scalars = st.one_of(
    st.builds(QuadElem, rational_coefficients, rational_coefficients), numerators, rational_coefficients
)


@st.composite
def sparse_polys(draw):
    # Exponents offset + step*k on one step per polynomial, so that two
    # operands may share no step but 1 (multiples of 2 against 3).
    step, offset = draw(st.sampled_from([1, 2, 3, 5, 12])), draw(st.integers(-30, 30))
    exponents = st.integers(-8, 8).map(lambda k: offset + step * k)
    return LaurentPoly(draw(st.dictionaries(exponents, scalars, max_size=8)))


@given(sparse_polys(), sparse_polys(), scalars)
def test_product_matches_the_dict_product(p, q, scalar):
    assert p * q == dict_product(p, q)
    assert p * p == dict_product(p, p)
    constant = LaurentPoly({0: scalar})
    assert p * scalar == scalar * p == dict_product(p, constant)
    assert constant * q == dict_product(constant, q)
    assert LaurentPoly() * q == q * LaurentPoly() == LaurentPoly()


def test_product_at_the_digit_bound():
    # Equal coefficients make the middle digits of a square as large as the
    # width allows, at every digit size in turn; a pure sqrt 2 part doubles
    # the rational digits (2*q*q).
    for bits in range(140):
        for coeff in (QuadElem(0, 2**bits), QuadElem(2**bits, 2**bits), QuadElem(-(2**bits), 2**bits - 1)):
            for length in (1, 2, 5):
                p = LaurentPoly({e: coeff for e in range(length)})
                assert p * p == dict_product(p, p), (bits, coeff, length)


def test_repr():
    assert repr(LaurentPoly()) == "LaurentPoly(0)"
    assert repr(LaurentPoly({-1: ALPHA, 2: 3})) == "LaurentPoly((3)*X^2 + (3 + 2*sqrt2)*X^-1)"


def test_unsupported_operands():
    p = X - X_INV
    assert (LaurentPoly.one() == 1) is False
    for operation in (lambda: p + 1, lambda: p - 1, lambda: p * "2"):
        with pytest.raises(TypeError):
            operation()


def test_polynomials_are_unhashable():
    # Equality compares the coefficients; nothing hashes a polynomial.
    with pytest.raises(TypeError):
        hash(LaurentPoly.one())


def test_evaluate_requires_invertible_point():
    with pytest.raises(ZeroDivisionError):
        X_INV.evaluate(QuadElem(0))


def test_evaluate_spot():
    p = (X - X_INV) ** 2
    a = ALPHA
    expected = (a - a.inverse()) * (a - a.inverse())
    assert p.evaluate(a) == expected


def test_odd_identity_small_cases():
    assert verify_odd_power_identity(0)
    assert verify_odd_power_identity(1)


def test_odd_identity_range():
    for l in range(11):
        assert verify_odd_power_identity(l)


def test_odd_identity_needs_lower_terms():
    # Dropping the s >= 1 terms must break the expansion.
    lhs = (X - X_INV) ** 3
    assert lhs != LaurentPoly({3: 1, -3: -1})


def test_even_identity_range():
    for l in range(1, 7):
        assert verify_even_power_identity(l)


def test_even_identity_rejects_zero():
    with pytest.raises(ValueError):
        verify_even_power_identity(0)


def test_subsequence_recurrence_range():
    for m in range(2, 21):
        assert verify_subsequence_recurrence(m)


def test_subsequence_recurrence_rejects_base_case():
    with pytest.raises(ValueError):
        verify_subsequence_recurrence(1)


def test_odd_identity_rejects_negative():
    with pytest.raises(ValueError):
        verify_odd_power_identity(-1)


def test_verifier_agrees_with_evaluator():
    # Whenever the polynomial identity holds, the evaluated form must too.
    for l in range(4):
        assert verify_odd_power_identity(l)
        form = linearize(2 * l + 1)
        for n in range(8):
            assert form.value_at(n) == balancing(n) ** (2 * l + 1)
    for l in range(1, 4):
        assert verify_even_power_identity(l)
        form = linearize(2 * l)
        for n in range(8):
            assert form.value_at(n) == balancing(n) ** (2 * l)


def test_mixed_scalar_multiplication():
    p = X - X_INV
    assert p * Fraction(1, 2) == LaurentPoly({1: Fraction(1, 2), -1: Fraction(-1, 2)})
    assert 3 * p == LaurentPoly({1: 3, -1: -3})


def _signed_balancing(i):
    # The Binet form extends B to negative indices as B(-i) = -B(i).
    return balancing(i) if i >= 0 else -balancing(-i)


def test_encode_pins_balancing_at_affine_indices():
    for s in range(1, 5):
        for o in range(-3, 6):
            poly = encode([(1, s, o)])
            for n in range(2, 8):
                assert poly.evaluate(ALPHA**n) == _signed_balancing(s * n + o)


def test_encode_constant_and_merged_terms():
    assert encode([], 5) == LaurentPoly({0: 5})
    assert encode([(1, 2, 0), (-1, 2, 0)]).is_zero()


def test_odd_verifier_rejects_changed_coefficient(monkeypatch):
    form = linearize_odd(2)
    (key, coeff), *rest = form.terms
    changed = LinearForm(form.power, form.constant, ((key, coeff + 1), *rest))
    monkeypatch.setattr(laurent, "linearize_odd", lambda l: changed)
    assert not verify_odd_power_identity(2)


def test_even_verifier_rejects_unscaled_constant(monkeypatch):
    # The criterion-4 literal: the constant left unscaled by 2**(5l).
    form = linearize_even(1)
    literal = LinearForm(form.power, Fraction(-2), form.terms)
    monkeypatch.setattr(laurent, "linearize_even", lambda l: literal)
    assert not verify_even_power_identity(1)


def test_recurrence_verifier_rejects_wrong_middle(monkeypatch):
    def wrong(m):
        params = gf_params(m)
        return GFParams(params.numer, params.middle + 1, params.m)

    monkeypatch.setattr(laurent, "gf_params", wrong)
    assert not verify_subsequence_recurrence(3)


def test_power_sum_formula_verifier_sees_the_gf_middle(monkeypatch):
    # The telescoped sum divides by middle - 2, the gf_params coefficient
    # that verify_subsequence_recurrence proves; a wrong middle must show.
    def wrong(m):
        params = gf_params(m)
        return GFParams(params.numer, params.middle + 1, params.m)

    monkeypatch.setattr(summation, "gf_params", wrong)
    assert not verify_power_sum_formula(2, 3)


def test_power_sum_formula_verifier_range():
    for m in range(1, 7):
        for l in range(1, 9):
            assert verify_power_sum_formula(m, l)


def test_power_sum_formula_verifier_rejects_perturbed_forms(monkeypatch):
    expr = power_sum_formula(2, 3)
    (coeff, stride, offset), *rest = expr.bterms
    perturbed = [
        # Caught by S(0) = 0 alone: a constant cancels from S(n) - S(n-1).
        ClosedSumExpr(expr.m, expr.power, expr.bterms, expr.linear_coeff, expr.constant + 1),
        ClosedSumExpr(
            expr.m, expr.power, ((coeff * 2, stride, offset), *rest), expr.linear_coeff, expr.constant
        ),
        ClosedSumExpr(expr.m, expr.power, expr.bterms, expr.linear_coeff + 1, expr.constant),
    ]
    for wrong in perturbed:
        monkeypatch.setattr(laurent, "power_sum_formula", lambda m, l: wrong)
        assert not verify_power_sum_formula(2, 3)


def test_power_sum_formula_verifier_reads_only_the_record(monkeypatch):
    # The proof encodes the record's fields and never runs the evaluator it
    # checks: a wrong evaluator changes no verdict, either way.
    linearize_module = sys.modules["balsum.linearize"]
    evaluator = linearize_module._affine_value
    monkeypatch.setattr(linearize_module, "_affine_value", lambda *args: evaluator(*args) + 1)
    assert verify_power_sum_formula(2, 3)
    test_power_sum_formula_verifier_rejects_perturbed_forms(monkeypatch)


def test_power_sum_formula_verifier_rejects_bad_arguments():
    with pytest.raises(ValueError):
        verify_power_sum_formula(0, 1)
    with pytest.raises(ValueError):
        verify_power_sum_formula(1, 0)


def test_shifted_closed_sums_hold_as_identities(monkeypatch):
    # The record shifted_closed_sum evaluates, proved for every n by the
    # proof of verify_power_sum_formula: S(n) - S(n-1) = B(m*n + r) and
    # S(0) = B(r).
    derive, records = summation._summed, []

    def recording(m, form):
        records.append(derive(m, form))
        return records[-1]

    monkeypatch.setattr(summation, "_summed", recording)
    for m in range(1, 7):
        for r in range(7):
            assert summation.shifted_closed_sum(m, r, 0) == balancing(r)
            (expr,) = records
            records.clear()
            assert laurent._proves_sum(expr, encode([(1, m, r)]))


def test_power_sum_formulas_hold_in_sympy():
    # A second oracle, sharing no arithmetic with encode: in sympy's
    # Q(sqrt 2)[X, 1/X], X = ALPHA**n, B(s*n + o) is
    # (ALPHA**o * X**s - BETA**o * X**-s) / (4*sqrt 2), and ALPHA*BETA = 1.
    sympy = pytest.importorskip("sympy")
    x, root2 = sympy.Symbol("X"), sympy.sqrt(2)
    alpha, beta = 3 + 2 * root2, 3 - 2 * root2

    def b(s, o):
        up, down = (alpha, beta) if o >= 0 else (beta, alpha)
        return (up ** abs(o) * x**s - down ** abs(o) * x**-s) / (4 * root2)

    def rational(value):
        return sympy.Rational(value.numerator, value.denominator)

    def terms(bterms):
        return sum(rational(coeff) * b(s, o) for coeff, s, o in bterms)

    for m in range(1, 5):
        for l in range(1, 9):
            expr = power_sum_formula(m, l)
            linear, constant = rational(expr.linear_coeff), rational(expr.constant)
            previous = [(coeff, s, o - s) for coeff, s, o in expr.bterms]
            step = terms(expr.bterms) - terms(previous) + linear
            assert sympy.expand(step - b(m, 0) ** l) == 0, (m, l)
            # At n = 0, X = 1: the empty sum.
            assert sympy.expand(terms(expr.bterms).subs(x, 1) + linear + constant) == 0, (m, l)
