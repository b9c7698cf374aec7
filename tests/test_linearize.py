import importlib
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsum.arith import InexactResultError
from balsum.linearize import LinearForm, _affine_value, linearize, linearize_even, linearize_odd
from balsum.sequences import balancing, balancing_pair, sequence_table
from balsum.summation import power_sum_formula


def test_odd_l0_is_identity():
    form = linearize_odd(0)
    assert form.power == 1
    assert form.constant == 0
    assert form.terms == (((1, 0), Fraction(1)),)


def test_odd_l1_coefficients():
    form = linearize_odd(1)
    assert dict(form.terms) == {(3, 0): Fraction(1, 32), (1, 0): Fraction(-3, 32)}
    assert form.constant == 0


def test_odd_l1_value():
    # (B(6) - 3*B(2)) / 32 = (6930 - 18) / 32 = 216 = B(2)**3
    assert linearize_odd(1).value_at(2) == 216


def test_even_l1_coefficients():
    form = linearize_even(1)
    assert dict(form.terms) == {
        (2, 0): Fraction(1, 96) - Fraction(6, 32),  # merged: -17/96
        (2, 1): Fraction(1, 96),
    }
    assert dict(form.terms)[(2, 0)] == Fraction(-17, 96)
    assert form.constant == Fraction(-1, 16)


def test_even_l1_values():
    form = linearize_even(1)
    # (6 + 204)/96 - 6*6/32 - 1/16 = 35/16 - 9/8 - 1/16 = 1 = B(1)**2
    assert form.value_at(1) == 1
    assert form.value_at(0) == 0


def test_bterms_are_stride_offset_triples():
    # B(2(n+1)) is B(2n + 2).
    assert linearize(2).bterms == ((Fraction(-17, 96), 2, 0), (Fraction(1, 96), 2, 2))
    assert linearize(3).bterms == ((Fraction(1, 32), 3, 0), (Fraction(-3, 32), 1, 0))


def test_dispatch():
    assert linearize(3) == linearize_odd(1)
    assert linearize(2) == linearize_even(1)
    assert linearize(1).terms == (((1, 0), Fraction(1)),)


def test_power_zero_rejected():
    with pytest.raises(ValueError):
        linearize(0)
    with pytest.raises(ValueError):
        linearize_even(0)
    with pytest.raises(ValueError):
        linearize_odd(-1)


def test_oracle_equivalence():
    for power in range(1, 9):
        form = linearize(power)
        for n in range(21):
            assert form.value_at(n) == balancing(n) ** power


def test_term_counts():
    for l in range(7):
        assert len(linearize_odd(l).terms) == l + 1
    for l in range(1, 7):
        form = linearize_even(l)
        assert len(form.terms) <= 2 * l
        assert form.constant != 0


def test_odd_denominators_divide_power_of_two():
    for l in range(7):
        for _, coeff in linearize_odd(l).terms:
            assert 2 ** (5 * l) % coeff.denominator == 0


def test_even_constant_cancels_at_zero():
    # At n = 0 the B-terms must cancel the constant exactly.
    for l in range(1, 7):
        form = linearize_even(l)
        assert form.exact_value_at(0) == 0


def test_no_zero_coefficients_stored():
    for power in range(1, 13):
        for _, coeff in linearize(power).terms:
            assert coeff != 0


def test_negative_index_rejected():
    with pytest.raises(ValueError):
        linearize(2).value_at(-1)


def test_inexact_evaluation_is_hard_error():
    form = linearize(2)
    broken = LinearForm(form.power, form.constant + Fraction(1, 7), form.terms)
    with pytest.raises(InexactResultError, match="^LinearForm for power 2 at n=1 is not an integer: 8/7$"):
        broken.value_at(1)
    expr = power_sum_formula(2, 3)
    broken_sum = expr._replace(constant=expr.constant + Fraction(1, 3))
    message = "^ClosedSumExpr for power 3 at n=4 is not an integer: 39141752092554529/3$"
    with pytest.raises(InexactResultError, match=message):
        broken_sum.value_at(4)


def test_render():
    assert linearize(3).render() == "(1/32)*B(3n) - (3/32)*B(n)"
    assert linearize(1).render() == "B(n)"
    assert linearize(2).render() == "-(17/96)*B(2n) + (1/96)*B(2(n+1)) - 1/16"


def test_render_labels_follow_the_term_index():
    # B(j(n+1)) only at shift 1 with j > 1; any other offset is B(jn+o).
    assert LinearForm(1, Fraction(0), (((1, 2), Fraction(1)),)).render() == "B(n+2)"
    doc = {"power": 1, "constant": "0", "terms": [{"multiplier": 3, "shift": 2, "coeff": "1"}]}
    assert LinearForm.from_json_dict(doc).render() == "B(3n+6)"
    assert LinearForm(1, Fraction(0), (((1, 1), Fraction(1)),)).render() == "B(n+1)"


def test_render_empty_form_is_zero():
    assert LinearForm(1, Fraction(0), ()).render() == "0"


def test_json_dict_schema_and_order():
    doc = linearize(3).to_json_dict()
    assert doc == {
        "power": 3,
        "constant": "0",
        "terms": [
            {"multiplier": 3, "shift": 0, "coeff": "1/32"},
            {"multiplier": 1, "shift": 0, "coeff": "-3/32"},
        ],
    }


def test_json_round_trip():
    for power in (1, 2, 3, 4, 7):
        form = linearize(power)
        assert LinearForm.from_json_dict(form.to_json_dict()) == form


def test_affine_value_matches_termwise_recurrence_sum():
    # The evaluator groups terms by stride and shifts by the addition
    # formula; summing term by term over a recurrence table must agree.
    table = sequence_table(12 * 31)
    for power in range(1, 13):
        form = linearize(power)
        for n in range(31):
            expected = form.constant + sum(
                coeff * table[stride * n + offset] for coeff, stride, offset in form.bterms
            )
            assert _affine_value(form.constant, 0, form.bterms, n) == expected


@settings(deadline=None)
@given(st.integers(1, 10), st.integers(0, 40))
def test_linearize_matches_power_property(power, n):
    assert linearize(power).value_at(n) == balancing(n) ** power


@settings(deadline=None)
@given(st.integers(1, 10))
def test_json_round_trip_property(power):
    form = linearize(power)
    assert LinearForm.from_json_dict(form.to_json_dict()) == form


def test_even_coefficients_match_the_papers_form():
    # The paper gives B(jn) the coefficient 2c/B(j) - c*B(j)/B(j/2)**2 and
    # B(j(n+1)) the coefficient 2c/B(j), with j = 2(l-s) and
    # c = (-1)**s * C(2l, s) / 2**(5l); the derivation reaches it through C(j).
    for l in range(1, 21):
        expected = {}
        for s in range(l):
            j = 2 * (l - s)
            c = Fraction((-1) ** s * comb(2 * l, s), 2 ** (5 * l))
            expected[(j, 1)] = 2 * c / balancing(j)
            expected[(j, 0)] = 2 * c / balancing(j) - c * balancing(j) / balancing(j // 2) ** 2
        assert dict(linearize_even(l).terms) == expected


def test_json_form_with_negative_shift_evaluates():
    # B(3n-3) at n = 5 is B(12); an offset below zero reads B(-k) = -B(k).
    doc = {"power": 1, "constant": "0", "terms": [{"multiplier": 3, "shift": -1, "coeff": "1"}]}
    form = LinearForm.from_json_dict(doc)
    assert form.render() == "B(3n-3)"
    assert form.value_at(5) == balancing(12)
    assert form.value_at(0) == -balancing(3)


def test_affine_value_takes_one_large_pair_per_stride(monkeypatch):
    calls = []

    def recording_pair(k):
        calls.append(k)
        return balancing_pair(k)

    # The package exports the function linearize under the module's name.
    monkeypatch.setattr(importlib.import_module("balsum.linearize"), "balancing_pair", recording_pair)
    form = linearize(12)
    n = 1000
    assert form.value_at(n) == balancing(n) ** 12
    strides = {stride for _, stride, _ in form.bterms}
    assert sorted(k for k in calls if k >= n) == sorted(stride * n for stride in strides)


def _signed_table_value(table, k):
    return table[k] if k >= 0 else -table[-k]


coeffs = st.fractions(min_value=-100, max_value=100, max_denominator=50)
signed_index = st.integers(-8, 8)


@settings(deadline=None)
@given(
    coeffs,
    coeffs,
    st.lists(st.tuples(coeffs, signed_index, signed_index), max_size=8),
    st.integers(0, 30),
)
def test_affine_value_matches_signed_table_property(constant, linear, bterms, n):
    # Strides and offsets of either sign, against a direct sum over the
    # recurrence table extended by B(-k) = -B(k).
    table = sequence_table(8 * 30 + 8)
    expected = constant + linear * (n + 1) + sum(
        coeff * _signed_table_value(table, stride * n + offset) for coeff, stride, offset in bterms
    )
    assert _affine_value(constant, linear, bterms, n) == expected
