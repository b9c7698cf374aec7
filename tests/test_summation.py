import importlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsum import sequences, summation
from balsum.arith import QuadElem
from balsum.linearize import LinearForm, linearize
from balsum.sequences import balancing, balancing_pair, lucas_balancing
from balsum.summation import (
    ClosedSumExpr,
    GFParams,
    brute_force_power_sum,
    closed_sum,
    gf_params,
    power_sum,
    power_sum_formula,
    shifted_closed_sum,
    subsequence_gf_check,
)


def test_gf_params_values():
    assert gf_params(1).numer == 1 and gf_params(1).middle == 6
    assert gf_params(2).numer == 6 and gf_params(2).middle == 34
    assert gf_params(3).numer == 35 and gf_params(3).middle == 198


def test_gf_params_middle_is_twice_companion():
    for m in range(1, 31):
        params = gf_params(m)
        assert params.middle == 2 * lucas_balancing(m)
        assert params.middle >= 6
        assert params.middle**2 - 4 > 0


def test_gf_params_rejects_zero():
    with pytest.raises(ValueError):
        gf_params(0)


def test_subsequence_gf_check():
    assert subsequence_gf_check(1, 10)
    assert subsequence_gf_check(2, 10)
    assert subsequence_gf_check(5, 8)
    for m in range(1, 7):
        assert subsequence_gf_check(m, 10)


def test_subsequence_gf_check_catches_a_scaled_evaluator(monkeypatch):
    # An evaluator wrong by the same factor everywhere scales both B(m) and
    # every B(k*m) it gives; the check must read its series elsewhere.
    def scaled_pair(n):
        b, c = balancing_pair(n)
        return 2 * b, c

    monkeypatch.setattr(sequences, "balancing_pair", scaled_pair)
    monkeypatch.setattr(summation, "balancing_pair", scaled_pair)
    assert not subsequence_gf_check(3, 10)


def test_subsequence_gf_check_arguments():
    with pytest.raises(ValueError):
        subsequence_gf_check(0, 10)
    with pytest.raises(ValueError):
        subsequence_gf_check(2, 1)


def test_closed_sum_spot_values():
    assert closed_sum(1, 4) == 246  # (1189 - 204 - 1) / 4
    assert closed_sum(1, 0) == 0
    assert closed_sum(2, 2) == 210  # (6930 - 204 - 6) / 32


def test_closed_sum_against_brute_force():
    for m in range(1, 7):
        for n in range(31):
            assert closed_sum(m, n) == brute_force_power_sum(m, 1, n)


def test_denominator_never_vanishes():
    for m in range(1, 51):
        assert 2 * lucas_balancing(m) - 2 >= 4


def test_shifted_closed_sum_spot_values():
    assert shifted_closed_sum(2, 1, 1) == balancing(1) + balancing(3) == 36
    assert shifted_closed_sum(3, 0, 2) == closed_sum(3, 2) == 6965
    assert shifted_closed_sum(1, 0, 0) == 0


def test_shifted_closed_sum_against_brute_force():
    for m in range(1, 6):
        for r in range(9):
            for n in range(21):
                direct = sum(balancing(k * m + r) for k in range(n + 1))
                assert shifted_closed_sum(m, r, n) == direct


def test_brute_force_spot_values():
    assert brute_force_power_sum(1, 1, 4) == 246
    assert brute_force_power_sum(2, 1, 2) == 210
    assert brute_force_power_sum(1, 5, 0) == 0


def test_power_sum_spot_values():
    assert power_sum(1, 3, 2) == 217
    assert power_sum(1, 2, 2) == 37
    assert power_sum(2, 2, 2) == 41652


def test_power_sum_against_brute_force():
    for m in range(1, 4):
        for l in range(1, 5):
            for n in range(11):
                assert power_sum(m, l, n) == brute_force_power_sum(m, l, n)


@pytest.mark.parametrize("m, l, n", [(1, 3, 2000), (3, 10, 1000), (12, 24, 100)])
def test_power_sum_against_brute_force_at_large_index(m, l, n):
    assert power_sum(m, l, n) == brute_force_power_sum(m, l, n)


def test_brute_force_does_not_use_the_evaluator(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle must not call the evaluator")

    monkeypatch.setattr(summation, "balancing", refuse)
    monkeypatch.setattr(importlib.import_module("balsum.linearize"), "_affine_value", refuse)
    assert brute_force_power_sum(2, 3, 4) == sum(balancing(2 * k) ** 3 for k in range(5))


def test_power_sum_telescoping():
    for m in (1, 2, 3):
        for l in (1, 2, 3, 4):
            for n in range(1, 16):
                step = power_sum(m, l, n) - power_sum(m, l, n - 1)
                assert step == balancing(n * m) ** l


def test_argument_validation():
    for bad_call in (
        lambda: closed_sum(0, 3),
        lambda: closed_sum(1, -1),
        lambda: shifted_closed_sum(0, 0, 0),
        lambda: shifted_closed_sum(1, -1, 0),
        lambda: shifted_closed_sum(1, 0, -1),
        lambda: power_sum(1, 1, -1),
        lambda: power_sum(1, 0, 5),
        lambda: power_sum(0, 1, 5),
        lambda: brute_force_power_sum(1, 1, -2),
    ):
        with pytest.raises(ValueError):
            bad_call()
    # The same arguments, given a value whose type is not exactly int.
    for value in (2.0, True, "2", None):
        for call, args, name in (
            (closed_sum, (value, 3), "m"),
            (closed_sum, (1, value), "index"),
            (shifted_closed_sum, (value, 0, 0), "m"),
            (shifted_closed_sum, (1, value, 0), "r"),
            (shifted_closed_sum, (1, 0, value), "index"),
            (power_sum, (1, 1, value), "index"),
            (power_sum, (1, value, 5), "l"),
            (power_sum, (value, 1, 5), "m"),
            (brute_force_power_sum, (1, 1, value), "n"),
        ):
            message = f"^{name} must be an integer, got {re.escape(repr(value))}$"
            with pytest.raises(ValueError, match=message):
                call(*args)


def test_power_sum_reads_its_index_before_the_derivation(monkeypatch):
    # A bad n is refused at once, not after the whole closed form is derived.
    def derivation(m, l):
        raise AssertionError("power_sum derived a closed form for a bad index")

    monkeypatch.setattr(summation, "power_sum_formula", derivation)
    with pytest.raises(ValueError, match=r"^index must be an integer, got 2\.0$"):
        power_sum(3, 5, 2.0)


def test_formula_m1_l1_structure():
    expr = power_sum_formula(1, 1)
    assert expr.bterms == (
        (Fraction(1, 4), 1, 1),
        (Fraction(-1, 4), 1, 0),
    )
    assert expr.linear_coeff == 0
    assert expr.constant == Fraction(-1, 4)
    assert expr.render() == "(1/4)*B(n+1) - (1/4)*B(n) - 1/4"


def test_formula_m2_l1_render():
    assert power_sum_formula(2, 1).render() == "(1/32)*B(2n+2) - (1/32)*B(2n) - 3/16"


def test_formula_render_with_linear_term():
    assert power_sum_formula(1, 2).render() == (
        "(1/3072)*B(2n+4) - (3/512)*B(2n+2) + (17/3072)*B(2n) - (1/16)*(n+1) + 1/32"
    )


def test_formula_render_empty_is_zero():
    assert ClosedSumExpr(1, 1, (), Fraction(0), Fraction(0)).render() == "0"


def test_formula_agrees_with_power_sum():
    for m in range(1, 4):
        for l in range(1, 6):
            expr = power_sum_formula(m, l)
            for n in range(13):
                assert expr.value_at(n) == power_sum(m, l, n)


def test_formula_m1_l1_value():
    assert power_sum_formula(1, 1).value_at(4) == 246


def test_formula_even_power_at_zero():
    assert power_sum_formula(1, 2).value_at(0) == 0


def test_formula_json_round_trip():
    for m, l in ((1, 1), (2, 3), (3, 2)):
        expr = power_sum_formula(m, l)
        doc = expr.to_json_dict()
        assert list(doc) == ["m", "power", "bterms", "linear_coeff", "constant"]
        assert ClosedSumExpr.from_json_dict(doc) == expr


def test_formula_over_digit_limit_renders_and_round_trips(default_digit_limit):
    # A 4,596-digit denominator, written and read back in this process under
    # the default int/str limit, with no caller lifting it.
    expr = power_sum_formula(3000, 2)
    assert max(c.denominator for c, _, _ in expr.bterms) > 10**4300
    assert expr.render().endswith(")*B(6000n) - (1/16)*(n+1) + 1/32")
    doc = json.loads(json.dumps(expr.to_json_dict()))
    assert ClosedSumExpr.from_json_dict(doc) == expr
    form = LinearForm(2, Fraction(-1, 10**5000 + 1), (((2, 1), Fraction(10**5000, 7)),))
    assert LinearForm.from_json_dict(json.loads(json.dumps(form.to_json_dict()))) == form


def test_reprs_over_digit_limit(default_digit_limit, digit_limit):
    # Under the default int/str limit each repr writes what repr writes of
    # its fields with the limit lifted; the form's one term is a 1-tuple.
    expr, params = power_sum_formula(3000, 2), gf_params(6000)
    quad = QuadElem(Fraction(1, 10**5000 + 1), 1)
    form = LinearForm(2, Fraction(-1, 10**5000 + 1), (((2, 1), Fraction(10**5000, 7)),))
    texts = [repr(expr), repr(params), repr(quad), repr(form)]
    with digit_limit(0):
        assert texts == [
            f"ClosedSumExpr(m=3000, power=2, bterms={expr.bterms!r}, "
            f"linear_coeff={expr.linear_coeff!r}, constant={expr.constant!r})",
            f"GFParams(numer={params.numer!r}, middle={params.middle!r}, m=6000)",
            f"QuadElem(a={quad.a!r}, b=Fraction(1, 1))",
            f"LinearForm(power=2, constant={form.constant!r}, terms={form.terms!r})",
        ]
    assert max(map(len, texts)) > 9000


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 10), st.integers(0, 40))
def test_formula_matches_brute_force_property(m, l, n):
    assert power_sum_formula(m, l).value_at(n) == brute_force_power_sum(m, l, n)


@settings(deadline=None)
@given(st.integers(1, 6), st.integers(1, 10))
def test_formula_json_round_trip_property(m, l):
    expr = power_sum_formula(m, l)
    assert ClosedSumExpr.from_json_dict(expr.to_json_dict()) == expr


def test_brute_force_does_not_call_the_doubling(monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle must not call the doubling evaluator")

    monkeypatch.setattr(summation, "balancing_pair", refuse)
    assert brute_force_power_sum(3, 2, 4) == sum(balancing(3 * k) ** 2 for k in range(5))


def _json_with_bterms(expr, bterms, constant):
    doc = expr.to_json_dict()
    doc["bterms"] = [{"coeff": str(c), "stride": s, "offset": o} for c, s, o in bterms]
    doc["constant"] = str(constant)
    return doc


def test_json_closed_sum_with_negative_offsets_evaluates():
    # S(n-1): every term B(s*n + o) moves to offset o - s, which is negative
    # at o = 0, and the linear part loses one step.  At n = 0 it is the empty sum.
    for m, l in ((1, 1), (2, 3), (3, 2)):
        expr = power_sum_formula(m, l)
        moved = [(coeff, s, o - s) for coeff, s, o in expr.bterms]
        assert any(o < 0 for _, _, o in moved)
        previous = ClosedSumExpr.from_json_dict(
            _json_with_bterms(expr, moved, expr.constant - expr.linear_coeff)
        )
        assert previous.value_at(0) == 0
        for n in range(1, 12):
            assert previous.value_at(n) == brute_force_power_sum(m, l, n - 1)


def test_json_closed_sum_with_negative_strides_evaluates():
    # coeff * B(s*n + o) is (-coeff) * B(-s*n - o).
    for m, l in ((1, 1), (2, 3), (3, 2)):
        expr = power_sum_formula(m, l)
        mirrored = [(-coeff, -s, -o) for coeff, s, o in expr.bterms]
        flipped = ClosedSumExpr.from_json_dict(_json_with_bterms(expr, mirrored, expr.constant))
        for n in range(12):
            assert flipped.value_at(n) == brute_force_power_sum(m, l, n)


def test_record_types_keep_repr_equality_hash_and_immutability():
    assert repr(linearize(3)) == (
        "LinearForm(power=3, constant=Fraction(0, 1), "
        "terms=(((3, 0), Fraction(1, 32)), ((1, 0), Fraction(-3, 32))))"
    )
    assert repr(power_sum_formula(2, 1)) == (
        "ClosedSumExpr(m=2, power=1, bterms=((Fraction(1, 32), 2, 2), "
        "(Fraction(-1, 32), 2, 0)), linear_coeff=Fraction(0, 1), constant=Fraction(-3, 16))"
    )
    assert repr(gf_params(2)) == "GFParams(numer=6, middle=34, m=2)"

    form, expr, params = linearize(2), power_sum_formula(2, 1), gf_params(2)
    assert LinearForm(power=2, constant=form.constant, terms=form.terms) == form
    assert ClosedSumExpr(
        m=2, power=1, bterms=expr.bterms, linear_coeff=expr.linear_coeff, constant=expr.constant
    ) == expr
    assert GFParams(numer=6, middle=34, m=2) == params
    read_back = LinearForm.from_json_dict(form.to_json_dict())
    assert read_back == form and hash(read_back) == hash(form)

    for record, field in ((form, "terms"), (expr, "constant"), (params, "middle")):
        for attr in (field, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, attr, 0)


def test_equal_closed_sums_read_from_json_are_equal():
    # B(3n) once, and as two halves beside a zero term: one value, one record.
    expr = power_sum_formula(2, 1)
    whole = _json_with_bterms(expr, [(1, 3, 0)], expr.constant)
    halves = _json_with_bterms(expr, [(Fraction(1, 2), 3, 0)] * 2 + [(0, 2, 1)], expr.constant)
    one, other = ClosedSumExpr.from_json_dict(whole), ClosedSumExpr.from_json_dict(halves)
    assert one == other and hash(one) == hash(other)
    assert other.render() == "B(3n) - 3/16"


def test_readers_sum_duplicate_keys_and_drop_zero_terms():
    expr = power_sum_formula(2, 1)
    bterms = [(2, 1, 0), (-2, 1, 0), (1, 2, 0), (Fraction(1, 3), 2, 2), (Fraction(2, 3), 2, 2), (-1, 1, 5)]
    read = ClosedSumExpr.from_json_dict(_json_with_bterms(expr, bterms, expr.constant))
    assert read.bterms == ((1, 2, 2), (1, 2, 0), (-1, 1, 5))
    terms = [(3, 0, "1/4"), (1, 1, "1"), (3, 0, "-1/4"), (1, 0, "2"), (1, 1, "-1/2")]
    doc = {
        "power": 1,
        "constant": "0",
        "terms": [{"multiplier": j, "shift": s, "coeff": c} for j, s, c in terms],
    }
    assert LinearForm.from_json_dict(doc).terms == (((1, 0), 2), ((1, 1), Fraction(1, 2)))


@pytest.mark.parametrize("value", [1.0, 0.5, "1", True, False], ids=repr)
@pytest.mark.parametrize("field", ["multiplier", "shift", "stride", "offset"])
def test_readers_reject_keys_that_are_not_integers(field, value):
    if field in ("multiplier", "shift"):
        term = {"multiplier": 1, "shift": 0, "coeff": "1", field: value}
        reader, doc = LinearForm, {"power": 1, "constant": "0", "terms": [term]}
    else:
        term = {"coeff": "1", "stride": 1, "offset": 0, field: value}
        reader, doc = ClosedSumExpr, dict(power_sum_formula(1, 1).to_json_dict(), bterms=[term])
    with pytest.raises(ValueError, match=f"{field} must be an integer, got {value!r}"):
        reader.from_json_dict(doc)


def test_render_negative_stride():
    # Stride -1 reads B(-n), as stride 1 reads B(n).
    expr = power_sum_formula(1, 1)
    bterms = [(1, -1, 0), (-2, -1, 3), (1, -2, 0)]
    doc = dict(_json_with_bterms(expr, bterms, 0), linear_coeff="0")
    assert ClosedSumExpr.from_json_dict(doc).render() == "-(2)*B(-n+3) + B(-n) + B(-2n)"


def _json_with(form, field, value):
    # A form's JSON with one field, or the coefficient of its first term, set.
    doc = (linearize(3) if form is LinearForm else power_sum_formula(2, 3)).to_json_dict()
    assert form.from_json_dict(doc).to_json_dict() == doc
    if field == "coeff":
        doc["terms" if form is LinearForm else "bterms"][0]["coeff"] = value
    else:
        doc[field] = value
    return doc


@pytest.mark.parametrize("value", [3.0, 2.5, "2", None, True, 0, -3], ids=repr)
@pytest.mark.parametrize(
    "form, field", [(LinearForm, "power"), (ClosedSumExpr, "m"), (ClosedSumExpr, "power")]
)
def test_readers_reject_counts_that_are_not_positive_integers(form, field, value):
    # The one integer rule: the type first (a bool is not an int), then the bound.
    rule = "positive" if type(value) is int else "an integer"
    message = f"^{form.__name__} {field} must be {rule}, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        form.from_json_dict(_json_with(form, field, value))


@pytest.mark.parametrize("value", [0.1, 0.5, 1.0, True, False, None], ids=repr)
@pytest.mark.parametrize(
    "form, field",
    [
        (LinearForm, "constant"),
        (LinearForm, "coeff"),
        (ClosedSumExpr, "coeff"),
        (ClosedSumExpr, "linear_coeff"),
        (ClosedSumExpr, "constant"),
    ],
)
def test_readers_reject_numbers_that_are_not_strings_or_integers(form, field, value):
    # The writers emit every number as a string; a JSON float would read as
    # its binary value (0.1 as 3602879701896397/36028797018963968) and a
    # bool as 0 or 1.
    with pytest.raises(ValueError, match=f"must be a string or an integer, got {value!r}$"):
        form.from_json_dict(_json_with(form, field, value))
