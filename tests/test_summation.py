import importlib
import json
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsum import sequences, summation
from balsum import (
    ClosedSumExpr,
    GFParams,
    InexactResultError,
    LinearForm,
    QuadElem,
    balancing,
    brute_force_power_sum,
    closed_sum,
    gf_params,
    linearize,
    lucas_balancing,
    power_sum,
    power_sum_formula,
    shifted_closed_sum,
    subsequence_gf_check,
)
from balsum.sequences import balancing_pair


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


def test_shifted_closed_sum_against_brute_force(monkeypatch):
    # Both closed sums are the Binet sum at l = 1: neither derives a
    # ClosedSumExpr nor runs the record evaluator.
    def refuse(*args):
        raise AssertionError("a closed sum must not build or evaluate a record")

    monkeypatch.setattr(summation, "_summed", refuse)
    monkeypatch.setattr(importlib.import_module("balsum.linearize"), "_affine_value", refuse)
    for m in range(1, 6):
        for r in range(9):
            for n in range(21):
                direct = sum(balancing(k * m + r) for k in range(n + 1))
                assert shifted_closed_sum(m, r, n) == direct
                if r == 0:
                    assert closed_sum(m, n) == direct


def test_brute_force_spot_values():
    assert brute_force_power_sum(1, 1, 4) == 246
    assert brute_force_power_sum(2, 1, 2) == 210
    assert brute_force_power_sum(1, 5, 0) == 0


def test_power_sum_spot_values():
    assert power_sum(1, 3, 2) == 217
    assert power_sum(1, 2, 2) == 37
    assert power_sum(2, 2, 2) == 41652


def test_power_sum_against_brute_force():
    # The Binet sum, the closed-sum record's evaluator and the oracle are three
    # independent routes; they must agree on every case of the grid.
    for m in range(1, 7):
        for l in range(1, 17):
            expr = power_sum_formula(m, l)
            for n in range(31):
                assert power_sum(m, l, n) == expr.value_at(n) == brute_force_power_sum(m, l, n), (m, l, n)


@pytest.mark.parametrize("m, l, n", [(1, 3, 2000), (3, 10, 1000), (12, 24, 100)])
def test_power_sum_against_brute_force_at_large_index(m, l, n):
    assert power_sum(m, l, n) == brute_force_power_sum(m, l, n)


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 12), st.integers(1, 40), st.integers(0, 500))
def test_binet_sum_matches_the_record(m, l, n):
    assert power_sum(m, l, n) == power_sum_formula(m, l).value_at(n)


def test_power_sum_is_the_binet_sum_everywhere():
    import balsum

    assert balsum.power_sum is sequences.power_sum


@pytest.mark.parametrize(
    "args, name",
    [((0, 0, -1), "index must be non-negative"), ((0, 0, 5), "m must be positive")],
)
def test_power_sum_checks_index_then_m_then_l(args, name):
    # The bad l of both cases is never reached; test_arith pins its message.
    with pytest.raises(ValueError, match=f"^{name}, got"):
        power_sum(*args)


@pytest.mark.parametrize("part", [0, 1])
def test_power_sum_raises_on_a_remainder(monkeypatch, part):
    # B(10) one too large leaves a remainder in the last division by 2**2, and
    # C(10) one too large a remainder in the division by the norm of ALPHA - 1.
    real = sequences.balancing_pair

    def off_by_one(k):
        pair = list(real(k))
        pair[part] += k == 10
        return tuple(pair)

    monkeypatch.setattr(sequences, "balancing_pair", off_by_one)
    with pytest.raises(InexactResultError, match="^the power sum for m=1, l=1 at n=9 is not an integer"):
        power_sum(1, 1, 9)


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda bad: power_sum(bad, bad, bad), id="power_sum"),
        pytest.param(lambda bad: closed_sum(bad, bad), id="closed_sum"),
        pytest.param(lambda bad: shifted_closed_sum(bad, bad, bad), id="shifted_closed_sum"),
    ],
)
@pytest.mark.parametrize(
    "bad, rule",
    [
        pytest.param(-1, "non-negative, got -1", id="negative"),
        pytest.param(None, "an integer, got None", id="none"),
    ],
)
def test_every_binet_sum_checks_the_index_first(call, bad, rule):
    # The three sums share the engine's one check: with every argument bad,
    # the index n is named first.
    with pytest.raises(ValueError, match=f"^index must be {rule}$"):
        call(bad)


@pytest.mark.parametrize("part", [0, 1])
def test_a_shifted_sum_names_its_shift_on_a_remainder(monkeypatch, part):
    # As for the power sum above, with the index 10 reached as m*(n+1) + r = 8 + 2:
    # a remainder at r > 0 names r beside m, l and n.
    real = sequences.balancing_pair

    def off_by_one(k):
        pair = list(real(k))
        pair[part] += k == 10
        return tuple(pair)

    monkeypatch.setattr(sequences, "balancing_pair", off_by_one)
    message = "^the power sum for m=1, l=1, r=2 at n=7 is not an integer"
    with pytest.raises(InexactResultError, match=message):
        shifted_closed_sum(1, 2, 7)


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
    message = f"{reader.__name__} term {field} must be an integer, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
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
