import decimal

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from balsum import sequences
from balsum import (
    ALPHA,
    InexactResultError,
    balancing,
    balancing_binet,
    balancing_fast,
    brute_force_power_sum,
    gf_coefficients,
    lucas_balancing,
    lucas_balancing_binet,
    lucas_balancing_fast,
    sequence_table,
)
from balsum.sequences import balancing_pair, decimal_table

# A001109, first eleven terms.
GOLDEN_B = [0, 1, 6, 35, 204, 1189, 6930, 40391, 235416, 1372105, 7997214]


def test_balancing_golden_values():
    assert [balancing(n) for n in range(11)] == GOLDEN_B


def test_balancing_spot_values():
    assert balancing(0) == 0
    assert balancing(6) == 6930
    assert balancing(10) == 7997214


@pytest.mark.parametrize(
    "fn", [balancing, lucas_balancing, balancing_fast, balancing_binet, balancing_pair]
)
def test_negative_index_rejected(fn):
    with pytest.raises(ValueError):
        fn(-1)


@pytest.mark.parametrize("fn", [balancing, lucas_balancing])
def test_recurrence_holds_no_cache(fn):
    # A cache would keep every huge value ever asked for, without bound.
    assert not hasattr(fn, "cache_info")
    assert not hasattr(fn, "__wrapped__")


def test_brute_force_shares_no_code_with_the_evaluators(monkeypatch):
    # The oracle sits beside the doubling and the Binet sum that it checks,
    # and must stay an independent route: with both refused, it still sums
    # every m-th power of the sequence.
    grid = [(m, l, n) for m in range(1, 5) for l in range(1, 6) for n in range(7)]
    expected = {(m, l, n): sum(balancing(k * m) ** l for k in range(n + 1)) for m, l, n in grid}

    def refuse(*args):
        raise AssertionError("the oracle must not call the doubling or the Binet sum")

    monkeypatch.setattr(sequences, "balancing_pair", refuse)
    monkeypatch.setattr(sequences, "_binet_sum", refuse)
    for m, l, n in grid:
        assert brute_force_power_sum(m, l, n) == expected[m, l, n], (m, l, n)


def test_pair_matches_recurrence_table():
    N = 2000
    bs, cs = sequence_table(N), sequence_table(N, "C")
    for n in range(N + 1):
        assert balancing_pair(n) == (bs[n], cs[n])


def test_pair_matches_matrix_around_powers_of_two():
    # The doubling walks the bits of n: all ones, a lone one, and a lone one
    # plus the lowest bit.
    for k in range(17):
        for n in {2**k - 1, 2**k, 2**k + 1}:
            assert balancing_pair(n) == (balancing_fast(n), lucas_balancing_fast(n))


# Signed 2x2 matrices with entries up to about 2**200.
big_ints = st.integers(-(2**200), 2**200)
matrices = st.tuples(st.tuples(big_ints, big_ints), st.tuples(big_ints, big_ints))


@given(matrices)
def test_matrix_square_matches_the_general_product(x):
    # The same operand twice takes the five-product square; an equal copy
    # takes the eight-product general path.
    copy = (x[0], x[1])
    assert copy is not x
    assert sequences._mat_mul(x, x) == sequences._mat_mul(x, copy)


def test_pair_pell_relation():
    for n in (*range(64), 1000, 4097, 65536, 100003):
        b, c = balancing_pair(n)
        assert c**2 - 8 * b**2 == 1


def test_lucas_balancing_values():
    assert lucas_balancing(0) == 1
    assert lucas_balancing(1) == 3
    assert lucas_balancing(2) == 17
    assert lucas_balancing(3) == 6 * 17 - 3


def test_companion_identity():
    # 6*B(m) - 2*B(m-1) == 2*C(m); the m=2 instance is 34.
    assert 6 * balancing(2) - 2 * balancing(1) == 34 == 2 * lucas_balancing(2)
    for m in range(1, 101):
        assert 6 * balancing(m) - 2 * balancing(m - 1) == 2 * lucas_balancing(m)


def test_fast_spot_values():
    assert balancing_fast(5) == 1189
    assert balancing_fast(0) == 0
    assert balancing_fast(64) == balancing(64)


def test_binet_spot_values():
    assert balancing_binet(1) == 1
    assert balancing_binet(2) == 6
    assert balancing_binet(0) == 0


def test_three_way_agreement():
    for n in range(201):
        b = balancing(n)
        assert balancing_fast(n) == b
        assert balancing_binet(n) == b


def test_lucas_variants_agree():
    for n in range(101):
        c = lucas_balancing(n)
        assert lucas_balancing_fast(n) == c
        assert lucas_balancing_binet(n) == c


def test_cassini():
    assert balancing(1) * balancing(3) == balancing(2) ** 2 - 1  # 35 == 36 - 1
    for n in range(1, 101):
        assert balancing(n - 1) * balancing(n + 1) == balancing(n) ** 2 - 1


def test_pell_relation():
    for n in range(101):
        assert lucas_balancing(n) ** 2 - 8 * balancing(n) ** 2 == 1


def test_binet_parity():
    # ALPHA**n = C(n) + 2*B(n)*sqrt(2): rational part is C, sqrt part is even.
    for n in range(101):
        power = ALPHA**n
        assert power.b.denominator == 1 and power.b.numerator % 2 == 0
        assert power.a == lucas_balancing(n)
        assert power.b == 2 * balancing(n)


def test_binet_raises_on_an_odd_sqrt2_part(monkeypatch):
    # The oracle reads B(n) as half the sqrt 2 part of ALPHA**n: an odd part
    # is no balancing number, and must raise rather than round.
    monkeypatch.setattr(sequences, "_alpha_power", lambda n: (17, 13))
    with pytest.raises(InexactResultError, match="half the sqrt"):
        balancing_binet(2)
    assert lucas_balancing_binet(2) == 17


def test_gf_coefficients():
    assert gf_coefficients(3) == [0, 1, 6]
    assert gf_coefficients(1) == [0]
    assert gf_coefficients(11) == GOLDEN_B


def test_gf_coefficients_rejects_nonpositive():
    with pytest.raises(ValueError):
        gf_coefficients(0)


def test_gf_truncated_product():
    # (1 - 6z + z^2) * (sum of B(n) z^n up to N) == z, up to degree N-1.
    N = 50
    series = sequence_table(N)
    for j in range(N):
        coeff = series[j]
        if j >= 1:
            coeff -= 6 * series[j - 1]
        if j >= 2:
            coeff += series[j - 2]
        assert coeff == (1 if j == 1 else 0)


def test_sequence_table():
    assert sequence_table(10) == GOLDEN_B
    assert sequence_table(4, "C") == [1, 3, 17, 99, 577]
    assert sequence_table(0) == [0]
    with pytest.raises(ValueError):
        sequence_table(5, "X")
    with pytest.raises(ValueError):
        sequence_table(-1)


@pytest.mark.parametrize("seq", ["B", "C"])
def test_decimal_table_matches_sequence_table(seq):
    for upto in (0, 1, 2, 300):
        assert list(decimal_table(upto, seq)) == [str(v) for v in sequence_table(upto, seq)]
    with pytest.raises(ValueError):
        list(decimal_table(-1, seq))


def test_decimal_table_rejects_unknown_sequence():
    with pytest.raises(ValueError):
        list(decimal_table(5, "X"))


@pytest.mark.parametrize("seq", ["B", "C"])
def test_decimal_walk_raises_instead_of_rounding(monkeypatch, seq):
    # The walk's own context cut to 30 digits: the first value over 30 digits
    # must raise, and every value yielded before it must be exact.
    context = sequences._exact_context().copy()
    context.prec = 30
    monkeypatch.setattr(sequences, "_exact_context", lambda: context)
    yielded = []
    with pytest.raises((decimal.Rounded, decimal.Inexact)):
        for digits in decimal_table(100, seq):
            yielded.append(digits)
    oracle = sequence_table(len(yielded), seq)
    assert yielded == [str(v) for v in oracle[:-1]]
    assert len(yielded[-1]) <= 30 < len(str(oracle[-1]))


P61 = 2**61 - 1
# The largest index m*n + r the modular walk below reaches.
MOD_WALK_MAX_INDEX = 5_000


def power_sum_mod_oracle(m, l, n, r, p):
    """Test oracle: sum_{0<=k<=n} B(k*m + r)**l modulo p, by one walk of
    x(k) = 6*x(k-1) - x(k-2) modulo p that adds pow(b, l, p) at every m-th
    index from r.  Small-integer work only, sharing no code with the Binet sum."""
    total, b, after = 0, 0, 1
    for index in range(m * n + r + 1):
        if index >= r and (index - r) % m == 0:
            total = (total + pow(b, l, p)) % p
        b, after = after, (6 * after - b) % p
    return total


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 12), st.integers(1, 24), st.integers(0, 20), st.integers(0, MOD_WALK_MAX_INDEX))
@example(12, 24, 0, MOD_WALK_MAX_INDEX)  # r = 0: power_sum
@example(1, 1, 20, MOD_WALK_MAX_INDEX)  # l = 1: shifted_closed_sum
@example(7, 1, 0, 300)  # both: closed_sum
def test_binet_sum_against_a_walk_modulo_a_prime(m, l, r, n):
    # At sizes brute force cannot reach: terms of up to about 90,000 digits.
    n = min(n, (MOD_WALK_MAX_INDEX - r) // m)
    total = sequences._binet_sum(m, l, n, r)
    assert total % P61 == power_sum_mod_oracle(m, l, n, r, P61)
