"""Acceptance suite: nine exact-value and property criteria.

Each criterion is one test named test_criterion_N_<slug>, so a verbose
pytest run emits one pass/fail line per criterion.  Each test also
prints an "ACCEPTANCE N" line on success (visible with pytest -s).
Criteria 1, 2 and 6 carry wall-clock ceilings and assert them.
"""

import time
from fractions import Fraction

from balsum import (
    LinearForm,
    balancing,
    balancing_binet,
    balancing_fast,
    brute_force_power_sum,
    closed_sum,
    gf_coefficients,
    linearize,
    lucas_balancing,
    power_sum,
    subsequence_gf_check,
    verify_even_power_identity,
    verify_odd_power_identity,
    verify_subsequence_recurrence,
)
from balsum.cli import main

GOLDEN = [0, 1, 6, 35, 204, 1189, 6930, 40391, 235416, 1372105, 7997214]


def test_criterion_1_golden_values(capsys):
    start = time.perf_counter()
    code = main(["gen", "--upto", "10"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    values = [int(line.split("\t")[1]) for line in out.strip().splitlines()]
    assert values == GOLDEN
    assert elapsed < 1.0
    with capsys.disabled():
        print(f"ACCEPTANCE 1: PASS - gen --upto 10 matches the golden values ({elapsed:.3f}s)")


def test_criterion_2_method_agreement(capsys):
    start = time.perf_counter()
    for n in range(201):
        b = balancing(n)
        assert balancing_fast(n) == b
        assert balancing_binet(n) == b
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    with capsys.disabled():
        print(f"ACCEPTANCE 2: PASS - three generators agree for n <= 200 ({elapsed:.3f}s)")


def test_criterion_3_odd_power_linearization(capsys):
    for l in range(4):
        form = linearize(2 * l + 1)
        for n in range(21):
            assert form.value_at(n) == balancing(n) ** (2 * l + 1)
    with capsys.disabled():
        print("ACCEPTANCE 3: PASS - odd-power forms match B(n)**(2l+1) for l <= 3, n <= 20")


def test_criterion_4_even_power_linearization(capsys):
    for l in range(1, 4):
        form = linearize(2 * l)
        for n in range(21):
            assert form.value_at(n) == balancing(n) ** (2 * l)
    # The uncorrected constant (binomial term left unscaled by 2**(5l))
    # must NOT reproduce B(1)**2: it lands at -15/16 instead of 1.
    corrected = linearize(2)
    literal = LinearForm(corrected.power, Fraction(-2), corrected.terms)
    assert literal.exact_value_at(1) == Fraction(-15, 16)
    assert literal.exact_value_at(1) != balancing(1) ** 2
    with capsys.disabled():
        print("ACCEPTANCE 4: PASS - even-power forms match B(n)**(2l); unscaled constant fails at n=1")


def test_criterion_5_closed_sum(capsys):
    for m in range(1, 7):
        running = 0
        for n in range(31):
            running += balancing(n * m)
            assert closed_sum(m, n) == running
    assert closed_sum(1, 4) == 246
    assert closed_sum(2, 2) == 210
    with capsys.disabled():
        print("ACCEPTANCE 5: PASS - closed sums match running totals for m <= 6, n <= 30")


def test_criterion_6_power_sums(capsys):
    start = time.perf_counter()
    checked = 0
    for m in range(1, 5):
        for l in range(1, 7):
            for n in range(16):
                assert power_sum(m, l, n) == brute_force_power_sum(m, l, n)
                checked += 1
    elapsed = time.perf_counter() - start
    assert checked == 384
    assert elapsed < 30.0
    with capsys.disabled():
        print(f"ACCEPTANCE 6: PASS - {checked} power sums match brute force ({elapsed:.3f}s)")


def test_criterion_7_identity_verification(capsys):
    for l in range(11):
        assert verify_odd_power_identity(l)
    for l in range(1, 7):
        assert verify_even_power_identity(l)
    for m in range(2, 21):
        assert verify_subsequence_recurrence(m)
    with capsys.disabled():
        print("ACCEPTANCE 7: PASS - odd l <= 10, even l <= 6, subsequence m <= 20 all reduce to zero")


def test_criterion_8_structural_invariants(capsys):
    for n in range(101):
        b = balancing(n)
        c = lucas_balancing(n)
        assert c * c - 8 * b * b == 1
        if n >= 1:
            assert balancing(n - 1) * balancing(n + 1) == b * b - 1
            assert 6 * b - 2 * balancing(n - 1) == 2 * c
    with capsys.disabled():
        print("ACCEPTANCE 8: PASS - Pell, Cassini and companion identities hold for indices <= 100")


def test_criterion_9_generating_function(capsys):
    coeffs = gf_coefficients(50)
    for j in range(50):
        c1 = coeffs[j - 1] if j >= 1 else 0
        c2 = coeffs[j - 2] if j >= 2 else 0
        product = coeffs[j] - 6 * c1 + c2
        assert product == (1 if j == 1 else 0)
    for m in range(1, 7):
        assert subsequence_gf_check(m, 10)
    with capsys.disabled():
        print("ACCEPTANCE 9: PASS - (1 - 6z + z^2) * series = z to degree 49; subsequence GFs check out")
