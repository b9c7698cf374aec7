"""Self-test of the reference checker; run.py runs it before every run.

    python3 perfbench/selftest.py

Checks the reference against published values (OEIS A001109 and the README
examples) and checks that the checker accepts the README's outputs and
classes wrong, crashed and timed-out requests as failed.  It starts no
process and does not import balsum.
"""

from __future__ import annotations

import sys

from reference import Checker, power_sum

_SUM_1_1_4 = ["sum", "--m", "1", "--power", "1", "--upto", "4", "--format", "text"]
_CRASH = (
    "Traceback (most recent call last):\n"
    "ValueError: Exceeds the limit (4300 digits) for integer string conversion\n"
)

# (argv, stdout) pairs copied from the README.
_README = [
    (_SUM_1_1_4, "246\n"),
    (["sum", "--m", "1", "--power", "3", "--upto", "2", "--oracle", "--format", "text"], "217\noracle 217\n"),
    (["gen", "--upto", "4", "--seq", "B", "--method", "recurrence", "--format", "text"],
     "0\t0\n1\t1\n2\t6\n3\t35\n4\t204\n"),
    (["linearize", "--power", "3", "--format", "text"], "(1/32)*B(3n) - (3/32)*B(n)\n"),
    (["linearize", "--power", "2", "--format", "text"], "-(17/96)*B(2n) + (1/96)*B(2(n+1)) - 1/16\n"),
    (["formula", "--m", "2", "--power", "1", "--format", "text"],
     "(1/32)*B(2n+2) - (1/32)*B(2n) - 3/16\ncheck n=0: 0\n"),
    (["verify", "--odd-max-l", "2", "--even-max-l", "2"],
     "odd l=0: PASS\nodd l=1: PASS\nodd l=2: PASS\neven l=1: PASS\neven l=2: PASS\n"
     "summary: 5 passed, 0 failed\n"),
]

# Deliberately wrong outputs: each must be classed as failed with reason "wrong".
_WRONG = [
    (_SUM_1_1_4, "247\n"),
    (["linearize", "--power", "3", "--format", "text"], "(1/32)*B(3n) - (1/32)*B(n)\n"),
    (["formula", "--m", "2", "--power", "1", "--format", "text"],
     "(1/32)*B(2n+2) - (1/32)*B(2n) - 3/16\ncheck n=0: 1\n"),
    (["verify", "--odd-max-l", "0"], "odd l=0: FAIL\nsummary: 0 passed, 1 failed\n"),
]


def _expect(condition: bool, what: str) -> None:
    if not condition:
        raise RuntimeError(f"reference self-test failed: {what}")


def run() -> None:
    checker = Checker()
    _expect(checker.ref.values("B", 5)[:6] == [0, 1, 6, 35, 204, 1189], "A001109 prefix")
    _expect(power_sum(1, 1, 4) == 246, "sum --m 1 --power 1 --upto 4 is 246")
    _expect(power_sum(1, 3, 2) == 217, "sum --m 1 --power 3 --upto 2 is 217")
    for argv, out in _README:
        _expect(checker.check(argv, 0, False, out, "").ok, f"README output of {argv} accepted")
    for argv, out in _WRONG:
        outcome = checker.check(argv, 0, False, out, "")
        _expect(not outcome.ok and outcome.reason == "wrong", f"wrong output of {argv} failed")
    for exit_code, timed_out, err, reason in [(1, False, _CRASH, "traceback"), (2, False, "", "exit"), (-9, True, "", "timeout")]:
        outcome = checker.check(_SUM_1_1_4, exit_code, timed_out, "246\n", err)
        _expect(not outcome.ok and outcome.reason == reason, f"{reason} classed as failed")
    big = ["sum", "--m", "1", "--power", "3", "--upto", "2000", "--format", "text"]
    _expect(checker.check(big, 1, False, "", _CRASH).over_limit, "a sum over 4,300 digits is flagged")
    _expect(not checker.check(_SUM_1_1_4, 0, False, "246\n", "").over_limit, "a small sum is not flagged")


if __name__ == "__main__":
    run()
    print("reference self-test: PASS")
    sys.exit(0)
