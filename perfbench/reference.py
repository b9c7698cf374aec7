"""Independent reference values and the checker for balsum CLI output.

Nothing here imports balsum.  B and C come from the benchmark's own
recurrence, power sums from one pass to index m*n that raises every m-th
value to the power l, and the symbolic outputs of `linearize` and `formula`
are checked by evaluating their terms at several n against those values.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from fractions import Fraction

# CPython's default limit on int <-> str conversion.  The CLI under test runs
# with it; an output integer longer than this is the known crash.
DIGIT_LIMIT = 4300
_OVER_LIMIT = 10**DIGIT_LIMIT

# Indices at which symbolic forms are evaluated against the reference.
SAMPLE_N = (0, 1, 2, 3, 7)


class Reference:
    """Prefixes of B and C by recurrence, and their decimal strings, cached."""

    def __init__(self) -> None:
        # The checker renders integers far longer than CPython's default
        # conversion limit; the CLI processes keep the default.
        sys.set_int_max_str_digits(0)
        self._values = {"B": [0, 1], "C": [1, 3]}
        self._texts: dict[str, list[str]] = {"B": [], "C": []}

    def values(self, seq: str, upto: int) -> list[int]:
        """B(0..upto) or C(0..upto); the returned list may run further."""
        vals = self._values[seq]
        while len(vals) <= upto:
            vals.append(6 * vals[-1] - vals[-2])
        return vals

    def texts(self, seq: str, upto: int) -> list[str]:
        texts = self._texts[seq]
        vals = self.values(seq, upto)
        texts.extend(str(v) for v in vals[len(texts) : upto + 1])
        return texts

    def b(self, n: int) -> int:
        return self.values("B", n)[n]


def power_sum(m: int, l: int, n: int) -> int:
    """sum(B(k*m)**l for k in 0..n) by one recurrence pass to index m*n."""
    total = 0
    prev, cur = 0, 1
    for i in range(m * n + 1):
        if i % m == 0:
            total += prev**l
        prev, cur = cur, 6 * cur - prev
    return total


@dataclass(frozen=True)
class Outcome:
    ok: bool
    reason: str  # "" when ok, else "timeout", "traceback", "exit" or "wrong"
    over_limit: bool  # the expected output holds an integer over DIGIT_LIMIT digits


def parse_argv(argv: list[str]) -> tuple[str, dict[str, str | bool]]:
    """Split generated argv into the subcommand and its flags."""
    command, rest = argv[0], argv[1:]
    flags: dict[str, str | bool] = {}
    i = 0
    while i < len(rest):
        key = rest[i].removeprefix("--")
        if i + 1 < len(rest) and not rest[i + 1].startswith("--"):
            flags[key] = rest[i + 1]
            i += 2
        else:
            flags[key] = True
            i += 1
    return command, flags


class Checker:
    """Classifies one finished request against the reference."""

    def __init__(self, ref: Reference | None = None) -> None:
        self.ref = ref or Reference()
        # The power sum of the latest `sum` request; it is needed twice.
        self._last_sum: tuple[tuple[int, int, int], int] | None = None

    def check(self, argv: list[str], exit_code: int, timed_out: bool, stdout: str, stderr: str) -> Outcome:
        command, flags = parse_argv(argv)
        expect = getattr(self, f"_{command}")
        over_limit = self._over_limit(command, flags)
        if timed_out:
            return Outcome(False, "timeout", over_limit)
        if "Traceback (most recent call last)" in stderr:
            return Outcome(False, "traceback", over_limit)
        if exit_code != 0:
            return Outcome(False, "exit", over_limit)
        try:
            right = expect(flags, stdout)
        except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError):
            right = False
        return Outcome(right, "" if right else "wrong", over_limit)

    def _over_limit(self, command: str, flags: dict) -> bool:
        if command == "sum":
            return self._sum_value(flags) >= _OVER_LIMIT
        if command == "gen":
            return self.ref.values(flags["seq"], int(flags["upto"]))[int(flags["upto"])] >= _OVER_LIMIT
        return False

    def _sum_value(self, flags: dict) -> int:
        key = (int(flags["m"]), int(flags["power"]), int(flags["upto"]))
        if self._last_sum is None or self._last_sum[0] != key:
            self._last_sum = (key, power_sum(*key))
        return self._last_sum[1]

    def _sum(self, flags: dict, out: str) -> bool:
        m, l, n = int(flags["m"]), int(flags["power"]), int(flags["upto"])
        value = str(self._sum_value(flags))
        oracle = "oracle" in flags
        fmt = flags["format"]
        if fmt == "json":
            doc = {"m": m, "power": l, "upto": n, "sum": value}
            if oracle:
                doc |= {"oracle": value, "match": True}
            return json.loads(out) == doc
        if fmt == "csv":
            header, row = "m,power,upto,sum", f"{m},{l},{n},{value}"
            if oracle:
                header, row = header + ",oracle,match", row + f",{value},true"
            return out == f"{header}\n{row}\n"
        return out == f"{value}\n" + (f"oracle {value}\n" if oracle else "")

    def _gen(self, flags: dict, out: str) -> bool:
        upto, seq = int(flags["upto"]), flags["seq"]
        texts = self.ref.texts(seq, upto)[: upto + 1]
        fmt = flags["format"]
        if fmt == "json":
            doc = json.loads(out)
            head = (doc["seq"], doc["method"], doc["upto"])
            rows = [(row["n"], row["value"]) for row in doc["rows"]]
            return head == (seq, flags["method"], upto) and rows == list(enumerate(texts))
        sep, header = ("\t", "") if fmt == "text" else (",", "n,value\n")
        return out == header + "".join(f"{n}{sep}{t}\n" for n, t in enumerate(texts))

    def _linearize(self, flags: dict, out: str) -> bool:
        power = int(flags["power"])
        if flags["format"] == "json":
            doc = json.loads(out)
            terms = [
                (Fraction(t["coeff"]), t["multiplier"], t["multiplier"] * t["shift"])
                for t in doc["terms"]
            ]
            form = _Form(terms, Fraction(0), Fraction(doc["constant"]))
            if doc["power"] != power:
                return False
        else:
            form = parse_expression(out.removesuffix("\n"))
        return all(form.value_at(n, self.ref) == self.ref.b(n) ** power for n in SAMPLE_N)

    def _formula(self, flags: dict, out: str) -> bool:
        m, power = int(flags["m"]), int(flags["power"])
        if flags["format"] == "json":
            doc = json.loads(out)
            terms = [(Fraction(t["coeff"]), t["stride"], t["offset"]) for t in doc["bterms"]]
            form = _Form(terms, Fraction(doc["linear_coeff"]), Fraction(doc["constant"]))
            if (doc["m"], doc["power"]) != (m, power):
                return False
        else:
            expression, check_line = out.split("\n")[:2]
            if out != f"{expression}\n{check_line}\n" or check_line != "check n=0: 0":
                return False
            form = parse_expression(expression)
        return all(form.value_at(n, self.ref) == power_sum(m, power, n) for n in SAMPLE_N)

    def _verify(self, flags: dict, out: str) -> bool:
        bounds = [flags.get(k) for k in ("odd-max-l", "even-max-l", "lemma-max-m")]
        odd, even, lemma = (10, 6, 20) if bounds == [None] * 3 else bounds
        labels = []
        if odd is not None:
            labels += [f"odd l={l}" for l in range(int(odd) + 1)]
        if even is not None:
            labels += [f"even l={l}" for l in range(1, int(even) + 1)]
        if lemma is not None:
            labels += [f"lemma m={m}" for m in range(2, int(lemma) + 1)]
        lines = [f"{label}: PASS" for label in labels]
        lines.append(f"summary: {len(labels)} passed, 0 failed")
        return out == "\n".join(lines) + "\n"


@dataclass(frozen=True)
class _Form:
    """constant + linear*(n+1) + sum of coeff * B(stride*n + offset)."""

    terms: list[tuple[Fraction, int, int]]
    linear: Fraction
    constant: Fraction

    def value_at(self, n: int, ref: Reference) -> Fraction:
        total = self.constant + self.linear * (n + 1)
        for coeff, stride, offset in self.terms:
            total += coeff * ref.b(stride * n + offset)
        return total


_SPLIT = re.compile(r" ([+-]) ")
_COEFF = re.compile(r"\((\d+(?:/\d+)?)\)\*(.+)")
_B_AFFINE = re.compile(r"B\((\d*)n(?:\+(\d+))?\)")  # B(jn+o), B(n+1), B(n)
_B_SHIFTED = re.compile(r"B\((\d*)\(n\+1\)\)")  # B(j(n+1))


def parse_expression(text: str) -> _Form:
    """Parse the text rendering of a linear form or closed sum.

    Pieces are joined by ' + ' or ' - '; each is a rational constant, a body,
    or '(q)*body', where a body is B(<affine index in n>) or (n+1).
    """
    parts = _SPLIT.split(text)
    signs = ["+"] + parts[1::2]
    pieces = parts[0::2]
    if pieces[0].startswith("-"):
        signs[0], pieces[0] = "-", pieces[0][1:]
    terms: list[tuple[Fraction, int, int]] = []
    linear = constant = Fraction(0)
    for sign, piece in zip(signs, pieces):
        scaled = _COEFF.fullmatch(piece)
        coeff, body = (Fraction(scaled[1]), scaled[2]) if scaled else (Fraction(1), piece)
        if sign == "-":
            coeff = -coeff
        if body == "(n+1)":
            linear += coeff
        elif match := _B_AFFINE.fullmatch(body):
            terms.append((coeff, int(match[1] or 1), int(match[2] or 0)))
        elif match := _B_SHIFTED.fullmatch(body):
            stride = int(match[1] or 1)
            terms.append((coeff, stride, stride))
        elif scaled is None:
            constant += coeff * Fraction(body)
        else:
            raise ValueError(f"unparsable term {piece!r}")
    return _Form(terms, linear, constant)
