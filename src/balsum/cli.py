"""Command-line front end: generate, linearize, sum, emit formulas, verify.

Exit codes: 0 on success, also when the reader of stdout leaves early (as
`| head` does); 1 when a verification or oracle comparison fails; 2 on usage
errors.  JSON output is one document per invocation, big integers as strings.
Every number is written by `arith._text`, so no output depends on the
interpreter's int/str digit limit, and the limit is left as the caller set it.
`gen` writes each row as it is made, by default from the exact decimal walk
`sequences.decimal_table`; `sequence_table`, in ints, stays its oracle.
`summation`, `laurent` and `json` load inside the handlers that use them.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

from . import sequences
from .arith import _text
from .linearize import linearize

_GENERATORS: dict[tuple[str, str], Callable[[int], int]] = {
    ("B", "fast"): sequences.balancing_fast,
    ("B", "binet"): sequences.balancing_binet,
    ("C", "fast"): sequences.lucas_balancing_fast,
    ("C", "binet"): sequences.lucas_balancing_binet,
}

# Full verification sweep used when `verify` is invoked with no bounds.
_DEFAULT_ODD_MAX_L = 10
_DEFAULT_EVEN_MAX_L = 6
_DEFAULT_LEMMA_MAX_M = 20


def _nonneg(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _positive(text: str) -> int:
    value = _nonneg(text)
    if value == 0:
        raise argparse.ArgumentTypeError("must be positive, got 0")
    return value


def dump_json(data: object) -> str:
    """Canonical JSON rendering; reserializing a parse of it is byte-identical."""
    import json

    return json.dumps(data, indent=2)


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.method == "recurrence":
        values = sequences.decimal_table(args.upto, args.seq)
    else:
        values = map(_text, map(_GENERATORS[(args.seq, args.method)], range(args.upto + 1)))
    head, row, foot = "", "{n}\t{value}\n", ""
    if args.format == "csv":
        head, row = "n,value\n", "{n},{value}\n"
    elif args.format == "json":
        # dump_json of the whole document, written one row at a time: an index
        # and a string of digits need no JSON escaping.
        doc = dump_json({"seq": args.seq, "method": args.method, "upto": args.upto, "rows": []})
        head, foot = doc.removesuffix("[]\n}") + "[", "\n  ]\n}\n"
        row = '{sep}\n    {{\n      "n": {n},\n      "value": "{value}"\n    }}'
    write = sys.stdout.write
    write(head)
    for n, value in enumerate(values):
        write(row.format(n=n, value=value, sep="," if n else ""))
    write(foot)
    return 0


def _cmd_linearize(args: argparse.Namespace) -> int:
    form = linearize(args.power)
    if args.format == "json":
        print(dump_json(form.to_json_dict()))
    else:
        print(form.render())
    return 0


def _cmd_sum(args: argparse.Namespace) -> int:
    from .summation import brute_force_power_sum, power_sum

    value = _text(power_sum(args.m, args.power, args.upto))
    oracle = _text(brute_force_power_sum(args.m, args.power, args.upto)) if args.oracle else None
    match = oracle is None or oracle == value
    if args.format == "json":
        doc: dict[str, object] = {
            "m": args.m,
            "power": args.power,
            "upto": args.upto,
            "sum": value,
        }
        if oracle is not None:
            doc["oracle"] = oracle
            doc["match"] = match
        print(dump_json(doc))
    elif args.format == "csv":
        header = "m,power,upto,sum"
        row = f"{args.m},{args.power},{args.upto},{value}"
        if oracle is not None:
            header += ",oracle,match"
            row += f",{oracle},{str(match).lower()}"
        print(header)
        print(row)
    else:
        print(value)
        if oracle is not None:
            print(f"oracle {oracle}")
    return 0 if match else 1


def _cmd_formula(args: argparse.Namespace) -> int:
    from .summation import power_sum_formula

    expr = power_sum_formula(args.m, args.power)
    if args.format == "json":
        print(dump_json(expr.to_json_dict()))
    else:
        print(expr.render())
        print(f"check n=0: {_text(expr.value_at(0))}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from . import laurent

    odd_max = args.odd_max_l
    even_max = args.even_max_l
    lemma_max = args.lemma_max_m
    if odd_max is None and even_max is None and lemma_max is None:
        odd_max = _DEFAULT_ODD_MAX_L
        even_max = _DEFAULT_EVEN_MAX_L
        lemma_max = _DEFAULT_LEMMA_MAX_M

    cases: list[tuple[str, bool]] = []
    if odd_max is not None:
        for l in range(odd_max + 1):
            cases.append((f"odd l={l}", laurent.verify_odd_power_identity(l)))
    if even_max is not None:
        for l in range(1, even_max + 1):
            cases.append((f"even l={l}", laurent.verify_even_power_identity(l)))
    if lemma_max is not None:
        for m in range(2, lemma_max + 1):
            cases.append((f"lemma m={m}", laurent.verify_subsequence_recurrence(m)))

    failed = 0
    for label, ok in cases:
        print(f"{label}: {'PASS' if ok else 'FAIL'}")
        failed += 0 if ok else 1
    print(f"summary: {len(cases) - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balsum",
        description="Balancing numbers: generation, linearization of powers, "
        "closed-form power sums, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="emit (n, value) rows of B or C")
    gen.add_argument("--upto", type=_nonneg, required=True, help="largest index to emit")
    gen.add_argument("--seq", choices=["B", "C"], default="B")
    gen.add_argument("--method", choices=["recurrence", "fast", "binet"], default="recurrence")
    gen.add_argument("--format", choices=["text", "json", "csv"], default="text")
    gen.set_defaults(func=_cmd_gen)

    lin = sub.add_parser("linearize", help="express B(n)**power in linear terms")
    lin.add_argument("--power", type=_positive, required=True)
    lin.add_argument("--format", choices=["text", "json"], default="text")
    lin.set_defaults(func=_cmd_linearize)

    psum = sub.add_parser("sum", help="evaluate sum of B(k*m)**power for k = 0..upto")
    psum.add_argument("--m", type=_positive, required=True, help="index spacing")
    psum.add_argument("--power", type=_positive, required=True)
    psum.add_argument("--upto", type=_nonneg, required=True)
    psum.add_argument(
        "--oracle",
        action="store_true",
        help="also compute the brute-force value; exit 1 on mismatch",
    )
    psum.add_argument("--format", choices=["text", "json", "csv"], default="text")
    psum.set_defaults(func=_cmd_sum)

    formula = sub.add_parser("formula", help="emit the symbolic closed form of the sum")
    formula.add_argument("--m", type=_positive, required=True, help="index spacing")
    formula.add_argument("--power", type=_positive, required=True)
    formula.add_argument("--format", choices=["text", "json"], default="text")
    formula.set_defaults(func=_cmd_formula)

    verify = sub.add_parser("verify", help="verify identities by Laurent expansion")
    verify.add_argument(
        "--odd-max-l", type=_nonneg, default=None, help="check odd powers for l = 0..N"
    )
    verify.add_argument(
        "--even-max-l", type=_nonneg, default=None, help="check even powers for l = 1..N"
    )
    verify.add_argument(
        "--lemma-max-m", type=_nonneg, default=None, help="check subsequence recurrences for m = 2..N"
    )
    verify.set_defaults(func=_cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # Point stdout at devnull: the interpreter's final flush stays silent.
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
        status = 0
    return status
