"""Command-line front end: generate, linearize, sum, emit formulas, verify.

Exit codes: 0 on success, also when the reader of stdout leaves early (as
`| head` does); 1 when a verification or oracle comparison fails; 2 on usage
errors.  JSON output is one document per invocation, big integers as strings.
Every number is written by `arith._text`, so no output depends on the
interpreter's int/str digit limit, and the limit is left as the caller set it.
`gen` writes each row as it is made, by default from the exact decimal walk
`sequences.decimal_table`; `sequence_table`, in ints, stays its oracle.
Every library module, and `json`, loads inside the handlers that use it, so
`--help` and a usage error compile no library code but this module, and `gen`
no form code.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Sequence

# The per-row generator of each oracle method, by its name in `sequences`,
# looked up there when `gen` runs.
_GENERATORS: dict[tuple[str, str], str] = {
    ("B", "fast"): "balancing_fast",
    ("B", "binet"): "balancing_binet",
    ("C", "fast"): "lucas_balancing_fast",
    ("C", "binet"): "lucas_balancing_binet",
}


def _at_least(low: int) -> Callable[[str], int]:
    """The argparse type of an integer flag whose value must be at least
    ``low``, 0 or 1; the one check of every integer flag."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
        if value < low:
            bound = "non-negative" if value < 0 else "positive"
            raise argparse.ArgumentTypeError(f"must be {bound}, got {value}")
        return value

    return parse


def dump_json(data: object) -> str:
    """Canonical JSON rendering; reserializing a parse of it is byte-identical."""
    import json

    return json.dumps(data, indent=2)


def _cmd_gen(args: argparse.Namespace) -> int:
    from . import sequences
    from .arith import _text

    if args.method == "recurrence":
        values = sequences.decimal_table(args.upto, args.seq)
    else:
        generate = getattr(sequences, _GENERATORS[(args.seq, args.method)])
        values = map(_text, map(generate, range(args.upto + 1)))
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
    from .linearize import linearize

    form = linearize(args.power)
    if args.format == "json":
        print(dump_json(form.to_json_dict()))
    else:
        print(form.render())
    return 0


def _cmd_sum(args: argparse.Namespace) -> int:
    from .arith import _text
    from .summation import brute_force_power_sum, power_sum

    # The one record of a request, in the order every format writes it.
    record: dict[str, object] = {"m": args.m, "power": args.power, "upto": args.upto}
    record["sum"] = _text(power_sum(args.m, args.power, args.upto))
    if args.oracle:
        record["oracle"] = _text(brute_force_power_sum(args.m, args.power, args.upto))
        record["match"] = record["oracle"] == record["sum"]
    if args.format == "json":
        print(dump_json(record))
    elif args.format == "csv":
        print(",".join(record))
        # The match is written true or false, as in JSON.
        print(",".join(str(value).lower() for value in record.values()))
    else:
        print(record["sum"])
        if args.oracle:
            print(f"oracle {record['oracle']}")
    return 0 if record.get("match", True) else 1


def _cmd_formula(args: argparse.Namespace) -> int:
    from .arith import _text
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

    # Per family: the bound given, the label, the first case, the verifier,
    # and the bound of the full sweep that runs when no bound is given.
    families = [
        (args.odd_max_l, "odd l", 0, laurent.verify_odd_power_identity, 10),
        (args.even_max_l, "even l", 1, laurent.verify_even_power_identity, 6),
        (args.lemma_max_m, "lemma m", 2, laurent.verify_subsequence_recurrence, 20),
    ]
    sweep = all(given is None for given, *_ in families)
    cases = failed = 0
    for given, label, first, verify, default in families:
        last = default if sweep else given
        if last is None:
            continue
        for k in range(first, last + 1):
            ok = verify(k)
            print(f"{label}={k}: {'PASS' if ok else 'FAIL'}")
            cases += 1
            failed += not ok
    print(f"summary: {cases - failed} passed, {failed} failed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="balsum",
        description="Balancing numbers: generation, linearization of powers, "
        "closed-form power sums, and identity verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    nonneg, positive = _at_least(0), _at_least(1)

    gen = sub.add_parser("gen", help="emit (n, value) rows of B or C")
    gen.add_argument("--upto", type=nonneg, required=True, help="largest index to emit")
    gen.add_argument("--seq", choices=["B", "C"], default="B")
    gen.add_argument("--method", choices=["recurrence", "fast", "binet"], default="recurrence")
    gen.add_argument("--format", choices=["text", "json", "csv"], default="text")
    gen.set_defaults(func=_cmd_gen)

    lin = sub.add_parser("linearize", help="express B(n)**power in linear terms")
    lin.add_argument("--power", type=positive, required=True)
    lin.add_argument("--format", choices=["text", "json"], default="text")
    lin.set_defaults(func=_cmd_linearize)

    psum = sub.add_parser("sum", help="evaluate sum of B(k*m)**power for k = 0..upto")
    psum.add_argument("--m", type=positive, required=True, help="index spacing")
    psum.add_argument("--power", type=positive, required=True)
    psum.add_argument("--upto", type=nonneg, required=True)
    psum.add_argument(
        "--oracle",
        action="store_true",
        help="also compute the brute-force value; exit 1 on mismatch",
    )
    psum.add_argument("--format", choices=["text", "json", "csv"], default="text")
    psum.set_defaults(func=_cmd_sum)

    formula = sub.add_parser("formula", help="emit the symbolic closed form of the sum")
    formula.add_argument("--m", type=positive, required=True, help="index spacing")
    formula.add_argument("--power", type=positive, required=True)
    formula.add_argument("--format", choices=["text", "json"], default="text")
    formula.set_defaults(func=_cmd_formula)

    verify = sub.add_parser("verify", help="verify identities by Laurent expansion")
    for flag, what in [
        ("--odd-max-l", "odd powers for l = 0..N"),
        ("--even-max-l", "even powers for l = 1..N"),
        ("--lemma-max-m", "subsequence recurrences for m = 2..N"),
    ]:
        verify.add_argument(flag, type=nonneg, help=f"check {what}")
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
