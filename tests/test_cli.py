"""End-to-end tests for the command line interface.

Every test drives `main` directly with an argv list and inspects the
captured stdout plus the integer return code, mirroring how the
console script behaves in a shell.
"""

import decimal
import gc
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from balsum import laurent, sequences
from balsum import ClosedSumExpr, power_sum_formula, sequence_table
from balsum.cli import build_parser, dump_json, main
from balsum.sequences import balancing_pair
from conftest import get_digit_limit, src_env


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out


def gen_document(seq, method, upto):
    """`gen --format json` output built as one document, values from the
    recurrence table."""
    rows = [{"n": n, "value": str(v)} for n, v in enumerate(sequence_table(upto, seq))]
    return dump_json({"seq": seq, "method": method, "upto": upto, "rows": rows}) + "\n"


def gen_output(seq, method, upto, fmt):
    """`gen` output rendered from the recurrence table by `str`; a caller over
    the int/str digit limit lifts it."""
    if fmt == "json":
        return gen_document(seq, method, upto)
    head, sep = ("n,value\n", ",") if fmt == "csv" else ("", "\t")
    return head + "".join(f"{n}{sep}{v}\n" for n, v in enumerate(sequence_table(upto, seq)))


def readme_examples():
    """(command, printed output) of every `$ balsum ...` line in README.md;
    the output is the block's lines up to the next `$` line or the fence."""
    examples = []
    in_block = False
    for line in (Path(__file__).parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
        elif in_block and line.startswith("$ balsum "):
            examples.append((line.removeprefix("$ balsum "), []))
        elif in_block and examples and not line.startswith("$"):
            examples[-1][1].append(line)
    return [(command, "\n".join(out) + "\n") for command, out in examples]


README_EXAMPLES = readme_examples()


@pytest.mark.parametrize("command, expected", README_EXAMPLES, ids=[c for c, _ in README_EXAMPLES])
def test_readme_example(capsys, command, expected):
    code, out = run_cli(capsys, shlex.split(command))
    assert code == 0
    assert out == expected


def test_readme_has_the_examples():
    assert len(README_EXAMPLES) == 7


class TestGen:
    def test_text_table(self, capsys):
        code, out = run_cli(capsys, ["gen", "--upto", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "0\t0"
        assert lines[-1] == "4\t204"
        assert len(lines) == 5

    def test_upto_zero(self, capsys):
        code, out = run_cli(capsys, ["gen", "--upto", "0"])
        assert code == 0
        assert out.strip() == "0\t0"

    def test_methods_agree_byte_for_byte(self, capsys):
        outputs = []
        for method in ("recurrence", "fast", "binet"):
            code, out = run_cli(
                capsys, ["gen", "--upto", "50", "--method", method]
            )
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_companion_sequence(self, capsys):
        code, out = run_cli(capsys, ["gen", "--upto", "3", "--seq", "C"])
        assert code == 0
        values = [line.split("\t")[1] for line in out.strip().splitlines()]
        assert values == ["1", "3", "17", "99"]

    def test_csv_format(self, capsys):
        code, out = run_cli(
            capsys, ["gen", "--upto", "2", "--format", "csv"]
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,value"
        assert lines[1:] == ["0,0", "1,1", "2,6"]

    def test_json_format(self, capsys):
        code, out = run_cli(
            capsys, ["gen", "--upto", "3", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["seq"] == "B"
        assert data["method"] == "recurrence"
        assert data["upto"] == 3
        assert data["rows"] == [
            {"n": 0, "value": "0"},
            {"n": 1, "value": "1"},
            {"n": 2, "value": "6"},
            {"n": 3, "value": "35"},
        ]

    def test_json_is_pretty_printed(self, capsys):
        code, out = run_cli(
            capsys, ["gen", "--upto", "2", "--format", "json"]
        )
        assert code == 0
        text = out.rstrip("\n")
        assert json.dumps(json.loads(text), indent=2) == text

    @pytest.mark.parametrize("method", ["recurrence", "fast", "binet"])
    @pytest.mark.parametrize("seq", ["B", "C"])
    @pytest.mark.parametrize("upto", [0, 1, 5])
    def test_json_streams_the_whole_document(self, capsys, upto, seq, method):
        code, out = run_cli(
            capsys,
            ["gen", "--upto", str(upto), "--seq", seq, "--method", method, "--format", "json"],
        )
        assert code == 0
        assert out == gen_document(seq, method, upto)

    def test_json_streams_a_long_table(self, capsys):
        code, out = run_cli(capsys, ["gen", "--upto", "5000", "--format", "json"])
        assert code == 0
        assert out == gen_document("B", "recurrence", 5000)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    @pytest.mark.parametrize("method", ["recurrence", "fast", "binet"])
    @pytest.mark.parametrize("seq", ["B", "C"])
    @pytest.mark.parametrize("upto", [0, 1, 2, 60])
    def test_output_matches_the_table_oracle(self, capsys, upto, seq, method, fmt):
        argv = ["gen", "--upto", str(upto), "--seq", seq, "--method", method, "--format", fmt]
        code, out = run_cli(capsys, argv)
        assert code == 0
        assert out == gen_output(seq, method, upto, fmt)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_recurrence_above_the_digit_line_matches_the_table_oracle(self, capsys, digit_limit, fmt):
        code, out = run_cli(capsys, ["gen", "--upto", "5700", "--format", fmt])
        assert code == 0
        with digit_limit(0):
            expected = gen_output("B", "recurrence", 5700, fmt)
        # Compared as lists of lines, whose mismatch pytest reports quickly.
        assert out.split("\n") == expected.split("\n")

    def test_twelve_thousand_rows(self, capsys, digit_limit):
        # About 55 MB; with int's quadratic str this request takes seconds.
        code, out = run_cli(capsys, ["gen", "--upto", "12000", "--format", "csv"])
        assert code == 0
        assert out.count("\n") == 12002
        n, value = out[out.rindex("\n", 0, -1) + 1 :].split(",")
        assert int(n) == 12000
        with digit_limit(0):
            assert int(value) == balancing_pair(12000)[0]

    def test_leaves_the_callers_decimal_context(self, capsys):
        context = decimal.getcontext()
        prec, traps = context.prec, dict(context.traps)
        code, _ = run_cli(capsys, ["gen", "--upto", "300"])
        assert code == 0
        assert decimal.getcontext() is context
        assert (context.prec, dict(context.traps)) == (prec, traps)

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_ignores_the_callers_decimal_context(self, capsys, fmt):
        with decimal.localcontext() as context:
            context.prec = 5
            code, out = run_cli(capsys, ["gen", "--upto", "300", "--seq", "C", "--format", fmt])
        assert code == 0
        assert out == gen_output("C", "recurrence", 300, fmt)


class TestLinearize:
    def test_power_three_text(self, capsys):
        code, out = run_cli(capsys, ["linearize", "--power", "3"])
        assert code == 0
        assert out.strip() == "(1/32)*B(3n) - (3/32)*B(n)"

    def test_power_one_text(self, capsys):
        code, out = run_cli(capsys, ["linearize", "--power", "1"])
        assert code == 0
        assert out.strip() == "B(n)"

    def test_power_two_text(self, capsys):
        code, out = run_cli(capsys, ["linearize", "--power", "2"])
        assert code == 0
        assert out.strip() == "-(17/96)*B(2n) + (1/96)*B(2(n+1)) - 1/16"

    def test_json_round_trips(self, capsys):
        code, out = run_cli(
            capsys, ["linearize", "--power", "4", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert data["power"] == 4
        assert [t["multiplier"] for t in data["terms"]] == [4, 4, 2, 2]
        assert [t["shift"] for t in data["terms"]] == [0, 1, 0, 1]


class TestSum:
    def test_plain_sum(self, capsys):
        code, out = run_cli(
            capsys, ["sum", "--m", "2", "--power", "1", "--upto", "2"]
        )
        assert code == 0
        assert out.strip() == "210"

    def test_power_sum(self, capsys):
        code, out = run_cli(
            capsys, ["sum", "--m", "1", "--power", "3", "--upto", "2"]
        )
        assert code == 0
        assert out.strip() == "217"

    def test_empty_range(self, capsys):
        code, out = run_cli(
            capsys, ["sum", "--m", "2", "--power", "1", "--upto", "0"]
        )
        assert code == 0
        assert out.strip() == "0"

    def test_oracle_agreement(self, capsys):
        code, out = run_cli(
            capsys,
            ["sum", "--m", "1", "--power", "1", "--upto", "4", "--oracle"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "246"
        assert lines[1] == "oracle 246"

    def test_oracle_json(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "sum",
                "--m",
                "2",
                "--power",
                "2",
                "--upto",
                "3",
                "--oracle",
                "--format",
                "json",
            ],
        )
        assert code == 0
        data = json.loads(out)
        assert data["sum"] == data["oracle"]
        assert data["match"] is True

    def test_oracle_csv(self, capsys):
        code, out = run_cli(
            capsys,
            [
                "sum",
                "--m",
                "1",
                "--power",
                "2",
                "--upto",
                "5",
                "--oracle",
                "--format",
                "csv",
            ],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "m,power,upto,sum,oracle,match"
        assert lines[1].endswith(",true")

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_oracle_mismatch_exits_one(self, capsys, monkeypatch, fmt):
        # 1 + 6 + 35 + 204 + 1189 = 1435; the closed form is made off by one.
        real = sequences.power_sum
        monkeypatch.setattr(sequences, "power_sum", lambda m, l, n: real(m, l, n) + 1)
        argv = ["sum", "--m", "1", "--power", "1", "--upto", "5", "--oracle", "--format", fmt]
        code, out = run_cli(capsys, argv)
        assert code == 1
        if fmt == "json":
            assert json.loads(out) == {
                "m": 1, "power": 1, "upto": 5, "sum": "1436", "oracle": "1435", "match": False
            }
        elif fmt == "csv":
            assert out == "m,power,upto,sum,oracle,match\n1,1,5,1436,1435,false\n"
        else:
            assert out == "1436\noracle 1435\n"


class TestFormula:
    def test_text_render(self, capsys):
        code, out = run_cli(capsys, ["formula", "--m", "1", "--power", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "(1/4)*B(n+1) - (1/4)*B(n) - 1/4"
        assert lines[1] == "check n=0: 0"

    def test_stride_two_render(self, capsys):
        code, out = run_cli(capsys, ["formula", "--m", "2", "--power", "1"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "(1/32)*B(2n+2) - (1/32)*B(2n) - 3/16"

    def test_json_schema(self, capsys):
        code, out = run_cli(
            capsys, ["formula", "--m", "1", "--power", "1", "--format", "json"]
        )
        assert code == 0
        data = json.loads(out)
        assert list(data) == ["m", "power", "bterms", "linear_coeff", "constant"]
        assert data["bterms"] == [
            {"coeff": "1/4", "stride": 1, "offset": 1},
            {"coeff": "-1/4", "stride": 1, "offset": 0},
        ]


class TestVerify:
    def test_single_trivial_case(self, capsys):
        code, out = run_cli(capsys, ["verify", "--odd-max-l", "0"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "odd l=0: PASS"
        assert lines[-1] == "summary: 1 passed, 0 failed"

    def test_lemma_family(self, capsys):
        code, out = run_cli(capsys, ["verify", "--lemma-max-m", "5"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lemma m=2: PASS"
        assert lines[-1] == "summary: 4 passed, 0 failed"

    def test_mixed_families(self, capsys):
        code, out = run_cli(
            capsys,
            ["verify", "--odd-max-l", "2", "--even-max-l", "2"],
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert "odd l=1: PASS" in lines
        assert "even l=2: PASS" in lines
        assert lines[-1] == "summary: 5 passed, 0 failed"

    def test_default_sweep(self, capsys):
        code, out = run_cli(capsys, ["verify"])
        assert code == 0
        lines = out.strip().splitlines()
        # 11 odd + 6 even + 19 lemma cases
        assert lines[-1] == "summary: 36 passed, 0 failed"

    def test_failing_case_exits_one(self, capsys, monkeypatch):
        real = laurent.verify_even_power_identity
        monkeypatch.setattr(laurent, "verify_even_power_identity", lambda l: l != 2 and real(l))
        code, out = run_cli(capsys, ["verify", "--odd-max-l", "1", "--even-max-l", "3"])
        assert code == 1
        assert out.splitlines() == [
            "odd l=0: PASS",
            "odd l=1: PASS",
            "even l=1: PASS",
            "even l=2: FAIL",
            "even l=3: PASS",
            "summary: 4 passed, 1 failed",
        ]


# Every integer flag, after the other required flags of its subcommand, with
# its bound's word and its first refused values: 0 and -2 below 1, -1 below 0.
INTEGER_FLAGS = [
    (["sum", "--power", "1", "--upto", "3"], "--m", "positive", ("0", "-2")),
    (["sum", "--m", "1", "--upto", "3"], "--power", "positive", ("0", "-2")),
    (["formula", "--power", "1"], "--m", "positive", ("0", "-2")),
    (["formula", "--m", "1"], "--power", "positive", ("0", "-2")),
    (["linearize"], "--power", "positive", ("0", "-2")),
    (["gen"], "--upto", "non-negative", ("-1",)),
    (["sum", "--m", "1", "--power", "1"], "--upto", "non-negative", ("-1",)),
    (["verify"], "--odd-max-l", "non-negative", ("-1",)),
    (["verify"], "--even-max-l", "non-negative", ("-1",)),
    (["verify"], "--lemma-max-m", "non-negative", ("-1",)),
]
FIRST_REFUSED = [
    pytest.param(
        [*argv, flag, value],
        f"balsum {argv[0]}: error: argument {flag}: must be {bound}, got {value}",
        id=f"{argv[0]} {flag} {value}",
    )
    for argv, flag, bound, values in INTEGER_FLAGS
    for value in values
]


class TestUsageMessages:
    """One integer flag type writes every integer flag's message, its word
    that of the flag's bound, and bounds that select no case to verify are a
    usage error too."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["sum", "--m", "0", "--power", "1", "--upto", "3"], "balsum sum: error: argument --m: must be positive, got 0"),
            (["linearize", "--power", "x"], "balsum linearize: error: argument --power: not an integer: 'x'"),
            (["verify", "--lemma-max-m", "1.5"], "balsum verify: error: argument --lemma-max-m: not an integer: '1.5'"),
            (["verify", "--even-max-l", "0"], "balsum verify: error: no case to check: even l starts at 1, lemma m at 2"),
            (["verify", "--lemma-max-m", "0"], "balsum verify: error: no case to check: even l starts at 1, lemma m at 2"),
            (["verify", "--lemma-max-m", "1"], "balsum verify: error: no case to check: even l starts at 1, lemma m at 2"),
            (["verify", "--even-max-l", "0", "--lemma-max-m", "1"], "balsum verify: error: no case to check: even l starts at 1, lemma m at 2"),
            *FIRST_REFUSED,
            # Over the int/str digit limit, by the size; negative, so that an
            # interpreter without the limit refuses the value too.
            pytest.param(
                ["linearize", "--power", "-" + "9" * 4301],
                "balsum linearize: error: argument --power: must have at most 4300 digits, got 4301",
                id="linearize --power 4301 digits",
            ),
            pytest.param(
                ["sum", "--m", "1", "--power", "1", "--upto", "-" + "9" * 5000],
                "balsum sum: error: argument --upto: must have at most 4300 digits, got 5000",
                id="sum --upto 5000 digits",
            ),
        ],
    )
    def test_message(self, capsys, default_digit_limit, argv, message):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        captured = capsys.readouterr()
        assert excinfo.value.code == 2
        assert captured.out == ""
        assert captured.err.startswith(f"usage: balsum {argv[0]} ")
        assert captured.err.endswith(f"\n{message}\n")


class TestParser:
    def test_missing_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_parser_builds_once(self):
        parser = build_parser()
        args = parser.parse_args(["gen", "--upto", "7"])
        assert args.upto == 7


# Every flag of each subcommand; "bogus" is an unknown subcommand.
CLI_FLAGS = {
    "gen": ["--upto", "--seq", "--method", "--format"],
    "linearize": ["--power", "--format"],
    "sum": ["--m", "--power", "--upto", "--oracle", "--format"],
    "formula": ["--m", "--power", "--format"],
    "verify": ["--odd-max-l", "--even-max-l", "--lemma-max-m"],
    "bogus": [],
}
CLI_CHOICES = {
    "--seq": ["B", "C"],
    "--method": ["recurrence", "fast", "binet"],
    "--format": ["text", "json", "csv"],
}
# Integers stay in -3..12 so that no request is large.
CLI_INTEGERS = st.sampled_from([str(k) for k in range(-3, 13)])
CLI_VALUES = st.one_of(
    CLI_INTEGERS,
    st.sampled_from(["", "x", "1.5", "1e3", " 3", "0x10", "-0", *sum(CLI_CHOICES.values(), [])]),
)


def one_in(k):
    return st.integers(0, k - 1).map(lambda i: i == 0)


@st.composite
def cli_argv(draw):
    """A subcommand with each flag left out one time in eight; a flag's value
    is of its kind three times in four, and any value otherwise; one time in
    four a stray token or unknown flag follows."""
    command = draw(st.sampled_from(list(CLI_FLAGS)))
    argv = [command]
    for flag in CLI_FLAGS[command]:
        if draw(one_in(8)):
            continue
        if flag == "--oracle":
            argv.append(flag)
        elif draw(one_in(4)):
            argv += [flag, draw(CLI_VALUES)]
        else:
            fitting = st.sampled_from(CLI_CHOICES[flag]) if flag in CLI_CHOICES else CLI_INTEGERS
            argv += [flag, draw(fitting)]
    if draw(one_in(4)):
        argv.append(draw(st.one_of(CLI_VALUES, st.sampled_from(["--bogus", "--oracle", "--upto"]))))
    return argv


@settings(deadline=None, max_examples=250)
@given(cli_argv())
def test_any_argv_ends_in_a_defined_exit_code(argv):
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            assert main(argv) in (0, 1), argv
        except SystemExit as stop:
            assert stop.code == 2, argv


class TestOverDigitLimit:
    """Outputs holding integers of more than 4,300 digits, the default
    int/str limit: the CLI writes them, and the limit is as it was after the
    call."""

    def run_restoring_limit(self, capsys, argv):
        limit = get_digit_limit()
        code, out = run_cli(capsys, argv)
        assert get_digit_limit() == limit
        return code, out

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_gen_table(self, capsys, digit_limit, fmt):
        code, out = self.run_restoring_limit(capsys, ["gen", "--upto", "6000", "--format", fmt])
        assert code == 0
        if fmt == "json":
            last = json.loads(out)["rows"][-1]
            n, value = last["n"], last["value"]
        else:
            n, value = out.splitlines()[-1].split("\t" if fmt == "text" else ",")
        assert int(n) == 6000
        with digit_limit(0):
            assert len(value) > 4300
            assert int(value) == sequence_table(6000)[-1]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_power_sum_with_oracle(self, capsys, digit_limit, fmt):
        argv = ["sum", "--m", "1", "--power", "3", "--upto", "2000", "--oracle", "--format", fmt]
        code, out = self.run_restoring_limit(capsys, argv)
        assert code == 0
        if fmt == "json":
            data = json.loads(out)
            value, oracle, match = data["sum"], data["oracle"], data["match"]
        elif fmt == "csv":
            header, row = out.splitlines()
            assert header == "m,power,upto,sum,oracle,match"
            _, _, _, value, oracle, match = row.split(",")
            match = match == "true"
        else:
            value, oracle_line = out.splitlines()
            oracle = oracle_line.removeprefix("oracle ")
            match = oracle == value
        assert match is True and value == oracle
        with digit_limit(0):
            assert len(value) > 4300
            assert int(value) == sum(b**3 for b in sequence_table(2000))

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_formula_with_long_coefficients(self, capsys, digit_limit, fmt):
        # The closed form of sum B(3000k)**2 has a 4,596-digit denominator.
        argv = ["formula", "--m", "3000", "--power", "2", "--format", fmt]
        code, out = self.run_restoring_limit(capsys, argv)
        assert code == 0
        expr = power_sum_formula(3000, 2)
        with digit_limit(0):
            if fmt == "json":
                assert ClosedSumExpr.from_json_dict(json.loads(out)) == expr
            else:
                assert out == f"{expr.render()}\ncheck n=0: 0\n"
                assert max(len(str(c.denominator)) for c, _, _ in expr.bterms) > 4300


class TestDigitLimitLeftAlone:
    """Every number is written without the int/str digit limit, so the CLI
    never sets it, and its output does not depend on it."""

    def test_main_never_sets_the_limit(self, capsys, monkeypatch, default_digit_limit, digit_limit):
        with digit_limit(0):
            total = str(sum(b**3 for b in sequence_table(2000)))
            formula = f"{power_sum_formula(3000, 2).render()}\ncheck n=0: 0\n"

        def refuse(limit):
            raise AssertionError(f"the int/str digit limit was set to {limit}")

        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
        argv = ["sum", "--m", "1", "--power", "3", "--upto", "2000", "--oracle"]
        assert run_cli(capsys, argv) == (0, f"{total}\noracle {total}\n")
        assert run_cli(capsys, ["formula", "--m", "3000", "--power", "2"]) == (0, formula)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sum", "--m", "1", "--power", "3", "--upto", "2000", "--format", "csv"],
            ["gen", "--method", "binet", "--upto", "1200"],
        ],
        ids=["sum", "gen_binet"],
    )
    def test_same_bytes_under_the_smallest_limit(self, argv):
        # 640 digits is the smallest limit the interpreter accepts.
        env = src_env()
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        runs = [
            subprocess.run(
                [sys.executable, *flags, "-m", "balsum", *argv], env=env, capture_output=True, timeout=120
            )
            for flags in ([], ["-X", "int_max_str_digits=640"])
        ]
        assert runs[0].returncode == runs[1].returncode == 0
        assert runs[0].stderr == runs[1].stderr == b""
        assert runs[0].stdout == runs[1].stdout
        assert max(map(len, runs[0].stdout.split(b"\n"))) > 640


class TestReaderLeavesEarly:
    """A reader that closes stdout early, as `| head -1` or `| true` does,
    ends the request with status 0 and nothing on stderr."""

    def balsum(self, argv, **kwargs):
        return subprocess.Popen(
            [sys.executable, "-m", "balsum", *argv],
            stderr=subprocess.PIPE,
            env=src_env(),
            **kwargs,
        )

    def test_head_reads_one_row(self):
        # About 3 MB of rows: far more than a pipe buffers.
        proc = self.balsum(["gen", "--upto", "3000"], stdout=subprocess.PIPE)
        assert proc.stdout.readline() == b"0\t0\n"
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
        assert stderr == b""
        assert proc.returncode == 0

    def test_no_reader_at_all(self):
        # The read end is closed before the request starts, so its one short
        # line only fails at the flush.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = self.balsum(["sum", "--m", "1", "--power", "1", "--upto", "4"], stdout=write_end)
        finally:
            os.close(write_end)
        _, stderr = proc.communicate(timeout=60)
        assert stderr == b""
        assert proc.returncode == 0


# A hook that reports on stderr, as the interpreter begins its teardown,
# whether the collector was frozen; the scripts below install it first.
_FROZEN_AT_EXIT = (
    "import atexit, gc, sys\n"
    "atexit.register(lambda: sys.stderr.write(f'frozen={gc.get_freeze_count() > 0}'))\n"
)
# The process entry, run as `python -m balsum` runs it.
_ENTRY = "import runpy\nrunpy.run_module('balsum', run_name='__main__', alter_sys=True)\n"
# The same request through cli.main alone, which never freezes.
_CLI_ONLY = "import balsum.cli\nsys.exit(balsum.cli.main())\n"
_FAILING_VERIFIER = "import balsum.laurent\nbalsum.laurent.verify_odd_power_identity = lambda bound: False\n"


class TestProcessEntryFreezes:
    """`python -m balsum` and the `balsum` script freeze the collector on
    every way out, and the freeze changes no output; `cli.main` never
    freezes."""

    def run(self, body, argv, **kwargs):
        kwargs.setdefault("stdout", subprocess.PIPE)
        return subprocess.run(
            [sys.executable, "-c", _FROZEN_AT_EXIT + body, *argv],
            stderr=subprocess.PIPE,
            env=src_env(),
            timeout=120,
            **kwargs,
        )

    @pytest.mark.parametrize(
        "argv, setup, status",
        [
            pytest.param(["sum", "--m", "2", "--power", "3", "--upto", "5"], "", 0, id="sum"),
            pytest.param(["--help"], "", 0, id="help"),
            pytest.param(["sum", "--m", "0", "--power", "1", "--upto", "3"], "", 2, id="usage_error"),
            pytest.param(["verify", "--odd-max-l", "1"], _FAILING_VERIFIER, 1, id="verify_fails"),
        ],
    )
    def test_every_exit_freezes_and_writes_the_same(self, argv, setup, status):
        entry = self.run(setup + _ENTRY, argv)
        plain = self.run(setup + _CLI_ONLY, argv)
        assert entry.returncode == plain.returncode == status
        assert entry.stdout == plain.stdout
        assert plain.stderr.endswith(b"frozen=False")
        assert entry.stderr == plain.stderr.removesuffix(b"frozen=False") + b"frozen=True"

    def test_a_closed_reader_still_freezes(self):
        # As in TestReaderLeavesEarly: the reader is gone before the request
        # starts, and the request still ends with status 0.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            entry = self.run(_ENTRY, ["sum", "--m", "1", "--power", "1", "--upto", "4"], stdout=write_end)
        finally:
            os.close(write_end)
        assert entry.returncode == 0
        assert entry.stderr == b"frozen=True"

    def test_importing_the_entry_runs_nothing(self):
        run = self.run("import balsum.__main__\n", ["sum", "--m", "1", "--power", "1", "--upto", "4"])
        assert (run.returncode, run.stdout, run.stderr) == (0, b"", b"frozen=False")

    def test_cli_main_in_process_never_freezes(self, capsys):
        assert gc.get_freeze_count() == 0
        assert run_cli(capsys, ["sum", "--m", "2", "--power", "3", "--upto", "5"])[0] == 0
        with pytest.raises(SystemExit):
            main(["--help"])
        assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "argv, unloaded",
    [
        pytest.param([], {"fractions", "decimal"}, id="import"),
        pytest.param(["--help"], {"fractions", "decimal"}, id="help"),
        pytest.param(
            ["gen", "--upto", "10"], {"balsum.linearize", "balsum.summation", "balsum.laurent", "json"}, id="gen"
        ),
        pytest.param(["sum", "--m", "2", "--power", "5", "--upto", "30"], {"balsum.laurent", "json"}, id="sum"),
        pytest.param(["formula", "--m", "3", "--power", "8"], {"balsum.laurent"}, id="formula"),
        pytest.param(["linearize", "--power", "8"], {"balsum.laurent"}, id="linearize"),
        pytest.param(["verify", "--odd-max-l", "2"], {"json"}, id="verify"),
    ],
)
def test_cli_import_loads_neither_dataclasses_nor_inspect(argv, unloaded):
    # Each request loads only the layers it runs.
    loaded = _loaded_by(argv)
    assert "balsum.cli" in loaded
    assert not ({"dataclasses", "inspect"} | unloaded) & loaded
    if argv in ([], ["--help"]):
        # No library module: the package and its front end alone.
        assert {name for name in loaded if name.split(".")[0] == "balsum"} == {"balsum", "balsum.cli"}


# What an integer request, `sum` or `gen`, loads: the package, its front end,
# the integer helpers and the sequences; no form code, QuadElem or Fraction.
_INTEGER_LAYER = {"balsum", "balsum.arith", "balsum.cli", "balsum.sequences"}


def _loaded_by(argv):
    """The modules that importing `balsum.cli`, then running ``argv`` unless it
    is empty, loads in a fresh interpreter.  A diff against a snapshot taken
    first, so a module a site hook loaded (such as typing) is not counted; an
    exit of argparse's, as `--help` makes, ends the request and not the probe."""
    script = (
        "import sys; before = set(sys.modules); import balsum.cli\n"
        "if sys.argv[1:]:\n"
        "    try: balsum.cli.main(sys.argv[1:])\n"
        "    except SystemExit: pass\n"
        "sys.stderr.write(' '.join(sorted(set(sys.modules) - before)))"
    )
    run = subprocess.run([sys.executable, "-c", script, *argv], env=src_env(), capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    return set(run.stderr.split())


def _layers(argv):
    """The balsum modules, and `fractions` if loaded, that ``argv`` loads."""
    return {name for name in _loaded_by(argv) if name.split(".")[0] in ("balsum", "fractions")}


@pytest.mark.parametrize("oracle", [pytest.param([], id="sum"), pytest.param(["--oracle"], id="sum-oracle")])
def test_sum_loads_no_form_code_without_the_oracle(oracle):
    # `sum` evaluates the Binet sum of `sequences`, and `--oracle` the
    # brute-force walk beside it: neither loads the forms.
    assert _layers(["sum", "--m", "2", "--power", "5", "--upto", "30", *oracle]) == _INTEGER_LAYER


@pytest.mark.parametrize("method", ["recurrence", "fast", "binet"])
def test_gen_loads_only_the_integer_layer(method):
    assert _layers(["gen", "--upto", "30", "--method", method]) == _INTEGER_LAYER


# What a symbolic request loads on top of the integer layer: the form code,
# `fractions`, and for `verify` the proofs; none loads `balsum.field`, since
# no proof builds an element of Q(sqrt 2).
_FORMS = _INTEGER_LAYER | {"balsum.linearize", "fractions"}


@pytest.mark.parametrize(
    "argv, loaded",
    [
        pytest.param(["verify"], _FORMS | {"balsum.summation", "balsum.laurent"}, id="verify-default"),
        pytest.param(
            ["verify", "--odd-max-l", "2", "--even-max-l", "1", "--lemma-max-m", "3"],
            _FORMS | {"balsum.summation", "balsum.laurent"},
            id="verify-all-families",
        ),
        pytest.param(["formula", "--m", "3", "--power", "8"], _FORMS | {"balsum.summation"}, id="formula"),
        pytest.param(["linearize", "--power", "8"], _FORMS, id="linearize"),
    ],
)
def test_symbolic_requests_load_no_field(argv, loaded):
    assert _layers(argv) == loaded
