"""The per-layer tracer of the benchmark still sees the library's layers.

perfbench/shim.py wraps the public functions of the library where their
callers look them up.  `gen --method fast|binet` looks its per-row generator
up on `balsum.sequences` by name, so every row must still show as one
`sequences` span; a lookup the tracer misses would zero the per-layer metrics
of these requests without failing anything else.  The tracer also patches the
products of QuadElem and LaurentPoly, so a proof and an oracle-checked sum
must still run to the end under both modes of the shim.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import src_env

ROOT = Path(__file__).resolve().parent.parent
ROWS = 6


def run_shim(tmp_path, mode, argv):
    """Run one request through perfbench/shim.py; the process and its record."""
    out = tmp_path / f"{mode}.json"
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "shim.py"), mode, str(out), "--", *argv],
        env=src_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return run, json.loads(out.read_text())


@pytest.mark.parametrize("seq, method", [("B", "fast"), ("B", "binet"), ("C", "fast"), ("C", "binet")])
def test_each_row_is_one_sequences_span(tmp_path, seq, method):
    run, record = run_shim(tmp_path, "spans", ["gen", "--upto", str(ROWS - 1), "--seq", seq, "--method", method])
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == ROWS
    layers = [(layer, name) for layer, name, *_ in record["spans"]]
    generator = {"B": "balancing", "C": "lucas_balancing"}[seq] + "_" + method
    assert layers == [("cli", "main")] + [("sequences", generator)] * ROWS


@pytest.mark.parametrize(
    "argv, span",
    [
        pytest.param(
            ["verify", "--odd-max-l", "3", "--even-max-l", "2", "--lemma-max-m", "4"],
            ("laurent", "verify_odd_power_identity"),
            id="verify",
        ),
        pytest.param(
            ["sum", "--m", "2", "--power", "3", "--upto", "5", "--oracle"],
            ("sequences", "brute_force_power_sum"),
            id="sum-oracle",
        ),
        pytest.param(["linearize", "--power", "5"], ("linearize", "linearize"), id="linearize"),
        pytest.param(["formula", "--m", "3", "--power", "4"], ("summation", "power_sum_formula"), id="formula"),
    ],
)
def test_proofs_and_sums_run_under_both_modes(tmp_path, argv, span):
    # ``span`` is the (layer, function) the request must trace: for `sum
    # --oracle` the oracle's own, which the `power_sum` span would not show;
    # for `formula` the `summation` layer's, which no other request pins.
    run, record = run_shim(tmp_path, "spans", argv)
    assert run.returncode == 0, run.stderr
    assert span in {(layer, name) for layer, name, *_ in record["spans"]}
    alloc_run, alloc = run_shim(tmp_path, "alloc", argv)
    assert alloc_run.returncode == 0, alloc_run.stderr
    assert alloc_run.stdout == run.stdout
    assert alloc["peak_alloc_bytes"] > 0
