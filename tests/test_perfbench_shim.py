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
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
ROWS = 6


@pytest.mark.parametrize("seq, method", [("B", "fast"), ("B", "binet"), ("C", "fast"), ("C", "binet")])
def test_each_row_is_one_sequences_span(tmp_path, seq, method):
    out = tmp_path / "spans.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    argv = ["gen", "--upto", str(ROWS - 1), "--seq", seq, "--method", method]
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "shim.py"), "spans", str(out), "--", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert len(run.stdout.splitlines()) == ROWS
    layers = [(layer, name) for layer, name, *_ in json.loads(out.read_text())["spans"]]
    generator = {"B": "balancing", "C": "lucas_balancing"}[seq] + "_" + method
    assert layers == [("cli", "main")] + [("sequences", generator)] * ROWS


def run_shim(tmp_path, mode, argv):
    """Run one request through perfbench/shim.py; the process and its record."""
    out = tmp_path / f"{mode}.json"
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "shim.py"), mode, str(out), "--", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    return run, json.loads(out.read_text())


@pytest.mark.parametrize(
    "argv, layer",
    [
        (["verify", "--odd-max-l", "3", "--even-max-l", "2", "--lemma-max-m", "4"], "laurent"),
        (["sum", "--m", "2", "--power", "3", "--upto", "5", "--oracle"], "summation"),
    ],
)
def test_proofs_and_sums_run_under_both_modes(tmp_path, argv, layer):
    run, record = run_shim(tmp_path, "spans", argv)
    assert run.returncode == 0, run.stderr
    assert layer in {span[0] for span in record["spans"]}
    alloc_run, alloc = run_shim(tmp_path, "alloc", argv)
    assert alloc_run.returncode == 0, alloc_run.stderr
    assert alloc_run.stdout == run.stdout
    assert alloc["peak_alloc_bytes"] > 0
