"""Check that two checkouts of balsum answer every request with the same bytes.

    python3 bench/same_output.py PARENT_DIR CHANGE_DIR

Each request is a fresh `python -m balsum ...`, run one process at a time,
once under each checkout (PYTHONPATH=<dir>/src, PYTHONDONTWRITEBYTECODE=1,
working directory <dir>).  The requests are those of the end-to-end
benchmark, `perfbench/workloads.request_set` of the three workloads at seeds
1 and 2, followed by a fixed list of usage errors, help texts, edge cases of
`sum` (an empty sum, a large n, an oracle-checked odd power, the largest
benchmark shape at a small n) and the default `verify` sweep.  A request whose stdout, stderr or exit code
differs by sha256 between the two checkouts is printed with what differs;
the script exits 1 if any request differs, 0 otherwise.
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

SEEDS = (1, 2)
FIXED = [
    [],
    ["--help"],
    *([command, "--help"] for command in ("gen", "linearize", "sum", "formula", "verify")),
    ["frobnicate"],
    ["gen"],
    ["gen", "--upto", "-1"],
    ["gen", "--upto", "x"],
    ["gen", "--upto", "3", "--format", "xml"],
    ["linearize", "--power", "0"],
    ["linearize", "--power", "x"],
    ["sum", "--m", "0", "--power", "1", "--upto", "3"],
    ["sum", "--m", "1", "--power", "-2", "--upto", "3"],
    ["sum", "--m", "1", "--power", "1", "--upto", "2", "--bogus"],
    ["sum", "--m", "1", "--power", "1", "--upto", "0"],
    ["sum", "--m", "2", "--power", "2", "--upto", "4000"],
    ["sum", "--m", "1", "--power", "3", "--upto", "3000", "--oracle"],
    ["sum", "--m", "12", "--power", "40", "--upto", "21", "--format", "json"],
    ["formula", "--m", "1", "--power", "-2"],
    ["formula", "--m", "1.5", "--power", "1"],
    ["verify", "--odd-max-l", "-1"],
    ["verify", "--lemma-max-m", "1e3"],
    ["verify"],
]
# No request of the benchmark takes more than a few seconds.
TIMEOUT_S = 600


def requests() -> list[list[str]]:
    sets = [workloads.request_set(name, seed) for name in workloads.SETS for seed in SEEDS]
    return [argv for requests in sets for argv in requests] + FIXED


def digests(tree: Path, argv: list[str]) -> dict[str, str]:
    """sha256 of the stdout and stderr, and the exit code, of one request."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "balsum", *argv], cwd=tree, env=env, capture_output=True, timeout=TIMEOUT_S
    )
    sha = {name: hashlib.sha256(data).hexdigest() for name, data in (("stdout", run.stdout), ("stderr", run.stderr))}
    return {**sha, "exit": str(run.returncode)}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/same_output.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    parent, change = (Path(arg).resolve() for arg in argv)
    all_requests = requests()
    differing = 0
    for request in all_requests:
        before, after = digests(parent, request), digests(change, request)
        diff = [name for name in before if before[name] != after[name]]
        if diff:
            differing += 1
            print(f"differs in {', '.join(diff)}: balsum {' '.join(request)}", flush=True)
    print(f"{len(all_requests)} requests, {differing} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
