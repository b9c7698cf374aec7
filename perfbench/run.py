"""Benchmark of the balsum command line on seeded, closed-loop request sets.

    python3 perfbench/run.py --workload sums|tables|symbolic|all --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/selftest.py     # the reference checker alone

It measures the checkout that holds this directory and builds nothing.  One
client sends one request at a time (a closed loop): each request is a fresh
`python -m balsum ...`
process against src/, spawned through launcher.py, timed from spawn to exit
with its output fully written, and killed at CEILING_S.  The seed fixes a
set of requests (workloads.py); passes over the set, each in a fresh order,
are sent until the requests' summed wall time reaches --seconds, and every
output is checked against reference.py.  The metrics are taken over the
set's requests, each at the median wall time of its runs; `attempted` and
`failed` count the set's requests, a request failing if any run of it
failed, so they depend on the seed and the code alone.

--trace 0 reports the end-to-end metrics.  --trace 1 makes one pass over the
same set, running each request plainly, then through shim.py with spans,
then under tracemalloc, and reports the per-layer metrics of layers.py.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the lines before it give every metric with
its unit, the failures, and the run's metadata.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import layers
import selftest
import workloads
from reference import DIGIT_LIMIT, Checker, Outcome

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# Scratch files of this run; the pid keeps runs in one checkout apart.
_SCRATCH = {name: OUT_DIR / f"{name}-{os.getpid()}" for name in ("stdout", "stderr", "spans.json", "alloc.json")}

# A request running longer than this is killed and counted as failed, so a
# pathological slowdown cannot hang a run.  The slowest request of any
# workload takes about 2 s on the reference machine.
CEILING_S = 20.0
# setup_s is the median wall time of a fresh `balsum --help`, timed before
# every SETUP_EVERY-th request so that it samples the whole run: the speed of
# a shared machine drifts by tens of percent over seconds.
SETUP_EVERY = 8

END_TO_END = (
    ("req_p50_ms", "ms"),
    ("req_tail_ms", "ms"),
    ("ok_per_s", "1/s"),
    ("ok_frac", "ratio"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

BALSUM = [sys.executable, "-m", "balsum"]
SHIM = [sys.executable, str(HERE / "shim.py")]


@dataclass
class Sample:
    argv: list[str]
    wall_s: float
    maxrss_kb: int
    out_bytes: int
    outcome: Outcome
    runs: int = 1


class Launcher:
    """launcher.py, started once per run, spawning and timing every request."""

    def __init__(self) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        # The CLI runs with the interpreter's default int/str digit limit.
        env.pop("PYTHONINTMAXSTRDIGITS", None)
        self.stdout, self.stderr = _SCRATCH["stdout"], _SCRATCH["stderr"]
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            env=env,
        )

    def run(self, argv: list[str]) -> tuple[dict, bytes, str]:
        """Run one process to completion; (launcher report, stdout, stderr)."""
        request = {"argv": argv, "stdout": str(self.stdout), "stderr": str(self.stderr), "ceiling": CEILING_S}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("launcher.py exited")
        return json.loads(line), self.stdout.read_bytes(), self.stderr.read_text(errors="replace")

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=CEILING_S + 10)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()


class Bench:
    def __init__(self, launcher: Launcher, checker: Checker) -> None:
        self.launcher = launcher
        self.checker = checker
        # Verdicts by request and result: a repeated request whose output is
        # byte for byte one already checked gets the same verdict.
        self._verdicts: dict[tuple, Outcome] = {}

    def request(self, command: list[str], argv: list[str]) -> Sample:
        report, out, err = self.launcher.run([*command, *argv])
        key = (*command, *argv, report["exit"], report["timed_out"],
               hashlib.sha256(out).digest(), hashlib.sha256(err.encode()).digest())
        if key not in self._verdicts:
            self._verdicts[key] = self.checker.check(
                argv, report["exit"], report["timed_out"], out.decode(errors="replace"), err)
        return Sample(argv, report["wall_s"], report["maxrss_kb"], len(out), self._verdicts[key])

    def help_wall_s(self) -> float:
        """Wall time of a fresh `balsum --help`: interpreter start, package
        import and parser construction."""
        report, out, err = self.launcher.run([*BALSUM, "--help"])
        if report["exit"] != 0 or not out.startswith(b"usage: balsum"):
            raise RuntimeError(f"`balsum --help` failed (exit {report['exit']}): {err[-500:]}")
        return report["wall_s"]

    def cli_digit_limit(self) -> int:
        report, out, _ = self.launcher.run([sys.executable, "-c", "import sys; print(sys.get_int_max_str_digits())"])
        return int(out)


def run_plain(bench: Bench, workload: str, seed: int, seconds: float) -> tuple[list[Sample], float]:
    """One sample per request of the set, and the median set-up time sampled
    through the run.

    Passes over the set are sent until the requests' summed wall time reaches
    ``seconds``; the first pass is always whole, a later one may stop part
    way.  A request's sample has the median wall time of its runs, the
    largest peak RSS, and the first failing outcome if any run failed.
    """
    requests = workloads.request_set(workload, seed)
    runs: list[list[Sample]] = [[] for _ in requests]
    setup_walls: list[float] = []
    busy = 0.0
    sent = 0
    for pass_no in itertools.count():
        for i in workloads.pass_order(workload, seed, pass_no):
            if pass_no and busy >= seconds:
                return [_aggregate(r) for r in runs], statistics.median(setup_walls)
            if sent % SETUP_EVERY == 0:
                setup_walls.append(bench.help_wall_s())
            runs[i].append(bench.request(BALSUM, requests[i]))
            busy += runs[i][-1].wall_s
            sent += 1
    raise AssertionError("unreachable")


def _aggregate(runs: list[Sample]) -> Sample:
    failing = [r for r in runs if not r.outcome.ok]
    return Sample(
        argv=runs[0].argv,
        wall_s=statistics.median(r.wall_s for r in runs),
        maxrss_kb=max(r.maxrss_kb for r in runs),
        out_bytes=runs[0].out_bytes,
        outcome=(failing or runs)[0].outcome,
        runs=len(runs),
    )


def run_traced(bench: Bench, workload: str, seed: int) -> tuple[list[Sample], dict]:
    """One pass over the set, three runs per request; per-layer metrics."""
    spans_path, alloc_path = _SCRATCH["spans.json"], _SCRATCH["alloc.json"]
    samples: list[Sample] = []
    records: list[dict] = []
    plain_walls: list[float] = []
    traced_walls: list[float] = []
    for request_id, argv in enumerate(workloads.request_set(workload, seed)):
        spans_path.unlink(missing_ok=True)
        alloc_path.unlink(missing_ok=True)
        plain = bench.request(BALSUM, argv)
        traced = bench.request([*SHIM, "spans", str(spans_path), "--"], argv)
        alloc = bench.request([*SHIM, "alloc", str(alloc_path), "--"], argv)
        record = _load(spans_path)
        record.update(
            request=request_id,
            argv=argv,
            out_bytes=plain.out_bytes,
            peak_alloc_bytes=_load(alloc_path).get("peak_alloc_bytes", 0),
        )
        records.append(record)
        failing = [s for s in (plain, traced, alloc) if not s.outcome.ok]
        samples.append(failing[0] if failing else plain)
        plain_walls.append(plain.wall_s)
        traced_walls.append(traced.wall_s)
    overhead_ms = (statistics.median(traced_walls) - statistics.median(plain_walls)) * 1e3
    # All spans of the run, written once, for inspection.
    with open(OUT_DIR / f"spans-{workload}-seed{seed}.json", "w") as out:
        json.dump(records, out)
    return samples, layers.summarise(records, overhead_ms)


def _load(path: Path) -> dict:
    """A shim record; empty when the shim was killed before writing it."""
    try:
        return json.loads(path.read_text())
    except FileNotFoundError:
        return {}


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload: str, samples: list[Sample], setup_s: float) -> dict[str, float]:
    walls = [s.wall_s for s in samples]
    ok = sum(s.outcome.ok for s in samples)
    return {
        "req_p50_ms": statistics.median(walls) * 1e3,
        "req_tail_ms": _percentile(walls, workloads.TAIL_PERCENTILE[workload]) * 1e3,
        # Failed requests add time but no count.
        "ok_per_s": ok / sum(walls),
        "ok_frac": ok / len(samples),
        "peak_rss_mb": max(s.maxrss_kb for s in samples) / 1024,
        "setup_s": setup_s,
    }


def describe(workload: str, samples: list[Sample]) -> list[str]:
    """Human-readable lines on the failures of a run."""
    failed = [s for s in samples if not s.outcome.ok]
    reasons: dict[str, int] = {}
    for s in failed:
        reasons[s.outcome.reason] = reasons.get(s.outcome.reason, 0) + 1
    over = [s for s in samples if s.outcome.over_limit]
    return [
        f"{workload} failed_frac {len(failed) / len(samples):.4f} ({len(failed)}/{len(samples)} requests; "
        + (", ".join(f"{k} {v}" for k, v in sorted(reasons.items())) or "none") + ")",
        f"{workload} output over {DIGIT_LIMIT} digits: {len(over)} requests, "
        f"{sum(not s.outcome.ok for s in over)} of them failed; "
        f"failed otherwise: {sum(not s.outcome.over_limit for s in failed)}",
    ]


def describe_tail(workload: str, samples: list[Sample]) -> str:
    walls = [s.wall_s for s in samples]
    pct = workloads.TAIL_PERCENTILE[workload]
    beyond = sum(w > _percentile(walls, pct) for w in walls)
    return (f"{workload} {len(walls)} requests, {sum(s.runs for s in samples)} runs; "
            f"req_tail_ms is p{pct}, with {beyond} requests beyond it")


def metadata(bench: Bench, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "cpu": _cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "commit": _git_commit(),
        "cli_int_max_str_digits": bench.cli_digit_limit(),
        "ceiling_s": CEILING_S,
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*workloads.SETS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0, help="summed request wall time per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "balsum" / "__main__.py").is_file():
        print(f"error: no balsum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    # Started first, while this process is small: see launcher.py.
    launcher = Launcher()
    try:
        selftest.run()
        bench = Bench(launcher, Checker())
        meta = metadata(bench, args.seed)
        bench.help_wall_s()  # writes the bytecode caches
        names = list(workloads.SETS) if args.workload == "all" else [args.workload]
        results = {}
        for workload in names:
            if args.trace:
                samples, metrics = run_traced(bench, workload, args.seed)
                units = {name: unit for name, unit, _ in layers.PER_LAYER}
            else:
                samples, setup_s = run_plain(bench, workload, args.seed, args.seconds)
                metrics = end_to_end(workload, samples, setup_s)
                units = dict(END_TO_END)
                print(describe_tail(workload, samples))
            for line in describe(workload, samples):
                print(line)
            for name, value in metrics.items():
                print(f"{workload} {name} {value:.6g} {units[name]}")
            results[workload] = (samples, metrics, units)
    finally:
        launcher.close()
        for path in _SCRATCH.values():
            path.unlink(missing_ok=True)
    print("meta " + json.dumps(meta))
    samples = [s for workload_samples, _, _ in results.values() for s in workload_samples]
    prefix = len(results) > 1
    summary = {
        # False when any request printed a wrong value; crashes and timeouts
        # are counted in "failed".
        "correct": not any(s.outcome.reason == "wrong" for s in samples),
        "attempted": len(samples),
        "failed": sum(not s.outcome.ok for s in samples),
        "metrics": {
            (f"{workload}.{name}" if prefix else name): {"value": value, "unit": units[name]}
            for workload, (_, metrics, units) in results.items()
            for name, value in metrics.items()
        },
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
