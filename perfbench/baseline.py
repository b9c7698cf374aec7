"""Record the seed baseline of the benchmark in baseline.json.

    python3 perfbench/baseline.py [--seeds 10] [--seconds 30]

Runs run.py once per workload and seed with --trace 0, and once per workload
at seed 1 with --trace 1, one run at a time.  For every end-to-end metric it
prints and stores the median over the seeds and the spread: the distance
between the first and third quartile over the median.  The raw result line
of every run goes to .perfbench_out/baseline-runs.jsonl as it arrives.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE.parent / ".perfbench_out"


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    """(result line, metadata) of one run of run.py."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
    meta = json.loads(next(line for line in lines if line.startswith("meta "))[5:])
    return json.loads(lines[-1]), meta


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)
    end_to_end, per_layer, meta = {}, {}, {}
    with open(OUT_DIR / "baseline-runs.jsonl", "w") as log:
        for workload in workloads.SETS:
            runs = []
            for seed in range(1, args.seeds + 1):
                result, meta = run(workload, seed, args.seconds, 0)
                log.write(json.dumps({"workload": workload, "seed": seed, "trace": 0, **result}) + "\n")
                log.flush()
                runs.append({
                    "seed": seed,
                    "attempted": result["attempted"],
                    "failed": result["failed"],
                    "correct": result["correct"],
                    "metrics": {k: round(v["value"], 6) for k, v in result["metrics"].items()},
                })
                print(workload, seed, runs[-1]["failed"], "/", runs[-1]["attempted"], runs[-1]["metrics"], flush=True)
            summary = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name] for r in runs]
                summary[name] = {"median": round(statistics.median(values), 6), "iqr_over_median": round(spread(values), 4)}
                print(f"{workload} {name} median {summary[name]['median']:.6g} spread {summary[name]['iqr_over_median']:.3f}")
            end_to_end[workload] = {"summary": summary, "runs": runs}
            result, _ = run(workload, 1, args.seconds, 1)
            log.write(json.dumps({"workload": workload, "seed": 1, "trace": 1, **result}) + "\n")
            per_layer[workload] = {
                "seed": 1,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "correct": result["correct"],
                "metrics": {k: round(v["value"], 6) for k, v in result["metrics"].items()},
            }
    baseline = {
        "about": (f"Seed baseline of the balsum CLI benchmark: every end-to-end metric per workload over "
                  f"seeds 1 to {args.seeds} ({args.seconds} s runs, --trace 0), and every per-layer metric from "
                  f"one traced run per workload at seed 1, each with the requests the run used."),
        "run_seconds": args.seconds,
        "set_size": workloads.SET_SIZE,
        "tail_percentile": workloads.TAIL_PERCENTILE,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "machine": {k: meta[k] for k in ("python", "cpu", "nproc", "cli_int_max_str_digits", "ceiling_s", "commit")},
    }
    with open(HERE / "baseline.json", "w") as out:
        json.dump(baseline, out, indent=1)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
