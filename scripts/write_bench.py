#!/usr/bin/env python3
"""Run the benchmark on each workload and write its results to BENCH_<workload>.json.

For each workload, `perfbench/run.py` runs from the root of the checkout
untraced (`--trace 0`, the end-to-end metrics) and then traced (`--trace 1`,
the per-layer metrics), --runs times each. The file keeps, under
"end_to_end" and "per_layer", the runs' last output lines taken together:
`correct` when every run was correct, `attempted` and `failed` summed, and
each metric's median over the runs as its `value`, with its `unit` and its
quartiles `q1` and `q3`. It records the commit, whether tracked files differ
from it, the seed, the seconds per run, the number of runs and the machine.
Run it from anywhere in a checkout:

    python3 scripts/write_bench.py                       # all four workloads
    python3 scripts/write_bench.py --runs 5              # medians of five runs
    python3 scripts/write_bench.py --workload big-trees --seconds 1 --trace 0
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("explore", "verify-trees", "big-trees", "oracle-queries")
LAYERS = {0: "end_to_end", 1: "per_layer"}


def _git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """The last line of one perfbench/run.py run, parsed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"error: {' '.join(cmd)} exited {proc.returncode}:\n"
                         + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def combined(runs: list[dict]) -> dict:
    """Several runs' last lines as one, in the same shape: `correct` on
    every run, `attempted` and `failed` summed, and each metric's median
    over the runs, with its quartiles."""
    metrics = {}
    for name, metric in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, _, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        metrics[name] = {"value": statistics.median(values), "unit": metric["unit"],
                         "q1": q1, "q3": q3}
    return {"correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs), "metrics": metrics}


def at_least_one(text: str) -> int:
    """An argparse type: an int of 1 or more."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, not {value}")
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--runs", type=at_least_one, default=1,
                    help="runs per workload and layer, summarised by their median")
    ap.add_argument("--trace", type=int, choices=(0, 1), action="append",
                    help="run only untraced (0) or traced (1); default: both")
    ap.add_argument("--out", type=Path, default=ROOT,
                    help="directory for the BENCH_*.json files (default: the checkout)")
    args = ap.parse_args()
    status = _git("status", "--porcelain", "--untracked-files=no")
    facts = {
        "commit": _git("rev-parse", "HEAD"),
        "tracked_files_changed": None if status is None else bool(status),
        "seed": args.seed,
        "seconds": args.seconds,
        "runs": args.runs,
        "machine": {"machine": platform.machine(),
                    "python": platform.python_version(),
                    "cpu_count": os.cpu_count()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or WORKLOADS:
        runs = {LAYERS[t]: combined([run(workload, args.seed, args.seconds, t)
                                     for _ in range(args.runs)])
                for t in sorted(set(args.trace or LAYERS))}
        bench = {"workload": workload, **facts,
                 "correct": all(r["correct"] for r in runs.values()), **runs}
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"{path}: correct {bench['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
