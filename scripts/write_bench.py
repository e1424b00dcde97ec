#!/usr/bin/env python3
"""Run the benchmark on each workload and write its results to BENCH_<workload>.json.

For each workload, `perfbench/run.py` runs from the root of the checkout
untraced (`--trace 0`, the end-to-end metrics) and then traced (`--trace 1`,
the per-layer metrics). The file keeps each run's last output line, its
`correct`, `attempted`, `failed` and metrics, under "end_to_end" and
"per_layer", with the commit, whether tracked files differ from it, the seed,
the seconds per run and the machine. Run it from anywhere in a checkout:

    python3 scripts/write_bench.py                       # all four workloads
    python3 scripts/write_bench.py --workload big-trees --seconds 1 --trace 0
"""

import argparse
import json
import os
import platform
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


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=WORKLOADS,
                    help="a workload to run (repeatable; default: all four)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
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
        "machine": {"machine": platform.machine(),
                    "python": platform.python_version(),
                    "cpu_count": os.cpu_count()},
    }
    args.out.mkdir(parents=True, exist_ok=True)
    for workload in args.workload or WORKLOADS:
        runs = {LAYERS[t]: run(workload, args.seed, args.seconds, t)
                for t in sorted(set(args.trace or LAYERS))}
        bench = {"workload": workload, **facts,
                 "correct": all(r["correct"] for r in runs.values()), **runs}
        path = args.out / f"BENCH_{workload}.json"
        path.write_text(json.dumps(bench, indent=2) + "\n")
        print(f"{path}: correct {bench['correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
