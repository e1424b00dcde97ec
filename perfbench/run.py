"""Run one workload of the hpindex benchmark and print its metrics.

    python3 perfbench/run.py --workload explore --seed 0 --seconds 15 --trace 0

Run it from the root of an hpindex checkout; it needs nothing installed, as
the package is imported from `src`. The workload runs in a fresh,
single-threaded child process (worker.py); workloads.py says how passes are
timed, and timing.py how every time is corrected for the shared host's speed.
`setup_s` is the median import time over several fresh processes, the
workload's own included.

Every metric is printed by name and unit, as BENCHMARK.json lists them, then
the last line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`.
With `--trace 0` the metrics are the end-to-end ones, measured untraced; with
`--trace 1` they are the per-layer ones from a traced pass, and the spans are
written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from timing import REFERENCE_STEP_S  # noqa: E402

SETUP_PROBES = 11
DEADLINE_S = 170.0  # the whole run, child processes included

SPEC = HERE.parent / "BENCHMARK.json"


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json lists them under `kind`."""
    spec = json.loads(SPEC.read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between order statistics."""
    if len(values) == 1:
        return values[0]
    if q == 50:
        return statistics.median(values)
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def child(cmd: list[str], env: dict, started: float) -> dict:
    left = DEADLINE_S - (time.monotonic() - started)
    if left <= 0:
        raise SystemExit("error: out of time before the workload finished")
    try:
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=left)
    except subprocess.TimeoutExpired:
        raise SystemExit("error: workload process timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: workload process exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(out: dict, setups: list[float]) -> dict[str, float]:
    wall = out["wall_s"]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "settled_per_s": out["settled"] / wall,
        "settled_frac": out["settled"] / out["attempted"],
        "latency_p50_ms": percentile(out["latency_s"], 50) * 1e3,
        "latency_p90_ms": percentile(out["latency_s"], 90) * 1e3,
        "peak_rss_mb": out["peak_rss_mb"],
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=("explore", "verify-trees", "big-trees", "oracle-queries"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    started = time.monotonic()
    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("error: terminated"))

    root = Path.cwd()
    if not (root / "src" / "hpindex" / "__init__.py").is_file():
        print("error: run from the root of an hpindex checkout; "
              "src/hpindex is missing", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    base = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed)]

    probes = [child(base + ["--setup-only"], env, started) for _ in range(SETUP_PROBES)]
    cmd = base + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = root / ".perfbench_out"
        out_dir.mkdir(exist_ok=True)
        cmd += ["--spans", str(out_dir / f"spans-{args.workload}-{args.seed}.jsonl")]
    out = child(cmd, env, started)
    probes.append(out)
    setups = [p["setup_s"] for p in probes]

    attempted, failed = out["attempted"], out["failed"]
    caps = {b: out["caps"].get(b, 0) for b in
            ("vertex_cap", "node_budget", "iteration_budget", "stage_cap", "time_limit",
             "other")}
    print(f"workload {args.workload}, seed {args.seed}, reference "
          f"{out['reference'] or 'none for this seed'}")
    print("  pass times " + ", ".join(f"{s:.3f}" for s in out["pass_s"])
          + " s; raw " + ", ".join(f"{s:.3f}" for s in out["raw_pass_s"]) + " s")
    print(f"  raw setup {statistics.median(p['raw_setup_s'] for p in probes):.4f} s; "
          f"calibration step {out['step_s'] * 1e3:.4f} ms, "
          f"reference {REFERENCE_STEP_S * 1e3:.4f} ms")
    print(f"  attempted {attempted}, settled {out['settled']}, capped {out['capped']}, "
          f"failed {failed}")
    print(f"  capped_frac = {out['capped'] / attempted:.6g} ratio")
    print(f"  failed_frac = {failed / attempted:.6g} ratio")
    print("  capped by: " + ", ".join(f"{k} {v}" for k, v in caps.items()))
    for note in out["notes"]:
        print(f"  note: {note}")

    if args.trace:
        layer = out["per_layer"]
        values, units = layer, declared("per_layer")
        time_limit = layer["oracles.capped.time_limit"] + caps["time_limit"]
        self_sum = sum(v for k, v in layer.items() if k.endswith(".self_s"))
        print(f"  sum of per-layer self_s = {self_sum:.6g} s "
              f"(traced wall_s {layer['trace.wall_s']:.6g} s)")
    else:
        values, units = end_to_end(out, setups), declared("end_to_end")
        time_limit = caps["time_limit"]
    if set(values) != set(units):
        raise SystemExit("error: metrics differ from those BENCHMARK.json lists")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    if time_limit:
        print(f"FLAG: {time_limit} instance(s) capped by the time limit; this run "
              "measured the clock, not the program", file=sys.stderr)
        print("  FLAG: time_limit caps present; timings depend on the machine clock")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
