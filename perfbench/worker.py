"""One workload in one fresh process; prints what it measured as one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's `src`. The
import time is corrected for the host's speed, measured just before and just
after it, as timing.py describes. To record
the reference answers of the current code for a workload and seed:

    PYTHONPATH=src python3 perfbench/worker.py --workload explore --seed 0 --record
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="file to write the traced run's spans to")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="write this code's answers as the reference and exit")
    args = ap.parse_args()

    from timing import REFERENCE_STEP_S, host_speed

    before = host_speed()
    t0 = time.perf_counter()
    import hpindex  # noqa: F401  (the set-up being measured)
    raw_setup_s = time.perf_counter() - t0
    setup_s = raw_setup_s * 2 * REFERENCE_STEP_S / (before + host_speed())
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0

    from workloads import WORKLOADS, reference_path

    workload = WORKLOADS[args.workload]()
    if args.record:
        seed = args.seed if workload.seeded else None
        path = reference_path(workload.name, seed)
        path.parent.mkdir(exist_ok=True)
        path.write_text(json.dumps(workload.reference(args.seed), sort_keys=True) + "\n")
        print(f"wrote {path}")
        return 0

    run = workload.run(args.seed, args.seconds, bool(args.trace))
    out = run.to_json()
    out["setup_s"] = setup_s
    out["raw_setup_s"] = raw_setup_s
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if args.trace and args.spans:
        workload.tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
