#!/usr/bin/env python3
"""Print one SHA-256 per benchmark answer set, to show two commits agree.

Each line hashes the answers of one benchmark input: every query of the
`oracle-queries` workload for seeds 0-3, each as its result's
`to_json_dict()` or, for the table queries, its (ok, walk) pair, then the
report bodies of `verify-trees` and of `explore` on seed 0, then every
`big-trees` query for seeds 0 and 1 as its whole closed-form result's
`to_json_dict()`: endpath, off-path branch and per-pair values as well as
the value the benchmark's reference checks. The inputs come
from `perfbench/workloads.py`, so they are the ones the benchmark runs.
Run it from the root of a checkout on two commits and compare the output,
or compare it with the lines recorded in `scripts/answers_digest.txt`, as
CI does; a change that alters an answer re-records that file:

    PYTHONPATH=src python3 scripts/answers_digest.py | diff scripts/answers_digest.txt -
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import BigTrees, Explore, OracleQueries, VerifyTrees  # noqa: E402


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> None:
    queries = OracleQueries()
    for seed in range(4):
        lines = []
        for item in queries.inputs(seed):
            out = queries.query(item)
            answer = out if isinstance(out, tuple) else out.to_json_dict()
            lines.append(json.dumps([item["tag"], answer], sort_keys=True))
        digest = _sha("\n".join(lines).encode())
        print(f"oracle-queries seed {seed}: {digest}")
    print(f"verify-trees: {_sha(VerifyTrees().call(12).body_bytes())}")
    explore = Explore()
    print(f"explore seed 0: {_sha(explore.call(explore.inputs(0)).body_bytes())}")
    trees = BigTrees()
    for seed in range(2):
        lines = [json.dumps([item["tag"], trees.query(item).to_json_dict()],
                            sort_keys=True) for item in trees.inputs(seed)]
        digest = _sha("\n".join(lines).encode())
        print(f"big-trees seed {seed}: {digest}")


if __name__ == "__main__":
    main()
