"""scripts/write_bench.py, run twice on the cheapest workload, and its argument checks."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_write_bench_records_the_declared_metrics(tmp_path):
    subprocess.run([sys.executable, "scripts/write_bench.py", "--workload", "big-trees",
                    "--seconds", "1", "--trace", "0", "--runs", "2",
                    "--out", str(tmp_path)],
                   cwd=ROOT, check=True, capture_output=True)
    bench = json.loads((tmp_path / "BENCH_big-trees.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert list(bench["end_to_end"]["metrics"]) == [m["name"] for m in spec["end_to_end"]]
    assert bench["correct"] is True
    assert bench["end_to_end"]["failed"] == 0
    assert "per_layer" not in bench
    assert bench["seed"] == 0 and bench["seconds"] == 1.0 and bench["runs"] == 2
    assert bench["end_to_end"]["attempted"] == 2 * 120
    for metric in bench["end_to_end"]["metrics"].values():
        assert list(metric) == ["value", "unit", "q1", "q3"]
        assert metric["q1"] <= metric["value"] <= metric["q3"]


@pytest.mark.parametrize("runs", ["0", "-1"])
def test_write_bench_refuses_fewer_than_one_run(tmp_path, runs):
    proc = subprocess.run([sys.executable, "scripts/write_bench.py", "--runs", runs,
                           "--out", str(tmp_path)],
                          cwd=ROOT, capture_output=True, text=True)
    assert proc.returncode == 2
    assert f"argument --runs: must be at least 1, not {runs}" in proc.stderr
    assert list(tmp_path.iterdir()) == []
