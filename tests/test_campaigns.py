"""Campaign reports: tallies, determinism, and witness re-verification."""

import hashlib
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from hpindex import (
    CampaignReport,
    FamilyParams,
    SearchBudget,
    ValidationError,
    compare_formula_oracle,
    explore_conclusion,
    graph_from_token_edges,
    graph_key,
    verify_hnw,
    verify_trees,
    verify_xiongzong,
)
from hpindex import campaigns, formula
from hpindex.version import __version__

BODY_KEYS = {"campaign", "version", "parameters", "seed", "instances",
             "counts", "witnesses"}


def test_report_rejects_bad_counts():
    with pytest.raises(ValidationError):
        CampaignReport("x", {}, None, 1, {"agree": 1}, (), 0.0)
    with pytest.raises(ValidationError):
        CampaignReport("x", {}, None, 2,
                       {"agree": 1, "mismatch": 0, "capped": 0}, (), 0.0)


def test_report_body_excludes_wall_clock():
    counts = {"agree": 1, "mismatch": 0, "capped": 0}
    a = CampaignReport("x", {"p": 1}, 7, 1, counts, (), 0.25)
    b = CampaignReport("x", {"p": 1}, 7, 1, counts, (), 99.0)
    assert a.body_bytes() == b.body_bytes()
    assert set(a.body_dict()) == BODY_KEYS
    assert set(a.to_json_dict()) == BODY_KEYS | {"wall_clock_s"}
    assert a.to_json_dict()["wall_clock_s"] == 0.25
    assert a.to_json_dict()["version"] == __version__


def test_verify_trees_small_all_agree():
    report = verify_trees(6)
    assert report.campaign == "verify-trees"
    assert report.parameters == {"max_n": 6}
    assert report.seed is None
    assert report.instances == 14  # trees on 1..6 vertices
    assert report.counts == {"agree": 14, "mismatch": 0, "capped": 0}
    assert report.witnesses == ()
    assert report.wall_clock_s >= 0


def test_verify_trees_bounds():
    with pytest.raises(ValidationError):
        verify_trees(0)
    with pytest.raises(ValidationError):
        verify_trees(15)


def test_verify_trees_rerun_is_byte_identical():
    assert verify_trees(5).body_bytes() == verify_trees(5).body_bytes()


def test_verify_trees_tight_budget_caps_honestly():
    # stage graphs above four vertices are refused unless they are paths or
    # cycles, so big trees cap
    budget = SearchBudget(dp_vertex_cap=4, backtrack_vertex_cap=4)
    report = verify_trees(6, budget=budget)
    assert report.instances == 14
    assert report.counts["capped"] > 0
    assert report.counts["mismatch"] == 0
    assert sum(report.counts.values()) == report.instances


@pytest.mark.parametrize("campaign, instances",
                         [(verify_xiongzong, 771), (verify_hnw, 767)])
def test_trail_campaigns_tight_budget_cap_honestly(campaign, instances):
    # line graphs above three vertices are refused unless they are paths or
    # cycles, so most of the connected graphs on five vertices cap
    budget = SearchBudget(dp_vertex_cap=3, backtrack_vertex_cap=3)
    report = campaign(5, budget=budget)
    assert report.instances == instances
    assert report.counts["capped"] > 0
    assert report.counts["agree"] > 0
    assert report.counts["mismatch"] == 0
    assert sum(report.counts.values()) == report.instances


def test_verify_xiongzong_exhaustive_small():
    report = verify_xiongzong(4)
    assert report.campaign == "verify-xiongzong"
    # connected labeled graphs with an edge: 1 (n=2) + 4 (n=3) + 38 (n=4)
    assert report.instances == 43
    assert report.counts == {"agree": 43, "mismatch": 0, "capped": 0}
    assert report.witnesses == ()


def test_verify_hnw_exhaustive_small():
    report = verify_hnw(4)
    assert report.campaign == "verify-hnw"
    # needs three edges: the triangle, then every connected graph on 4
    assert report.instances == 39
    assert report.counts == {"agree": 39, "mismatch": 0, "capped": 0}
    assert report.witnesses == ()


def test_verify_trail_bounds():
    for bad in (1, 7):
        with pytest.raises(ValidationError):
            verify_xiongzong(bad)
        with pytest.raises(ValidationError):
            verify_hnw(bad)


def test_explore_finds_the_small_counterexample():
    report = explore_conclusion(FamilyParams(max_vertices=5, cycle_sizes=(3,)))
    assert report.campaign == "explore-conclusion"
    assert report.counts["mismatch"] >= 1
    assert len(report.witnesses) == report.counts["mismatch"]
    smallest = min(len({v for e in w["graph_edges"] for v in e})
                   for w in report.witnesses)
    assert smallest == 5


def test_explore_witnesses_reverify_from_their_edges():
    report = explore_conclusion(FamilyParams(max_vertices=5, cycle_sizes=(3,)))
    for w in report.witnesses:
        g = graph_from_token_edges(tuple(map(tuple, w["graph_edges"])))
        rec = compare_formula_oracle(g, family_tag=w["family_tag"])
        assert rec.verdict == "mismatch"
        assert rec.formula_value == w["formula_value"]
        assert rec.oracle_value == w["oracle_value"]
        assert rec.graph_key == w["graph_key"]


def test_explore_witnesses_sorted_and_shaped():
    report = explore_conclusion(FamilyParams(max_vertices=5, cycle_sizes=(3,)))
    keys = [w["graph_key"] for w in report.witnesses]
    assert keys == sorted(keys)
    for w in report.witnesses:
        assert {"graph_key", "graph_edges", "family_tag", "formula_value",
                "oracle_value", "verdict", "formula", "oracle"} <= set(w)
        assert w["verdict"] == "mismatch"


def test_explore_rerun_is_byte_identical():
    params = FamilyParams(max_vertices=6, cycle_sizes=(3, 4), seed=3)
    first = explore_conclusion(params)
    second = explore_conclusion(params)
    assert first.body_bytes() == second.body_bytes()
    assert first.seed == 3


def test_explore_parameter_echo():
    params = FamilyParams(max_vertices=6, cycle_sizes=(4, 3),
                          include_bases=False, seed=11)
    body = explore_conclusion(params).body_dict()
    assert body["parameters"] == {
        "max_vertices": 6,
        "cycle_sizes": [3, 4],
        "base_tree_source": "enumerated",
        "include_bases": False,
        "random_bases": 0,
    }
    assert body["seed"] == 11


def test_run_verifications_script():
    # the script is the one-shot regression check; it runs from a checkout
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_verifications.py"),
         "--trees-max-n", "8", "--graphs-max-n", "4"],
        capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "verify-trees", "verify-xiongzong", "verify-hnw"]
    assert all(", mismatch 0," in line for line in lines)


def test_explore_keys_only_its_witnesses(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g)
        return graph_key(g)

    monkeypatch.setattr(formula, "graph_key", counting)
    report = explore_conclusion(FamilyParams(max_vertices=6, cycle_sizes=(3,)))
    assert report.counts["mismatch"] >= 1
    assert len(calls) == report.counts["mismatch"]


# the bench times each instance by rebinding the name the campaigns call
@pytest.mark.parametrize("campaign", [
    lambda: verify_trees(5),
    lambda: explore_conclusion(FamilyParams(max_vertices=5, cycle_sizes=(3,))),
], ids=["verify-trees", "explore-conclusion"])
def test_campaigns_call_the_rebound_comparison_inside_their_clock(
        monkeypatch, campaign):
    slept = []

    def slow(*args, **kwargs):
        start = time.monotonic()
        time.sleep(0.01)
        slept.append(time.monotonic() - start)
        return compare_formula_oracle(*args, **kwargs)

    monkeypatch.setattr(campaigns, "compare_formula_oracle", slow)
    report = campaign()
    assert report.instances > 0
    assert len(slept) == report.instances
    assert report.wall_clock_s >= sum(slept)


def _digest(report: CampaignReport) -> str:
    return hashlib.sha256(report.body_bytes()).hexdigest()


# SHA-256 of report bodies; a change here changes what a campaign reports
@pytest.mark.parametrize("campaign, digest", [
    (lambda: verify_trees(11),
     "4bf50a8e0480954eb1f38e4a3c1f91062031d3c95e5b2bd459a6466f2e2c95dc"),
    (lambda: verify_xiongzong(5),
     "226609306e3a92d23423391badc23ada569885e4f961670860f68e731fdedf2a"),
    (lambda: verify_hnw(5),
     "c669846ce693a01a857e8ddcc769edb4597191095bd0bd4ad0cb49e76ed2fcc7"),
    (lambda: explore_conclusion(FamilyParams(
        max_vertices=12, base_tree_source="random", random_bases=12, seed=0)),
     "60391f01f3d641c81509707c90f0db015c61838426df64260d993573a427f044"),
], ids=["verify-trees-11", "verify-xiongzong-5", "verify-hnw-5",
        "explore-random-12"])
def test_report_body_digest_is_pinned(campaign, digest):
    assert _digest(campaign()) == digest


@pytest.mark.slow
def test_explore_enumerated_body_digest_is_pinned():
    report = explore_conclusion(FamilyParams(max_vertices=12,
                                             cycle_sizes=(3, 4, 5), seed=0))
    assert _digest(report) == (
        "41380903d41752493f9a2b74ab8173004fecda084d1349ce8e182e01c2ffca5b")
