"""Acceptance gate: ten checks, one test per criterion.

Each test prints a single PASS line on success so a verbose run reads as a
checklist. Time limits are generous wall-clock ceilings; the real runtimes
are orders of magnitude below them on any recent machine.
"""

import json
import time

from hpindex import (
    FamilyParams,
    absorption_time,
    branches,
    blocks_and_cuts,
    compare_formula_oracle,
    explore_conclusion,
    graph_from_token_edges,
    hp_oracle,
    hp_tree,
    is_path,
    iterate,
    line_graph,
    predict_line_size,
    verify_hnw,
    verify_trees,
    verify_xiongzong,
)
from hpindex.cli import main
from hpindex.oracles import SearchBudget, h_oracle
from conftest import is_block_chain
from reference_linegraph import iterate_with_provenance, original_edge_support
from reference_trees import is_caterpillar
from shapes import (double_spider, path_graph, random_connected_graph, spider,
                    star_graph)


def test_criterion_01_tree_formula_matches_oracle():
    start = time.monotonic()
    report = verify_trees(11)
    elapsed = time.monotonic() - start
    assert report.instances == 436
    assert report.counts["mismatch"] == 0
    completed = report.instances - report.counts["capped"]
    assert completed / report.instances >= 0.95
    assert elapsed < 600
    print(f"criterion 1: {completed}/436 trees completed, 0 mismatches "
          f"({elapsed:.1f}s) PASS")


def test_criterion_02_dominating_trail_iff_traceable_line_graph():
    start = time.monotonic()
    report = verify_xiongzong(5)
    elapsed = time.monotonic() - start
    assert report.instances == 771
    assert report.counts == {"agree": 771, "mismatch": 0, "capped": 0}
    assert elapsed < 120
    print(f"criterion 2: 771 graphs, 0 violations ({elapsed:.1f}s) PASS")


def test_criterion_03_closed_trail_iff_hamiltonian_line_graph():
    start = time.monotonic()
    report = verify_hnw(5)
    elapsed = time.monotonic() - start
    assert report.instances == 767
    assert report.counts == {"agree": 767, "mismatch": 0, "capped": 0}
    assert elapsed < 120
    print(f"criterion 3: 767 graphs, 0 violations ({elapsed:.1f}s) PASS")


def test_criterion_04_path_index_bounded_by_cycle_index(trees_to_9):
    # capped oracle runs are excluded by the criterion; the completion floor
    # keeps the check from passing vacuously
    budget = SearchBudget(node_budget=400_000)
    completed = capped = 0
    for t in trees_to_9:
        if is_path(t):
            continue
        h = h_oracle(t, budget=budget).value
        if h is None:
            capped += 1
            continue
        assert hp_tree(t).value <= h, t.label_edges()
        completed += 1
    assert completed >= 70
    assert capped <= 15
    print(f"criterion 4: h_p <= h on {completed} trees "
          f"({capped} capped, excluded) PASS")


def test_criterion_05_value_one_exactly_for_caterpillars(trees_to_11):
    checked = 0
    for t in trees_to_11:
        if is_path(t):
            continue
        assert (hp_tree(t).value == 1) == is_caterpillar(t), t.label_edges()
        checked += 1
    assert checked == 425
    print(f"criterion 5: caterpillar iff value 1 on {checked} trees PASS")


def _branch_edge_set(b):
    return frozenset(tuple(sorted(p)) for p in zip(b.vertices, b.vertices[1:]))


def _check_shrinkage(g, pendant):
    """Every bridge branch leaves a shrunken image in each iterate."""
    failures = []
    for b in branches(g):
        if not b.is_bridge_branch or b.is_pendant_branch != pendant:
            continue
        k = absorption_time(b)
        support = _branch_edge_set(b)
        for n in range(1, k):
            ln, chain = iterate_with_provenance(g, n)
            target = k - n if pendant else k - n - 1
            if target >= 1:
                found = any(
                    bb.edge_count == target
                    and all(original_edge_support(v, chain) <= support
                            for v in bb.vertices[1:-1])
                    for bb in branches(ln))
                if not found:
                    failures.append((b.vertices, n, target))
            else:
                # the branch image has collapsed to a single cut vertex
                inside = [v for v in ln.labels
                          if original_edge_support(v, chain) <= support]
                dec = blocks_and_cuts(ln)
                if len(inside) != 1 or ln.index(inside[0]) not in dec.cut_vertices:
                    failures.append((b.vertices, n, "cut-vertex"))
    return failures


def test_criterion_06_branch_shrinkage_under_iteration():
    failures = []
    cases = 0
    for legs in ((2, 2, 2), (3, 3, 3), (4, 4, 4), (4, 3, 2)):
        failures += _check_shrinkage(spider(*legs), pendant=True)
        cases += 1
    for middle in (1, 2, 3):
        failures += _check_shrinkage(
            double_spider((3, 3), middle, (3, 3)), pendant=False)
        failures += _check_shrinkage(
            double_spider((2, 2), middle, (2, 2)), pendant=False)
        cases += 2
    assert failures == [], failures
    print(f"criterion 6: branch shrinkage on {cases} families, 0 violations PASS")


def test_criterion_07_final_iterate_is_a_block_chain(trees_to_9):
    completed = 0
    for t in trees_to_9:
        if is_path(t):
            continue
        m = hp_tree(t).value
        assert is_block_chain(iterate(t, m)), t.label_edges()
        completed += 1
    assert completed == 86
    print(f"criterion 7: L^m block chain on {completed} trees PASS")


def test_criterion_08_line_graph_size_identity():
    start = time.monotonic()
    for seed in range(1000):
        n = 2 + seed % 9
        g = random_connected_graph(n, seed % 5, seed)
        lg = line_graph(g).graph
        assert predict_line_size(g) == (lg.n, lg.m), (seed, g.label_edges())
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"criterion 8: 1000 size predictions exact ({elapsed:.1f}s) PASS")


def test_criterion_09_conclusion_explorer_end_to_end(capsys):
    rc = main(["explore", "conclusion", "--max-v", "12", "--cycles", "3,4,5",
               "--json"])
    out = capsys.readouterr().out
    assert rc == 0
    payload = json.loads(out)
    assert set(payload) == {"campaign", "version", "parameters", "seed",
                            "instances", "counts", "witnesses", "wall_clock_s"}
    assert payload["campaign"] == "explore-conclusion"
    assert sum(payload["counts"].values()) == payload["instances"]
    assert len(payload["witnesses"]) == payload["counts"]["mismatch"]

    for w in payload["witnesses"]:
        g = graph_from_token_edges(tuple(map(tuple, w["graph_edges"])))
        rec = compare_formula_oracle(g)
        assert rec.verdict == "mismatch", w["family_tag"]
        assert rec.formula_value == w["formula_value"]
        assert rec.oracle_value == w["oracle_value"]

    # rerunning the campaign reproduces the report body byte for byte
    params = FamilyParams(max_vertices=12, cycle_sizes=(3, 4, 5), seed=0)
    body = explore_conclusion(params).body_dict()
    del payload["wall_clock_s"]
    assert payload == json.loads(json.dumps(body))

    # a mismatch population is the expected outcome here, not a gate
    print(f"criterion 9: explorer report valid and deterministic, "
          f"{len(body['witnesses'])} witnesses re-verified PASS")


def test_criterion_10_desk_examples():
    start = time.monotonic()
    cases = [
        (path_graph(7), 0),
        (star_graph(3), 1),
        (spider(2, 2, 2), 2),
        (spider(3, 2, 2), 2),
        (double_spider((3, 3), 1, (3, 3)), 3),
    ]
    for g, want in cases:
        assert hp_tree(g).value == want, g.label_edges()
        assert hp_oracle(g).value == want, g.label_edges()
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(f"criterion 10: 5 worked examples agree ({elapsed:.1f}s) PASS")
