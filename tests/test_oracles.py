import gc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpindex import (
    CappedError,
    InternalCheckError,
    IterationBudget,
    PreconditionError,
    SearchBudget,
    complete_graph,
    cycle_graph,
    double_spider,
    enumerate_connected_graphs,
    graph_from_token_edges,
    h_oracle,
    has_dominating_closed_trail,
    has_dominating_trail,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    hp_oracle,
    line_graph,
    path_graph,
    random_connected_graph,
    spider,
    star_graph,
)
from hpindex.oracles import check_cycle_witness, check_path_witness, check_trail_witness

BOWTIE = graph_from_token_edges(
    [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")])


def test_hamiltonian_path_positives():
    for g in (path_graph(1), path_graph(7), cycle_graph(5), complete_graph(6), BOWTIE):
        ok, walk = has_hamiltonian_path(g)
        assert ok
        check_path_witness(g, walk)


def test_hamiltonian_path_negatives():
    for g in (star_graph(3), spider(2, 2, 2), double_spider((2, 2), 1, (2, 2))):
        ok, walk = has_hamiltonian_path(g)
        assert not ok and walk is None


def test_hamiltonian_path_disconnected_is_false():
    g = graph_from_token_edges([("a", "b"), ("c", "d")])
    assert has_hamiltonian_path(g) == (False, None)


def test_hamiltonian_cycle_positives():
    for g in (cycle_graph(3), cycle_graph(8), complete_graph(5)):
        ok, walk = has_hamiltonian_cycle(g)
        assert ok
        check_cycle_witness(g, walk)


def test_hamiltonian_cycle_negatives():
    # bowtie has a cut vertex; tree and path lack min degree 2
    for g in (BOWTIE, star_graph(3), path_graph(4), complete_graph(2)):
        assert has_hamiltonian_cycle(g) == (False, None)


def test_size_cap_raises():
    with pytest.raises(CappedError):
        has_hamiltonian_path(path_graph(41))
    with pytest.raises(CappedError):
        has_hamiltonian_cycle(cycle_graph(41))


def test_budget_validation():
    with pytest.raises(PreconditionError):
        SearchBudget(dp_vertex_cap=0)
    with pytest.raises(PreconditionError):
        SearchBudget(dp_vertex_cap=20, backtrack_vertex_cap=10)


def test_backtracking_solver_used_above_dp_cap():
    # petersen-like ring that still fits the backtracking tier
    g = cycle_graph(30)
    budget = SearchBudget(dp_vertex_cap=4)
    ok, walk = has_hamiltonian_path(g, budget)
    assert ok
    check_path_witness(g, walk)
    ok, walk = has_hamiltonian_cycle(g, budget)
    assert ok
    check_cycle_witness(g, walk)


# the path cases keep bare seed ids so their test ids stay stable
@pytest.mark.parametrize(
    "search, seed",
    [pytest.param(has_hamiltonian_path, s, id=str(s)) for s in range(400)]
    + [pytest.param(has_hamiltonian_cycle, s, id=f"cycle-{s}") for s in range(400)])
def test_dp_and_backtracking_agree(search, seed):
    n = 2 + seed % 17
    g = random_connected_graph(n, seed % 4, seed)
    dp_ok, _ = search(g)
    try:
        bt_ok, _ = search(g, SearchBudget(dp_vertex_cap=1))
    except CappedError:
        return
    assert dp_ok == bt_ok


@pytest.mark.parametrize("search", [has_hamiltonian_path, has_hamiltonian_cycle])
def test_prepass_table_and_backtracking_agree_in_prepass_band(search):
    # at 17-18 vertices the default budget runs the backtracking prepass first;
    # prepass_nodes=1 leaves the answer to the subset table, dp_vertex_cap=1
    # to backtracking alone. Sparse graphs of this order fail the cheap
    # filters, so these carry 12-30 edges beyond a spanning tree.
    for n in (17, 18):
        for extra in (12, 20, 30):
            for seed in range(4):
                g = random_connected_graph(n, extra, seed)
                ok, _ = search(g)
                assert search(g, SearchBudget(prepass_nodes=1))[0] == ok
                assert search(g, SearchBudget(dp_vertex_cap=1))[0] == ok


@pytest.mark.parametrize("block", range(4))
def test_dp_and_backtracking_agree_full_sweep(block):
    # 2,000 seeded instances total, split into four chunks
    disagreements = []
    for seed in range(block * 500, block * 500 + 500):
        n = 2 + (seed * 7919 + 13) % 17
        g = random_connected_graph(n, (seed * 31) % 6, seed)
        dp_ok, _ = has_hamiltonian_path(g)
        try:
            bt_ok, _ = has_hamiltonian_path(g, SearchBudget(dp_vertex_cap=1))
        except CappedError:
            continue
        if dp_ok != bt_ok:
            disagreements.append(seed)
    assert not disagreements


def test_witness_checks_reject_tampering():
    g = path_graph(4)
    with pytest.raises(InternalCheckError):
        check_path_witness(g, ("p0", "p1", "p2"))
    with pytest.raises(InternalCheckError):
        check_path_witness(g, ("p0", "p2", "p1", "p3"))
    with pytest.raises(InternalCheckError):
        check_cycle_witness(cycle_graph(4), ("c0", "c1", "c3", "c2"))
    with pytest.raises(InternalCheckError):
        check_trail_witness(g, ("p0", "p1", "p0"), closed=False)


def test_dominating_trail_examples():
    ok, walk = has_dominating_trail(star_graph(3))
    assert ok
    check_trail_witness(star_graph(3), walk, closed=False)

    ok, walk = has_dominating_trail(path_graph(4))
    assert ok and len(walk) >= 2

    # spider(2,2,2) is the smallest tree without one
    assert has_dominating_trail(spider(2, 2, 2)) == (False, None)


def test_dominating_closed_trail_examples():
    # a single vertex meeting every edge counts as a closed trail
    ok, walk = has_dominating_closed_trail(star_graph(4))
    assert ok and len(walk) == 1

    ok, walk = has_dominating_closed_trail(cycle_graph(5))
    assert ok
    check_trail_witness(cycle_graph(5), walk, closed=True)

    assert has_dominating_closed_trail(path_graph(4)) == (False, None)


def test_dominating_trail_search_frees_its_memo():
    # the memo of failed states must be freed when the call returns, not
    # left in a reference cycle for the collector
    g = random_connected_graph(10, 8, 3)
    gc.collect()
    gc.disable()
    try:
        for closed in (False, True):
            ok, _ = has_dominating_trail(g, closed=closed)
            assert ok
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_backtracking_search_leaves_nothing_to_collect():
    # dp_vertex_cap=5 sends a 30-vertex graph to backtracking; its DFS must
    # not stay alive in a reference cycle after the call returns
    g = cycle_graph(30)
    budget = SearchBudget(dp_vertex_cap=5)
    gc.collect()
    gc.disable()
    try:
        for search in (has_hamiltonian_path, has_hamiltonian_cycle):
            ok, _ = search(g, budget)
            assert ok
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_dominating_trail_edge_cap():
    with pytest.raises(CappedError):
        has_dominating_trail(complete_graph(7))


def test_trail_criterion_for_traceable_line_graphs():
    # exhaustive over small connected graphs: trail in g iff L(g) traceable
    for n in (2, 3, 4):
        for g in enumerate_connected_graphs(n):
            trail_ok, _ = has_dominating_trail(g)
            line_ok, _ = has_hamiltonian_path(line_graph(g).graph)
            assert trail_ok == line_ok


def test_closed_trail_criterion_for_hamiltonian_line_graphs():
    for n in (2, 3, 4):
        for g in enumerate_connected_graphs(n):
            if g.m < 3:
                continue
            trail_ok, _ = has_dominating_closed_trail(g)
            cycle_ok, _ = has_hamiltonian_cycle(line_graph(g).graph)
            assert trail_ok == cycle_ok


def test_hp_oracle_values():
    assert hp_oracle(path_graph(7)).value == 0
    assert hp_oracle(star_graph(3)).value == 1
    assert hp_oracle(spider(2, 2, 2)).value == 2
    assert hp_oracle(cycle_graph(6)).value == 0


def test_hp_oracle_stage_records():
    res = hp_oracle(star_graph(3))
    assert [s.verdict for s in res.stages] == ["not-traceable", "traceable"]
    assert res.stages[1].vertices == 3
    assert res.witness is not None


def test_hp_oracle_rejects_disconnected():
    with pytest.raises(PreconditionError):
        hp_oracle(graph_from_token_edges([("a", "b"), ("c", "d")]))


def test_hp_oracle_caps_honestly():
    res = hp_oracle(path_graph(50))
    assert res.value is None
    assert res.capped_reason
    assert res.stages[-1].verdict == "capped"
    assert res.to_json_dict()["value"] == "capped"


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_hp_oracle_zero_iff_traceable(n, seed):
    g = random_connected_graph(n, seed % 5, seed)
    assert (hp_oracle(g).value == 0) == has_hamiltonian_path(g)[0]


def test_h_oracle_values():
    assert h_oracle(cycle_graph(5)).value == 0
    assert h_oracle(star_graph(3)).value == 1
    assert h_oracle(BOWTIE).value == 1


def test_h_oracle_rejects_paths():
    with pytest.raises(PreconditionError):
        h_oracle(path_graph(5))


def test_index_result_json_shape():
    d = hp_oracle(star_graph(3)).to_json_dict()
    assert set(d) == {"value", "stages", "witness"}
    assert d["stages"][0] == {"n": 0, "V": 4, "E": 3, "verdict": "not-traceable"}


def _capped(reason, *stages):
    return {"value": "capped", "capped_reason": reason,
            "stages": [{"n": n, "V": v, "E": e, "verdict": verdict}
                       for n, v, e, verdict in stages]}


_SPIDER_222 = ((0, 7, 6), (1, 6, 6))
_SPIDER_333 = ((0, 10, 9), (1, 9, 9), (2, 9, 12))


@pytest.mark.parametrize("oracle, g, budget, expected", [
    (h_oracle, spider(2, 2, 2), SearchBudget(stage_cap=1), _capped(
        "stage cap 1 reached",
        *[s + ("not-hamiltonian",) for s in _SPIDER_222])),
    (hp_oracle, spider(2, 2, 2), SearchBudget(stage_cap=1), _capped(
        "stage cap 1 reached",
        *[s + ("not-traceable",) for s in _SPIDER_222])),
    (h_oracle, spider(2, 2, 2),
     SearchBudget(iteration=IterationBudget(max_vertices=6, max_edges=8)), _capped(
        "stage 2: predicted size |V|=6, |E|=9 exceeds budget (6, 8)",
        *[s + ("not-hamiltonian",) for s in _SPIDER_222])),
    (hp_oracle, spider(2, 2, 2),
     SearchBudget(iteration=IterationBudget(max_vertices=5, max_edges=100)), _capped(
        "stage 1: predicted size |V|=6, |E|=6 exceeds budget (5, 100)",
        (0, 7, 6, "not-traceable"))),
    (hp_oracle, spider(3, 3, 3), SearchBudget(dp_vertex_cap=1, node_budget=1), _capped(
        "backtracking node budget exhausted",
        *[s + ("not-traceable",) for s in _SPIDER_333], (3, 12, 27, "capped"))),
    (h_oracle, spider(3, 3, 3), SearchBudget(dp_vertex_cap=1, node_budget=1), _capped(
        "backtracking node budget exhausted",
        *[s + ("not-hamiltonian",) for s in _SPIDER_333], (3, 12, 27, "capped"))),
    (h_oracle, cycle_graph(41), SearchBudget(), _capped(
        "41 vertices exceed the search cap 40", (0, 41, 41, "capped"))),
    (hp_oracle, cycle_graph(41), SearchBudget(), _capped(
        "41 vertices exceed the search cap 40", (0, 41, 41, "capped"))),
], ids=["h-stage", "hp-stage", "h-iteration", "hp-iteration", "hp-nodes", "h-nodes",
        "h-vertices", "hp-vertices"])
def test_capped_results_are_pinned(oracle, g, budget, expected):
    # capped_reason is printed by `hp oracle --json` and parsed by callers
    assert oracle(g, budget).to_json_dict() == expected
