import pytest

from hpindex import (
    PreconditionError,
    absorption_time,
    branches,
    cycle_graph,
    double_spider,
    graph_from_token_edges,
    is_caterpillar,
    path_graph,
    spider,
    star_graph,
)
from hpindex.branches import endpaths

from reference_formula import candidate_endpaths, maximal_pairs


def branch_map(g):
    return {b.vertices: b for b in branches(g)}


def test_path_is_a_single_pendant_branch():
    found = branches(path_graph(4))
    assert len(found) == 1
    b = found[0]
    assert b.edge_count == 3
    assert b.is_bridge_branch and b.is_pendant_branch
    assert absorption_time(b) == 3


def test_spider_branches_are_its_legs():
    found = branches(spider(3, 2, 1))
    assert sorted(b.edge_count for b in found) == [1, 2, 3]
    assert all(b.is_bridge_branch and b.is_pendant_branch for b in found)
    assert [absorption_time(b) for b in sorted(found, key=lambda b: b.edge_count)] \
        == [1, 2, 3]


def test_double_spider_middle_branch_costs_one_extra():
    g = double_spider((2, 2), 2, (2, 2))
    inner = [b for b in branches(g) if not b.is_pendant_branch]
    assert len(inner) == 1
    assert inner[0].edge_count == 2
    assert absorption_time(inner[0]) == 3


def test_triangle_with_pendant_path():
    # triangle t1-t2-t3 with a 2-edge tail at t3: the tail is the only
    # bridge branch; each triangle edge at t3 forms its own single-edge
    # branch and the opposite edge t1-t2 lies in no branch at all
    g = graph_from_token_edges(
        [("t1", "t2"), ("t2", "t3"), ("t1", "t3"), ("t3", "p1"), ("p1", "p2")])
    found = branches(g)
    walks = sorted(b.vertices for b in found)
    assert walks == [("p2", "p1", "t3"), ("t1", "t3"), ("t2", "t3")]
    bridge = [b for b in found if b.is_bridge_branch]
    assert len(bridge) == 1
    assert bridge[0].edge_count == 2 and bridge[0].is_pendant_branch
    covered = {e for b in found for e in b.edges()}
    assert ("t1", "t2") not in covered


def test_cycles_have_no_branches():
    assert branches(cycle_graph(5)) == ()


def test_branch_edges_partition_tree_edges(trees_to_9):
    for t in trees_to_9:
        if t.n < 2:
            continue
        found = branches(t)
        seen = []
        for b in found:
            assert b.is_bridge_branch
            seen.extend(b.edges())
        assert sorted(seen) == sorted(t.label_edges())
        assert len(set(seen)) == len(seen)


def test_branch_endpoints_have_degree_other_than_two(trees_to_9):
    for t in trees_to_9:
        if t.n < 2:
            continue
        for b in branches(t):
            ends = (b.vertices[0], b.vertices[-1])
            assert all(t.degree(t.index(v)) != 2 for v in ends)
            for v in b.vertices[1:-1]:
                assert t.degree(t.index(v)) == 2


def test_single_vertex_rejected():
    with pytest.raises(PreconditionError):
        branches(graph_from_token_edges([], isolated=["a"]))


def test_disconnected_rejected():
    with pytest.raises(PreconditionError):
        branches(graph_from_token_edges([("a", "b"), ("c", "d")]))


def test_absorption_time_only_for_bridge_branches():
    g = graph_from_token_edges(
        [("t1", "t2"), ("t2", "t3"), ("t1", "t3"), ("t3", "p1")])
    non_bridge = [b for b in branches(g) if not b.is_bridge_branch]
    assert non_bridge
    with pytest.raises(PreconditionError):
        absorption_time(non_bridge[0])


def test_endpaths_of_claw():
    eps = endpaths(star_graph(3))
    assert len(eps) == 3
    for ep in eps:
        assert len(ep.contained) == 2


def test_endpaths_reject_paths_and_nontrees():
    with pytest.raises(PreconditionError):
        endpaths(path_graph(5))
    with pytest.raises(PreconditionError):
        endpaths(cycle_graph(4))


def test_maximal_pairs_spider():
    # legs 3,2,2: the heaviest pairs are (3,2) twice, sum 5
    pairs = maximal_pairs(spider(3, 2, 2))
    assert len(pairs) == 2
    for pair in pairs:
        assert sorted(b.edge_count for b in pair) == [2, 3]


def test_maximal_pairs_balanced_spider():
    assert len(maximal_pairs(spider(2, 2, 2))) == 3


def test_candidate_endpaths_cover_maximal_pairs():
    cands = candidate_endpaths(spider(3, 2, 2))
    # both maximal pairs include the 3-leg, so candidates pass through it
    assert len(cands) == 2
    for cand in cands:
        assert cand.covered_pairs


def test_candidate_endpaths_double_spider():
    g = double_spider((3, 3), 1, (3, 3))
    # every pair of 3-legs sums to the maximum, so all six endpaths compete
    cands = candidate_endpaths(g)
    assert len(cands) == 6


def test_caterpillar_recognition():
    assert is_caterpillar(path_graph(5))
    assert is_caterpillar(star_graph(4))
    assert is_caterpillar(spider(3, 1, 1))
    assert not is_caterpillar(spider(2, 2, 2))
    assert not is_caterpillar(double_spider((2, 2), 2, (2, 2)))
    with pytest.raises(PreconditionError):
        is_caterpillar(cycle_graph(4))
