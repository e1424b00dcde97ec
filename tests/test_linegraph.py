import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpindex import (
    CappedError,
    IterationBudget,
    PreconditionError,
    canonical_key,
    graph_from_token_edges,
    is_connected,
    is_path,
    iterate,
    line_graph,
    predict_line_size,
)
from conftest import nx_graph
from reference_linegraph import iterate_with_provenance, original_edge_support
from shapes import (complete_graph, cycle_graph, double_spider, path_graph,
                    random_connected_graph, spider, star_graph)


def test_line_of_path_is_shorter_path():
    for m in range(2, 8):
        lg = line_graph(path_graph(m)).graph
        assert is_path(lg) and lg.n == m - 1


def test_cycles_are_fixed_points():
    for n in (3, 4, 7):
        lg = line_graph(cycle_graph(n)).graph
        assert canonical_key(lg) == canonical_key(cycle_graph(n))


def test_line_of_claw_is_triangle():
    lg = line_graph(star_graph(3)).graph
    assert canonical_key(lg) == canonical_key(complete_graph(3))
    # K3 and K1,3 share a line graph, the classical Whitney exception
    assert canonical_key(line_graph(complete_graph(3)).graph) == canonical_key(lg)


def test_edgeless_input_rejected():
    with pytest.raises(PreconditionError):
        line_graph(graph_from_token_edges([], isolated=["a"]))


# sizes frozen from an independent networkx run
ITERATE_SIZES = [
    (spider(2, 2, 2), [(6, 6), (6, 9), (9, 21)]),
    (star_graph(3), [(3, 3), (3, 3)]),
    (double_spider((3, 3), 1, (3, 3)), [(13, 14), (14, 22), (22, 64)]),
]


@pytest.mark.parametrize("g,sizes", ITERATE_SIZES)
def test_iterate_sizes_frozen(g, sizes):
    for k, (v, e) in enumerate(sizes, start=1):
        lk = iterate(g, k)
        assert (lk.n, lk.m) == (v, e)


@pytest.mark.parametrize("seed", range(200))
def test_size_identity_random(seed):
    g = random_connected_graph(2 + seed % 9, seed % 6, seed)
    lg = line_graph(g).graph
    assert (lg.n, lg.m) == predict_line_size(g)


@pytest.mark.parametrize("seed", range(40))
def test_line_graph_matches_networkx(seed):
    g = random_connected_graph(2 + seed % 8, seed % 5, seed)
    ours = line_graph(g).graph
    theirs = nx.line_graph(nx_graph(g))
    assert nx.is_isomorphic(nx_graph(ours), theirs)


@given(st.integers(min_value=2, max_value=10), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=80, deadline=None)
def test_connectivity_preserved(n, seed):
    g = random_connected_graph(n, seed % 4, seed)
    assert is_connected(line_graph(g).graph)


def test_iterate_zero_is_identity():
    g = spider(2, 1)
    assert iterate(g, 0) is g


def test_iterate_starves_on_paths():
    # L(P3)=P2, L2=K1, then there is nothing left to take a line graph of
    with pytest.raises(PreconditionError,
                       match=r"^stage 3: graph has no edges left to iterate$"):
        iterate(path_graph(3), 3)


def test_iterate_budget_enforced():
    # L(K_1,8) = K_8, whose line graph has 28 vertices of degree 12
    with pytest.raises(CappedError, match=r"^stage 2: predicted size \|V\|=28, "
                       r"\|E\|=168 exceeds budget \(20, 60\)$"):
        iterate(star_graph(8), 3, IterationBudget(max_vertices=20, max_edges=60))


def test_provenance_maps_vertices_to_source_edges():
    res = line_graph(graph_from_token_edges([("a", "b"), ("b", "c")]))
    assert res.provenance == {"a.b": ("a", "b"), "b.c": ("b", "c")}


def test_vertex_name_collision_falls_back_to_generic_names():
    # edges (a, b.c) and (a.b, c) would both be named "a.b.c"
    g = graph_from_token_edges([("a", "b.c"), ("a.b", "c"), ("a", "c")])
    lg = line_graph(g).graph
    assert all(name.startswith("e") for name in lg.labels)
    assert lg.n == g.m


def test_original_edge_support_windows_on_paths():
    g = path_graph(6)
    for n in (1, 2, 3):
        final, chain = iterate_with_provenance(g, n)
        supports = sorted(
            tuple(sorted(original_edge_support(v, chain))) for v in final.labels)
        edges = g.label_edges()
        windows = sorted(tuple(sorted(edges[i:i + n]))
                         for i in range(len(edges) - n + 1))
        assert supports == windows


def test_original_edge_support_for_first_stage_is_single_edge():
    final, chain = iterate_with_provenance(spider(2, 2), 1)
    for v in final.labels:
        assert len(original_edge_support(v, chain)) == 1
