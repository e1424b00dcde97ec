from dataclasses import fields
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpindex import (
    Graph,
    blocks_and_cuts,
    cycle_graph,
    enumerate_free_trees,
    graph_from_token_edges,
    is_connected,
    is_path,
    is_tree,
    path_graph,
    random_connected_graph,
    random_tree,
    spider,
    star_graph,
)
from hpindex.graphs import _reaches_every_vertex, block_graph
from conftest import nx_graph


def test_edges_deduplicate_and_normalize():
    g = Graph(("a", "b", "c"), [(1, 0), (0, 1), (1, 2)])
    assert g.m == 2
    assert g.edges == ((0, 1), (1, 2))
    assert g.degree(1) == 2


def test_label_lookup_roundtrip():
    g = graph_from_token_edges([("x", "y"), ("y", "z")])
    assert g.labels == ("x", "y", "z")
    assert g.index("z") == 2
    assert g.has_edge(g.index("x"), g.index("y"))
    assert not g.has_edge(g.index("x"), g.index("z"))


def test_isolated_vertices_kept():
    g = graph_from_token_edges([("a", "b")], isolated=["q", "a"])
    assert g.n == 3
    assert g.degree(g.index("q")) == 0


def test_connectivity_predicates():
    assert is_connected(path_graph(5))
    assert not is_connected(Graph(("a", "b", "c"), [(0, 1)]))
    assert not is_connected(Graph((), []))
    assert is_tree(spider(2, 2, 2))
    assert not is_tree(cycle_graph(4))
    assert is_path(path_graph(1))
    assert is_path(path_graph(6))
    assert not is_path(star_graph(3))


def test_blocks_of_a_triangle_with_tail():
    # triangle a-b-c plus tail c-d-e: blocks are the triangle and two bridges
    g = graph_from_token_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")])
    dec = blocks_and_cuts(g)
    sizes = sorted(len(b) for b in dec.blocks)
    assert sizes == [1, 1, 3]
    assert sorted(g.labels[v] for v in dec.cut_vertices) == ["c", "d"]
    assert {g.label_edge(e) for e in dec.bridges} == {("c", "d"), ("d", "e")}
    assert dec.is_block_chain


def test_block_chain_examples():
    assert blocks_and_cuts(path_graph(6)).is_block_chain
    assert blocks_and_cuts(cycle_graph(5)).is_block_chain
    # a star's block-cut tree is itself a star, not a path
    assert not blocks_and_cuts(star_graph(3)).is_block_chain
    assert not blocks_and_cuts(spider(2, 2, 2)).is_block_chain


def test_end_blocks_and_two_blocks():
    g = graph_from_token_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")])
    dec = blocks_and_cuts(g)
    assert len(dec.end_blocks()) == 2
    assert len(dec.two_blocks()) == 1


@pytest.mark.parametrize("seed", range(300))
def test_blocks_match_networkx(seed):
    n = 4 + seed % 9
    g = random_connected_graph(n, seed % 5, seed)
    h = nx_graph(g)
    dec = blocks_and_cuts(g)

    ours = {frozenset(g.label_edge(e) for e in blk) for blk in dec.blocks}
    theirs = {frozenset(tuple(sorted(e)) for e in blk)
              for blk in nx.biconnected_component_edges(h)}
    assert ours == theirs

    assert {g.labels[v] for v in dec.cut_vertices} == set(nx.articulation_points(h))
    assert ({g.label_edge(e) for e in dec.bridges}
            == {tuple(sorted(e)) for e in nx.bridges(h)})


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_tree_edges_are_all_bridges(n, seed):
    t = random_tree(n, seed)
    dec = blocks_and_cuts(t)
    assert len(dec.bridges) == t.m
    assert all(len(b) == 1 for b in dec.blocks)


def _connected_labelled_graphs(max_n: int):
    for n in range(1, max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            g = Graph(tuple(f"v{i}" for i in range(n)),
                      [p for i, p in enumerate(pairs) if mask >> i & 1])
            if is_connected(g):
                yield g


def _chain_by_networkx(g: Graph) -> bool:
    # block-cut tree: a node per block and per cut vertex, joined by
    # membership; it is a path when no node has three neighbours
    h = nx_graph(g)
    if g.n == 1:
        return True
    cuts = set(nx.articulation_points(h))
    blocks = [set(c) for c in nx.biconnected_components(h)]
    return (all(len(b & cuts) <= 2 for b in blocks)
            and all(sum(c in b for b in blocks) <= 2 for c in cuts))


def test_memoised_blocks_match_a_fresh_decomposition():
    count = 0
    for g in _connected_labelled_graphs(5):
        count += 1
        dec = g.blocks
        assert g.blocks is dec
        fresh = blocks_and_cuts(g)
        for f in fields(fresh):
            assert getattr(dec, f.name) == getattr(fresh, f.name), f.name
        assert dec.is_block_chain == fresh.is_block_chain == _chain_by_networkx(g)
        for i in range(len(dec.blocks)):
            b = block_graph(g, i)
            assert b.blocks == blocks_and_cuts(b)
            assert is_connected(b) and _reaches_every_vertex(b)
    # connected labelled graphs on 1..5 vertices (OEIS A001187)
    assert count == 1 + 1 + 4 + 38 + 728


def test_every_free_tree_edge_is_a_bridge():
    # the premise of the tree shortcut in branches()
    for n in range(2, 13):
        for t in enumerate_free_trees(n):
            assert blocks_and_cuts(t).bridges == frozenset(t.edges)
