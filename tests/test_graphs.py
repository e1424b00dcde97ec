from dataclasses import fields
from itertools import combinations

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpindex import (
    FamilyParams,
    Graph,
    ValidationError,
    blocks_and_cuts,
    cycle_graph,
    enumerate_connected_graphs,
    enumerate_free_trees,
    gen_hamiltonian_2block_family,
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
from hpindex.graphs import block_graph
from conftest import is_block_chain, nx_graph


def test_edges_deduplicate_and_normalize():
    g = Graph(("a", "b", "c"), [(1, 0), (0, 1), (1, 2)])
    assert g.m == 2
    assert g.edges == ((0, 1), (1, 2))
    assert g.degree(1) == 2


@pytest.mark.parametrize("pair", [(False, True), (0.0, 1), (np.int64(0), 1),
                                  (0, np.int64(1))],
                         ids=["bool", "float", "int64", "int64-second"])
def test_endpoints_must_be_plain_ints(pair):
    with pytest.raises(ValidationError, match="^edge endpoints must be int indices$"):
        Graph(("a", "b"), [pair])


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
    assert is_block_chain(dec)


def test_block_chain_examples():
    assert is_block_chain(blocks_and_cuts(path_graph(6)))
    assert is_block_chain(blocks_and_cuts(cycle_graph(5)))
    # a star's block-cut tree is itself a star, not a path
    assert not is_block_chain(blocks_and_cuts(star_graph(3)))
    assert not is_block_chain(blocks_and_cuts(spider(2, 2, 2)))


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
    assert _pieces(g, dec) == _pieces_by_networkx(g)


def _pieces(g: Graph, dec) -> set[frozenset[str]]:
    groups: dict[int, set[str]] = {}
    for v, p in enumerate(dec.piece_of):
        groups.setdefault(p, set()).add(g.labels[v])
    return {frozenset(s) for s in groups.values()}


def _pieces_by_networkx(g: Graph) -> set[frozenset[str]]:
    # the components of g once its bridges are removed
    h = nx_graph(g)
    h.remove_edges_from(list(nx.bridges(h)))
    return {frozenset(c) for c in nx.connected_components(h)}


def _dfs_preorder(adj) -> list[int]:
    # the order a recursive DFS from vertex 0 meets the vertices, scanning
    # neighbours in adjacency order
    seen, order, stack = set(), [], [0]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            order.append(v)
            stack.extend(reversed(adj[v]))
    return order


def check_pieces(g: Graph) -> None:
    """The pieces of g against networkx, each named by its first vertex in
    DFS order."""
    dec = blocks_and_cuts(g)
    assert _pieces(g, dec) == _pieces_by_networkx(g), g.label_edges()
    first: dict[int, int] = {}
    for v in _dfs_preorder(g.adj):
        first.setdefault(dec.piece_of[v], v)
    assert all(p == v for p, v in first.items()), g.label_edges()


@pytest.mark.parametrize("n", range(1, 7))
def test_pieces_of_every_connected_labelled_graph(n):
    graphs = ([Graph(("a",), [])] if n == 1
              else list(enumerate_connected_graphs(n)))
    for g in graphs:
        check_pieces(g)
    # connected labelled graphs on n vertices (OEIS A001187)
    assert len(graphs) == (1, 1, 4, 38, 728, 26704)[n - 1]


@pytest.mark.parametrize("cycle_sizes", [(3, 4, 5), (3,), (4, 6)])
def test_pieces_of_the_glued_family_to_10_vertices(cycle_sizes):
    family = gen_hamiltonian_2block_family(
        FamilyParams(max_vertices=10, cycle_sizes=cycle_sizes))
    for g, _ in family:
        check_pieces(g)


def test_bowtie_is_one_piece_of_two_blocks():
    g = graph_from_token_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")])
    dec = blocks_and_cuts(g)
    assert len(dec.blocks) == 2 and not dec.bridges
    assert dec.piece_of == (0,) * 5


def test_cycles_joined_by_a_bridge_are_two_pieces():
    g = graph_from_token_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "x"),
         ("x", "y"), ("y", "z"), ("z", "w"), ("w", "x")])
    dec = blocks_and_cuts(g)
    assert {g.label_edge(e) for e in dec.bridges} == {("c", "x")}
    assert _pieces(g, dec) == {frozenset("abc"), frozenset("xyzw")}
    assert dec.piece_of == (0, 0, 0, 3, 3, 3, 3)


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
        assert is_block_chain(dec) == is_block_chain(fresh) == _chain_by_networkx(g)
    # connected labelled graphs on 1..5 vertices (OEIS A001187)
    assert count == 1 + 1 + 4 + 38 + 728


@pytest.mark.parametrize("n", range(2, 7))
def test_every_block_graph_is_one_block(n):
    # a block is 2-connected or one edge, so as a graph of its own it is one
    # block without cut vertices, and a bridge only when it is one edge
    for g in enumerate_connected_graphs(n):
        for i, block in enumerate(g.blocks.blocks):
            b = block_graph(g, i)
            assert b.label_edges() == tuple(sorted(g.label_edge(e) for e in block))
            assert list(b.labels) == sorted(b.labels)
            assert is_connected(b)
            dec = b.blocks
            edges = frozenset(b.edges)
            assert dec.blocks == (edges,)
            assert dec.block_vertices == (frozenset(range(b.n)),)
            assert dec.cut_vertices == frozenset()
            assert dec.bridges == (edges if b.m == 1 else frozenset())
            assert dec.piece_of == ((0, 1) if b.m == 1 else (0,) * b.n)


def test_every_free_tree_edge_is_a_bridge():
    # branches() reads a tree's bridges off its decomposition; on a tree
    # they must be all of its edges
    for n in range(2, 13):
        for t in enumerate_free_trees(n):
            assert blocks_and_cuts(t).bridges == frozenset(t.edges)
