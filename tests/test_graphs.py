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
    enumerate_connected_graphs,
    enumerate_free_trees,
    gen_hamiltonian_2block_family,
    graph_from_token_edges,
    is_connected,
    is_path,
    is_tree,
    line_graph,
    random_tree,
)
from shapes import (cycle_graph, path_graph, random_connected_graph, spider,
                    star_graph)
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


@pytest.mark.parametrize("labels", [(0, 1, 2, 3), ("c", 1, 2, 3), (b"a", "b"),
                                    ("a", None)],
                         ids=["int", "mixed", "bytes", "none"])
def test_labels_must_be_str(labels):
    # such a graph would build, and then die with a TypeError wherever
    # labels are sorted or joined
    with pytest.raises(ValidationError, match="^vertex labels must be str$"):
        Graph(labels, [(0, 1)])


@pytest.mark.parametrize("labels,pairs,message", [
    (("a", "b"), [(0,)], "each edge must be a pair of endpoints"),
    (("a", "b"), [(0, 1, 1)], "each edge must be a pair of endpoints"),
    (("a", "b"), [5], "each edge must be a pair of endpoints"),
    (("a", "b"), [(0, 1), None], "each edge must be a pair of endpoints"),
    (5, [], "labels and edge pairs must be iterable"),
    (("a", "b"), 5, "labels and edge pairs must be iterable"),
], ids=["one-endpoint", "three-endpoints", "int-pair", "none-pair", "int-labels",
        "int-pairs"])
def test_malformed_input_raises_validation_error(labels, pairs, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        Graph(labels, pairs)


def test_errors_raised_while_reading_labels_propagate():
    def labels():
        yield "a"
        raise TypeError("raised by the caller's generator")

    with pytest.raises(TypeError, match="^raised by the caller's generator$"):
        Graph(labels(), [])


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
    assert [_labels(g, b) for b in dec.two_blocks] == [frozenset("abc")]
    assert sorted(g.labels[v] for v in dec.cut_vertices) == ["c", "d"]
    assert _bridges(g, dec) == {("c", "d"), ("d", "e")}
    assert is_block_chain(g)


def test_block_chain_examples():
    assert is_block_chain(path_graph(6))
    assert is_block_chain(cycle_graph(5))
    # a star's block-cut tree is itself a star, not a path
    assert not is_block_chain(star_graph(3))
    assert not is_block_chain(spider(2, 2, 2))


def test_end_blocks_and_two_blocks():
    # the end blocks are the bridge at leaf e and the triangle, whose only
    # cut vertex is c
    g = graph_from_token_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e")])
    dec = blocks_and_cuts(g)
    assert leaf_blocks(g) == 2
    assert len(dec.two_blocks) == 1


def _labels(g: Graph, vs) -> frozenset[str]:
    return frozenset(g.labels[v] for v in vs)


def _bridges(g: Graph, dec) -> set[tuple[str, str]]:
    # a bridge is an edge between two pieces
    return {g.label_edge((a, b)) for a, b in g.edges
            if dec.piece_of[a] != dec.piece_of[b]}


def leaf_blocks(g: Graph) -> int:
    """Leaf blocks as `has_hamiltonian_path` counts them: the leaves, each
    at the end of a bridge, and the 2-blocks with at most one cut vertex."""
    dec = g.blocks
    return (sum(1 for v in range(g.n) if g.degree(v) == 1)
            + sum(len(b & dec.cut_vertices) <= 1 for b in dec.two_blocks))


@pytest.mark.parametrize("seed", range(300))
def test_blocks_match_networkx(seed):
    n = 4 + seed % 9
    g = random_connected_graph(n, seed % 5, seed)
    h = nx_graph(g)
    dec = blocks_and_cuts(g)

    ours = {_labels(g, b) for b in dec.two_blocks}
    theirs = {frozenset(b) for b in nx.biconnected_components(h) if len(b) >= 3}
    assert ours == theirs and len(ours) == len(dec.two_blocks)

    assert {g.labels[v] for v in dec.cut_vertices} == set(nx.articulation_points(h))
    assert _bridges(g, dec) == {tuple(sorted(e)) for e in nx.bridges(h)}
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
    assert len(dec.two_blocks) == 2 and not _bridges(g, dec)
    assert dec.piece_of == (0,) * 5


def test_cycles_joined_by_a_bridge_are_two_pieces():
    g = graph_from_token_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", "x"),
         ("x", "y"), ("y", "z"), ("z", "w"), ("w", "x")])
    dec = blocks_and_cuts(g)
    assert _bridges(g, dec) == {("c", "x")}
    assert _pieces(g, dec) == {frozenset("abc"), frozenset("xyzw")}
    assert dec.piece_of == (0, 0, 0, 3, 3, 3, 3)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=150, deadline=None)
def test_tree_edges_are_all_bridges(n, seed):
    t = random_tree(n, seed)
    dec = blocks_and_cuts(t)
    assert dec.two_blocks == ()
    # every vertex is a piece of its own
    assert dec.piece_of == tuple(range(t.n))
    assert len(_bridges(t, dec)) == t.m


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
        assert is_block_chain(g) == _chain_by_networkx(g)
    # connected labelled graphs on 1..5 vertices (OEIS A001187)
    assert count == 1 + 1 + 4 + 38 + 728


@pytest.mark.parametrize("n", range(2, 7))
def test_every_block_graph_is_one_block(n):
    # a block is 2-connected or one edge, so as a graph of its own it is one
    # block without cut vertices, and a bridge only when it is one edge
    for g in enumerate_connected_graphs(n):
        piece = g.blocks.piece_of
        bridges = [frozenset(e) for e in g.edges if piece[e[0]] != piece[e[1]]]
        for block in [*g.blocks.two_blocks, *bridges]:
            b = block_graph(g, block)
            assert set(b.labels) == _labels(g, block)
            assert list(b.labels) == sorted(b.labels)
            assert is_connected(b)
            dec = b.blocks
            assert dec.two_blocks == (() if b.m == 1 else (frozenset(range(b.n)),))
            assert dec.cut_vertices == frozenset()
            assert _bridges(b, dec) == (set(b.label_edges()) if b.m == 1 else set())
            assert dec.piece_of == ((0, 1) if b.m == 1 else (0,) * b.n)


def test_every_free_tree_edge_is_a_bridge():
    # branches() reads a tree's bridges off its decomposition; on a tree
    # they must be all of its edges
    for n in range(2, 13):
        for t in enumerate_free_trees(n):
            assert _bridges(t, blocks_and_cuts(t)) == set(t.label_edges())


def _networkx_checks(g: Graph) -> None:
    """The leaf-block count of `has_hamiltonian_path` gives the verdict of
    counting every networkx block with at most one articulation point (the
    counts are equal from three vertices on), and each block's edges are g's
    edges inside its vertex set."""
    h = nx_graph(g)
    cuts = set(nx.articulation_points(h))
    blocks = list(nx.biconnected_component_edges(h))
    theirs = sum(len({v for e in blk for v in e} & cuts) <= 1 for blk in blocks)
    ours = leaf_blocks(g)
    leaves = sum(1 for v in range(g.n) if g.degree(v) == 1)
    assert (leaves > 2 or ours > 2) == (leaves > 2 or theirs > 2), g.label_edges()
    assert ours == theirs or g.n == 2, g.label_edges()
    for blk in blocks:
        verts = {v for e in blk for v in e}
        assert ({tuple(sorted(e)) for e in blk}
                == set(block_graph(g, frozenset(map(g.index, verts))).label_edges()))


def _check_with_its_line_graph(g: Graph) -> None:
    for h in (g, line_graph(g).graph if g.m else g):
        if h.n >= 2:
            _networkx_checks(h)


@pytest.mark.parametrize("n", range(2, 7))
def test_leaf_blocks_and_block_edges_match_networkx(n):
    for g in enumerate_connected_graphs(n):
        _check_with_its_line_graph(g)


@pytest.mark.parametrize("cycle_sizes", [(3, 4, 5), (3,), (4, 6)])
def test_leaf_blocks_and_block_edges_match_networkx_on_the_glued_family(cycle_sizes):
    family = gen_hamiltonian_2block_family(
        FamilyParams(max_vertices=10, cycle_sizes=cycle_sizes))
    for g, _ in family:
        _check_with_its_line_graph(g)
