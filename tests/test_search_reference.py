"""The one DFS, the numpy table and the trail engine against the searches
they replaced.

`oracles._dfs` in degree order must do what `_backtrack` did, and in index
order what `_lex_backtrack` did once its walk is flipped into the table's
read-back order. Its dead-end check cuts every walk whose unvisited
vertices fall apart, where the references' check cuts a walk only when
some of them are cut off from its current vertex, and a cycle search never steps onto the last
unvisited neighbour of its closing vertex before the last step, a cut the
references lack. Both cut only branches with no completion, so the new
search places a subset of a reference's nodes, in the same order: wherever
a reference settles within a budget the new search returns the same walk
or None within it, and wherever the new search settles its answer is the
reference's with the budget lifted.
`oracles._dp_table_np`, spread into 2^n entries by `dense_table`, must
build the table of `_dp_table_py` entry for entry, as the witness walk is
read back from it. The piece-by-piece
`oracles.has_dominating_trail` must give the verdict of the edge-mask
search over the whole graph, open and closed, wherever that search does not
cap, and a witness that replays in g and, mapped, in L(g).
"""

import random

import pytest

from hpindex import (CappedError, FamilyParams, enumerate_connected_graphs,
                     enumerate_free_trees, gen_hamiltonian_2block_family,
                     graph_from_token_edges, line_graph)
from hpindex import oracles
from hpindex.oracles import check_cycle_witness, check_path_witness, check_trail_witness
from reference_linegraph import trail_as_line_walk
from reference_search import (_backtrack, _dp_table_py, _lex_backtrack,
                              has_dominating_trail)
from reference_tables import dense_table
from shapes import random_connected_graph

NO_DEADLINE = float("inf")


def _run(search, *args):
    try:
        return search(*args)
    except oracles._Inconclusive:
        return "drained"


def _table_order(walk, cycle):
    # the flip _hamiltonian applies to an index-order walk
    if not walk or walk == "drained":
        return walk
    return walk[:1] + walk[:0:-1] if cycle else walk[::-1]


def assert_same_search(g, budgets):
    adj = oracles._adj_masks(g)
    for close_to in (None, 0):
        cycle = close_to is not None
        deg_starts = [0] if cycle else oracles._path_starts(g)
        lex_starts = [0] if cycle else oracles._lex_starts(g)
        lex_mask = sum(1 << v for v in lex_starts)
        # (order, new search, reference), each at a node budget
        searches = (
            ("degree",
             lambda nodes: _run(oracles._dfs, adj, deg_starts, nodes,
                                NO_DEADLINE, cycle, True),
             lambda nodes: _run(_backtrack, adj, g.n, deg_starts, nodes,
                                NO_DEADLINE, close_to)),
            ("index",
             lambda nodes: _table_order(_run(oracles._dfs, adj, lex_starts,
                                             nodes, NO_DEADLINE, cycle, False),
                                        cycle),
             lambda nodes: _run(_lex_backtrack, adj, g.n, lex_mask, nodes, close_to)),
        )
        for order, new_at, ref_at in searches:
            lifted = None
            for nodes in budgets:
                new, ref = new_at(nodes), ref_at(nodes)
                where = (order, g.label_edges(), close_to, nodes)
                if ref != "drained":
                    assert new == ref, where
                if new != "drained":
                    if lifted is None:
                        lifted = ref_at(float("inf"))
                    assert new == lifted, where


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dfs_matches_both_references_on_every_small_graph(n):
    for g in enumerate_connected_graphs(n):
        assert_same_search(g, (1, 2, 3, 10, 1000))


@pytest.mark.parametrize("block", range(4))
def test_dfs_matches_both_references_on_seeded_graphs(block):
    # 96 graphs of 7-30 vertices in four chunks, from a spanning tree
    # (refuted by the leaf count or drained) to about 2n extra edges
    for seed in range(block * 24, block * 24 + 24):
        n = 7 + seed % 24
        g = random_connected_graph(n, seed * 5 % (2 * n + 1), seed)
        assert_same_search(g, (7, 300, 20000))


def assert_same_table(g, starts):
    adj = oracles._adj_masks(g)
    fast = dense_table(oracles._dp_table_np(adj, starts, NO_DEADLINE), g.n)
    assert fast.tolist() == _dp_table_py(adj, starts), (g.label_edges(), starts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_numpy_table_matches_python_table_on_every_small_graph(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    for g in enumerate_connected_graphs(n):
        for starts in (full, 1, rng.randrange(1, full + 1)):
            assert_same_table(g, starts)


def test_numpy_table_matches_python_table_on_seeded_graphs():
    # 100 graphs of 6-12 vertices; even seeds seed every vertex (path
    # search), odd seeds vertex 0 alone (cycle search)
    for seed in range(100):
        n = 6 + seed % 7
        g = random_connected_graph(n, seed * 3 % 13, seed)
        assert_same_table(g, (1 << n) - 1 if seed % 2 == 0 else 1)


def bridged_graphs(seed, count):
    """Random small connected graphs joined by bridges into a random tree of
    pieces, up to 20 edges in all, so that the engine runs one search per
    piece with fixed and free ends."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        edges, names = [], []
        for k in range(rng.randint(2, 5)):
            n = rng.randint(1, 5)
            labels = [f"{k}.{v}" for v in range(n)]
            if n > 1:
                part = random_connected_graph(n, rng.randint(0, 4), rng.randrange(10**6))
                edges += [(labels[a], labels[b]) for a, b in part.edges]
            if names:
                edges.append((rng.choice(rng.choice(names)), rng.choice(labels)))
            names.append(labels)
        if len(edges) <= 20:
            out.append(graph_from_token_edges(edges))
    return out


def assert_engine_matches_reference(graphs):
    """The engine's verdict equals the edge-mask search's wherever that
    search does not cap, and every witness replays in g and, mapped, in
    L(g): as a hamiltonian path, or for a closed trail on 3 or more edges
    (Harary-Nash-Williams) a hamiltonian cycle."""
    for g in graphs:
        lg = line_graph(g) if g.m else None
        for closed in (False, True):
            ok, walk = oracles.has_dominating_trail(g, closed=closed)
            try:
                ref, _ = has_dominating_trail(g, closed=closed)
            except CappedError:
                ref = ok
            assert ok == ref, (g.label_edges(), closed)
            if not ok:
                continue
            check_trail_witness(g, walk, closed)
            if closed and g.m >= 3:
                check_cycle_witness(lg.graph, trail_as_line_walk(g, walk, lg.provenance))
            elif not closed and g.m:
                check_path_witness(lg.graph, trail_as_line_walk(g, walk, lg.provenance))


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_trail_search_matches_the_recursive_one_on_every_small_graph(n):
    assert_engine_matches_reference(enumerate_connected_graphs(n))


@pytest.mark.parametrize("block", range(4))
def test_trail_search_matches_the_recursive_one_on_seeded_graphs(block):
    # 400 graphs of 4-17 vertices with 0-8 extra edges; past 20 edges the
    # reference caps, and only the engine's witnesses are checked
    assert_engine_matches_reference(
        random_connected_graph(4 + seed % 14, seed * 7 % 9, seed)
        for seed in range(block * 100, block * 100 + 100))


def test_trail_search_matches_the_recursive_one_on_free_trees():
    assert_engine_matches_reference(
        t for n in range(1, 13) for t in enumerate_free_trees(n))


@pytest.mark.parametrize("cycle_sizes", [(3, 4, 5), (3,), (4, 6)])
def test_trail_engine_matches_the_reference_on_the_glued_family(cycle_sizes):
    family = gen_hamiltonian_2block_family(
        FamilyParams(max_vertices=10, cycle_sizes=cycle_sizes))
    assert_engine_matches_reference(g for g, _ in family)


@pytest.mark.parametrize("block", range(4))
def test_trail_engine_matches_the_reference_on_bridged_graphs(block):
    graphs = bridged_graphs(block, 250)
    # a connected graph of two or more pieces has a bridge
    assert all(len(set(g.blocks.piece_of)) > 1 for g in graphs)
    assert sum(len(g.blocks.two_blocks) >= 2 for g in graphs) >= 50
    assert_engine_matches_reference(graphs)
