"""The one DFS, the numpy table and the trail search against the engines
they replaced.

`oracles._dfs` in degree order must do what `_backtrack` did, and in index
order what `_lex_backtrack` did once its walk is flipped into the table's
read-back order: the same walk, the same None, or a drained node budget on
both sides, since a drain hands the graph to the table or caps it.
`oracles._dp_table_np` must build the table of `_dp_table_py` entry for
entry, as the witness walk is read back from it. The explicit-stack
`oracles.has_dominating_trail` must give the recursive search's answer and
walk, open and closed, or raise the same CappedError.
"""

import random

import pytest

from hpindex import (CappedError, enumerate_connected_graphs,
                     enumerate_free_trees, random_connected_graph)
from hpindex import oracles
from reference_search import (_backtrack, _dp_table_py, _lex_backtrack,
                              has_dominating_trail)

NO_DEADLINE = float("inf")


def _run(search, *args):
    try:
        return search(*args)
    except oracles._Inconclusive:
        return "drained"


def _table_order(walk, cycle):
    # the flip _hamiltonian applies to an index-order walk
    if not walk:
        return walk
    return walk[:1] + walk[:0:-1] if cycle else walk[::-1]


def assert_same_search(g, budgets):
    adj = oracles._adj_masks(g)
    for close_to in (None, 0):
        cycle = close_to is not None
        deg_starts = [0] if cycle else oracles._path_starts(g)
        lex_starts = [0] if cycle else oracles._lex_starts(g)
        lex_mask = sum(1 << v for v in lex_starts)
        for nodes in budgets:
            new = _run(oracles._dfs, adj, g.n, deg_starts, nodes, NO_DEADLINE,
                       close_to, True)
            ref = _run(_backtrack, adj, g.n, deg_starts, nodes, NO_DEADLINE,
                       close_to)
            assert new == ref, ("degree", g.label_edges(), close_to, nodes)
            new = _run(oracles._dfs, adj, g.n, lex_starts, nodes, NO_DEADLINE,
                       close_to, False)
            ref = _run(_lex_backtrack, adj, g.n, lex_mask, nodes, close_to)
            if new != "drained":
                new = _table_order(new, cycle)
            assert new == ref, ("index", g.label_edges(), close_to, nodes)


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
    fast = oracles._dp_table_np(adj, starts, NO_DEADLINE)
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


def _trail(search, g, closed):
    try:
        return search(g, closed=closed)
    except CappedError as exc:
        return str(exc)


def assert_same_trails(graphs):
    for g in graphs:
        for closed in (False, True):
            new = _trail(oracles.has_dominating_trail, g, closed)
            ref = _trail(has_dominating_trail, g, closed)
            assert new == ref, (g.label_edges(), closed)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_trail_search_matches_the_recursive_one_on_every_small_graph(n):
    assert_same_trails(enumerate_connected_graphs(n))


@pytest.mark.parametrize("block", range(4))
def test_trail_search_matches_the_recursive_one_on_seeded_graphs(block):
    # 400 graphs of 4-17 vertices with 0-8 extra edges; those past 20 edges
    # must raise the same cap on both sides
    assert_same_trails(
        random_connected_graph(4 + seed % 14, seed * 7 % 9, seed)
        for seed in range(block * 100, block * 100 + 100))


def test_trail_search_matches_the_recursive_one_on_free_trees():
    assert_same_trails(t for n in range(1, 13) for t in enumerate_free_trees(n))
