"""The screen that settles a graph before any hamiltonian search, checked
against an engine that skips it: the bare subset table, `_dp_table_np`,
which fills its table from the adjacency alone and has no prechecks. Every
"no" the screen (or the connectivity check before it) gives must be the
table's "no" too, and every search answer must be the table's."""

import random
from itertools import combinations

import pytest

from hpindex import (Graph, PreconditionError, has_hamiltonian_cycle,
                     has_hamiltonian_path, line_graph)
from hpindex import oracles
from conftest import all_trees
from reference_tables import dense_table


def _table(g: Graph, cycle: bool) -> bool:
    """Whether g has a hamiltonian cycle (or path), by the subset table alone."""
    if cycle and g.n < 3:
        return False  # a cycle needs three vertices; K2's one edge is no cycle
    adj = oracles._adj_masks(g)
    full = (1 << g.n) - 1
    dp = dense_table(oracles._dp_table_np(adj, 1 if cycle else full, float("inf")), g.n)
    return bool(int(dp[full]) & (adj[0] if cycle else full))


def _check(graphs) -> int:
    """Compare both public searches with the table; return the graph count."""
    count = 0
    for g in graphs:
        for cycle, search in ((False, has_hamiltonian_path),
                              (True, has_hamiltonian_cycle)):
            ok, walk = search(g)
            assert ok == _table(g, cycle), (g.label_edges(), g.n, cycle)
            assert (walk is None) != ok
        count += 1
    return count


def _labelled(n: int, edge_sets):
    labels = tuple(str(i + 1) for i in range(n))
    pairs = list(combinations(range(n), 2))
    for bits in edge_sets:
        yield Graph(labels, [p for i, p in enumerate(pairs) if bits >> i & 1])


@pytest.mark.parametrize("n", range(1, 6))
def test_every_labelled_graph_to_5_vertices(n):
    # disconnected graphs too, which the connectivity check settles
    assert _check(_labelled(n, range(1 << n * (n - 1) // 2))) == 1 << n * (n - 1) // 2


def test_seeded_sample_of_6_vertex_graphs():
    rng = random.Random(6)
    assert _check(_labelled(6, (rng.getrandbits(15) for _ in range(3000)))) == 3000


def test_line_graphs_of_free_trees_to_9_vertices():
    assert _check(line_graph(t).graph for t in all_trees(9) if t.m) == 94


def test_the_tiny_cases():
    empty = Graph((), ())
    with pytest.raises(PreconditionError, match="empty graph is undefined"):
        has_hamiltonian_path(empty)
    assert has_hamiltonian_cycle(empty) == (False, None)
    k1 = Graph(("a",), ())
    assert has_hamiltonian_path(k1) == (True, ("a",))
    assert has_hamiltonian_cycle(k1) == (False, None)
    k2 = Graph(("a", "b"), ((0, 1),))
    # the least walk read back from its far end, as the table gives it
    assert has_hamiltonian_path(k2) == (True, ("b", "a"))
    assert has_hamiltonian_cycle(k2) == (False, None)
    two = Graph(("a", "b"), ())
    assert has_hamiltonian_path(two) == (False, None)
    assert has_hamiltonian_cycle(two) == (False, None)
