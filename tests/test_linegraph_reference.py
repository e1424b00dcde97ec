"""`line_graph` against the validating construction it replaced.

reference_linegraph.py builds the line graph through `Graph.__init__`; the
library builds the same fields directly through `Graph._trusted`. Each test
asserts that labels, adjacency, edges and provenance are equal, and that
re-validating the fast result gives back the same graph.
"""

import pytest

from hpindex import (enumerate_connected_graphs, graph_from_token_edges,
                     line_graph, random_tree)
from hpindex.graphs import Graph
from reference_linegraph import line_graph as reference_line_graph
from shapes import star_graph


def same_line_graph(g):
    """line_graph(g), checked field for field against the reference."""
    got, want = line_graph(g), reference_line_graph(g)
    lg, ref = got.graph, want.graph
    assert lg.labels == ref.labels
    assert lg.adj == ref.adj
    assert lg.edges == ref.edges
    assert got.provenance == want.provenance
    checked = Graph(lg.labels, lg.edges)
    assert checked == lg and checked.adj == lg.adj
    assert [lg.index(name) for name in lg.labels] == list(range(lg.n))
    return lg


@pytest.mark.parametrize("n", range(2, 7))
def test_every_connected_labelled_graph_and_its_second_iterate(n):
    count = 0
    for g in enumerate_connected_graphs(n):
        lg = same_line_graph(g)
        if lg.m:  # K2's line graph is K1, which has none
            same_line_graph(lg)
        count += 1
    assert count == {2: 1, 3: 4, 4: 38, 5: 728, 6: 26704}[n]


@pytest.mark.parametrize("seed", range(8))
def test_iterates_of_random_trees(seed):
    # each line graph built has at most 2,000 vertices, one per edge of the
    # graph before it
    g = random_tree(12 + 6 * seed, seed)
    stages = 0
    while 0 < g.m <= 2_000:
        g = same_line_graph(g)
        stages += 1
    assert stages >= 3 and g.n > 250


def test_joined_names_that_collide_fall_back_to_sequential_names():
    # edges (a, b.c) and (a.b, c) would both be named "a.b.c"
    lg = same_line_graph(
        graph_from_token_edges([("a", "b.c"), ("a.b", "c"), ("a", "c")]))
    assert lg.labels == ("e0", "e1", "e2")


def test_joined_names_over_the_length_cap_fall_back_to_sequential_names():
    long = "v" * 80
    lg = same_line_graph(
        graph_from_token_edges([(long, "a"), ("a", "b"), ("b", long)]))
    assert lg.labels == ("e0", "e1", "e2")
    # the fallback holds for every iterate it feeds
    same_line_graph(same_line_graph(lg))


def test_a_star_gives_a_complete_graph():
    lg = same_line_graph(star_graph(30))
    assert lg.m == 30 * 29 // 2
