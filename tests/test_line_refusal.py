"""The stage loop refuses an over-cap stage on its preimage H without
building L(H). `oracles._screen`, run on L(H)'s degrees and blocks read off
H, is checked here against building L(H) and running the public search on
it, and against the screen of the built L(H) on its own degrees and block
counts, under small vertex caps, over exhaustive small families; its block
reading is checked against L(H)'s own decomposition."""

import pytest

from hpindex import (
    CappedError,
    FamilyParams,
    SearchBudget,
    enumerate_connected_graphs,
    gen_hamiltonian_2block_family,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    line_graph,
)
from hpindex import oracles
from conftest import all_trees
from shapes import random_connected_graph

CAPS = (1, 3, 5, 8)
SEARCHES = ((False, has_hamiltonian_path), (True, has_hamiltonian_cycle))


def _search(search, g, cap):
    """The reason the public search refuses g under `cap`, or its answer."""
    try:
        return search(g, SearchBudget(dp_vertex_cap=cap, backtrack_vertex_cap=cap))[0]
    except CappedError as exc:
        return str(exc)


def _check(h):
    """Compare the screen read off h with the search on the built L(h) and
    with the screen of L(h) itself; return the number of refusals seen."""
    lg = line_graph(h).graph
    deg = oracles._line_degrees(h)
    lg_deg = [len(a) for a in lg.adj]
    assert sorted(deg) == sorted(lg_deg)
    if min(deg) >= 2 or deg.count(1) <= 2:
        # the screen reaches the blocks for some search
        cuts = lg.blocks.cut_vertices
        leaf_blocks = sum(len(b & cuts) <= 1 for b in lg.blocks.two_blocks)
        assert oracles._line_blocks(h) == (len(cuts), leaf_blocks), h.label_edges()
        assert oracles._block_counts(lg) == (len(cuts), leaf_blocks)
    refused = 0
    for cycle, search in SEARCHES:
        for cap in CAPS:
            verdict = oracles._screen(h.m, deg, lambda: oracles._line_blocks(h),
                                      cycle, cap)
            assert verdict == oracles._screen(
                lg.n, lg_deg, lambda: oracles._block_counts(lg), cycle, cap), (
                h.label_edges(), cycle, cap)
            want = _search(search, lg, cap)
            assert (verdict if isinstance(verdict, str) else None) == (
                want if isinstance(want, str) else None), (h.label_edges(), cycle, cap)
            if verdict is False:
                assert want is False, (h.label_edges(), cycle, cap)
            refused += isinstance(want, str)
    return refused


@pytest.mark.parametrize("n", range(2, 7))
def test_every_connected_graph(n):
    refused = sum(_check(h) for h in enumerate_connected_graphs(n))
    assert refused or n < 4


def test_glued_family_to_10_vertices():
    family = gen_hamiltonian_2block_family(
        FamilyParams(max_vertices=10, cycle_sizes=(3, 4, 5)))
    assert sum(_check(g) for g, _ in family if g.m)


def test_free_trees_and_their_line_graphs():
    refused = 0
    for t in all_trees(10):
        if t.m:
            refused += _check(t)
        if t.m > 1:
            refused += _check(line_graph(t).graph)
    assert refused


def test_random_connected_graphs():
    assert sum(_check(random_connected_graph(2 + seed % 11, seed % 7, seed))
               for seed in range(300))
