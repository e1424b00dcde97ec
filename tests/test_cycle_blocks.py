"""The cycle-block skip in `hp_blockchain_conjecture`.

The formula no longer searches a 2-block with as many edges as vertices for
a spanning cycle, since such a block is a cycle. These tests confirm that
premise on every such block met, and compare the formula with a reference
that searches every 2-block first, as the formula used to. The last tests
check that one deadline covers every block the formula does search, and
that no block is built once it has passed.
"""

import itertools
import time

import pytest

from hpindex import formula
from hpindex import (CappedError, FamilyParams, PreconditionError,
                     SearchBudget, enumerate_connected_graphs,
                     gen_hamiltonian_2block_family, graph_from_token_edges,
                     has_hamiltonian_cycle, hp_blockchain_conjecture,
                     is_connected, is_tree)
from hpindex.graphs import block_graph


def searching_every_block(g, budget=SearchBudget()):
    """hp_blockchain_conjecture as it was: every 2-block searched, in order."""
    if is_connected(g) and not is_tree(g):
        for block in g.blocks.two_blocks:
            ok, _ = has_hamiltonian_cycle(block_graph(g, block), budget)
            if not ok:
                raise PreconditionError(
                    "the conjectural formula requires a spanning cycle in "
                    "every cycle block")
    return hp_blockchain_conjecture(g, budget)


def outcome(formula, g):
    try:
        return formula(g)
    except PreconditionError as exc:
        return type(exc), str(exc)


def cycle_blocks(g):
    # the 2-blocks with as many edges as vertices
    return [block for block in g.blocks.two_blocks
            if block_graph(g, block).m == len(block)]


def check(graphs):
    """Counts of (graphs, cycle blocks, graphs the formula rejects)."""
    seen = blocks = rejected = 0
    for g in graphs:
        seen += 1
        if not is_tree(g):
            for block in cycle_blocks(g):
                assert has_hamiltonian_cycle(block_graph(g, block))[0]
                blocks += 1
        got = outcome(hp_blockchain_conjecture, g)
        assert got == outcome(searching_every_block, g), g.label_edges()
        rejected += isinstance(got, tuple)
    return seen, blocks, rejected


@pytest.mark.parametrize("n", range(2, 7))
def test_every_connected_labelled_graph(n):
    seen, blocks, rejected = check(enumerate_connected_graphs(n))
    assert bool(blocks) == (n >= 3)
    # from n = 5 on, K2,3 and its relatives are 2-blocks without a spanning
    # cycle, which the formula must still reject
    assert bool(rejected) == (n >= 5) and rejected < seen


@pytest.mark.parametrize("cycle_sizes", [(3, 4, 5), (3,), (4, 6)])
def test_glued_family_to_10_vertices(cycle_sizes):
    family = gen_hamiltonian_2block_family(
        FamilyParams(max_vertices=10, cycle_sizes=cycle_sizes))
    seen, blocks, rejected = check(g for g, _ in family)
    assert blocks and rejected == 0


def test_other_two_blocks_are_still_searched():
    # a triangle glued to K2,3 at u1: the triangle is skipped, K2,3 is not
    g = graph_from_token_edges(
        [("u1", "w1"), ("u1", "w2"), ("u1", "w3"),
         ("u2", "w1"), ("u2", "w2"), ("u2", "w3"),
         ("u1", "t1"), ("t1", "t2"), ("t2", "u1")])
    assert len(cycle_blocks(g)) == 1 and len(g.blocks.two_blocks) == 2
    with pytest.raises(PreconditionError, match="spanning cycle"):
        hp_blockchain_conjecture(g)


def test_a_cycle_block_is_not_refused_by_the_search_cap():
    # a 6-cycle glued to a path's end: the formula does not search the
    # 6-vertex block under a cap of 4, and the searching reference walks it,
    # as the search walks a cycle of any size
    g = graph_from_token_edges(
        [("p1", "p2"), ("p2", "c0")]
        + [(f"c{i}", f"c{(i + 1) % 6}") for i in range(6)])
    small = SearchBudget(dp_vertex_cap=4, backtrack_vertex_cap=4)
    assert (hp_blockchain_conjecture(g, small) == searching_every_block(g, small)
            == hp_blockchain_conjecture(g))
    # a 5-vertex block that is not a cycle is searched, and refused
    dense = graph_from_token_edges(
        [("p1", "p2"), ("p2", "k0")]
        + [(f"k{i}", f"k{j}") for i in range(4) for j in range(i + 1, 4)]
        + [("k3", "k4"), ("k4", "k0")])
    with pytest.raises(CappedError):
        hp_blockchain_conjecture(dense, small)


def test_one_deadline_covers_every_block_search(monkeypatch):
    # three K4 blocks in a chain, each searched: every search takes two
    # thirds of the limit and says yes, so only the deadline can end the
    # call, before the third search
    limit, step = 0.15, 0.1
    limits = []

    def slow_yes(g, budget):
        limits.append(budget.time_limit_s)
        time.sleep(step)
        return True, None

    monkeypatch.setattr(formula, "has_hamiltonian_cycle", slow_yes)
    g = graph_from_token_edges(
        [(f"k{b}{i}", f"k{b}{j}") for b in range(3)
         for i in range(4) for j in range(i + 1, 4)]
        + [("k03", "k10"), ("k13", "k20")])
    t0 = time.monotonic()
    with pytest.raises(CappedError, match="time limit"):
        hp_blockchain_conjecture(g, SearchBudget(time_limit_s=limit))
    # the third search never starts
    assert time.monotonic() - t0 < 3 * step
    assert limits[0] == limit and len(limits) == 2
    assert 0 < limits[1] < limit


def test_no_block_is_built_past_the_deadline(monkeypatch):
    # two K4 blocks sharing d, and a pendant edge: the first block's search
    # reads the clock once, and the second block finds no time left
    g = graph_from_token_edges([e.split() for e in (
        "a b, a c, a d, b c, b d, c d, d e, d f, d g, e f, e g, f g, g h"
    ).split(", ")])
    built = []

    def counting(graph, block):
        built.append(block)
        return block_graph(graph, block)

    monkeypatch.setattr(formula, "block_graph", counting)
    # two reads, the deadline's and the first search's, then past it
    clock = itertools.chain([0.0, 0.0], itertools.repeat(100.0))
    monkeypatch.setattr(formula.time, "monotonic", lambda: next(clock))
    with pytest.raises(CappedError) as exc:
        hp_blockchain_conjecture(g)
    assert str(exc.value) == "time limit hit before a search"
    assert len(built) == 1
