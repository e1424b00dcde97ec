"""The junction-tree evaluator against the endpath-listing reference.

While a test here runs, every call of `formula._evaluate` is repeated on the
reference evaluator in reference_formula.py with the same tree and items, and
the two (value, endpath, off-path walk, per-pair values) tuples must be
equal.
"""

import random

import pytest

from hpindex import (
    FamilyParams,
    branches,
    double_spider,
    enumerate_free_trees,
    gen_hamiltonian_2block_family,
    graph_from_token_edges,
    hp_blockchain_conjecture,
    hp_tree,
    is_path,
    random_tree,
    spider,
    star_graph,
)
from hpindex import formula
from reference_formula import _evaluate as reference_evaluate
from reference_formula import reference_items


@pytest.fixture
def checked(monkeypatch):
    """Check each evaluator call against the reference; list the results."""
    fast = formula._evaluate
    results = []

    def both(tree, items):
        out = fast(tree, items)
        assert out == reference_evaluate(tree, reference_items(items)), \
            tree.label_edges()
        results.append(out)
        return out

    monkeypatch.setattr(formula, "_evaluate", both)
    return results


def test_every_tree_up_to_14_vertices(checked):
    for n in range(1, 15):
        for t in enumerate_free_trees(n):
            if not is_path(t):
                hp_tree(t)
    assert len(checked) == 5433


def test_random_trees_up_to_300_vertices(checked):
    for k in range(40):
        hp_tree(random_tree(50 + round(250 * k / 39), k))
    assert len(checked) == 40


def caterpillar(spine: int):
    # every inner spine corridor weighs 2, as do the two end corridors, so
    # all of them pair up and the hulls run along the spine
    edges = [(f"s{i}", f"s{i + 1}") for i in range(spine - 1)]
    edges += [(f"s{i}", f"p{i}") for i in range(spine)]
    return graph_from_token_edges(edges)


@pytest.mark.parametrize("tree,pairs", [
    (star_graph(40), 780),
    (spider(*[2] * 25), 300),
    (spider(5, *[3] * 20), 20),
    (spider(*[4] * 12, *[1] * 30), 66),
    (double_spider((3,) * 8, 2, (3,) * 8), 136),
    (double_spider((2,) * 6, 5, (2,) * 6), 12),
    (caterpillar(30), 406),
], ids=["star40", "spider2x25", "spider5-3x20", "spider4x12-1x30",
        "double3x8", "double2x6", "caterpillar30"])
def test_many_equal_legs(checked, tree, pairs):
    assert len(hp_tree(tree).per_pair) == pairs
    assert len(checked) == 1


@pytest.mark.parametrize("params,calls", [
    (FamilyParams(max_vertices=10), 536),
    (FamilyParams(max_vertices=12, base_tree_source="random",
                  random_bases=12, seed=0), 1064),
], ids=["enumerated-10", "random-12"])
def test_blockchain_conjecture_over_the_glued_cycle_family(checked, params,
                                                           calls):
    # trees go through hp_tree, the rest through the bridge-reduced tree;
    # both count, reductions that are paths do not
    for g, _ in gen_hamiltonian_2block_family(params):
        hp_blockchain_conjecture(g)
    assert len(checked) == calls


def split_corridors(t, rng):
    """Items cut from the corridors of t at random, with random weights;
    some pieces carry no item."""
    items = []
    for b in branches(t):
        walk = b.vertices
        cuts = sorted(rng.sample(range(1, len(walk) - 1),
                                 rng.randint(0, len(walk) - 2)))
        for lo, hi in zip([0] + cuts, cuts + [len(walk) - 1]):
            if rng.random() < 0.85:
                items.append(formula._WeightedPath(walk[lo:hi + 1],
                                                   rng.randint(1, 4)))
    return tuple(items)


def test_items_cut_from_corridors():
    # several items to a corridor and corridors without one, beyond what
    # the formulas make; every maximal pair still reaches the index
    rng = random.Random(0)
    shared = 0
    for k in range(400):
        t = random_tree(rng.randint(5, 40), k)
        if is_path(t):
            continue
        items = split_corridors(t, rng)
        if len(items) < 2:
            continue
        out = formula._evaluate(t, items)
        assert out == reference_evaluate(t, reference_items(items)), k
        assert {v for _, v in out[3]} == {out[0]}, k
        shared += len(items) > len(branches(t))
    assert shared >= 100
