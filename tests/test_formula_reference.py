"""The junction-tree evaluator against the endpath-listing reference.

Each formula result here is compared, as the whole (value, endpath, off-path
walk, per-pair values) tuple, with reference_formula.py, which evaluates
items built independently from the branches and absorption times of the
original graph. The `checked` fixture counts the calls of
`formula._evaluate`. The last tests compare `formula._evaluate` with
`junction_evaluate`, the evaluator before its loops were specialised, on
trees too large for the endpath listing.
"""

import random

import pytest

from hpindex import (
    FamilyParams,
    enumerate_free_trees,
    gen_hamiltonian_2block_family,
    graph_from_token_edges,
    hp_blockchain_conjecture,
    hp_tree,
    is_path,
    is_tree,
    random_tree,
)
from hpindex import formula
from reference_formula import junction_evaluate, reference_formula
from shapes import double_spider, spider, star_graph


@pytest.fixture
def checked(monkeypatch):
    """The trees `formula._evaluate` runs on, in call order."""
    fast = formula._evaluate
    trees = []

    def counted(tree, hubs=frozenset()):
        trees.append(tree)
        return fast(tree, hubs)

    monkeypatch.setattr(formula, "_evaluate", counted)
    return trees


def agree(g):
    """The formula's result for g, checked against the reference."""
    res = (hp_tree if is_tree(g) else hp_blockchain_conjecture)(g)
    assert res == reference_formula(g), g.label_edges()
    return res


def test_every_tree_up_to_14_vertices(checked, exits_calls):
    for n in range(1, 15):
        for t in enumerate_free_trees(n):
            if not is_path(t):
                agree(t)
    assert len(checked) == 5433
    assert exits_calls[0] > 0  # some trees read an up entry, filled on demand


def test_random_trees_up_to_300_vertices(checked):
    for k in range(40):
        agree(random_tree(50 + round(250 * k / 39), k))
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
    assert len(agree(tree).per_pair) == pairs
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
        agree(g)
    assert len(checked) == calls


def with_triangles(t, hubs):
    """t with a triangle glued at each hub vertex: its bridge reduction is t
    with the hubs standing for contracted pieces."""
    edges = list(t.label_edges())
    for h in hubs:
        x = t.labels[h]
        edges += [(x, x + "~1"), (x + "~1", x + "~2"), (x + "~2", x)]
    return graph_from_token_edges(edges)


def test_items_cut_from_corridors():
    # random hub sets: leaf hubs turn pendant branches into inner ones, and
    # hubs of degree 2 cut a corridor into several items; every maximal
    # pair still reaches the index
    rng = random.Random(0)
    tested = cut = k = 0
    while tested < 400:
        k += 1
        t = random_tree(rng.randint(5, 40), k)
        if is_path(t):
            continue
        hubs = rng.sample(range(t.n), rng.randint(0, t.n // 3))
        res = agree(with_triangles(t, hubs))
        assert {v for _, v in res.per_pair} == {res.value}, k
        tested += 1
        cut += any(t.degree(h) == 2 for h in hubs)
    assert cut >= 100


def same_as_junction_reference(tree, hubs=frozenset()):
    assert formula._evaluate(tree, hubs) == junction_evaluate(tree, hubs), (
        tree.label_edges(), sorted(hubs))


@pytest.mark.parametrize("n", [50, 200, 1000, 5000])
def test_random_trees_match_the_junction_reference(n):
    for seed in range(10):
        same_as_junction_reference(random_tree(n, seed))


TIED = {
    **{f"star{h}": star_graph(h) for h in (3, 4, 5, 8, 13, 40, 100, 200)},
    **{f"caterpillar{s}": caterpillar(s) for s in (3, 4, 7, 25, 80, 200)},
    **{f"spider{leg}x{k}": spider(*[leg] * k)
       for leg in (1, 2, 3, 5) for k in (3, 4, 17, 60)},
    "spider5-3x40": spider(5, *[3] * 40),
    "spider4x20-1x50": spider(*[4] * 20, *[1] * 50),
    "spider2x30-3x30": spider(*[2] * 30, *[3] * 30),
}


@pytest.mark.parametrize("name", TIED)
def test_tied_trees_match_the_junction_reference(name):
    same_as_junction_reference(TIED[name])


def test_reduced_glued_family_matches_the_junction_reference():
    # the bridge reductions with their hubs, as hp_blockchain_conjecture
    # evaluates them; a tree of the family reduces to itself, with no hubs
    compared = 0
    for g, _ in gen_hamiltonian_2block_family(FamilyParams(max_vertices=10)):
        r, hubs = formula._reduce(g)
        if not is_path(r):
            same_as_junction_reference(r, hubs)
            compared += 1
    assert compared == 536
