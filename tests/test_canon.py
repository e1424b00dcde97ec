import hashlib
import itertools

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpindex import (
    Graph,
    CappedError,
    SplitMix64,
    canonical_key,
    enumerate_connected_graphs,
    enumerate_free_trees,
    graph_from_token_edges,
    graph_key,
    random_tree,
)
from hpindex import canon
from shapes import (complete_graph, cycle_graph, path_graph,
                    random_connected_graph, shuffle, star_graph)
from conftest import nx_graph


def relabeled(g: Graph, seed: int) -> Graph:
    """Same structure under a seeded permutation, with fresh vertex names."""
    rng = SplitMix64(seed)
    perm = list(range(g.n))
    shuffle(rng, perm)
    labels = tuple(f"r{i}" for i in range(g.n))
    return Graph(labels, [(perm[a], perm[b]) for a, b in g.edges])


@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=120, deadline=None)
def test_key_is_permutation_invariant(n, seed):
    g = random_connected_graph(n, seed % 4, seed)
    assert canonical_key(relabeled(g, seed + 1)) == canonical_key(g)


def test_key_separates_same_size_graphs():
    assert canonical_key(path_graph(4)) != canonical_key(star_graph(3))
    assert canonical_key(cycle_graph(6)) != canonical_key(
        Graph(tuple("abcdef"), [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))


def test_key_agrees_with_networkx_on_trees():
    trees = list(enumerate_free_trees(7))
    for a, b in itertools.combinations(trees, 2):
        assert canonical_key(a) != canonical_key(b)
        assert not nx.is_isomorphic(nx_graph(a), nx_graph(b))


@pytest.mark.parametrize("seed", range(40))
def test_key_equality_tracks_isomorphism(seed):
    g = random_connected_graph(7, seed % 6, seed)
    h = random_connected_graph(7, seed % 6, seed + 1)
    same = canonical_key(g) == canonical_key(h)
    assert same == nx.is_isomorphic(nx_graph(g), nx_graph(h))


def test_twin_heavy_graphs():
    # stars and complete graphs stress the twin-cell shortcut
    assert canonical_key(star_graph(8)) == canonical_key(relabeled(star_graph(8), 5))
    assert canonical_key(complete_graph(9)) == canonical_key(
        relabeled(complete_graph(9), 3))


def test_size_cap():
    with pytest.raises(CappedError,
                       match=r"^canonical_key supports at most 16 vertices, got 17$"):
        canonical_key(path_graph(17))
    assert len(canonical_key(path_graph(16))) > 0


def test_graph_key_forms():
    assert graph_key(path_graph(5)).startswith("canon:")
    big = graph_key(path_graph(30))
    assert big.startswith("sha256:")
    assert graph_key(path_graph(30)) == big


def test_leaf_budget_falls_back_to_the_labelled_key(monkeypatch):
    # a perfect matching has no twin cells until one edge is left, so 4K2
    # gives 8 * 6 * 4 = 192 leaves
    g = graph_from_token_edges([(f"a{i}", f"b{i}") for i in range(4)])
    assert graph_key(g) == "canon:" + canonical_key(g).hex()
    monkeypatch.setattr(canon, "_LEAF_BUDGET", 191)
    with pytest.raises(CappedError,
                       match="^canonical labeling search exceeded its leaf budget$"):
        canonical_key(g)
    assert graph_key(g).startswith("sha256:")


def test_graph_key_fallback_keeps_labels_with_spaces_apart():
    # as edge-list text both read "a b c" after the same path
    path = list(path_graph(16).label_edges())
    g = graph_from_token_edges(path + [("a b", "c")])
    h = graph_from_token_edges(path + [("a", "b c")])
    assert g != h
    assert graph_key(g).startswith("sha256:")
    assert graph_key(g) != graph_key(h)


def test_graph_key_fallback_ignores_vertex_order():
    g = graph_from_token_edges(path_graph(20).label_edges(), isolated=["z", "y"])
    order = g.labels[::-1]
    h = Graph(order, [(order.index(a), order.index(b)) for a, b in g.label_edges()])
    assert h.labels != g.labels and h.label_edges() == g.label_edges()
    assert graph_key(h) == graph_key(g)
    assert graph_key(h).startswith("sha256:")


def test_graph_key_detects_relabeled_small_graphs():
    t = random_tree(10, 77)
    assert graph_key(t) == graph_key(relabeled(t, 3))


def _pinned_key_corpus():
    yield Graph((), [])
    yield Graph(("1",), [])
    for n in range(2, 6):
        yield from enumerate_connected_graphs(n)
    for n in range(1, 11):
        yield from enumerate_free_trees(n)
    for n in range(1, 17):
        yield complete_graph(n)
    for leaves in range(1, 16):
        yield star_graph(leaves)
    for seed in range(500):
        yield random_connected_graph(2 + seed % 15, seed % 9, seed)


# sha256 over the concatenated keys of the corpus above, recorded from the
# recursive search that the explicit-stack loop replaced
PINNED_KEY_DIGEST = (
    "3be481a4e23a9ae7f66c5629623e0c484bb096c61ad63762c27f64868248359e")


def test_canonical_keys_are_pinned():
    digest = hashlib.sha256()
    for g in _pinned_key_corpus():
        digest.update(canonical_key(g))
    assert digest.hexdigest() == PINNED_KEY_DIGEST
