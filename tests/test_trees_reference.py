"""The breadth-first tree coder and the centroid-first free-tree stream
against the recursive coder and full-code filter in reference_trees.py."""

import random

import pytest

import reference_trees as ref
from hpindex.generators import _centroids, _tree_code, enumerate_free_trees


@pytest.mark.parametrize(
    "n", [*range(1, 14), pytest.param(14, marks=pytest.mark.slow)])
def test_free_tree_stream_matches_reference(n):
    assert ([(g.labels, g.edges) for g in enumerate_free_trees(n)]
            == [(g.labels, g.edges) for g in ref.enumerate_free_trees(n)])


def _random_trees(count: int, seed: int):
    """Seeded trees on 1-30 vertices with shuffled labels and adjacency
    orders, each with a colouring from the first 1-4 of (0, 3, 4, 5)."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 30)
        perm = list(range(n))
        rng.shuffle(perm)
        adj: list[list[int]] = [[] for _ in range(n)]
        for i in range(1, n):
            a, b = perm[i], perm[rng.randrange(i)]
            adj[a].append(b)
            adj[b].append(a)
        for a in adj:
            rng.shuffle(a)
        palette = (0, 3, 4, 5)[:rng.randint(1, 4)]
        yield n, adj, [rng.choice(palette) for _ in range(n)]


@pytest.mark.parametrize("seed", range(4))
def test_tree_code_and_centroids_match_reference(seed):
    for n, adj, colour in _random_trees(600, seed):
        assert _centroids(adj) == ref._centroids(adj, n)
        assert _tree_code(adj) == ref._tree_code(adj, n)
        assert _tree_code(adj, colour) == ref._tree_code(adj, n, colour)
