"""Constructors for the small named graph families and the seeded random
connected graphs that the tests build their cases from."""

from __future__ import annotations

from itertools import combinations

from hpindex import (Graph, PreconditionError, SplitMix64, ValidationError,
                     graph_from_token_edges)
from hpindex.generators import _random_tree


def path_graph(n: int) -> Graph:
    """Path on n vertices (n >= 1)."""
    if n < 1:
        raise ValidationError("path needs at least one vertex")
    labels = [f"p{i}" for i in range(n)]
    if n == 1:
        return graph_from_token_edges([], isolated=labels)
    return graph_from_token_edges([(labels[i], labels[i + 1]) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValidationError("cycle needs at least three vertices")
    labels = [f"c{i}" for i in range(n)]
    edges = [(labels[i], labels[(i + 1) % n]) for i in range(n)]
    return graph_from_token_edges(edges)


def complete_graph(n: int) -> Graph:
    if n < 1:
        raise ValidationError("complete graph needs at least one vertex")
    labels = [f"k{i}" for i in range(n)]
    edges = [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)]
    return graph_from_token_edges(edges, isolated=labels if n == 1 else ())


def star_graph(leaves: int) -> Graph:
    """Star with the given number of leaves."""
    if leaves < 1:
        raise ValidationError("star needs at least one leaf")
    return graph_from_token_edges([("c", f"x{i}") for i in range(leaves)])


def spider(*leg_lengths: int) -> Graph:
    """Legs of the given edge-lengths glued at a common center."""
    if not leg_lengths or any(k < 1 for k in leg_lengths):
        raise ValidationError("spider legs must have length >= 1")
    edges = []
    for i, length in enumerate(leg_lengths):
        prev = "c"
        for j in range(1, length + 1):
            cur = f"L{i}_{j}"
            edges.append((prev, cur))
            prev = cur
    return graph_from_token_edges(edges)


def double_spider(left: tuple[int, ...], middle: int, right: tuple[int, ...]) -> Graph:
    """Two leg bundles joined by a middle path of `middle` edges."""
    if middle < 1:
        raise ValidationError("middle path needs at least one edge")
    if not left or not right:
        raise ValidationError("both centers need at least one leg")
    edges = []
    prev = "u"
    for j in range(1, middle):
        cur = f"m{j}"
        edges.append((prev, cur))
        prev = cur
    edges.append((prev, "w"))
    for side, center, lengths in (("a", "u", left), ("b", "w", right)):
        for i, length in enumerate(lengths):
            if length < 1:
                raise ValidationError("legs must have length >= 1")
            prev = center
            for j in range(1, length + 1):
                cur = f"{side}{i}_{j}"
                edges.append((prev, cur))
                prev = cur
    return graph_from_token_edges(edges)


def shuffle(rng: SplitMix64, items: list) -> None:
    """Fisher-Yates, in place."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.below(i + 1)
        items[i], items[j] = items[j], items[i]


def random_connected_graph(n: int, extra_edges: int, seed: int) -> Graph:
    """Random spanning tree plus `extra_edges` distinct non-tree edges."""
    if n < 2:
        raise PreconditionError("random_connected_graph needs n >= 2")
    if extra_edges < 0:
        raise ValidationError("extra_edges must be nonnegative")
    rng = SplitMix64(seed)
    base = _random_tree(n, rng)
    present = set(base.edges)
    spare = [p for p in combinations(range(n), 2) if p not in present]
    shuffle(rng, spare)
    chosen = spare[: min(extra_edges, len(spare))]
    return Graph(base.labels, list(base.edges) + chosen)
