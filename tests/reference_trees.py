"""The free-tree coder and stream filter, kept as the reference.

`hpindex.generators` used to find centroids with a depth-first walk that
tracked the least heaviest component, build rooted codes with a recursive
closure, and keep a level sequence only when it equalled the full centroid
code of its tree. `_centroids`, `_rooted_sequence`, `_tree_code` and
`enumerate_free_trees` below are that code. The differential tests compare
them with the package's breadth-first coder and centroid-first filter.

The classical counting recurrences for rooted trees, free trees and
connected labelled graphs follow, as an independent check on the lengths of
the package's streams. `is_caterpillar` recognises the trees whose index
is 1, for the closed form's tests.
"""

from __future__ import annotations

from math import comb
from typing import Iterator, Sequence

from hpindex.errors import PreconditionError
from hpindex.generators import _level_sequences, _tree_from_levels
from hpindex.graphs import Graph, is_tree


def _rooted_sequence(adj: Sequence[Sequence[int]], root: int,
                     colour: list[int] | None = None) -> tuple[int, ...]:
    """Canonical level sequence of the tree rooted at `root`.

    With `colour`, each vertex's depth is followed by its colour, so the
    sequence is a canonical code of the vertex-coloured rooted tree.
    """

    def sub(v: int, parent: int, depth: int) -> tuple[int, ...]:
        kids = sorted(
            (sub(w, v, depth + 1) for w in adj[v] if w != parent),
            reverse=True,
        )
        out = [depth] if colour is None else [depth, colour[v]]
        for k in kids:
            out.extend(k)
        return tuple(out)

    return sub(root, -1, 1)


def _tree_code(adj: Sequence[Sequence[int]], n: int,
               colour: list[int] | None = None) -> tuple[int, ...]:
    """Isomorphism code of a free (optionally vertex-coloured) tree: the
    largest canonical sequence over its centroids as roots."""
    return max(_rooted_sequence(adj, c, colour) for c in _centroids(adj, n))


def _centroids(adj: Sequence[Sequence[int]], n: int) -> list[int]:
    if n == 1:
        return [0]
    parent = [-1] * n
    order = [0]
    seen = [False] * n
    seen[0] = True
    stack = [0]
    while stack:
        v = stack.pop()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                order.append(w)
                stack.append(w)
    size = [1] * n
    for v in reversed(order):
        if parent[v] >= 0:
            size[parent[v]] += size[v]
    best = n
    cents: list[int] = []
    for v in range(n):
        heavy = max((size[w] for w in adj[v] if parent[w] == v), default=0)
        if parent[v] >= 0:
            heavy = max(heavy, n - size[v])
        if heavy < best:
            best, cents = heavy, [v]
        elif heavy == best:
            cents.append(v)
    return cents


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """The free-tree stream, each sequence kept iff it equals its tree's
    full centroid code. No bounds check: callers pass 1 <= n <= 14."""
    labels = tuple(str(i + 1) for i in range(n))
    if n == 1:
        yield Graph(labels, [])
        return
    for s in _level_sequences(n):
        edges = _tree_from_levels(s)
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        if tuple(s) == _tree_code(adj, n):
            yield Graph(labels, edges)


def rooted_tree_counts(n_max: int) -> list[int]:
    """r[n] = rooted trees on n unlabeled vertices (r[0] is a placeholder)."""
    r = [0] * (n_max + 1)
    if n_max >= 1:
        r[1] = 1
    for m in range(1, n_max):
        total = 0
        for k in range(1, m + 1):
            dsum = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += dsum * r[m + 1 - k]
        assert total % m == 0
        r[m + 1] = total // m
    return r


def free_tree_counts(n_max: int) -> list[int]:
    """f[n] = free trees on n unlabeled vertices, via the rooted counts."""
    r = rooted_tree_counts(n_max)
    f = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        conv = sum(r[i] * r[n - i] for i in range(1, n))
        adjust = r[n // 2] if n % 2 == 0 else 0
        f[n] = r[n] - (conv - adjust) // 2
    return f


def connected_graph_counts(n_max: int) -> list[int]:
    """c[n] = connected labeled graphs on n vertices, by inclusion-exclusion."""
    c = [0] * (n_max + 1)
    for n in range(1, n_max + 1):
        total = 1 << comb(n, 2)
        rooted = sum(
            comb(n - 1, k - 1) * c[k] * (1 << comb(n - k, 2))
            for k in range(1, n)
        )
        c[n] = total - rooted
    return c


def is_caterpillar(t: Graph) -> bool:
    """True if deleting every leaf of the tree leaves a (possibly empty) path."""
    if not is_tree(t):
        raise PreconditionError("caterpillar test needs a tree")
    internal = [v for v in range(t.n) if t.degree(v) >= 2]
    return all(sum(1 for w in t.adj[v] if t.degree(w) >= 2) <= 2
               for v in internal)
