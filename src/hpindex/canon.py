"""Canonical keys for small graphs.

Individualization-refinement canonical labeling: refine vertex colors to an
equitable partition, branch on the first smallest non-singleton cell, and take
the lexicographically least adjacency encoding over all leaves. Cells of
pairwise interchangeable vertices (equal neighborhoods outside the cell,
clique or independent inside) are split without branching, which keeps stars,
cliques and repeated pendants from exploding the search tree. The search
keeps its own stack of colour vectors, so it never recurses.

Two graphs on at most CANONICAL_VERTEX_CAP vertices get equal keys exactly
when they are isomorphic, unless canonical_key raises CappedError past
_LEAF_BUDGET leaves (8K2, many automorphisms and no twin cells, takes 30 s).
"""

from __future__ import annotations

import hashlib
import json

from .errors import CappedError
from .graphs import Graph

CANONICAL_VERTEX_CAP = 16
_LEAF_BUDGET = 250_000


def graph_key(g: Graph) -> str:
    """Stable identity string for a graph.

    Isomorphism-invariant ("canon:...") for graphs within the canonical cap
    whose search stays within the leaf budget; other graphs fall back to a
    hash of the sorted isolated labels and labelled edges ("sha256:..."),
    which still deduplicates exact repeats but not relabelings. JSON quotes
    every label, so no label can run into the next, whatever it holds.
    """
    try:
        return "canon:" + canonical_key(g).hex()
    except CappedError:
        isolated = sorted(g.labels[v] for v in range(g.n) if g.degree(v) == 0)
        text = json.dumps([isolated, g.label_edges()])
        return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def canonical_key(g: Graph) -> bytes:
    """The 2-byte vertex count, then the upper triangle of the adjacency
    matrix in the order of the least leaf's colours, row by row, packed into
    whole bytes most significant bit first."""
    n = g.n
    if n > CANONICAL_VERTEX_CAP:
        raise CappedError(f"canonical_key supports at most "
                          f"{CANONICAL_VERTEX_CAP} vertices, got {n}")
    adj = [frozenset(nb) for nb in g.adj]
    best = None
    leaves = 0
    stack = [[g.degree(v) for v in range(n)]]
    while stack:
        colors = _refine(stack.pop(), adj)
        while True:
            nonsingle = [c for c in _cells(colors) if len(c) > 1]
            twin = next((c for c in nonsingle if _is_twin_cell(c, adj)), None)
            if twin is None:
                break
            # interchangeable vertices: fix an arbitrary order, no branching needed
            rebased = [c * (n + 1) for c in colors]
            for off, v in enumerate(sorted(twin)):
                rebased[v] += off
            colors = _refine(rebased, adj)
        if nonsingle:
            for v in sorted(min(nonsingle, key=len)):
                child = [c * 2 for c in colors]
                child[v] -= 1
                stack.append(child)
            continue
        leaves += 1
        if leaves > _LEAF_BUDGET:
            raise CappedError("canonical labeling search exceeded its leaf budget")
        # a leaf's colours are 0..n-1, each vertex's position in the order
        bits = 0
        for v in sorted(range(n), key=colors.__getitem__):
            i = colors[v]
            bits = bits << (n - 1 - i) | sum(
                1 << (n - 1 - colors[w]) for w in adj[v] if colors[w] > i)
        # keys of one graph have one length, so the least int is the least key
        if best is None or bits < best:
            best = bits
    nbits = n * (n - 1) // 2
    pad = -nbits % 8
    return n.to_bytes(2, "big") + (best << pad).to_bytes((nbits + pad) // 8, "big")


def _refine(colors: list[int], adj: list[frozenset[int]]) -> list[int]:
    n = len(colors)
    while True:
        sigs = [(colors[v], tuple(sorted(colors[w] for w in adj[v])))
                for v in range(n)]
        rank = {s: i for i, s in enumerate(sorted(set(sigs)))}
        new = [rank[sigs[v]] for v in range(n)]
        if new == colors:
            return new
        colors = new


def _cells(colors: list[int]) -> list[list[int]]:
    by_color: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        by_color.setdefault(c, []).append(v)
    return [by_color[c] for c in sorted(by_color)]


def _is_twin_cell(cell: list[int], adj: list[frozenset[int]]) -> bool:
    cset = frozenset(cell)
    outside = [adj[v] - cset for v in cell]
    if any(o != outside[0] for o in outside[1:]):
        return False
    inner = [len(adj[v] & cset) for v in cell]
    full = len(cell) - 1
    return all(d == 0 for d in inner) or all(d == full for d in inner)
