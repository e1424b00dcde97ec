"""Canonical keys for small graphs.

Individualization-refinement canonical labeling: refine vertex colors to an
equitable partition, branch on the first smallest non-singleton cell, and take
the lexicographically least adjacency encoding over all leaves. Cells of
pairwise interchangeable vertices (equal neighborhoods outside the cell,
clique or independent inside) are split without branching, which keeps stars,
cliques and repeated pendants from exploding the search tree.

Two graphs on at most CANONICAL_VERTEX_CAP vertices get equal keys exactly
when they are isomorphic.
"""

from __future__ import annotations

import hashlib

from .errors import TooLargeError
from .graphs import Graph
from .io import to_edge_list

CANONICAL_VERTEX_CAP = 16
_LEAF_BUDGET = 250_000


def graph_key(g: Graph) -> str:
    """Stable identity string for a graph.

    Isomorphism-invariant ("canon:...") for graphs within the canonical cap;
    larger graphs fall back to a hash of the labeled edge list ("sha256:..."),
    which still deduplicates exact repeats but not relabelings.
    """
    if g.n <= CANONICAL_VERTEX_CAP:
        try:
            return "canon:" + canonical_key(g).hex()
        except TooLargeError:
            pass
    return "sha256:" + hashlib.sha256(to_edge_list(g).encode()).hexdigest()


def canonical_key(g: Graph) -> bytes:
    if g.n > CANONICAL_VERTEX_CAP:
        raise TooLargeError(f"canonical_key supports at most "
                            f"{CANONICAL_VERTEX_CAP} vertices, got {g.n}")
    n = g.n
    if n == 0:
        return b"\x00\x00"
    adj = [frozenset(nb) for nb in g.adj]

    colors = _refine([g.degree(v) for v in range(n)], adj)
    state = {"best": None, "leaves": 0}
    _search(colors, adj, n, state)
    key = state["best"]
    if key is None:
        raise AssertionError("canonical search produced no leaf")
    return key


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


def _search(colors: list[int], adj: list[frozenset[int]], n: int, state: dict) -> None:
    colors = _refine(colors, adj)
    while True:
        cells = _cells(colors)
        nonsingle = [c for c in cells if len(c) > 1]
        if not nonsingle:
            _record_leaf(colors, adj, n, state)
            return
        twin = next((c for c in nonsingle if _is_twin_cell(c, adj)), None)
        if twin is None:
            break
        # interchangeable vertices: fix an arbitrary order, no branching needed
        rebased = [c * (n + 1) for c in colors]
        for off, v in enumerate(sorted(twin)):
            rebased[v] += off
        colors = _refine(rebased, adj)

    target = min(nonsingle, key=len)
    for v in sorted(target):
        child = [c * 2 for c in colors]
        child[v] -= 1
        _search(child, adj, n, state)


def _record_leaf(colors: list[int], adj: list[frozenset[int]], n: int,
                 state: dict) -> None:
    state["leaves"] += 1
    if state["leaves"] > _LEAF_BUDGET:
        raise TooLargeError("canonical labeling search exceeded its leaf budget")
    order = sorted(range(n), key=lambda v: colors[v])
    bits = []
    for i in range(n):
        for j in range(i + 1, n):
            bits.append(1 if order[j] in adj[order[i]] else 0)
    while len(bits) % 8:
        bits.append(0)
    packed = bytearray([n >> 8, n & 255])
    for k in range(0, len(bits), 8):
        val = 0
        for b in bits[k:k + 8]:
            val = (val << 1) | b
        packed.append(val)
    key = bytes(packed)
    if state["best"] is None or key < state["best"]:
        state["best"] = key
