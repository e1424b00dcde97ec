"""Branch structure of connected graphs.

A branch is a maximal corridor: a path whose two endpoints have degree other
than two and whose interior vertices all have degree exactly two. Every edge
with at least one endpoint of degree != 2 lies in exactly one branch; edges
joining two degree-two vertices on a cycle lie in none. Cycles, having no
degree-!=2 vertex at all, have no branches.

Branches made of bridges drive how long pendant structure survives under the
line-graph map, so each branch records whether all its edges are bridges and
whether one of its endpoints is a leaf.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import Graph, is_connected, is_path, is_tree


@dataclass(frozen=True)
class Branch:
    """One corridor, stored as the token walk between its endpoints.

    The walk is normalized so the lexicographically smaller endpoint token
    comes first; two branches compare equal iff they cover the same walk.
    """

    vertices: tuple[str, ...]
    is_bridge_branch: bool
    is_pendant_branch: bool

    @property
    def edge_count(self) -> int:
        return len(self.vertices) - 1

    def edges(self) -> tuple[tuple[str, str], ...]:
        """The branch's edges as sorted token pairs, sorted."""
        pairs = ((a, b) if a <= b else (b, a)
                 for a, b in zip(self.vertices, self.vertices[1:]))
        return tuple(sorted(pairs))


def branches(g: Graph) -> tuple[Branch, ...]:
    """All branches of a connected graph, sorted by their vertex walks.

    Corridors are grown from each degree-!=2 vertex. A corridor that walks
    through degree-two vertices back to its starting point lies on a cycle
    hanging off a single junction; only its two junction-incident edges count,
    each as a one-edge branch, and its interior edges belong to no branch.
    """
    if g.n <= 1:
        raise PreconditionError("branch decomposition needs at least one edge")
    if not is_connected(g):
        raise PreconditionError("branch decomposition needs a connected graph")
    # every edge of a tree is a bridge
    bridges = frozenset(g.edges) if g.m == g.n - 1 else g.blocks.bridges
    junctions = sorted((v for v in range(g.n) if g.degree(v) != 2),
                       key=lambda v: g.labels[v])
    claimed: set[tuple[int, int]] = set()
    walks: list[list[int]] = []
    for j in junctions:
        for w in sorted(g.adj[j], key=lambda v: g.labels[v]):
            if ((j, w) if j < w else (w, j)) in claimed:
                continue
            walk = [j, w]
            while g.degree(walk[-1]) == 2:
                prev, cur = walk[-2], walk[-1]
                a, b = g.adj[cur]
                walk.append(a if b == prev else b)
            if walk[-1] == j:
                walk = [j, w]
            for a, b in zip(walk, walk[1:]):
                claimed.add((a, b) if a < b else (b, a))
            walks.append(walk)
    out = []
    for walk in walks:
        all_bridge = all(((a, b) if a < b else (b, a)) in bridges
                         for a, b in zip(walk, walk[1:]))
        pendant = g.degree(walk[0]) == 1 or g.degree(walk[-1]) == 1
        # a corridor ending in a leaf is cut off by any of its edges
        assert all_bridge or not pendant
        toks = tuple(g.labels[v] for v in walk)
        if toks[-1] < toks[0]:
            toks = toks[::-1]
        out.append(Branch(toks, all_bridge, pendant))
    return tuple(sorted(out, key=lambda b: b.vertices))


def absorption_time(b: Branch) -> int:
    """Line-graph iterations needed before the branch stops forcing detours.

    A pendant bridge branch with k edges takes k iterations to shrink away; a
    bridge branch wedged between two junctions takes one more.
    """
    if not b.is_bridge_branch:
        raise PreconditionError("absorption time is defined for bridge branches only")
    return b.edge_count if b.is_pendant_branch else b.edge_count + 1


def is_caterpillar(t: Graph) -> bool:
    """True if deleting every leaf of the tree leaves a (possibly empty) path."""
    if not is_tree(t):
        raise PreconditionError("caterpillar test needs a tree")
    internal = [v for v in range(t.n) if t.degree(v) >= 2]
    return all(sum(1 for w in t.adj[v] if t.degree(w) >= 2) <= 2
               for v in internal)


@dataclass(frozen=True)
class Endpath:
    """A leaf-to-leaf path of a tree together with the branches lying on it."""

    leaf_pair: tuple[str, str]
    vertices: tuple[str, ...]
    contained: frozenset[Branch]


def _parents_from(t: Graph, root: int) -> list[int]:
    parent = [-1] * t.n
    parent[root] = root
    stack = [root]
    while stack:
        v = stack.pop()
        for w in t.adj[v]:
            if parent[w] < 0:
                parent[w] = v
                stack.append(w)
    return parent


def endpaths(t: Graph) -> tuple[Endpath, ...]:
    """All leaf-to-leaf paths of a non-path tree, in leaf-pair order.

    Each path is walked from its lexicographically smaller leaf. Path graphs
    are rejected: their single trivial endpath never carries a branch pair.
    The package itself no longer lists endpaths (see formula._evaluate); the
    tests' reference evaluator does, and the benchmark tracer wraps this
    function by name, so it stays here.
    """
    if not is_tree(t):
        raise PreconditionError("endpaths are defined for trees")
    if is_path(t):
        raise PreconditionError("endpaths are defined for trees that are not paths")
    brs = branches(t)
    branch_edges = [(b, frozenset(b.edges())) for b in brs]
    leaves = sorted((v for v in range(t.n) if t.degree(v) == 1),
                    key=lambda v: t.labels[v])
    out = []
    for i, x in enumerate(leaves):
        parent = _parents_from(t, x)
        for y in leaves[i + 1:]:
            walk = [y]
            while walk[-1] != x:
                walk.append(parent[walk[-1]])
            walk.reverse()
            toks = tuple(t.labels[v] for v in walk)
            on_path = frozenset((a, b) if a <= b else (b, a)
                                for a, b in zip(toks, toks[1:]))
            inside = frozenset(b for b, es in branch_edges if es <= on_path)
            out.append(Endpath((toks[0], toks[-1]), toks, inside))
    return tuple(out)
