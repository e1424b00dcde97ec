"""Immutable simple undirected graphs and their block structure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import PreconditionError, ValidationError


class Graph:
    """A finite simple undirected graph with string vertex labels.

    Vertices keep their construction order and are addressed internally by
    dense integer indices; ``labels[i]`` recovers the external token. The
    object is immutable by convention: all attributes are tuples and must not
    be reassigned.
    """

    __slots__ = ("labels", "adj", "edges", "_index")

    def __init__(self, labels: Sequence[str], edge_pairs: Iterable[tuple[int, int]]):
        labels = tuple(labels)
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate vertex labels")
        n = len(labels)
        adj_sets: list[set[int]] = [set() for _ in range(n)]
        edges: set[tuple[int, int]] = set()
        for u, v in edge_pairs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValidationError("edge endpoint out of range")
            if u == v:
                raise ValidationError(f"self-loop at vertex {labels[u]!r}")
            a, b = (u, v) if u < v else (v, u)
            edges.add((a, b))
            adj_sets[a].add(b)
            adj_sets[b].add(a)
        self.labels = labels
        self.adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj_sets)
        self.edges: tuple[tuple[int, int], ...] = tuple(sorted(edges))
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def index(self, label: str) -> int:
        return self._index[label]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def label_edge(self, e: tuple[int, int]) -> tuple[str, str]:
        """Edge as a sorted token pair."""
        a, b = self.labels[e[0]], self.labels[e[1]]
        return (a, b) if a <= b else (b, a)

    def label_edges(self) -> tuple[tuple[str, str], ...]:
        """All edges as sorted token pairs, sorted."""
        return tuple(sorted(self.label_edge(e) for e in self.edges))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.labels == other.labels and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.labels, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def graph_from_token_edges(edge_tokens: Iterable[tuple[str, str]],
                           isolated: Iterable[str] = ()) -> Graph:
    """Build a Graph from token pairs, vertices in first-mention order."""
    order: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    for a, b in edge_tokens:
        for t in (a, b):
            if t not in order:
                order[t] = len(order)
        pairs.append((order[a], order[b]))
    for t in isolated:
        if t not in order:
            order[t] = len(order)
    return Graph(tuple(order), pairs)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return False
    seen = [False] * g.n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        v = stack.pop()
        for w in g.adj[v]:
            if not seen[w]:
                seen[w] = True
                count += 1
                stack.append(w)
    return count == g.n


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.m == g.n - 1


def is_path(g: Graph) -> bool:
    """True for path graphs; a single vertex counts as a path."""
    if not is_tree(g):
        return False
    return all(g.degree(v) <= 2 for v in range(g.n))


@dataclass(frozen=True)
class BlockDecomposition:
    """Blocks (as edge sets), cut vertices and bridges of a connected graph."""

    blocks: tuple[frozenset[tuple[int, int]], ...]
    block_vertices: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    bridges: frozenset[tuple[int, int]]
    is_block_chain: bool

    def end_blocks(self) -> tuple[int, ...]:
        """Indices of blocks containing at most one cut vertex."""
        return tuple(i for i, vs in enumerate(self.block_vertices)
                     if len(vs & self.cut_vertices) <= 1)

    def two_blocks(self) -> tuple[int, ...]:
        """Indices of blocks on at least three vertices."""
        return tuple(i for i, vs in enumerate(self.block_vertices) if len(vs) >= 3)


def blocks_and_cuts(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan block decomposition of a connected graph.

    Iterative so deep graphs (long paths, big iterates) never hit the
    recursion limit. Every edge lands in exactly one block; bridges are the
    one-edge blocks.
    """
    if not is_connected(g):
        raise PreconditionError("block decomposition needs a connected graph")
    n = g.n
    if n == 1:
        return BlockDecomposition((), (), frozenset(), frozenset(), True)

    disc = [-1] * n
    low = [0] * n
    parent = [-1] * n
    edge_stack: list[tuple[int, int]] = []
    blocks: list[frozenset[tuple[int, int]]] = []
    cuts: set[int] = set()

    root = 0
    disc[root] = low[root] = 0
    clock = 1
    root_children = 0
    stack: list[tuple[int, int]] = [(root, 0)]  # (vertex, next-neighbor position)
    while stack:
        v, ptr = stack[-1]
        if ptr < len(g.adj[v]):
            stack[-1] = (v, ptr + 1)
            w = g.adj[v][ptr]
            if w == parent[v]:
                continue
            if disc[w] == -1:
                parent[w] = v
                disc[w] = low[w] = clock
                clock += 1
                edge_stack.append((min(v, w), max(v, w)))
                if v == root:
                    root_children += 1
                stack.append((w, 0))
            elif disc[w] < disc[v]:
                edge_stack.append((min(v, w), max(v, w)))
                if disc[w] < low[v]:
                    low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                break
            u = stack[-1][0]
            if low[v] < low[u]:
                low[u] = low[v]
            if low[v] >= disc[u]:
                edge = (min(u, v), max(u, v))
                blk: list[tuple[int, int]] = []
                while True:
                    e = edge_stack.pop()
                    blk.append(e)
                    if e == edge:
                        break
                blocks.append(frozenset(blk))
                if u != root:
                    cuts.add(u)
    if root_children > 1:
        cuts.add(root)
    if edge_stack:
        raise AssertionError("edge stack not drained; decomposition bug")

    block_vertices = tuple(frozenset(v for e in blk for v in e) for blk in blocks)
    bridges = frozenset(e for blk in blocks if len(blk) == 1 for e in blk)
    chain = _chain_shaped(block_vertices, frozenset(cuts))
    return BlockDecomposition(tuple(blocks), block_vertices, frozenset(cuts),
                              bridges, chain)


def _chain_shaped(block_vertices: tuple[frozenset[int], ...],
                  cuts: frozenset[int]) -> bool:
    # the block-cut incidence tree is a path exactly when no node of it has
    # degree three: no block with >2 cut vertices, no cut vertex in >2 blocks
    for vs in block_vertices:
        if len(vs & cuts) > 2:
            return False
    for c in cuts:
        if sum(1 for vs in block_vertices if c in vs) > 2:
            return False
    return True


def is_block_chain(g: Graph) -> bool:
    """True when the block-cut tree of g is a path (single vertex included)."""
    return blocks_and_cuts(g).is_block_chain
