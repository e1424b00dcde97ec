"""Immutable simple undirected graphs and their block structure."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import InternalCheckError, PreconditionError, ValidationError


class Graph:
    """A finite simple undirected graph with string vertex labels.

    Vertices keep their construction order and are addressed internally by
    dense integer indices; ``labels[i]`` recovers the external token. The
    object is immutable by convention: all attributes are tuples and must not
    be reassigned. That is what lets `blocks` compute the block decomposition,
    and `is_connected` its search, once and keep it for the graph's lifetime.

    `adj[v]` lists v's neighbours ascending and `edges` holds each edge once
    as (v, w), v < w, ascending; both constructors derive `adj` from `edges`.
    `__init__` checks its input; `Graph._trusted`, for `linegraph.line_graph`
    alone, takes distinct labels and edges already in that form, and checks
    nothing.
    """

    __slots__ = ("labels", "adj", "edges", "_index", "_blocks", "_connected")

    def __init__(self, labels: Sequence[str], edge_pairs: Iterable[tuple[int, int]]):
        """Check and store a graph; pair (u, v) is the edge {u, v}.

        Repeated and reversed pairs collapse into one edge. The checks run
        pair by pair, type, then range, then self-loop, and the first failure
        raises ValidationError.
        """
        try:
            labels, pairs = iter(labels), iter(edge_pairs)
        except TypeError:
            raise ValidationError("labels and edge pairs must be iterable") from None
        labels = tuple(labels)
        # exactly str: every reader sorts, joins and quotes labels as text
        if any(type(lab) is not str for lab in labels):
            raise ValidationError("vertex labels must be str")
        if len(set(labels)) != len(labels):
            raise ValidationError("duplicate vertex labels")
        # the set is freed before `_fill` builds the adjacency
        self._fill(labels, tuple(sorted(_edge_set(labels, pairs))))

    @classmethod
    def _trusted(cls, labels: tuple[str, ...], edges: tuple[tuple[int, int], ...]) -> Graph:
        """A graph from fields in the form `__init__` leaves them, unchecked.

        The caller guarantees distinct labels and `edges` ascending, distinct
        pairs (v, w) with 0 <= v < w < n. Only `linegraph.line_graph` calls
        it, which a test enforces; parsed and user-built graphs go through
        `__init__`.
        """
        g = cls.__new__(cls)
        g._fill(labels, edges)
        return g

    def _fill(self, labels: tuple[str, ...], edges: tuple[tuple[int, int], ...]) -> None:
        # read in ascending order, the pairs fill each list ascending: first
        # the neighbours below a vertex (pairs ending at it), then those above
        adj: list[list[int]] = [[] for _ in labels]
        for v, w in edges:
            adj[v].append(w)
            adj[w].append(v)
        self.labels = labels
        self.adj = tuple(map(tuple, adj))
        self.edges = edges
        self._index = dict(zip(labels, range(len(labels))))
        self._blocks: BlockDecomposition | None = None
        self._connected: bool | None = None

    @property
    def blocks(self) -> BlockDecomposition:
        """blocks_and_cuts(self), computed on first access and then kept."""
        if self._blocks is None:
            # looked up at call time, so wrappers bound over the module
            # name see every decomposition that really runs
            self._blocks = blocks_and_cuts(self)
        return self._blocks

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


def _edge_set(labels: tuple[str, ...], pairs: Iterator) -> set[tuple[int, int]]:
    """The pairs as ascending tuples, checked pair by pair for `Graph.__init__`."""
    n = len(labels)
    edges: set[tuple[int, int]] = set()
    add = edges.add
    for pair in pairs:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValidationError("each edge must be a pair of endpoints") from None
        # exactly int: bools and numpy integers would be stored as given
        if type(u) is not int or type(v) is not int:
            raise ValidationError("edge endpoints must be int indices")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError("edge endpoint out of range")
        if u == v:
            raise ValidationError(f"self-loop at vertex {labels[u]!r}")
        add((u, v) if u < v else (v, u))
    return edges


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
    """True for a nonempty graph with one component; kept on g once known."""
    if g._connected is None:
        # looked up at call time, so a wrapper bound over the module name
        # sees every search that really runs
        g._connected = _reaches_every_vertex(g)
    return g._connected


def _reaches_every_vertex(g: Graph) -> bool:
    return g.n > 0 and len(bfs_tree(g.adj, 0)[0]) == g.n


def bfs_tree(adj: Sequence[Sequence[int]], root: int) -> tuple[list[int], list[int]]:
    """Breadth-first order from `root`, and each vertex's parent in that walk.

    Neighbours are scanned in adjacency order. The root is its own parent;
    vertices the walk does not reach get -1 and are left out of the order.
    """
    parent = [-1] * len(adj)
    parent[root] = root
    order = [root]
    for v in order:  # grows while it is read
        for w in adj[v]:
            if parent[w] < 0:
                parent[w] = v
                order.append(w)
    return order, parent


def is_tree(g: Graph) -> bool:
    return is_connected(g) and g.m == g.n - 1


def is_path(g: Graph) -> bool:
    """True for path graphs; a single vertex counts as a path."""
    if not is_tree(g):
        return False
    return all(g.degree(v) <= 2 for v in range(g.n))


@dataclass(frozen=True)
class BlockDecomposition:
    """The 2-blocks, cut vertices and bridgeless pieces of a connected graph.

    `two_blocks` holds the vertex sets of the blocks on three or more
    vertices; the other blocks are the bridges, the edges (a, b) with
    `piece_of[a] != piece_of[b]`. A piece is a component of the graph without
    its bridges, and `piece_of[v]` names v's piece by its first DFS vertex.
    """

    two_blocks: tuple[frozenset[int], ...]
    cut_vertices: frozenset[int]
    piece_of: tuple[int, ...]


def blocks_and_cuts(g: Graph) -> BlockDecomposition:
    """Hopcroft-Tarjan block decomposition of a connected graph.

    Iterative so deep graphs (long paths, big iterates) never hit the
    recursion limit. Backing out of v with low[v] >= disc[parent] closes a
    block, the parent and the vertices stacked since v, a bridge if only v.
    Every bridge is a DFS tree edge, so the pieces are the DFS subtrees the
    bridges cut apart. This is the pure decomposer: it computes afresh on
    every call, and `Graph.blocks` is the memoised view that callers share,
    sound because a Graph never changes.
    """
    if not is_connected(g):
        raise PreconditionError("block decomposition needs a connected graph")
    n = g.n
    adj = g.adj
    disc = [-1] * n
    low = [0] * n
    pending: list[int] = []  # discovered vertices not yet in a closed block
    two_blocks: list[frozenset[int]] = []
    cuts: set[int] = set()
    order = [0]  # the vertices in discovery order
    up = [0] * n  # tree parent, or the vertex itself below a bridge; later its piece

    disc[0] = 0
    root_children = 0
    # (vertex, its parent, its neighbours still to scan, height of `pending`
    # before the vertex went on)
    stack = [(0, -1, iter(adj[0]), 0)]
    while stack:
        v, parent, todo, mark = stack[-1]
        for w in todo:
            if w == parent:
                continue
            if disc[w] == -1:
                disc[w] = low[w] = len(order)
                order.append(w)
                stack.append((w, v, iter(adj[w]), len(pending)))
                pending.append(w)
                break
            if disc[w] < low[v]:
                low[v] = disc[w]
        else:
            stack.pop()
            if not stack:
                break
            up[v] = parent if low[v] <= disc[parent] else v
            if low[v] < low[parent]:
                low[parent] = low[v]
            if low[v] >= disc[parent]:
                # the parent, v and everything stacked above v
                if len(pending) - mark > 1:
                    two_blocks.append(frozenset((parent, *pending[mark:])))
                del pending[mark:]
                if parent != 0:
                    cuts.add(parent)
                else:
                    root_children += 1
    if root_children > 1:
        cuts.add(0)
    if pending:
        raise InternalCheckError("vertex stack not drained; decomposition bug")
    for v in order:
        up[v] = up[up[v]]
    return BlockDecomposition(tuple(two_blocks), frozenset(cuts), tuple(up))


def block_graph(g: Graph, block: frozenset[int]) -> Graph:
    """A block of g, given by its vertex set, as a graph of its own with
    labels sorted: its edges are g's edges inside that set, as two blocks
    share at most one vertex. It computes its decomposition on first access."""
    verts = sorted(block, key=lambda v: g.labels[v])
    pos = {v: k for k, v in enumerate(verts)}
    return Graph(tuple(g.labels[v] for v in verts),
                 [(pos[a], pos[b]) for a in verts for b in g.adj[a]
                  if b in pos and pos[a] < pos[b]])
