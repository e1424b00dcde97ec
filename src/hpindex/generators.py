"""Instance sources: exhaustive enumerations, seeded random trees, and the
glued-cycle family driven by the explorer.

Free trees are streamed as canonical level sequences (Beyer-Hedetniemi
successor), filtered so each isomorphism class is emitted exactly once:
a sequence survives iff it equals the lexicographically largest canonical
sequence of its own tree rooted at a centroid. A sequence is already its
tree's code rooted at the first vertex, so the filter reads that vertex's
subtree sizes off the sequence: it drops the sequence when that vertex is
not a centroid, keeps it when that vertex is the only centroid, and builds
and compares codes only when the tree has two centroids.
The glued-cycle family dedupes by the same code, taken on the base tree
with each vertex coloured by the cycle glued there.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator, Sequence

from .errors import PreconditionError, ValidationError
from .graphs import Graph, bfs_tree, graph_from_token_edges, is_connected
from .rng import SplitMix64

FREE_TREE_CAP = 14
LABELED_GRAPH_CAP = 6


# ---------------------------------------------------------------- free trees


def _level_sequences(n: int) -> Iterator[list[int]]:
    """All canonical rooted level sequences on n >= 2 vertices.

    Successor rule: find the last position p with s[p] > 2, back up to the
    last q < p with s[q] == s[p] - 1, then repeat the block s[q:p] until the
    sequence is full again. Terminates at the all-2 star sequence.
    """
    s = list(range(1, n + 1))
    while True:
        yield s
        p = max((i for i in range(n) if s[i] > 2), default=None)
        if p is None:
            return
        q = p - 1
        while s[q] != s[p] - 1:
            q -= 1
        s = s[:p]
        while len(s) < n:
            s.append(s[len(s) - (p - q)])


def _tree_from_levels(s: list[int]) -> list[tuple[int, int]]:
    # vertex i sits at depth s[i]; its parent is the most recent vertex one
    # level up, which is well defined for canonical sequences
    last_at = {s[0]: 0}
    edges = []
    for i in range(1, len(s)):
        edges.append((last_at[s[i] - 1], i))
        last_at[s[i]] = i
    return edges


def _rooted_sequence(adj: Sequence[Sequence[int]], root: int,
                     colour: list[int] | None = None) -> tuple[int, ...]:
    """Canonical level sequence of the tree rooted at `root`.

    With `colour`, each vertex's depth is followed by its colour, so the
    sequence is a canonical code of the vertex-coloured rooted tree.
    """
    order, parent = bfs_tree(adj, root)
    depth = [1] * len(adj)
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    code: list[tuple[int, ...]] = [()] * len(adj)
    for v in reversed(order):
        out = [depth[v]] if colour is None else [depth[v], colour[v]]
        for k in sorted((code[w] for w in adj[v] if parent[w] == v), reverse=True):
            out.extend(k)
        code[v] = tuple(out)
    return code[root]


def _tree_code(adj: Sequence[Sequence[int]],
               colour: list[int] | None = None) -> tuple[int, ...]:
    """Isomorphism code of a free (optionally vertex-coloured) tree: the
    largest canonical sequence over its centroids as roots."""
    return max(_rooted_sequence(adj, c, colour) for c in _centroids(adj))


def _centroids(adj: Sequence[Sequence[int]]) -> list[int]:
    # the vertices whose removal leaves no component of more than n/2
    # vertices, ascending; a tree has one or two
    n = len(adj)
    order, parent = bfs_tree(adj, 0)
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return [v for v in range(n)
            if 2 * (n - size[v]) <= n
            and all(2 * size[w] <= n for w in adj[v] if parent[w] == v)]


def enumerate_free_trees(n: int) -> Iterator[Graph]:
    """Yield one tree per isomorphism class on n vertices, labels "1".."n".

    Deterministic order. Supported for 1 <= n <= 14; the stream length is
    the number of free trees on n unlabeled vertices (OEIS A000055).
    """
    if not 1 <= n <= FREE_TREE_CAP:
        raise ValidationError(
            f"free-tree enumeration supports 1..{FREE_TREE_CAP} vertices, got {n}"
        )
    labels = tuple(str(i + 1) for i in range(n))
    if n == 1:
        yield Graph(labels, [])
        return
    for s in _level_sequences(n):
        # s is the tree's code rooted at vertex 0, whose child subtrees are
        # the runs starting at each depth-2 entry: 0 is a centroid when no
        # run exceeds n/2, the only one when every run is shorter, and with
        # two centroids s must win
        starts = [i for i in range(1, n) if s[i] == 2] + [n]
        largest = max(b - a for a, b in zip(starts, starts[1:]))
        if 2 * largest > n:
            continue
        g = Graph(labels, _tree_from_levels(s))
        if 2 * largest < n or tuple(s) == _tree_code(g.adj):
            yield g


# ------------------------------------------------------------ labeled graphs


def enumerate_connected_graphs(n: int) -> Iterator[Graph]:
    """Every connected labeled graph on vertices "1".."n", smallest first.

    Exhaustive over all 2^C(n,2) edge subsets, so only small n are supported.
    """
    if not 2 <= n <= LABELED_GRAPH_CAP:
        raise ValidationError(
            f"labeled enumeration supports 2..{LABELED_GRAPH_CAP} vertices, got {n}"
        )
    labels = tuple(str(i + 1) for i in range(n))
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        edges = [pairs[i] for i in range(len(pairs)) if bits >> i & 1]
        g = Graph(labels, edges)
        if is_connected(g):
            yield g


# -------------------------------------------------------------- random draws


def _random_tree(n: int, rng: SplitMix64) -> Graph:
    seq = [rng.below(n) for _ in range(n - 2)]
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    leaves = [v for v in range(n) if deg[v] == 1]
    heapq.heapify(leaves)
    edges = []
    for v in seq:
        leaf = heapq.heappop(leaves)
        edges.append((leaf, v))
        deg[v] -= 1
        if deg[v] == 1:
            heapq.heappush(leaves, v)
    edges.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return Graph(tuple(str(i + 1) for i in range(n)), edges)


def random_tree(n: int, seed: int) -> Graph:
    """Uniform random labeled tree on "1".."n", decoded from a seeded
    Pruefer sequence. Same seed, same tree, on every platform."""
    if n < 2:
        raise PreconditionError("random_tree needs n >= 2")
    return _random_tree(n, SplitMix64(seed))


# ----------------------------------------------------------- explorer family


@dataclass(frozen=True)
class FamilyParams:
    """Knobs for the glued-cycle family.

    Base trees come either from the exhaustive stream or from seeded random
    draws (`random_bases` per order). Cycles of the given sizes are glued at
    subsets of tree vertices, one cycle per chosen vertex, sharing exactly
    that vertex.
    """

    max_vertices: int = 12
    cycle_sizes: tuple[int, ...] = (3, 4, 5)
    base_tree_source: str = "enumerated"
    include_bases: bool = True
    seed: int = 0
    random_bases: int = 0

    def __post_init__(self) -> None:
        # exactly int and bool: a bool or a float would be echoed into the
        # report body as given, or fail inside the generator
        try:
            iter(self.cycle_sizes)
        except TypeError:
            raise ValidationError("cycle sizes must be a tuple of int") from None
        ints = (self.max_vertices, self.seed, self.random_bases, *self.cycle_sizes)
        if any(type(v) is not int for v in ints) or type(self.include_bases) is not bool:
            raise ValidationError("max_vertices, seed, random_bases and cycle sizes "
                                  "must be int, and include_bases a bool")
        if not 1 <= self.max_vertices <= 14:
            raise ValidationError("max_vertices must be in 1..14")
        if not self.cycle_sizes:
            raise ValidationError("at least one cycle size is needed")
        if any(k < 3 for k in self.cycle_sizes):
            raise ValidationError("cycle sizes must all be at least 3")
        if self.base_tree_source not in ("enumerated", "random"):
            raise ValidationError("base_tree_source must be 'enumerated' or 'random'")
        if self.base_tree_source == "random" and self.random_bases < 1:
            raise ValidationError("random base trees need random_bases >= 1")


def _base_trees(params: FamilyParams, order: int) -> Iterator[Graph]:
    if params.base_tree_source == "enumerated":
        yield from enumerate_free_trees(order)
        return
    if order < 2:
        return
    rng = SplitMix64(params.seed ^ order)
    for _ in range(params.random_bases):
        yield _random_tree(order, rng)


def _glued(tree: Graph, assignment: tuple[tuple[str, int], ...]) -> Graph:
    token_edges = [tree.label_edge(e) for e in tree.edges]
    isolated = list(tree.labels) if not token_edges else []
    for idx, (site, k) in enumerate(assignment):
        ring = [site] + [f"g{idx}_{j}" for j in range(1, k)]
        for a, b in zip(ring, ring[1:]):
            token_edges.append((a, b))
        token_edges.append((ring[-1], ring[0]))
    return graph_from_token_edges(token_edges, isolated)


def _attachments(sites: list[str], sizes: tuple[int, ...], room: int,
                 ) -> Iterator[tuple[tuple[str, int], ...]]:
    """Every assignment of cycle sizes to distinct sites that adds at most
    `room` vertices, each before its extensions.

    Depth first on an explicit stack of (assignment, room left, first free
    site); children go on in reverse, so they come off in site order, then
    size order.
    """
    stack = [((), room, 0)]
    while stack:
        assignment, left, start = stack.pop()
        yield assignment
        stack.extend((assignment + ((sites[j], k),), left - k + 1, j + 1)
                     for j in reversed(range(start, len(sites)))
                     for k in reversed(sizes) if k - 1 <= left)


def gen_hamiltonian_2block_family(
    params: FamilyParams,
) -> Iterator[tuple[Graph, str]]:
    """Stream (graph, tag) pairs: trees with cycles glued at vertex subsets.

    Every glued cycle forms a 2-connected block with an obvious spanning
    cycle, so each graph meets the conjectural formula's hypothesis.
    Tags record the construction: base tree order and index, then one
    "+C{k}@{v}" per cycle.

    Isomorphic duplicates are dropped before any graph is built, by the code
    of the base tree with each vertex coloured by the size of the cycle glued
    there (0 if none). That code is a complete invariant of the glued graph.
    For a base of order >= 2 the graph's bridges are exactly the tree's
    edges, and each cycle is a block meeting the tree only at its site, one
    cycle per site at most; so an isomorphism of glued graphs restricts to a
    colour-preserving isomorphism of base trees, and any such tree
    isomorphism extends to the graphs. An order-1 base gives K1 or C_k,
    which have no bridges, so no other order produces them.

    A base tree isomorphic to an earlier one, as random draws often are, is
    skipped whole. Its empty assignment comes first, and its all-zero code
    goes into `seen` whether or not bases are yielded; no assignment with a
    cycle has that code, so finding it already seen means an earlier base
    was isomorphic. That drops nothing: an isomorphism onto the earlier base
    maps each of its assignments to one that `_attachments` already gave
    the earlier base, whose coloured code is therefore already seen. Its
    index still counts, so later tags do not change. Enumerated bases never
    repeat; while bases are yielded, as by default, the check computes no
    code that was not computed before.
    """
    sizes = tuple(sorted(set(params.cycle_sizes)))
    seen: set[tuple[int, ...]] = set()
    for order in range(1, params.max_vertices + 1):
        for ti, tree in enumerate(_base_trees(params, order)):
            base_tag = f"T{order}.{ti}"
            verts = sorted(tree.labels)

            for assignment in _attachments(verts, sizes,
                                           params.max_vertices - tree.n):
                colour = [0] * tree.n
                for site, k in assignment:
                    colour[tree.index(site)] = k
                key = _tree_code(tree.adj, colour)
                if key in seen:
                    if not assignment:
                        break  # an earlier base was isomorphic: skip it whole
                    continue
                seen.add(key)
                if assignment or params.include_bases:
                    tag = base_tag + "".join(f"+C{k}@{v}" for v, k in assignment)
                    yield _glued(tree, assignment), tag
