"""Exact decision procedures: hamiltonian paths and cycles, dominating trails,
and the stage loop that computes how many line-graph iterations a graph needs
before it becomes traceable (hp_oracle) or hamiltonian (h_oracle).

has_hamiltonian_path and has_hamiltonian_cycle share one screen, _screen,
and one tiered search; a cycle is searched as a path from vertex 0 that must
close back to it. The screen reads only the degrees and the block counts:
it answers "no" on necessary conditions, then raises the refusal of a graph
over the vertex cap. The stage loop decides each stage L(H) after the clock:
H is built then if the stage before did not build it, the screen read off H
alone settles L(H) over the cap, else L(H) is built and searched.
The tiers, by vertex count n under a SearchBudget:

- n > backtrack_vertex_cap (40): refused by the screen, unless every degree
  is at most two (a path or a cycle), which the backtracking tier walks at
  any size;
- n <= dp_vertex_cap (24): a numpy subset table that keeps only its live
  masks, a popcount layer at a time: the masks ascending and each one's
  end set, 8 bytes a mask, each layer built from the one before a bounded
  target range at a time; the benchmark's sparse 24-vertex query takes
  about 0.02 s and adds about 2 MB to the process, and K24, where all 2^24
  masks are live, about 3.5 s: it stores 134 MB, and the process peaks at
  about 222 MB of RSS;
- above that: pruned backtracking, capped when node_budget runs out.

Every backtracking pass is one explicit-stack DFS, _dfs, in one of two
orders. Before a table is built, a bounded pass tries to settle the graph
without it, and the table runs only when that pass drains its nodes. Below
_PREPASS_FLOOR (17) it walks vertices in index order, capped at
min(prepass_nodes, _LEX_NODES) nodes, and its walk, flipped, is exactly the
walk the table would return; from 17 on, and in the backtracking tier, it
tries low-degree vertices first, capped at prepass_nodes or node_budget
nodes. A placed vertex is cut as a dead end when the vertices it leaves
unvisited induce a disconnected graph; the check floods them only until
the placed vertex's unvisited neighbours meet, so a node along a path or a
cycle, with one such neighbour, floods nothing. The search reads the clock
every max(1, 4096 // n) nodes, as a flood from neighbours that lie apart
still grows with n. A cycle search never steps onto the last unvisited
neighbour of vertex 0 before its last step, as the walk could then not
close. Like the dead-end check, this cuts only branches with no
completion, so each order still finds its first walk, in fewer nodes. A
17-24-vertex cycle stage takes its witness from the degree-ordered prepass
when that settles within prepass_nodes, and from the table otherwise.

has_dominating_trail splits its question at the bridges: the pieces of g
without its bridges, contracted, form the bridge tree, and the trail's
route through that tree is fixed before any search runs, so a tree is
settled without one; a closed trail's route is a single piece. Each piece
on the route gets an explicit-stack search that reads the clock every
max(1, 4096 // m) nodes on m edges, and all of them draw from one
node_budget; there is no edge cap. Neither it nor _dfs can exhaust
Python's recursion limit.

Every positive answer carries a witness walk and every witness is replayed
against the graph before being returned; a failed replay raises
InternalCheckError. Searches that outgrow their budget raise CappedError (or
surface as a capped stage result), never a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

from .errors import CappedError, InternalCheckError, PreconditionError
from .graphs import Graph, is_connected, is_path
from .linegraph import DEFAULT_ITERATION_BUDGET, IterationBudget, iteration_size, line_graph

_PREPASS_FLOOR = 17    # below: index-order prepass; from here: degree-ordered
_LEX_NODES = 1_000     # index-order prepass cap, about the 16-vertex table's time


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the exact searches.

    Graphs up to dp_vertex_cap vertices go through the numpy subset table,
    which is exact and immune to adversarial structure; it stores 8 bytes
    for each vertex set some path covers, at most 2^n of them, so 134 MB
    stored on K24 (the process peaks at about 222 MB of RSS) and up to
    537 MB at the cap's limit of 26; between that and backtrack_vertex_cap
    a pruned depth-first search that tries low-degree vertices first runs
    with a node budget. Anything larger is refused with
    CappedError, except a path or a cycle, which that search walks at any
    size under the same node and time limits. prepass_nodes bounds the same
    search run before each table; below 17 vertices it walks vertices in
    index order instead and is also capped at _LEX_NODES. prepass_nodes=1
    leaves every table-sized graph to the table.
    """

    dp_vertex_cap: int = 24
    backtrack_vertex_cap: int = 40
    time_limit_s: float = 30.0
    node_budget: int = 5_000_000
    prepass_nodes: int = 50_000
    stage_cap: int = 64
    iteration: IterationBudget = field(default_factory=lambda: DEFAULT_ITERATION_BUDGET)

    def __post_init__(self):
        # every check is written so that NaN fails it
        if not 1 <= self.dp_vertex_cap <= 26:
            raise PreconditionError("dp_vertex_cap must be between 1 and 26")
        if not self.backtrack_vertex_cap >= self.dp_vertex_cap:
            raise PreconditionError("backtrack cap must be at least the dp cap")
        if not (self.time_limit_s > 0 and self.node_budget >= 1
                and self.prepass_nodes >= 1 and self.stage_cap >= 0):
            raise PreconditionError("search budget values must be positive")


DEFAULT_SEARCH_BUDGET = SearchBudget()


@dataclass(frozen=True)
class StageRecord:
    """Size and verdict of one graph in an iteration stage loop."""

    n: int
    vertices: int
    edges: int
    verdict: str


@dataclass(frozen=True)
class IndexResult:
    """Outcome of a stage loop: the index value, or None when capped."""

    value: int | None
    stages: tuple[StageRecord, ...]
    witness: tuple[str, ...] | None
    capped_reason: str | None = None

    def to_json_dict(self) -> dict:
        d: dict = {
            "value": "capped" if self.value is None else self.value,
            "stages": [{"n": s.n, "V": s.vertices, "E": s.edges,
                        "verdict": s.verdict} for s in self.stages],
        }
        if self.witness is not None:
            d["witness"] = list(self.witness)
        if self.capped_reason is not None:
            d["capped_reason"] = self.capped_reason
        return d


class _Inconclusive(Exception):
    """Internal: a bounded backtracking pass drained its node budget."""


def _adj_masks(g: Graph) -> list[int]:
    out = []
    for v in range(g.n):
        m = 0
        for w in g.adj[v]:
            m |= 1 << w
        out.append(m)
    return out


def check_path_witness(g: Graph, walk: tuple[str, ...]) -> None:
    """Replay a claimed hamiltonian path; raise InternalCheckError if bogus."""
    if len(walk) != g.n or len(set(walk)) != g.n:
        raise InternalCheckError("path witness does not cover every vertex once")
    idx = [g.index(t) for t in walk]
    for a, b in zip(idx, idx[1:]):
        if not g.has_edge(a, b):
            raise InternalCheckError(
                f"path witness uses missing edge {g.labels[a]}-{g.labels[b]}")


def check_cycle_witness(g: Graph, walk: tuple[str, ...]) -> None:
    """Replay a claimed hamiltonian cycle (start vertex not repeated at the end)."""
    if g.n < 3:
        raise InternalCheckError("cycle witness on a graph with fewer than 3 vertices")
    check_path_witness(g, walk)
    if not g.has_edge(g.index(walk[-1]), g.index(walk[0])):
        raise InternalCheckError("cycle witness does not close up")


def check_trail_witness(g: Graph, walk: tuple[str, ...], closed: bool) -> None:
    """Replay a claimed dominating trail given as a vertex walk."""
    if not walk:
        raise InternalCheckError("empty trail witness")
    idx = [g.index(t) for t in walk]
    used: set[tuple[int, int]] = set()
    for a, b in zip(idx, idx[1:]):
        if not g.has_edge(a, b):
            raise InternalCheckError("trail witness uses a missing edge")
        e = (a, b) if a < b else (b, a)
        if e in used:
            raise InternalCheckError("trail witness repeats an edge")
        used.add(e)
    if closed and idx[0] != idx[-1]:
        raise InternalCheckError("closed-trail witness does not return to its start")
    on_trail = set(idx)
    for a, b in g.edges:
        if a not in on_trail and b not in on_trail:
            raise InternalCheckError("trail witness does not dominate every edge")


# ---------------------------------------------------------------------------
# subset dynamic programming over vertex masks

_CHUNK_KEYS = 1 << 20  # keys sorted at once, give or take one grid cell's


def _dp_table_np(adj: list[int], starts: int, deadline: float,
                 ) -> list[tuple[np.ndarray, np.ndarray]]:
    # layer k - 1 holds the live masks of popcount k, ascending as int32, and
    # each one's ends as uint32: the end vertices of the paths that cover
    # exactly that mask and start in starts. w ends a path over mask | w when
    # w is outside mask and adjacent to an end of mask, so each push gives a
    # key target << 5 | w; sorted, the keys of one target are adjacent and
    # OR their bits into its ends. A layer is built a target range at a time:
    # the targets in [lo, hi) that carry bit w come from the slice of src in
    # [lo - 2^w, hi - 2^w), so each range sorts a bounded number of keys
    import numpy as np  # loaded with the first table, not with the package
    n = len(adj)
    src = np.array([1 << v for v in range(n) if starts >> v & 1], dtype=np.int32)
    table = [(src, src.astype(np.uint32))]
    bits = 1 << np.arange(n, dtype=np.int64)
    wbit = bits.astype(np.uint32)
    for _ in range(1, n):
        if time.monotonic() > deadline:
            raise CappedError("time limit hit during subset dynamic programming")
        src, ends = table[-1]
        if not src.size:
            break
        # one range, in which every w reads all of src (a mask past
        # 2^n - 2^w holds w), or a grid of up to 1024 cells grouped into
        # ranges of about _CHUNK_KEYS (source, w) pairs each, empty between
        # equal cuts; pos[w][j] is where grid[j] - 2^w falls in src
        if src.size * n <= _CHUNK_KEYS:
            pos, cuts, last = [[0, src.size]] * n, [], 1
        else:
            grid = np.arange(0, (1 << n) + 1, 1 << max(0, n - 10), dtype=np.int64)
            pos = np.searchsorted(src, (grid - bits[:, None]).astype(np.int32))
            load = np.cumsum(np.diff(pos).sum(axis=0))
            cuts = np.searchsorted(load, np.arange(_CHUNK_KEYS, load[-1], _CHUNK_KEYS),
                                   side="right").tolist()
            pos, last = pos.tolist(), grid.size - 1
        masks, out = [], []
        for a, b in zip([0, *cuts], [*cuts, last]):
            keys = []
            for w in range(n):
                s = src[pos[w][a]:pos[w][b]]
                e = ends[pos[w][a]:pos[w][b]]
                bit = 1 << w
                keys.append((s[((s & bit) == 0) & ((e & adj[w]) != 0)] | bit) << 5 | w)
            keys = np.concatenate(keys)
            keys.sort()
            target = keys >> 5
            first = np.flatnonzero(np.diff(target, prepend=-1))
            masks.append(target[first])
            out.append(np.bitwise_or.reduceat(wbit[keys & 31], first))
        table.append((np.concatenate(masks), np.concatenate(out)))
    return table


def _table_ends(table: list[tuple[np.ndarray, np.ndarray]], mask: int) -> int:
    """The ends of mask in a table of _dp_table_np, as a bitmask; 0 when no
    path covers mask."""
    k = mask.bit_count()
    if k > len(table):
        return 0
    masks, ends = table[k - 1]
    i = int(masks.searchsorted(mask))
    return int(ends[i]) if i < masks.size and masks[i] == mask else 0


def _walk_from_table(table, adj: list[int], end: int) -> list[int]:
    walk = [end]
    mask = (1 << len(adj)) - 1
    while mask.bit_count() > 1:
        v = walk[-1]
        prev = mask & ~(1 << v)
        cands = _table_ends(table, prev) & adj[v]
        if not cands:
            raise InternalCheckError("subset table lost a predecessor")
        walk.append((cands & -cands).bit_length() - 1)
        mask = prev
    walk.reverse()
    return walk


# ---------------------------------------------------------------------------
# pruned backtracking

def _dead_end(cur: int, visited: int, full: int, adj: list[int]) -> bool:
    # the rest of the walk is a hamiltonian path of G[rem] from a neighbour
    # of cur, so G[rem] must be connected; as G[rem | cur] is (see _dfs),
    # that holds exactly when cur's unvisited neighbours share a component
    rem = full & ~visited
    if not rem:
        return False
    frontier = adj[cur] & rem
    seen = new = frontier & -frontier
    while new:
        if seen & frontier == frontier:
            return False
        grow = 0
        while new:
            bit = new & -new
            new ^= bit
            grow |= adj[bit.bit_length() - 1]
        new = grow & rem & ~seen
        seen |= new
    return True


def _dfs(adj: list[int], starts: list[int], node_budget: int,
         deadline: float, cycle: bool, by_degree: bool,
         ) -> list[int] | None:
    """Exhaustive DFS for a hamiltonian path, or a cycle when cycle is set.

    The graph with adjacency masks adj must be connected. Start vertices are
    tried in the given order. At each later position the next vertex is
    tried by (unvisited-neighbour count, index) when by_degree is set, else
    by index alone; with index-ordered starts the first walk found in index
    order is the lexicographically least one, as _dead_end only cuts
    branches with no completion. A node is one vertex placed after _dead_end
    passes, that is, when the vertices still unvisited induce a connected
    graph. So the unvisited vertices and the current one always do (at a
    start, the whole graph; deeper, by the parent's check), and _dead_end
    stops its flood once the current vertex's unvisited neighbours meet.
    Returns the walk, or None when there is none; raises _Inconclusive when
    more than node_budget nodes are placed and CappedError on the wall-clock
    deadline, checked every max(1, 4096 // n) nodes, as a flood between
    neighbours that lie apart costs time that grows with n. When cycle is
    set, a walk must end next to vertex 0, so vertex 0's last unvisited
    neighbour is dropped from a node's candidates unless it is the only
    unvisited vertex left; like _dead_end, this cuts only branches with no
    completion. Paths pay one test of cycle per node for it.
    """
    n = len(adj)
    full = (1 << n) - 1
    tick = max(1, 4096 // n)
    # a vertex is tried by its key: in degree order its unvisited-neighbour
    # count above its index, so plain int sorting gives the order, and in
    # index order the index alone; key & low recovers the vertex
    shift = n.bit_length()
    low = (1 << shift) - 1
    nodes = 0
    walk: list[int] = []
    visited = 0
    todo = [iter(starts)]  # untried keys for each position of the walk
    while todo:
        for key in todo[-1]:
            w = key & low
            nv = visited | 1 << w
            if nv != full and _dead_end(w, nv, full, adj):
                continue
            nodes += 1
            if nodes > node_budget:
                raise _Inconclusive
            if not nodes % tick and time.monotonic() > deadline:
                raise CappedError("time limit hit during backtracking search")
            if nv == full:
                if not cycle or adj[w] & 1:
                    walk.append(w)
                    return walk
                continue
            walk.append(w)
            visited = nv
            rest = ~nv
            nxt = []
            cand = adj[w] & rest
            if cycle:
                # the walk closes from vertex 0's last unvisited neighbour,
                # so that vertex comes last or not at all
                left = adj[0] & rest
                if not left & (left - 1) and full ^ nv != left:
                    cand &= ~left
            while cand:
                bit = cand & -cand
                cand ^= bit
                x = bit.bit_length() - 1
                nxt.append((adj[x] & rest).bit_count() << shift | x if by_degree else x)
            if by_degree:
                nxt.sort()
            todo.append(iter(nxt))
            break
        else:
            todo.pop()
            if walk:
                visited ^= 1 << walk.pop()
    return None


# ---------------------------------------------------------------------------
# hamiltonian path / cycle

def _path_starts(g: Graph) -> list[int]:
    ones = sorted((v for v in range(g.n) if g.degree(v) == 1),
                  key=lambda v: g.labels[v])
    if ones:
        # any hamiltonian path must end at each degree-1 vertex
        return ones[:1]
    return sorted(range(g.n), key=lambda v: (g.degree(v), g.labels[v]))


def _lex_starts(g: Graph) -> list[int]:
    # a hamiltonian path ends at every leaf, so the least one starts at the
    # lower of two leaves, or by a lone leaf L at the latest; _dead_end keeps
    # a walk from stepping onto L before its last step
    leaves = [v for v in range(g.n) if g.degree(v) == 1]
    if len(leaves) == 2:
        return leaves[:1]
    return list(range(leaves[0] + 1 if leaves else g.n))


def has_hamiltonian_path(g: Graph, budget: SearchBudget = DEFAULT_SEARCH_BUDGET,
                         ) -> tuple[bool, tuple[str, ...] | None]:
    """Exact traceability test with a witness walk on success."""
    if g.n == 0:
        raise PreconditionError("traceability of the empty graph is undefined")
    return _hamiltonian(g, budget, cycle=False)


def has_hamiltonian_cycle(g: Graph, budget: SearchBudget = DEFAULT_SEARCH_BUDGET,
                          ) -> tuple[bool, tuple[str, ...] | None]:
    """Exact hamiltonicity test; the witness omits the repeated start vertex."""
    return _hamiltonian(g, budget, cycle=True)


def _hamiltonian(g: Graph, budget: SearchBudget, cycle: bool,
                 ) -> tuple[bool, tuple[str, ...] | None]:
    """The tiered search behind both public tests, for a nonempty g.

    A disconnected g is neither. A connected one is screened first, on its
    own degrees and blocks: a "no" or a refusal there is final. A cycle is
    searched as a path from vertex 0 that must close back to it.
    """
    if not is_connected(g):
        return False, None
    if not _screen([len(a) for a in g.adj], lambda: _block_counts(g),
                   cycle, budget.backtrack_vertex_cap):
        return False, None
    check = check_cycle_witness if cycle else check_path_witness
    deadline = time.monotonic() + budget.time_limit_s
    adj = _adj_masks(g)
    full = (1 << g.n) - 1
    table = g.n <= budget.dp_vertex_cap
    lex = table and g.n < _PREPASS_FLOOR
    starts = [0] if cycle else _lex_starts(g) if lex else _path_starts(g)
    nodes = (min(budget.prepass_nodes, _LEX_NODES) if lex else
             budget.prepass_nodes if table else budget.node_budget)
    try:
        walk = _dfs(adj, starts, nodes, deadline, cycle, not lex)
    except _Inconclusive:
        if not table:
            raise CappedError("backtracking node budget exhausted") from None
    else:
        if walk is None:
            return False, None
        if lex:
            # the table reads the least walk back from its far end: a path
            # reversed, a cycle run the other way round
            walk = walk[:1] + walk[:0:-1] if cycle else walk[::-1]
        return _witnessed(g, walk, check)
    dp = _dp_table_np(adj, 1 if cycle else full, deadline)
    ends = _table_ends(dp, full) & (adj[0] if cycle else full)
    if not ends:
        return False, None
    end = (ends & -ends).bit_length() - 1
    return _witnessed(g, _walk_from_table(dp, adj, end), check)


def _screen(deg: list[int], blocks: Callable[[], tuple[int, int]],
            cycle: bool, cap: int) -> bool:
    """Whether a connected graph with degrees `deg`, one per vertex, must be
    searched for a hamiltonian cycle (or path): False when a necessary
    condition fails, True when it must be searched. Over the vertex cap
    `cap` it raises the refusal, CappedError, instead of returning True.

    `blocks()` gives the graph's cut vertices and its 2-blocks that hold at
    most one of them, as counts, and is called only once the degree tests
    pass. A cycle needs every degree at least 2 and no cut vertex. A path
    ends at every leaf block, the bridge at each leaf and each 2-block with
    at most one cut vertex, so it allows two of them (exact from 3 vertices on).
    The cap spares a graph with no degree above 2, a path or a cycle, which
    the backtracking tier walks at any size.
    """
    if cycle:
        if min(deg) < 2 or blocks()[0]:
            return False
    else:
        leaves = deg.count(1)
        if leaves > 2 or leaves + blocks()[1] > 2:
            return False
    if len(deg) > cap and max(deg) > 2:
        raise CappedError(f"{len(deg)} vertices exceed the search cap {cap}")
    return True


def _block_counts(g: Graph) -> tuple[int, int]:
    """The cut vertices of a connected g, and its 2-blocks that hold at
    most one of them, as counts read off g.blocks."""
    cuts = g.blocks.cut_vertices
    return len(cuts), sum(len(b & cuts) <= 1 for b in g.blocks.two_blocks)


def _line_degrees(h: Graph) -> list[int]:
    """The degrees of L(h), in the order of h.edges: edge uv of h meets
    deg u + deg v - 2 others."""
    deg = [len(a) for a in h.adj]
    return [deg[u] + deg[v] - 2 for u, v in h.edges]


def _line_blocks(h: Graph) -> tuple[int, int]:
    """_block_counts of L(h), read off h.blocks, for a connected h.

    L(h) is the union of one clique per vertex of h, the edges at it, and
    each vertex of L(h) lies in two of them (Krausz). So each piece of h
    with at least three edges at it, a piece with an inner edge or a vertex
    alone in its piece with degree at least 3, gives one 2-block of L(h):
    the edges with an end in that piece. The cut vertices of L(h) are the
    bridges uv of h with deg u, deg v >= 2.
    """
    adj = h.adj
    piece = h.blocks.piece_of
    touch = [0] * h.n  # per piece, the edges with an end in it
    cuts = [0] * h.n   # and the cut vertices of L(h) among them
    for u, v in h.edges:
        p, q = piece[u], piece[v]
        touch[p] += 1
        if p != q:
            touch[q] += 1
            if len(adj[u]) > 1 and len(adj[v]) > 1:
                cuts[p] += 1
                cuts[q] += 1
    return sum(cuts) // 2, sum(t > 2 and c < 2 for t, c in zip(touch, cuts))


def _witnessed(g: Graph, walk: list[int], check, *args,
               ) -> tuple[bool, tuple[str, ...]]:
    """The walk's labels, once `check` (a check_*_witness) has replayed them."""
    toks = tuple(g.labels[v] for v in walk)
    check(g, toks, *args)
    return True, toks


# ---------------------------------------------------------------------------
# dominating trails

def has_dominating_trail(g: Graph, budget: SearchBudget = DEFAULT_SEARCH_BUDGET,
                         closed: bool = False,
                         ) -> tuple[bool, tuple[str, ...] | None]:
    """Search for a trail whose vertex set touches every edge.

    Closed trails admit the trivial single-vertex walk, so a star is closed-
    trail-dominated by its center alone; open trails must use at least one
    edge whenever the graph has any. The witness is the trail as a vertex
    walk, from which its edge sequence can be read off pairwise.

    The question splits at the bridges into one search per bridgeless piece
    (`g.blocks.piece_of`). A trail crosses each bridge at most once, so the
    pieces it visits form a path of the bridge tree, its route, which must
    hold every piece with an inner edge and every tree node of degree two
    or more; a trail running on past the route's ends only reaches leaves.
    Each piece on the route gets a trail of its own, from the bridge it is
    entered by to the bridge it is left by, through all its bridge ends. A
    closed trail crosses no bridge, so its route is one piece, and its
    trail there ends where it starts. On a tree every piece is one vertex,
    so the split alone decides. The piece searches share one count of
    budget.node_budget nodes and one deadline, and raise CappedError when
    either runs out; there is no size cap.
    """
    if g.n == 0:
        raise PreconditionError("dominating trails need a nonempty graph")
    if not is_connected(g):
        return False, None
    piece = g.blocks.piece_of
    # each piece's inner edges, and its bridges as (own end, far end)
    inner: dict[int, list[tuple[int, int]]] = {p: [] for p in piece}
    links: dict[int, list[tuple[int, int]]] = {p: [] for p in inner}
    for a, b in g.edges:
        if piece[a] == piece[b]:
            inner[piece[a]].append((a, b))
        else:
            links[piece[a]].append((a, b))
            links[piece[b]].append((b, a))
    core = {p for p in inner if inner[p] or len(links[p]) > 1} or {piece[0]}
    steps = {p: [ab for ab in links[p] if piece[ab[1]] in core] for p in core}
    # a closed trail crosses no bridge, so its core is one piece
    if closed and len(core) > 1 or any(len(s) > 2 for s in steps.values()):
        return False, None
    search = _PieceSearch(budget)
    # the core is a path of the bridge tree; walk it from one end
    p = next(p for p in core if len(steps[p]) < 2)
    prev = entry = None
    walk = []
    while True:
        out = next((ab for ab in steps[p] if piece[ab[1]] != prev), None)
        if inner[p]:
            need = {a for a, _ in links[p]}
            end = None if out is None else out[0]
            # a closed trail can start at any vertex it visits: one in
            # `need`, or else an end of the edge of least degree sum
            starts = [entry] if not closed else [min(need)] if need else min(
                inner[p], key=lambda e: g.degree(e[0]) + g.degree(e[1]))
            for s in starts:
                sub = search.trail(inner[p], s, s if closed else end, need)
                if sub is not None:
                    break
            else:
                return False, None
            walk += sub
        else:
            walk.append(p)
        if out is None:
            break
        prev, entry, p = p, out[1], piece[out[1]]
    if len(walk) == 1 and g.m and not closed:
        # only a star's centre, or an end of K2: cross one of its edges
        walk.append(g.adj[walk[0]][0])
    return _witnessed(g, walk, check_trail_witness, closed)


# failed trail states kept at once, about 150 bytes each on up to 64 edges.
# The searches of the tests, the verification campaigns and the benchmark
# hold at most 285; 15 three-edge chains between two hubs, a closed-trail
# "no" after a million nodes, hold 507,876
_TRAIL_MEMO_CAP = 1 << 20


class _PieceSearch:
    """Trail searches inside bridgeless pieces, under one node count and
    one deadline."""

    def __init__(self, budget: SearchBudget):
        self.node_budget = budget.node_budget
        self.deadline = time.monotonic() + budget.time_limit_s
        self.nodes = 0

    def trail(self, edges: list[tuple[int, int]], start: int | None,
              end: int | None, need: set[int]) -> list[int] | None:
        """A trail over `edges` that touches each of them and visits every
        vertex of `need`, as a vertex walk, or None when there is none.

        `start` and `end` fix the trail's ends, None leaving one free, and
        start == end asks for a closed trail. One entry per trail vertex is
        stacked, and a state (vertex, edges used) that had no completion is
        kept in a memo; the used edges fix the start, so one memo serves
        every start. The memo is cleared when it holds _TRAIL_MEMO_CAP
        states and refills from there, so it stays bounded; a dropped state
        can cost nodes, as the search may walk it again, but never changes
        an answer. A step is taken only while every untouched edge, every
        unvisited vertex of `need` and the fixed end are still reachable over
        unused edges. Each step counts as one node against the shared budget.
        """
        # a trail read backwards is a trail: fix the start rather than the end
        flip = start is None and end is not None
        if flip:
            start, end = end, None
        verts = sorted({v for e in edges for v in e})
        pos = {v: i for i, v in enumerate(verts)}
        full = (1 << len(edges)) - 1
        incident = [0] * len(verts)
        arcs: list[list[tuple[int, int]]] = [[] for _ in verts]  # (edge bit, far end)
        ends = []  # edge i's far end from v is v ^ ends[i]
        for i, (a, b) in enumerate(edges):
            a, b = pos[a], pos[b]
            incident[a] |= 1 << i
            incident[b] |= 1 << i
            arcs[a].append((1 << i, b))
            arcs[b].append((1 << i, a))
            ends.append(a ^ b)
        want = sum(1 << pos[v] for v in need)
        stop = -1 if end is None else pos[end]
        nodes, cap, deadline = self.nodes, self.node_budget, self.deadline
        tick = max(1, 4096 // len(edges))  # each node floods the piece
        failed: set[tuple[int, int]] = set()
        memo_cap = _TRAIL_MEMO_CAP
        for s in range(len(verts)) if start is None else (pos[start],):
            # one entry per trail vertex: (vertex, used, covered, seen, untried edges)
            stack = [(s, 0, incident[s], 1 << s, incident[s])]
            while stack:
                if len(failed) >= memo_cap:  # each pass adds at most one state
                    failed.clear()
                cur, used, covered, seen, free = stack[-1]
                if not free:
                    failed.add((cur, used))
                    stack.pop()
                    continue
                bit = free & -free
                stack[-1] = (cur, used, covered, seen, free ^ bit)
                w = cur ^ ends[bit.bit_length() - 1]
                used |= bit
                if (w, used) in failed:
                    continue
                nodes += 1
                if nodes > cap:
                    raise CappedError("trail search node budget exhausted")
                if not nodes % tick and time.monotonic() > deadline:
                    raise CappedError("time limit hit during trail search")
                covered |= incident[w]
                seen |= 1 << w
                if covered == full and seen & want == want and stop in (-1, w):
                    self.nodes = nodes
                    walk = [verts[t[0]] for t in stack] + [verts[w]]
                    return walk[::-1] if flip else walk
                reach, touch = _flood_edges(w, full & ~used, incident, arcs)
                if ((covered | touch) != full or want & ~(seen | reach)
                        or stop >= 0 and not reach >> stop & 1):
                    failed.add((w, used))
                    continue
                stack.append((w, used, covered, seen, incident[w] & ~used))
        self.nodes = nodes
        return None


def _flood_edges(v: int, unused: int, incident: list[int],
                 arcs: list[list[tuple[int, int]]]) -> tuple[int, int]:
    """The vertices reachable from v over `unused` edges, as a mask, and the
    edges those vertices touch; arcs[x] lists x's (edge bit, far end)."""
    reach = 1 << v
    touch = 0
    todo = [v]
    for x in todo:  # grows while it is read
        touch |= incident[x]
        for bit, w in arcs[x]:
            if unused & bit and not reach >> w & 1:
                reach |= 1 << w
                todo.append(w)
    return reach, touch


# ---------------------------------------------------------------------------
# stage loops

def hp_oracle(g: Graph, budget: SearchBudget = DEFAULT_SEARCH_BUDGET) -> IndexResult:
    """Iterate the line-graph map until the graph is traceable.

    Cross-checks the first iterate's verdict against a dominating-trail search
    on the original graph whenever that search settles within the budget.
    """
    return _stage_loop(g, budget, cycle=False)


def h_oracle(g: Graph, budget: SearchBudget = DEFAULT_SEARCH_BUDGET) -> IndexResult:
    """Iterate the line-graph map until the graph is hamiltonian.

    Path graphs are rejected: their iterates only ever shrink to smaller paths
    and never contain a spanning cycle.
    """
    if is_path(g):
        raise PreconditionError("path graphs never reach a hamiltonian iterate")
    return _stage_loop(g, budget, cycle=True)


def _time_left(budget: SearchBudget, deadline: float) -> SearchBudget:
    left = deadline - time.monotonic()
    if left <= 0:
        raise CappedError("time limit hit before a search")
    # `replace` would re-run __post_init__'s checks, which `budget` has
    # passed and a positive limit passes, at five times the cost
    out = object.__new__(SearchBudget)
    out.__dict__.update(budget.__dict__, time_limit_s=left)
    return out


def _stage_loop(g: Graph, budget: SearchBudget, cycle: bool) -> IndexResult:
    """Search L^0(g), L^1(g), ... for a hamiltonian cycle or path.

    The first iterate's verdict is cross-checked against a closed or open
    dominating-trail search on g: L(g) is hamiltonian exactly when g has a
    dominating closed trail (Harary-Nash-Williams, g with at least 3 edges)
    and traceable exactly when g has a dominating trail (Xiong-Zong). One
    deadline covers the whole loop; each search gets the time left.

    Before stage k >= 1 it checks the stage cap, then the iteration budget
    on the size read off `deg`, stage k-1's degrees. One block then decides
    stage k: the clock; h = L^(k-1)(g), built there if stage k-1 was not;
    _screen read off h when L^k(g) is over the vertex cap; else the build
    of L^k(g) and its search. So a stage past the deadline builds nothing.
    """
    if not is_connected(g):
        raise PreconditionError("the index is defined for connected graphs")
    # resolved per call, not at import, so wrappers bound over these module
    # names see every stage search
    search = has_hamiltonian_cycle if cycle else has_hamiltonian_path
    yes = "hamiltonian" if cycle else "traceable"
    deadline = time.monotonic() + budget.time_limit_s
    stages: list[StageRecord] = []
    cap = budget.backtrack_vertex_cap
    h = cur = g  # stage n's preimage (n >= 1, after its clock), and its graph or None
    size, deg = (g.n, g.m), [len(a) for a in g.adj]  # of stage n's graph
    n = 0
    while True:
        try:
            # stage 0 starts on the whole limit, however small
            left = _time_left(budget, deadline) if n else budget
            if n:
                h = line_graph(h).graph if cur is None else cur
                deg = _line_degrees(h)
                # the screen can settle L(h), on h.m vertices, only over the cap
                cur = line_graph(h).graph if h.m <= cap or _screen(
                    deg, lambda: _line_blocks(h), cycle, cap) else None
            ok, walk = (False, None) if cur is None else search(cur, left)
        except CappedError as exc:
            stages.append(StageRecord(n, *size, "capped"))
            return IndexResult(None, tuple(stages), None, str(exc))
        if n == 1 and g.m >= (3 if cycle else 1):
            try:
                dom, _ = has_dominating_trail(g, _time_left(budget, deadline),
                                              closed=cycle)
            except CappedError:
                pass
            else:
                if dom != ok:
                    raise InternalCheckError(
                        "closed-dominating-trail existence disagrees with "
                        "first-iterate hamiltonicity" if cycle else
                        "dominating-trail existence disagrees with "
                        "first-iterate traceability")
        stages.append(StageRecord(n, *size, yes if ok else "not-" + yes))
        if ok:
            return IndexResult(n, tuple(stages), walk)
        if n >= budget.stage_cap:
            return IndexResult(None, tuple(stages), None,
                               f"stage cap {budget.stage_cap} reached")
        if size[1] == 0:
            raise InternalCheckError("stage loop reached an edgeless graph")
        n += 1
        try:
            size = iteration_size((size[1], sum(d * (d - 1) // 2 for d in deg)),
                                  n, budget.iteration)
        except CappedError as exc:
            return IndexResult(None, tuple(stages), None, str(exc))
