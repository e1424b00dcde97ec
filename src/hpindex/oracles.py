"""Exact decision procedures: hamiltonian paths and cycles, dominating trails,
and the stage loop that computes how many line-graph iterations a graph needs
before it becomes traceable (hp_oracle) or hamiltonian (h_oracle).

has_hamiltonian_path and has_hamiltonian_cycle apply their own cheap
necessary conditions, then share one tiered search; a cycle is searched as a
path from vertex 0 that must close back to it. The tiers, by vertex count n
under a SearchBudget:

- n > backtrack_vertex_cap (40): refused with CappedError;
- n <= _PY_DP_CAP (12): subset table over vertex masks in pure Python;
- n <= dp_vertex_cap (24): the same table in numpy, built by one vectorized
  pass per popcount layer and target vertex; it holds a 2^n uint32 table
  and 2^n uint8 popcounts, and at 24 vertices the process peaks near
  165 MB. From _PREPASS_FLOOR (17) on, a backtracking prepass of
  prepass_nodes nodes first settles easy instances without the table;
- above that: pruned backtracking, capped when node_budget runs out.

Every positive answer carries a witness walk and every witness is replayed
against the graph before being returned; a failed replay raises
InternalCheckError. Searches that outgrow their budget raise CappedError (or
surface as a capped stage result), never a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import (BudgetExceededError, CappedError, InternalCheckError,
                     PreconditionError)
from .graphs import Graph, is_connected, is_path
from .linegraph import DEFAULT_ITERATION_BUDGET, IterationBudget, iteration_step

# dominating-trail search keys its states by an edge bitmask
TRAIL_EDGE_CAP = 20

_PY_DP_CAP = 12        # above this the mask table moves to numpy
_PREPASS_FLOOR = 17    # backtracking pre-pass kicks in where the table gets big


@dataclass(frozen=True)
class SearchBudget:
    """Resource limits for the exact searches.

    Graphs up to dp_vertex_cap vertices go through the subset table, which is
    exact and immune to adversarial structure; between that and
    backtrack_vertex_cap a pruned depth-first search runs with a node budget.
    Anything larger is refused with CappedError.
    """

    dp_vertex_cap: int = 24
    backtrack_vertex_cap: int = 40
    time_limit_s: float = 30.0
    node_budget: int = 5_000_000
    prepass_nodes: int = 50_000
    stage_cap: int = 64
    iteration: IterationBudget = field(default_factory=lambda: DEFAULT_ITERATION_BUDGET)

    def __post_init__(self):
        if not 1 <= self.dp_vertex_cap <= 26:
            raise PreconditionError("dp_vertex_cap must be between 1 and 26")
        if self.backtrack_vertex_cap < self.dp_vertex_cap:
            raise PreconditionError("backtrack cap must be at least the dp cap")
        if self.time_limit_s <= 0 or self.node_budget < 1 or self.stage_cap < 0:
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

def _dp_table_py(adj: list[int], starts: int) -> list[int]:
    n = len(adj)
    dp = [0] * (1 << n)
    for v in range(n):
        if starts >> v & 1:
            dp[1 << v] = 1 << v
    # extensions only ever write to numerically larger masks
    for mask in range(1, 1 << n):
        ends = dp[mask]
        while ends:
            bit = ends & -ends
            ends ^= bit
            free = adj[bit.bit_length() - 1] & ~mask
            while free:
                wbit = free & -free
                free ^= wbit
                dp[mask | wbit] |= wbit
    return dp


def _dp_table_np(adj: list[int], starts: int, deadline: float) -> np.ndarray:
    # the push rule of _dp_table_py read from the target side: w ends a path
    # over mask | w when w is outside mask and adjacent to an end of mask
    n = len(adj)
    pop = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        pop = np.concatenate((pop, pop + 1))
    dp = np.zeros(1 << n, dtype=np.uint32)
    for v in range(n):
        if starts >> v & 1:
            dp[1 << v] = np.uint32(1 << v)
    for k in range(1, n):
        if time.monotonic() > deadline:
            raise CappedError("time limit hit during subset dynamic programming")
        src = np.flatnonzero(pop == k)
        ends = dp[src]
        live = ends != 0
        src, ends = src[live], ends[live]
        if not src.size:
            break
        for w in range(n):
            bit = 1 << w
            ext = src[((src & bit) == 0) & ((ends & adj[w]) != 0)]
            # distinct sources stay distinct targets, so fancy |= is safe
            dp[ext | bit] |= bit
    return dp


def _walk_from_table(dp, adj: list[int], full: int, end: int) -> list[int]:
    walk = [end]
    mask = full
    while mask.bit_count() > 1:
        v = walk[-1]
        prev = mask & ~(1 << v)
        cands = int(dp[prev]) & adj[v]
        if not cands:
            raise InternalCheckError("subset table lost a predecessor")
        walk.append((cands & -cands).bit_length() - 1)
        mask = prev
    walk.reverse()
    return walk


# ---------------------------------------------------------------------------
# pruned backtracking

def _flood(rem: int, seed: int, adj: list[int]) -> int:
    seen = seed
    while True:
        grow = 0
        m = seen
        while m:
            bit = m & -m
            m ^= bit
            grow |= adj[bit.bit_length() - 1]
        grow &= rem & ~seen
        if not grow:
            return seen
        seen |= grow


def _dead_end(cur: int, visited: int, full: int, adj: list[int]) -> bool:
    rem = full & ~visited
    if not rem:
        return False
    frontier = adj[cur] & rem
    if not frontier:
        return True
    if _flood(rem, frontier, adj) != rem:
        return True
    pend = 0
    m = rem
    while m:
        bit = m & -m
        m ^= bit
        if not adj[bit.bit_length() - 1] & rem:
            pend |= bit
    # a vertex whose only unvisited link is cur must be the very last stop
    return bool(pend) and (bool(pend & (pend - 1)) or rem != pend)


def _backtrack(adj: list[int], n: int, starts: list[int], node_budget: int,
               deadline: float, close_to: int | None) -> list[int] | None:
    """Exhaustive DFS for a hamiltonian path (or cycle when close_to is set).

    Returns the walk, or None when there is none; raises _Inconclusive when
    the node budget runs out first and CappedError on the wall-clock deadline.
    """
    full = (1 << n) - 1
    nodes = 0

    def dfs(cur: int, visited: int, walk: list[int]) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > node_budget:
            raise _Inconclusive
        if not nodes % 4096 and time.monotonic() > deadline:
            raise CappedError("time limit hit during backtracking search")
        if visited == full:
            return close_to is None or bool(adj[cur] >> close_to & 1)
        cand = adj[cur] & ~visited
        order = []
        while cand:
            bit = cand & -cand
            cand ^= bit
            w = bit.bit_length() - 1
            order.append(((adj[w] & ~visited & ~bit).bit_count(), w))
        order.sort()
        for _, w in order:
            nv = visited | (1 << w)
            if nv != full and _dead_end(w, nv, full, adj):
                continue
            walk.append(w)
            if dfs(w, nv, walk):
                return True
            walk.pop()
        return False

    try:
        for s in starts:
            visited = 1 << s
            if n > 1 and _dead_end(s, visited, full, adj):
                continue
            walk = [s]
            if dfs(s, visited, walk):
                return walk
        return None
    finally:
        # dfs reaches itself through a closure cell, a reference cycle that
        # would keep it and `adj` alive until a full collection
        del dfs


# ---------------------------------------------------------------------------
# hamiltonian path / cycle

def _path_starts(g: Graph) -> list[int]:
    ones = sorted((v for v in range(g.n) if g.degree(v) == 1),
                  key=lambda v: g.labels[v])
    if ones:
        # any hamiltonian path must end at each degree-1 vertex
        return ones[:1]
    return sorted(range(g.n), key=lambda v: (g.degree(v), g.labels[v]))


def has_hamiltonian_path(g: Graph, budget: SearchBudget = DEFAULT_SEARCH_BUDGET,
                         ) -> tuple[bool, tuple[str, ...] | None]:
    """Exact traceability test with a witness walk on success."""
    if g.n == 0:
        raise PreconditionError("traceability of the empty graph is undefined")
    if g.n == 1:
        return True, (g.labels[0],)
    if not is_connected(g):
        return False, None
    if sum(1 for v in range(g.n) if g.degree(v) == 1) > 2:
        return False, None
    if len(g.blocks.end_blocks()) > 2:
        # every leaf block needs its own path endpoint
        return False, None
    return _hamiltonian(g, budget, cycle=False)


def has_hamiltonian_cycle(g: Graph, budget: SearchBudget = DEFAULT_SEARCH_BUDGET,
                          ) -> tuple[bool, tuple[str, ...] | None]:
    """Exact hamiltonicity test; the witness omits the repeated start vertex."""
    if g.n < 3 or not is_connected(g):
        return False, None
    if min(g.degree(v) for v in range(g.n)) < 2:
        return False, None
    if g.blocks.cut_vertices:
        return False, None
    return _hamiltonian(g, budget, cycle=True)


def _hamiltonian(g: Graph, budget: SearchBudget, cycle: bool,
                 ) -> tuple[bool, tuple[str, ...] | None]:
    """The tiered search behind both public tests.

    A cycle is searched as a path from vertex 0 that must close back to it.
    """
    if g.n > budget.backtrack_vertex_cap:
        raise CappedError(f"{g.n} vertices exceed the search cap "
                          f"{budget.backtrack_vertex_cap}")
    deadline = time.monotonic() + budget.time_limit_s
    adj = _adj_masks(g)
    full = (1 << g.n) - 1
    table = g.n <= budget.dp_vertex_cap
    if not table or g.n >= _PREPASS_FLOOR:
        try:
            walk = _backtrack(adj, g.n, [0] if cycle else _path_starts(g),
                              budget.prepass_nodes if table else budget.node_budget,
                              deadline, 0 if cycle else None)
            return _verdict(g, walk, cycle)
        except _Inconclusive:
            if not table:
                raise CappedError("backtracking node budget exhausted") from None
    seed = 1 if cycle else full
    if g.n <= _PY_DP_CAP:
        dp = _dp_table_py(adj, seed)
    else:
        dp = _dp_table_np(adj, seed, deadline)
    ends = int(dp[full]) & (adj[0] if cycle else full)
    if not ends:
        return False, None
    end = (ends & -ends).bit_length() - 1
    return _verdict(g, _walk_from_table(dp, adj, full, end), cycle)


def _verdict(g: Graph, walk: list[int] | None, cycle: bool,
             ) -> tuple[bool, tuple[str, ...] | None]:
    if walk is None:
        return False, None
    toks = tuple(g.labels[v] for v in walk)
    (check_cycle_witness if cycle else check_path_witness)(g, toks)
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
    """
    if g.n == 0:
        raise PreconditionError("dominating trails need a nonempty graph")
    if not is_connected(g):
        return False, None
    if g.m > TRAIL_EDGE_CAP:
        raise CappedError(f"{g.m} edges exceed the trail search cap {TRAIL_EDGE_CAP}")
    deadline = time.monotonic() + budget.time_limit_s
    full = (1 << g.m) - 1
    epos = {e: i for i, e in enumerate(g.edges)}
    incident = [0] * g.n
    other = [dict() for _ in range(g.n)]
    for e, i in epos.items():
        a, b = e
        incident[a] |= 1 << i
        incident[b] |= 1 << i
        other[a][i] = b
        other[b][i] = a
    nodes = 0
    for start in sorted(range(g.n), key=lambda v: g.labels[v]):
        failed: set[tuple[int, int]] = set()

        def dfs(cur: int, used: int, covered: int, walk: list[int]) -> bool:
            nonlocal nodes
            nodes += 1
            if not nodes % 4096 and time.monotonic() > deadline:
                raise CappedError("time limit hit during trail search")
            if covered == full:
                if closed:
                    if cur == start:
                        return True
                elif used or not full:
                    # open trails need an edge unless the graph has none
                    return True
            if (cur, used) in failed:
                return False
            free = incident[cur] & ~used
            while free:
                bit = free & -free
                free ^= bit
                w = other[cur][bit.bit_length() - 1]
                walk.append(w)
                if dfs(w, used | bit, covered | incident[w], walk):
                    return True
                walk.pop()
            failed.add((cur, used))
            return False

        walk = [start]
        try:
            found = dfs(start, 0, incident[start], walk)
        finally:
            # dfs reaches itself through a closure cell, a reference cycle
            # that would keep `failed` alive until a full collection
            del dfs
        if found:
            toks = tuple(g.labels[v] for v in walk)
            check_trail_witness(g, toks, closed)
            return True, toks
    return False, None


def has_dominating_closed_trail(g: Graph,
                                budget: SearchBudget = DEFAULT_SEARCH_BUDGET,
                                ) -> tuple[bool, tuple[str, ...] | None]:
    return has_dominating_trail(g, budget, closed=True)


# ---------------------------------------------------------------------------
# stage loops

def hp_oracle(g: Graph, budget: SearchBudget = DEFAULT_SEARCH_BUDGET) -> IndexResult:
    """Iterate the line-graph map until the graph is traceable.

    Cross-checks the first iterate's verdict against a dominating-trail search
    on the original graph whenever the latter is feasible.
    """
    if not is_connected(g):
        raise PreconditionError("the index is defined for connected graphs")
    return _stage_loop(g, budget, cycle=False)


def h_oracle(g: Graph, budget: SearchBudget = DEFAULT_SEARCH_BUDGET) -> IndexResult:
    """Iterate the line-graph map until the graph is hamiltonian.

    Path graphs are rejected: their iterates only ever shrink to smaller paths
    and never contain a spanning cycle.
    """
    if not is_connected(g):
        raise PreconditionError("the index is defined for connected graphs")
    if is_path(g):
        raise PreconditionError("path graphs never reach a hamiltonian iterate")
    return _stage_loop(g, budget, cycle=True)


def _stage_loop(g: Graph, budget: SearchBudget, cycle: bool) -> IndexResult:
    """Search L^0(g), L^1(g), ... for a hamiltonian cycle or path.

    The first iterate's verdict is cross-checked against a closed or open
    dominating-trail search on g: L(g) is hamiltonian exactly when g has a
    dominating closed trail (Harary-Nash-Williams, g with at least 3 edges)
    and traceable exactly when g has a dominating trail (Xiong-Zong).
    """
    # resolved per call, not at import, so wrappers bound over these module
    # names see every stage search
    search = has_hamiltonian_cycle if cycle else has_hamiltonian_path
    yes = "hamiltonian" if cycle else "traceable"
    stages: list[StageRecord] = []
    cur = g
    n = 0
    while True:
        try:
            ok, walk = search(cur, budget)
        except CappedError as exc:
            stages.append(StageRecord(n, cur.n, cur.m, "capped"))
            return IndexResult(None, tuple(stages), None, str(exc))
        if n == 1 and (3 if cycle else 1) <= g.m <= TRAIL_EDGE_CAP:
            try:
                dom, _ = has_dominating_trail(g, budget, closed=cycle)
            except CappedError:
                pass
            else:
                if dom != ok:
                    raise InternalCheckError(
                        "closed-dominating-trail existence disagrees with "
                        "first-iterate hamiltonicity" if cycle else
                        "dominating-trail existence disagrees with "
                        "first-iterate traceability")
        stages.append(StageRecord(n, cur.n, cur.m, yes if ok else "not-" + yes))
        if ok:
            return IndexResult(n, tuple(stages), walk)
        if n >= budget.stage_cap:
            return IndexResult(None, tuple(stages), None,
                               f"stage cap {budget.stage_cap} reached")
        if cur.m == 0:
            raise InternalCheckError("stage loop reached an edgeless graph")
        try:
            cur = iteration_step(cur, n + 1, budget.iteration).graph
        except BudgetExceededError as exc:
            return IndexResult(None, tuple(stages), None, str(exc))
        n += 1
