"""The searches and the pure-Python table that oracles.py replaced, kept as references.

`hpindex.oracles._dfs` replaced `_backtrack`, a recursive DFS that tries
the next vertex by (unvisited-neighbour count, index), and `_lex_backtrack`,
an explicit-stack DFS that tries vertices in index order and returns its
walk flipped into the order the subset table reads it back. Every table is
now `hpindex.oracles._dp_table_np`, which replaced `_dp_table_py` below.
`has_dominating_trail` below is the exhaustive edge-mask trail search over
the whole graph, with its 20-edge cap, that the piece-by-piece
`hpindex.oracles.has_dominating_trail` replaced. The two searches prune
with `_dead_end` below, which floods the unvisited vertices from all of
the current vertex's unvisited neighbours at once, so it asks only that
each piece of them touch the current vertex; `hpindex.oracles._dead_end`
replaced it with the stronger check that they induce a connected graph,
which makes its pendant rule redundant. The six are copied here
unchanged; `_lex_backtrack` takes its start vertices as a mask. The
differential tests compare them with the code that replaced them.
"""

from __future__ import annotations

import time

from hpindex.errors import CappedError, PreconditionError
from hpindex.graphs import Graph, is_connected
from hpindex.oracles import (DEFAULT_SEARCH_BUDGET, SearchBudget, _Inconclusive,
                             _witnessed, check_trail_witness)

# the edge-mask trail search keys its states by edge bitmasks; this cap
# bounds its cost, not the masks
TRAIL_EDGE_CAP = 20


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


def _flood(rem: int, seed: int, adj: list[int]) -> int:
    seen = new = seed
    while new:
        grow = 0
        while new:
            bit = new & -new
            new ^= bit
            grow |= adj[bit.bit_length() - 1]
        new = grow & rem & ~seen
        seen |= new
    return seen


def _dead_end(cur: int, visited: int, full: int, adj: list[int]) -> bool:
    rem = full & ~visited
    if not rem:
        return False
    frontier = adj[cur] & rem
    if not frontier:
        return True
    # a vertex whose only unvisited link is cur must be the very last stop;
    # any other vertex of rem with no neighbour left in rem is cut off from
    # the frontier, which the flood below catches
    pend = 0
    m = frontier
    while m:
        bit = m & -m
        m ^= bit
        if not adj[bit.bit_length() - 1] & rem:
            pend |= bit
    if pend and (pend & (pend - 1) or rem != pend):
        return True
    return _flood(rem, frontier, adj) != rem


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


def _lex_backtrack(adj: list[int], n: int, starts: int, node_budget: int,
                   close_to: int | None) -> list[int] | None:
    """Index-order DFS for the walk the subset table would return.

    Start vertices (a mask) and next vertices are tried in index order, so
    the first walk found is the lexicographically least one: _dead_end only
    cuts branches with no completion. Returns None when there is no walk and
    raises _Inconclusive once more than node_budget vertices are placed.
    """
    full = (1 << n) - 1
    nodes = 0
    walk: list[int] = []
    visited = 0
    todo = [starts]  # untried vertices for each position of the walk
    while todo:
        cand = todo[-1]
        if not cand:
            todo.pop()
            if walk:
                visited ^= 1 << walk.pop()
            continue
        bit = cand & -cand
        todo[-1] = cand ^ bit
        nv = visited | bit
        w = bit.bit_length() - 1
        if nv != full and _dead_end(w, nv, full, adj):
            continue
        nodes += 1
        if nodes > node_budget:
            raise _Inconclusive
        if nv == full:
            if close_to is None or adj[w] >> close_to & 1:
                # the table reads the least walk back from its far end: a
                # path reversed, a cycle run the other way round
                walk.append(w)
                return walk[::-1] if close_to is None else walk[:1] + walk[:0:-1]
            continue
        walk.append(w)
        visited = nv
        todo.append(adj[w] & ~nv)
    return None


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
    incident = [0] * g.n
    ends = []  # edge i's far end from v is v ^ ends[i]
    for i, (a, b) in enumerate(g.edges):
        incident[a] |= 1 << i
        incident[b] |= 1 << i
        ends.append(a ^ b)
    nodes = 0
    for start in sorted(range(g.n), key=lambda v: g.labels[v]):
        # a closed trail may be the start alone; an open one needs an edge
        # unless the graph has none
        if incident[start] == full and (closed or not full):
            return _witnessed(g, [start], check_trail_witness, closed)
        failed: set[tuple[int, int]] = set()  # (vertex, used) with no completion
        # one entry per trail vertex: (vertex, used, covered, untried edges)
        stack = [(start, 0, incident[start], incident[start])]
        while stack:
            cur, used, covered, free = stack[-1]
            if not free:
                failed.add((cur, used))
                stack.pop()
                continue
            bit = free & -free
            stack[-1] = (cur, used, covered, free ^ bit)
            w = cur ^ ends[bit.bit_length() - 1]
            used |= bit
            covered |= incident[w]
            nodes += 1
            if not nodes % 4096 and time.monotonic() > deadline:
                raise CappedError("time limit hit during trail search")
            if covered == full and (not closed or w == start):
                return _witnessed(g, [s[0] for s in stack] + [w],
                                  check_trail_witness, closed)
            if (w, used) not in failed:
                stack.append((w, used, covered, incident[w] & ~used))
    return False, None
