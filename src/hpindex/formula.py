"""Closed-form index for trees and its conjectural block-chain extension.

For a tree that is not a path, the index equals a min-max over leaf-to-leaf
paths (endpaths): pick an endpath carrying a pair of branches whose joint
absorption time is maximal, then pay for the heaviest branch left off that
endpath. Path graphs cost nothing.

The min-max is evaluated without listing endpaths. The branches are the
edges of the junction tree, whose nodes are the vertices of degree != 2.
Any two branches share an endpath, so the maximal pairs are the pairs of the
two largest weights, and the best endpath through a pair extends the pair's
hull as cheaply as it can at both ends; sweeps over the junction tree give
those costs for both directions of every branch (see _evaluate). Ties break
as a scan of every endpath in leaf-pair order would break them. The largest
and least values at each junction are picked by linear scans, and a
branch's vertex walk is built only when the result reports it. The work is
O(n) plus the hull length of every maximal pair, each climbed and listed in
per_pair; h items tied for the heaviest weight make C(h, 2) such pairs, so
a star K_{1,h} costs O(h^2). Listing endpaths cost O(leaves^2 * n).

The conjectural extension contracts every bridgeless piece of a general graph
to a point, a hub (all such pieces must have a spanning cycle for the formula
to apply), and evaluates the same min-max on the resulting tree with its
branches cut at hubs: each piece is one bridge branch of the graph, pendant
exactly when it ends at a leaf that is not a hub. Results carry a
`conjectural` flag; compare_formula_oracle pits them against the exact stage
loop.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property

from .canon import graph_key
from .errors import CappedError, InternalCheckError, PreconditionError
from .graphs import Graph, bfs_tree, block_graph, is_connected, is_path, is_tree
from .io import to_edge_list
from .oracles import (DEFAULT_SEARCH_BUDGET, IndexResult, SearchBudget,
                      StageRecord, _time_left, has_hamiltonian_cycle,
                      hp_oracle)

PairValue = tuple[tuple[tuple[str, ...], tuple[str, ...]], int | None]


@dataclass(frozen=True)
class FormulaResult:
    """Outcome of the min-max evaluation.

    `endpath` and `off_path_branch` are vertex walks (None for path graphs,
    and None for the off-path branch when nothing is left off the endpath).
    `per_pair` lists, for every maximum-weight branch pair, the best value an
    endpath through that pair achieves; these all coincide with `value`.
    """

    value: int
    endpath: tuple[str, ...] | None
    off_path_branch: tuple[str, ...] | None
    per_pair: tuple[PairValue, ...]
    conjectural: bool

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "endpath": None if self.endpath is None else list(self.endpath),
            "off_path_branch": (None if self.off_path_branch is None
                                else list(self.off_path_branch)),
            "per_pair": [{"pair": [list(a), list(b)],
                          "value": v} for (a, b), v in self.per_pair],
            "conjectural": self.conjectural,
        }


def _largest3(keys: list) -> tuple[int, int, int]:
    """Positions of the three largest keys, largest first, in one scan.

    Equal keys go to the lower position first, as with heapq.nlargest; -1
    fills the places of a list shorter than three.
    """
    t0 = t1 = t2 = -1
    m0 = m1 = m2 = -math.inf
    for i, x in enumerate(keys):
        if x > m2:
            if x <= m1:
                t2, m2 = i, x
            elif x <= m0:
                t1, t2, m1, m2 = i, t1, x, m1
            else:
                t0, t1, t2, m0, m1, m2 = i, t0, t1, x, m0, m1
    return t0, t1, t2


def _exits(s: list[int], f: list, combine) -> list:
    """Best way on from a junction of degree d >= 3, for each neighbour skipped.

    Entry j is the least combine(m, f[i]) over positions i != j, where m is
    the largest s[k] over positions k other than i and j. `combine` must
    not decrease in either argument, so only the three largest s (t0, t1,
    t2) and the two least f other than f[t0] (at g0 and g1) matter, each
    found in one scan with ties to the lower position. Every j outside
    {t0, t1, g0} gets the same value, so combine runs six times per
    junction: O(d) in all.
    """
    t0, t1, t2 = _largest3(s)
    g0, f0, f1 = -1, math.inf, math.inf
    for i, y in enumerate(f):
        if y < f1 and i != t0:
            if y < f0:
                g0, f0, f1 = i, y, f0
            else:
                f1 = y
    near, far = combine(s[t0], f0), combine(s[t0], f1)  # i = g0, i = g1
    second, third = combine(s[t1], f[t0]), combine(s[t2], f[t0])  # i = t0
    out = [min(near, second)] * len(s)
    out[g0] = min(far, third if g0 == t1 else second)
    if g0 != t1:
        out[t1] = min(near, third)
    out[t0] = min(combine(s[t1], f1 if g0 == t1 else f0), combine(s[t2], f[t1]))
    return out


def _evaluate(tree: Graph, hubs: frozenset[int] = frozenset(),
              ) -> tuple[int, tuple[str, ...], tuple[str, ...] | None,
                         tuple[PairValue, ...]]:
    """Min-max over endpaths of the heaviest item left off the endpath.

    `tree` is a tree that is not a path, and `hubs` its vertices that stand
    for contracted pieces. The work runs on the junction tree: its nodes are
    the vertices of degree != 2, rooted at one of degree >= 3, and its
    edges are the corridors, each named by its lower junction. Cut at hubs,
    each corridor gives one item per piece, weighing its edge count if its
    lower end is a leaf that is not a hub and one more otherwise. Two
    corridors always share an endpath, so the maximal pairs are those whose
    weights add up to the two largest.

    An endpath through a pair contains the pair's hull, the least junction
    path holding both items. The pair's value is the heaviest of the items
    hanging off the hull's interior, found by climbing parents from both
    corridors, and of the cheapest ways on from each end of the hull to a
    leaf. Those costs come from one sweep down and one up the junction tree,
    for both directions of every corridor, with O(d) work at a junction of
    degree d. V is the least pair value.

    Ties break as a scan of all endpaths in leaf-pair order would. A second
    sweep finds, for both directions of every corridor, the least leaf by
    label reachable at cost at most V; the endpath joins the least such
    leaf pair over the pairs of value V. The off-path item is the least
    walk of weight V left off it, and pairs are listed in the order of
    their sorted walks. An item is kept as its lower end, weight and
    corridor; its walk is climbed from the lower end only for the items
    reported: those in a maximal pair and the off-path candidates of
    weight V. The cost is O(n) plus the hull length of every maximal pair,
    C(h, 2) pairs for h tied heaviest items, without recursion.
    """
    adj, n = tree.adj, tree.n
    junction = [len(a) != 2 for a in adj]
    root = next(v for v in range(n) if len(adj[v]) > 2)
    order, parent = bfs_tree(adj, root)
    depth = [0] * n
    for v in order[1:]:
        depth[v] = depth[parent[v]] + 1
    jorder = [v for v in order if junction[v]]
    # climb each corridor from its lower junction x to its parent junction
    # jpar[x], naming every edge (v, parent[v]) on the way by x and cutting
    # an item at each hub; an item's walk is rebuilt from its lower end
    # only if the result reports it
    low = list(range(n))
    jpar = [-1] * n
    kids: dict[int, list[int]] = {}  # only junctions with kid junctions
    jdepth = [0] * n
    cw = [0] * n  # heaviest item in the corridor above each junction
    lower, weight, corridor = [], [], []  # per item
    for x in jorder[1:]:
        v = end = x
        while True:
            v = parent[v]
            if not junction[v]:
                low[v] = x
                if v not in hubs:
                    continue
            # edges, plus one unless the item is pendant
            w = depth[end] - depth[v] + (len(adj[end]) != 1 or end in hubs)
            lower.append(end)
            weight.append(w)
            corridor.append(x)
            cw[x] = max(cw[x], w)
            if junction[v]:
                break
            end = v
        jpar[x] = v
        kids.setdefault(v, []).append(x)
        jdepth[x] = jdepth[v] + 1
    if len(weight) < 2:  # unreachable: a tree that is not a path has 3+ branches
        raise InternalCheckError("no endpath contains a maximal branch pair; "
                                 "witness graph:\n" + to_edge_list(tree))

    # Heaviest item on each side of the corridor above junction x: in x's
    # subtree, that corridor included (sub[x]), and everywhere else
    # (side[x], the parent neighbour's share as seen from x). sib[x] is the
    # heaviest subtree of x's siblings. A junction with kids has two or
    # more; shares[p] lists their sub, then side[p] unless p is the root.
    sub = cw[:]
    for x in reversed(jorder[1:]):
        sub[jpar[x]] = max(sub[jpar[x]], sub[x])
    sib, side = [0] * n, [0] * n
    top3: dict[int, list[int]] = {}
    shares: dict[int, list[int]] = {}
    for p in jorder:
        ks = kids.get(p)
        if ks:
            s = [sub[k] for k in ks]
            t0, t1, t2 = _largest3(s)
            top3[p] = [ks[t] for t in (t0, t1, t2) if t >= 0]
            for i, x in enumerate(ks):
                sib[x] = s[t1] if i == t0 else s[t0]
                side[x] = max(cw[x], side[p], sib[x])
            if p != root:
                s.append(side[p])
            shares[p] = s

    def sweep(combine, leaf_value) -> list:
        # entry x: going on from junction x away from its parent junction;
        # entry n + x: going on from x's parent junction away from x
        out = [None] * (2 * n)
        for x in reversed(jorder[1:]):
            out[x] = (min(combine(sib[k], out[k]) for k in kids[x])
                      if x in kids else leaf_value(x))
        for p in jorder:
            ks = kids.get(p)
            if not ks:
                continue
            f = [out[k] for k in ks]
            if p != root:
                f.append(out[n + p])
            for x, v in zip(ks, _exits(shares[p], f, combine)):
                out[n + x] = v
        return out

    cost = sweep(max, lambda x: 0)

    def hull(cx: int, cy: int) -> tuple[int, int, int]:
        """Heaviest corridor hanging off the hull's interior, and its two
        ends as sweep entries: x to go on below junction x, n + x to go on
        from x's parent away from x."""
        if cx == cy:
            return 0, cx, n + cx
        a, b, hang = cx, cy, 0
        while jdepth[a] > jdepth[b]:
            hang, a = max(hang, sib[a]), jpar[a]
        while jdepth[b] > jdepth[a]:
            hang, b = max(hang, sib[b]), jpar[b]
        if a == b:  # one corridor lies above the other
            if a == cx:
                return hang, cy, n + cx
            return hang, cx, n + cy
        while jpar[a] != jpar[b]:
            hang = max(hang, sib[a], sib[b])
            a, b = jpar[a], jpar[b]
        meet = jpar[a]
        rest = next((sub[k] for k in top3[meet] if k != a and k != b), 0)
        return max(hang, rest, side[meet]), cx, cy

    walks: dict[int, tuple[str, ...]] = {}

    def walk_of(i: int) -> tuple[str, ...]:
        """Item i's vertex walk from its smaller end: the climb from its
        lower end to the first junction or hub."""
        if i not in walks:
            v = lower[i]
            toks = [tree.labels[v]]
            while True:
                v = parent[v]
                toks.append(tree.labels[v])
                if junction[v] or v in hubs:
                    break
            walks[i] = min(tuple(toks), tuple(reversed(toks)))
        return walks[i]

    w1 = max(weight)
    heavy = [i for i, w in enumerate(weight) if w == w1]
    if len(heavy) > 1:
        pairs = [(i, j) for a, i in enumerate(heavy) for j in heavy[a + 1:]]
    else:
        w2 = max(w for w in weight if w != w1)
        pairs = [(heavy[0], j) for j, w in enumerate(weight) if w == w2]
    pairs.sort(key=lambda p: sorted((walk_of(p[0]), walk_of(p[1]))))

    valued = []
    for i, j in pairs:
        hang, ex, ey = hull(corridor[i], corridor[j])
        valued.append((max(hang, cost[ex], cost[ey]), ex, ey))
    value = min(v for v, _, _ in valued)

    leaves = sorted((v for v in range(n) if len(adj[v]) == 1),
                    key=tree.labels.__getitem__)
    rank = {v: r for r, v in enumerate(leaves)}
    beyond = len(leaves)  # rank of no leaf: more than every real rank
    reach = sweep(lambda m, r: r if m <= value else beyond, rank.__getitem__)
    ends = min(tuple(sorted((reach[ex], reach[ey])))
               for v, ex, ey in valued if v == value)
    x, y = leaves[ends[0]], leaves[ends[1]]
    left, right = [x], [y]
    while left[-1] != right[-1]:
        deeper = left if depth[left[-1]] >= depth[right[-1]] else right
        deeper.append(parent[deeper[-1]])
    walk = left + right[-2::-1]
    on_path = {low[a] if parent[a] == b else low[b]
               for a, b in zip(walk, walk[1:])}
    heaviest = [walk_of(i) for i, (c, w) in enumerate(zip(corridor, weight))
                if w == value and c not in on_path]
    per_pair = tuple((tuple(sorted((walk_of(i), walk_of(j)))), v)
                     for (i, j), (v, _, _) in zip(pairs, valued))
    return (value, tuple(tree.labels[v] for v in walk),
            min(heaviest) if heaviest else None, per_pair)


def hp_tree(t: Graph) -> FormulaResult:
    """Closed-form index of a tree. Zero for paths, min-max otherwise."""
    if not is_tree(t):
        raise PreconditionError("the closed form applies to trees")
    if is_path(t):
        return FormulaResult(0, None, None, (), False)
    return FormulaResult(*_evaluate(t), False)


def bridge_reduction(g: Graph) -> Graph:
    """Contract each bridgeless piece of a connected graph to one vertex.

    The surviving edges are exactly the bridges, so the result is a tree.
    Contracted pieces are labeled by their sorted member tokens joined with
    "+" inside brackets, then primed ("'") while the label is an input token
    or an earlier piece's; single vertices keep their token.
    """
    return _reduce(g)[0]


def _reduce(g: Graph) -> tuple[Graph, frozenset[int]]:
    # the bridge reduction and its hubs (the contracted pieces), read off
    # the block decomposition's pieces, not parsed from labels
    if not is_connected(g):
        raise PreconditionError("bridge reduction needs a connected graph")
    piece = g.blocks.piece_of
    members: dict[int, list[str]] = {}
    for v in range(g.n):
        members.setdefault(piece[v], []).append(g.labels[v])
    label_of = {}
    taken = set(g.labels)
    for toks, root in sorted((sorted(toks), root) for root, toks in members.items()):
        name = toks[0] if len(toks) == 1 else "[" + "+".join(toks) + "]"
        while len(toks) > 1 and name in taken:
            name += "'"
        taken.add(name)
        label_of[root] = name
    labels = sorted(label_of.values())
    pos = {lab: i for i, lab in enumerate(labels)}
    edges = [(pos[label_of[piece[a]]], pos[label_of[piece[b]]])
             for a, b in g.edges if piece[a] != piece[b]]
    return (Graph(tuple(labels), edges),
            frozenset(pos[label_of[r]] for r, ms in members.items() if len(ms) > 1))


def hp_blockchain_conjecture(g: Graph,
                             budget: SearchBudget = DEFAULT_SEARCH_BUDGET,
                             ) -> FormulaResult:
    """Conjectural index of a connected graph whose cycle blocks all have
    spanning cycles.

    Trees fall through to the exact closed form. Otherwise the graph is
    bridge-reduced to a tree and the tree min-max runs over its branches cut
    at the hubs, the contracted pieces. Each cut piece is one bridge branch
    of g, weighted as in g: a branch ending on a hub is charged like one
    running into a junction, even where the hub is a leaf.

    The hypothesis is checked block by block. A 2-block in which every
    vertex has two neighbours inside the block is a cycle, its own spanning
    cycle, so it is not searched and never hits the search cap; every other
    2-block is searched, as `block_graph`, under `budget` and one deadline.
    """
    if not is_connected(g):
        raise PreconditionError("the conjectural formula needs a connected graph")
    if is_tree(g):
        return hp_tree(g)
    deadline = time.monotonic() + budget.time_limit_s
    searched = [b for b in g.blocks.two_blocks
                if any(len(b.intersection(g.adj[v])) != 2 for v in b)]
    for i, block in enumerate(searched):
        ok, _ = has_hamiltonian_cycle(block_graph(g, block),
                                      _time_left(budget, deadline) if i else budget)
        if not ok:
            raise PreconditionError(
                "the conjectural formula requires a spanning cycle in every "
                "cycle block")
    r, hubs = _reduce(g)
    if is_path(r):
        return FormulaResult(0, None, None, (), True)
    return FormulaResult(*_evaluate(r, hubs), True)


@dataclass(frozen=True)
class ExplorerRecord:
    """One formula-versus-oracle comparison, ready for a campaign report.

    The graph is kept as its vertex labels and index edges, the Graph's own
    tuples: a campaign keeps only its mismatches, but the benchmark in
    `perfbench/` holds every record it times. `graph_key` is computed on
    first access, so a campaign keys only the records it reports.
    """

    labels: tuple[str, ...]
    edges: tuple[tuple[int, int], ...]
    family_tag: str
    formula_value: int | None
    oracle_value: int | None
    verdict: str
    formula: FormulaResult | None
    oracle: IndexResult

    @property
    def graph(self) -> Graph:
        return Graph(self.labels, self.edges)

    @cached_property
    def graph_key(self) -> str:
        return graph_key(self.graph)

    @property
    def graph_edges(self) -> tuple[tuple[str, str], ...]:
        return self.graph.label_edges()

    def to_json_dict(self) -> dict:
        return {
            "graph_key": self.graph_key,
            "graph_edges": [list(e) for e in self.graph_edges],
            "family_tag": self.family_tag,
            "formula_value": self.formula_value,
            "oracle_value": ("capped" if self.oracle_value is None
                             else self.oracle_value),
            "verdict": self.verdict,
            "formula": None if self.formula is None else self.formula.to_json_dict(),
            "oracle": self.oracle.to_json_dict(),
        }


def compare_formula_oracle(g: Graph,
                           budget: SearchBudget = DEFAULT_SEARCH_BUDGET,
                           family_tag: str = "") -> ExplorerRecord:
    """Run the (possibly conjectural) formula and the exact stage loop side
    by side. The verdict is "agree", "mismatch", or "capped" when either ran
    out of budget before settling the value. One deadline covers both: the
    stage loop gets the time the formula left, and when none is left it is
    capped before its first search.
    """
    deadline = time.monotonic() + budget.time_limit_s
    try:
        formula = hp_blockchain_conjecture(g, budget)
        formula_value: int | None = formula.value
    except CappedError:
        formula, formula_value = None, None
    try:
        left = _time_left(budget, deadline)
    except CappedError as exc:
        oracle = IndexResult(None, (StageRecord(0, g.n, g.m, "capped"),),
                             None, str(exc))
    else:
        oracle = hp_oracle(g, left)
    if formula_value is None or oracle.value is None:
        verdict = "capped"
    else:
        verdict = "agree" if formula_value == oracle.value else "mismatch"
    return ExplorerRecord(g.labels, g.edges, family_tag, formula_value,
                          oracle.value, verdict, formula, oracle)
