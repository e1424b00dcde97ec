"""The endpath-listing min-max evaluator, kept as the reference.

`hpindex.formula._evaluate` used to be exactly `_evaluate` below: it lists
every endpath with `hpindex.branches.endpaths`, O(leaves^2 * n) of them
with their vertex walks, and scans them all. It also used to take its items
from the caller. Today it cuts them from the tree itself: each branch of
the (bridge-reduced) tree, cut at the hubs that stand for contracted pieces,
is one item, weighing its edge count when it ends at a leaf that is not a
hub and one more otherwise. `reference_items` builds the items the old way,
from `branches()` and `absorption_time` of the original graph, mapped onto
the reduced tree's labels, and `reference_formula` runs them through the
reference evaluator. The differential tests compare the whole (value,
endpath, off-path walk, per-pair values) tuple of both routes.

`maximal_pairs` and `candidate_endpaths` are the branch-level form of the
same scan, over the branches of a tree rather than evaluator items.

`junction_evaluate` is the junction-tree evaluator as it stood before its
loops were specialised: a BFS, then a second pass for depths, a climb of
every corridor, `max()` on scalars, and both sweeps as closures that call
their combine for every kid. It runs in O(n) plus the hull of every
maximal pair, so it reaches trees far beyond the endpath listing, and the
fast tests compare `formula._evaluate` with it output for output. It
shares `_exits` and `_largest3` with the package.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from hpindex.branches import (Branch, Endpath, absorption_time, branches,
                              endpaths)
from hpindex.errors import InternalCheckError
from hpindex.formula import (FormulaResult, PairValue, _exits, _largest3,
                             bridge_reduction)
from hpindex.graphs import Graph, bfs_tree, is_path, is_tree
from hpindex.io import to_edge_list


def reduction_label_map(g: Graph) -> dict[str, str]:
    """Token of each g vertex mapped to its bridge_reduction vertex token.

    Derived here without the package's reduction: the pieces are the
    components of g without its bridges, both found by networkx, and each is
    named by the rule `bridge_reduction` documents. A single vertex keeps its
    token. A larger piece joins its sorted member tokens with "+" inside
    brackets, primed while the name is an input token or an earlier piece's,
    the pieces going in the order of their sorted member lists.
    """
    h = nx.Graph()
    h.add_nodes_from(g.labels)
    h.add_edges_from(g.label_edges())
    h.remove_edges_from(list(nx.bridges(h)))
    taken = set(g.labels)
    out = {}
    for members in sorted(sorted(c) for c in nx.connected_components(h)):
        name = members[0] if len(members) == 1 else "[" + "+".join(members) + "]"
        while len(members) > 1 and name in taken:
            name += "'"
        taken.add(name)
        out.update(dict.fromkeys(members, name))
    return out


@dataclass(frozen=True)
class ReferenceItem:
    """An evaluator item with the edge set the reference tests containment by."""

    walk: tuple[str, ...]
    edges: frozenset[tuple[str, str]]
    weight: int


def reference_items(g: Graph) -> tuple[ReferenceItem, ...]:
    """The bridge branches of g, on its bridge reduction's labels.

    Each walk runs from its smaller end token and weighs the branch's
    absorption time in g. On a tree the reduction keeps every label.
    """
    to_r = reduction_label_map(g)
    items = []
    for b in branches(g):
        if not b.is_bridge_branch:
            continue
        walk = tuple(to_r[t] for t in b.vertices)
        if walk[-1] < walk[0]:
            walk = walk[::-1]
        items.append(ReferenceItem(
            walk,
            frozenset((x, y) if x <= y else (y, x)
                      for x, y in zip(walk, walk[1:])),
            absorption_time(b)))
    return tuple(items)


def reference_formula(g: Graph) -> FormulaResult:
    """`hp_tree` on a tree, else `hp_blockchain_conjecture`, by the reference.

    The spanning-cycle precondition on cycle blocks is not checked.
    """
    tree = is_tree(g)
    r = g if tree else bridge_reduction(g)
    if is_path(r):
        return FormulaResult(0, None, None, (), not tree)
    return FormulaResult(*_evaluate(r, reference_items(g)), not tree)


def _evaluate(tree: Graph, items: tuple[ReferenceItem, ...],
              ) -> tuple[int, tuple[str, ...], tuple[str, ...] | None,
                         tuple[PairValue, ...]]:
    """Min-max over endpaths of the heaviest item left off the endpath.

    Only endpaths containing a maximum-weight item pair compete. Ties break
    toward the lexicographically least leaf pair, and toward the least walk
    for the reported off-path item.
    """
    containment = []
    for ep in endpaths(tree):
        on_path = frozenset((a, b) if a <= b else (b, a)
                            for a, b in zip(ep.vertices, ep.vertices[1:]))
        inside = frozenset(i for i, it in enumerate(items)
                           if it.edges <= on_path)
        containment.append((ep, inside))

    best_sum = -1
    pairs: set[frozenset[int]] = set()
    for _, inside in containment:
        lst = sorted(inside)
        for a, i in enumerate(lst):
            for j in lst[a + 1:]:
                s = items[i].weight + items[j].weight
                if s > best_sum:
                    best_sum = s
                    pairs = {frozenset((i, j))}
                elif s == best_sum:
                    pairs.add(frozenset((i, j)))

    candidates = [(ep, inside) for ep, inside in containment
                  if any(p <= inside for p in pairs)]
    if not candidates:
        raise InternalCheckError("no endpath contains a maximal branch pair; "
                                 "witness graph:\n" + to_edge_list(tree))

    chosen = None
    chosen_value = -1
    for ep, inside in candidates:
        off = [it for i, it in enumerate(items) if i not in inside]
        value = max((it.weight for it in off), default=0)
        if chosen is None or value < chosen_value:
            chosen, chosen_value = (ep, off), value
    ep, off = chosen
    heavy = sorted((it.walk for it in off if it.weight == chosen_value))
    off_walk = heavy[0] if off else None

    per_pair: list[PairValue] = []
    for p in sorted(pairs, key=lambda p: sorted(items[i].walk for i in p)):
        walks = tuple(sorted(items[i].walk for i in p))
        vals = [max((it.weight for i2, it in enumerate(items) if i2 not in inside),
                    default=0)
                for _, inside in candidates if p <= inside]
        per_pair.append(((walks[0], walks[1]), min(vals) if vals else None))
    return chosen_value, ep.vertices, off_walk, tuple(per_pair)


@dataclass(frozen=True)
class CandidateEndpath:
    """An endpath witnessing a maximum-weight branch pair."""

    endpath: Endpath
    covered_pairs: tuple[frozenset[Branch], ...]


def _pair_key(pair: frozenset[Branch]) -> tuple[tuple[str, ...], ...]:
    return tuple(sorted(b.vertices for b in pair))


def _maximal_pairs(eps: tuple[Endpath, ...]) -> tuple[frozenset[Branch], ...]:
    best = -1
    pairs: set[frozenset[Branch]] = set()
    for ep in eps:
        inside = sorted(ep.contained, key=lambda b: b.vertices)
        for i, b1 in enumerate(inside):
            for b2 in inside[i + 1:]:
                s = absorption_time(b1) + absorption_time(b2)
                if s > best:
                    best = s
                    pairs = {frozenset((b1, b2))}
                elif s == best:
                    pairs.add(frozenset((b1, b2)))
    return tuple(sorted(pairs, key=_pair_key))


def maximal_pairs(t: Graph) -> tuple[frozenset[Branch], ...]:
    """Branch pairs sharing an endpath whose joint absorption time is maximal."""
    return _maximal_pairs(endpaths(t))


def candidate_endpaths(t: Graph) -> tuple[CandidateEndpath, ...]:
    """Endpaths containing at least one maximal branch pair.

    Every non-path tree has one: each of its endpaths crosses an interior
    junction and so carries at least two branches.
    """
    eps = endpaths(t)
    pairs = _maximal_pairs(eps)
    out = []
    for ep in eps:
        covered = tuple(sorted((p for p in pairs if p <= ep.contained),
                               key=_pair_key))
        if covered:
            out.append(CandidateEndpath(ep, covered))
    if not out:
        raise InternalCheckError("no endpath contains a maximal branch pair; "
                                 "witness graph:\n" + to_edge_list(t))
    return tuple(out)


def junction_evaluate(tree: Graph, hubs: frozenset[int] = frozenset(),
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
    leaf. One sweep up the junction tree gives the cost of going on below
    every corridor. Going on from a corridor's upper end, away from it, is
    read only when one corridor of a pair lies above the other, and is
    computed on that first read, top-down from the nearest junction whose
    entries are known or from the root, with O(d) work at a junction of
    degree d. V is the least pair value.

    Ties break as a scan of all endpaths in leaf-pair order would. A second
    sweep finds, in the same two directions and by the same rule, the least
    leaf by label reachable at cost at most V; the endpath joins the least
    such leaf pair over the pairs of value V. The off-path item is the least
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
    # more; top3[p] holds the three with the heaviest subtrees.
    sub = cw[:]
    for x in reversed(jorder[1:]):
        sub[jpar[x]] = max(sub[jpar[x]], sub[x])
    sib, side = [0] * n, [0] * n
    top3: dict[int, list[int]] = {}
    for p in jorder:
        ks = kids.get(p)
        if ks:
            s = [sub[k] for k in ks]
            t0, t1, t2 = _largest3(s)
            top3[p] = [ks[t] for t in (t0, t1, t2) if t >= 0]
            for i, x in enumerate(ks):
                sib[x] = s[t1] if i == t0 else s[t0]
                side[x] = max(cw[x], side[p], sib[x])

    def sweep(combine, leaf_value):
        # entry x: going on from junction x away from its parent junction,
        # filled for every x bottom-up; entry n + x: going on from x's parent
        # junction away from x, read only at the top of a nested pair's hull
        # and filled on first read: climb to the nearest junction whose up
        # entry is known, or to the root, then run _exits back down the path
        out = [None] * (2 * n)
        for x in reversed(jorder[1:]):
            out[x] = (min(combine(sib[k], out[k]) for k in kids[x])
                      if x in kids else leaf_value(x))

        def read(e: int):
            if out[e] is None:
                path = [jpar[e - n]]
                while path[-1] != root and out[n + path[-1]] is None:
                    path.append(jpar[path[-1]])
                for p in reversed(path):
                    ks = kids[p]
                    s = [sub[k] for k in ks]
                    f = [out[k] for k in ks]
                    if p != root:
                        s.append(side[p])
                        f.append(out[n + p])
                    for x, v in zip(ks, _exits(s, f, combine)):
                        out[n + x] = v
            return out[e]
        return read

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
        valued.append((max(hang, cost(ex), cost(ey)), ex, ey))
    value = min(v for v, _, _ in valued)

    leaves = sorted((v for v in range(n) if len(adj[v]) == 1),
                    key=tree.labels.__getitem__)
    rank = {v: r for r, v in enumerate(leaves)}
    beyond = len(leaves)  # rank of no leaf: more than every real rank
    reach = sweep(lambda m, r: r if m <= value else beyond, rank.__getitem__)
    ends = min(tuple(sorted((reach(ex), reach(ey))))
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
