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
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from hpindex.branches import (Branch, Endpath, absorption_time, branches,
                              endpaths)
from hpindex.errors import InternalCheckError
from hpindex.formula import FormulaResult, PairValue, bridge_reduction
from hpindex.graphs import Graph, is_path, is_tree
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
