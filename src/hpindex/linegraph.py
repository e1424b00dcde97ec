"""The line graph operation and its bounded iteration."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .errors import (BudgetExceededError, EdgeStarvationError, PreconditionError,
                     ValidationError)
from .graphs import Graph

_NAME_CAP = 80


@dataclass(frozen=True)
class IterationBudget:
    """Hard size limits for iterated line graphs."""

    max_vertices: int = 4096
    max_edges: int = 65536

    def __post_init__(self):
        if not (self.max_vertices >= 1 and self.max_edges >= 0):  # NaN fails
            raise ValidationError("iteration budget must be positive")


DEFAULT_ITERATION_BUDGET = IterationBudget()


@dataclass(frozen=True)
class LineGraphResult:
    """A line graph plus the map from its vertex names back to source edges."""

    graph: Graph
    provenance: dict[str, tuple[str, str]]


def predict_line_size(g: Graph) -> tuple[int, int]:
    """(vertices, edges) the line graph of g will have, without building it.

    The vertex count is |E(g)|; the edge count is the number of incident edge
    pairs, sum of C(deg v, 2).
    """
    return g.m, sum(d * (d - 1) // 2 for d in map(g.degree, range(g.n)))


def line_graph(g: Graph) -> LineGraphResult:
    """Line graph of g: one vertex per edge, adjacent when edges share an endpoint.

    Vertex names join the source edge's endpoint tokens as "a.b" (sorted).
    If any joined name exceeds a length cap or two names collide, all vertices
    fall back to opaque sequential names; the provenance map always recovers
    the source edge either way.
    """
    if g.m == 0:
        raise PreconditionError("line graph of an edgeless graph is undefined")
    token_edges = g.label_edges()
    names = [f"{a}.{b}" for a, b in token_edges]
    if len(set(names)) != len(names) or any(len(nm) > _NAME_CAP for nm in names):
        names = [f"e{i}" for i in range(len(token_edges))]

    incident: dict[str, list[int]] = {}
    for i, pair in enumerate(token_edges):
        for tok in pair:
            incident.setdefault(tok, []).append(i)
    # each list is ascending and two edges share at most one token, so every
    # line-graph edge comes out once, lower index first
    lg = Graph(tuple(names), [p for shared in incident.values()
                              for p in combinations(shared, 2)])
    return LineGraphResult(lg, dict(zip(names, token_edges)))


def iterate(g: Graph, n: int, budget: IterationBudget = DEFAULT_ITERATION_BUDGET) -> Graph:
    """n-fold line graph of g under a size budget; n=0 returns g itself."""
    graph, _ = iterate_with_provenance(g, n, budget)
    return graph


def iterate_with_provenance(
        g: Graph, n: int, budget: IterationBudget = DEFAULT_ITERATION_BUDGET,
) -> tuple[Graph, tuple[dict[str, tuple[str, str]], ...]]:
    """Like iterate(), also returning every stage's vertex-to-edge map."""
    if n < 0:
        raise ValidationError("iteration count must be non-negative")
    cur = g
    chain: list[dict[str, tuple[str, str]]] = []
    for stage in range(1, n + 1):
        result = iteration_step(cur, stage, budget)
        cur = result.graph
        chain.append(result.provenance)
    return cur, tuple(chain)


def iteration_step(g: Graph, stage: int, budget: IterationBudget) -> LineGraphResult:
    """Line graph of g as iteration stage `stage`, checked against the budget.

    Raises EdgeStarvationError for an edgeless g and BudgetExceededError when
    the predicted size is over budget, before anything is built.
    """
    if g.m == 0:
        raise EdgeStarvationError(stage)
    pv, pe = predict_line_size(g)
    if pv > budget.max_vertices or pe > budget.max_edges:
        raise BudgetExceededError(stage, pv, pe, budget.max_vertices, budget.max_edges)
    return line_graph(g)


def original_edge_support(vertex: str, chain: tuple[dict[str, tuple[str, str]], ...],
                          ) -> frozenset[tuple[str, str]]:
    """Edges of the stage-0 graph underlying a vertex of the final iterate.

    `chain` is the provenance from iterate_with_provenance. A stage-k vertex
    unwinds to a pair of stage-(k-1) vertices and so on; the last unwinding
    step through chain[0] lands on original edges as sorted token pairs.
    """
    if not chain:
        return frozenset()
    frontier = {vertex}
    for prov in reversed(chain[1:]):
        nxt: set[str] = set()
        for v in frontier:
            nxt.update(prov[v])
        frontier = nxt
    return frozenset(chain[0][v] for v in frontier)
