"""The line graph operation and its bounded iteration."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

from .errors import CappedError, PreconditionError, ValidationError
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

    The graph skips `Graph.__init__`'s checks through `Graph._trusted`,
    whose contract holds here: the names are distinct, and each pair below
    joins two different edges of g once, lower index first, so sorted they
    are ascending, distinct and in range.
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
    edges = sorted(chain.from_iterable(
        combinations(shared, 2) for shared in incident.values()))
    lg = Graph._trusted(tuple(names), tuple(edges))
    return LineGraphResult(lg, dict(zip(names, token_edges)))


def iterate(g: Graph, n: int, budget: IterationBudget = DEFAULT_ITERATION_BUDGET) -> Graph:
    """n-fold line graph of g under a size budget; n=0 returns g itself."""
    if n < 0:
        raise ValidationError("-n must be nonnegative")
    for stage in range(1, n + 1):
        iteration_size(predict_line_size(g), stage, budget)  # nothing over budget is built
        g = line_graph(g).graph
    return g


def iteration_size(size: tuple[int, int], stage: int, budget: IterationBudget,
                   ) -> tuple[int, int]:
    """`size`, stage `stage`'s predicted (vertices, edges), checked against
    the budget. Raises PreconditionError when the stage before is edgeless
    (no vertices) and CappedError when the size is over budget.
    """
    pv, pe = size
    if pv == 0:
        raise PreconditionError(f"stage {stage}: graph has no edges left to iterate")
    if pv > budget.max_vertices or pe > budget.max_edges:
        raise CappedError(f"stage {stage}: predicted size |V|={pv}, |E|={pe} "
                          f"exceeds budget ({budget.max_vertices}, {budget.max_edges})")
    return size

