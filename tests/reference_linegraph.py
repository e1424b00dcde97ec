"""The validating line-graph construction, kept as the reference.

`hpindex.linegraph.line_graph` used to hand its vertex pairs to
`Graph.__init__`, which checks every pair again and sorts through sets. It
now builds the sorted edge tuple itself and goes through `Graph._trusted`,
which derives the adjacency from it; the differential tests compare the two
field for field.

`iterate_with_provenance` and `original_edge_support` trace each vertex of
an iterate back to the edges of the stage-0 graph beneath it, for the tests
of how branches shrink under iteration.
"""

from __future__ import annotations

from itertools import combinations

from hpindex.graphs import Graph
from hpindex.linegraph import (_NAME_CAP, DEFAULT_ITERATION_BUDGET,
                               LineGraphResult, iteration_step)


def line_graph(g: Graph) -> LineGraphResult:
    token_edges = g.label_edges()
    names = [f"{a}.{b}" for a, b in token_edges]
    if len(set(names)) != len(names) or any(len(nm) > _NAME_CAP for nm in names):
        names = [f"e{i}" for i in range(len(token_edges))]

    incident: dict[str, list[int]] = {}
    for i, pair in enumerate(token_edges):
        for tok in pair:
            incident.setdefault(tok, []).append(i)
    lg = Graph(tuple(names), [p for shared in incident.values()
                              for p in combinations(shared, 2)])
    return LineGraphResult(lg, dict(zip(names, token_edges)))


def iterate_with_provenance(g: Graph, n: int,
                            ) -> tuple[Graph, tuple[dict[str, tuple[str, str]], ...]]:
    """The n-fold line graph of g and every stage's vertex-to-edge map."""
    maps = []
    for stage in range(1, n + 1):
        result = iteration_step(g, stage, DEFAULT_ITERATION_BUDGET)
        g = result.graph
        maps.append(result.provenance)
    return g, tuple(maps)


def original_edge_support(vertex: str, maps: tuple[dict[str, tuple[str, str]], ...],
                          ) -> frozenset[tuple[str, str]]:
    """Edges of the stage-0 graph underlying a vertex of the final iterate.

    `maps` comes from iterate_with_provenance. A stage-k vertex unwinds to a
    pair of stage-(k-1) vertices and so on; the last step, through maps[0],
    lands on original edges as sorted token pairs.
    """
    if not maps:
        return frozenset()
    frontier = {vertex}
    for prov in reversed(maps[1:]):
        frontier = {u for v in frontier for u in prov[v]}
    return frozenset(maps[0][v] for v in frontier)
