"""The validating line-graph construction, kept as the reference.

`hpindex.linegraph.line_graph` used to hand its vertex pairs to
`Graph.__init__`, which checks every pair again and sorts through sets. It
now builds the sorted edge tuple itself and goes through `Graph._trusted`,
which derives the adjacency from it; the differential tests compare the two
field for field.

`iterate_with_provenance` and `original_edge_support` trace each vertex of
an iterate back to the edges of the stage-0 graph beneath it, for the tests
of how branches shrink under iteration. `trail_as_line_walk` carries a
dominating-trail witness over to the line graph, where the hamiltonian
witness checks replay it.
"""

from __future__ import annotations

from itertools import combinations

from hpindex import linegraph
from hpindex.graphs import Graph
from hpindex.linegraph import (_NAME_CAP, DEFAULT_ITERATION_BUDGET,
                               LineGraphResult, iteration_size)


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
        iteration_size(g, stage, DEFAULT_ITERATION_BUDGET)
        result = linegraph.line_graph(g)
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


def trail_as_line_walk(g: Graph, walk: tuple[str, ...],
                       provenance: dict[str, tuple[str, str]]) -> tuple[str, ...]:
    """A dominating trail w0 e1 w1 ... ek wk of g, given as its vertex walk,
    as a walk through L(g).

    The walk lists the off-trail edges at w0, then e1, then the off-trail
    edges at w1 not listed yet, then e2, and so on, ending with those at
    wk. Consecutive entries share a vertex of g, so an open trail gives a
    hamiltonian path of L(g) and a closed one a hamiltonian cycle. Each
    edge is named through `provenance`, L(g)'s vertex-to-edge map, by its
    token pair.
    """
    name = {pair: v for v, pair in provenance.items()}
    on_trail = {g.label_edge((g.index(a), g.index(b))) for a, b in zip(walk, walk[1:])}
    listed: set[tuple[str, str]] = set()
    out: list[str] = []

    def off_trail_at(x: str) -> None:
        v = g.index(x)
        for w in g.adj[v]:
            e = g.label_edge((v, w))
            if e not in on_trail and e not in listed:
                listed.add(e)
                out.append(name[e])

    off_trail_at(walk[0])
    for a, b in zip(walk, walk[1:]):
        out.append(name[g.label_edge((g.index(a), g.index(b)))])
        off_trail_at(b)
    return tuple(out)
