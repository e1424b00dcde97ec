"""The validating line-graph construction, kept as the reference.

`hpindex.linegraph.line_graph` used to hand its vertex pairs to
`Graph.__init__`, which checks every pair again and sorts through sets. It
now builds the sorted edge tuple itself and goes through `Graph._trusted`,
which derives the adjacency from it; the differential tests compare the two
field for field.
"""

from __future__ import annotations

from itertools import combinations

from hpindex.graphs import Graph
from hpindex.linegraph import _NAME_CAP, LineGraphResult


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
