import networkx as nx
import pytest

from hpindex import Graph, enumerate_free_trees, formula, linegraph, oracles
from shapes import cycle_graph, path_graph


def nx_graph(g: Graph) -> nx.Graph:
    """networkx copy of a Graph, for cross-checking against a second library."""
    h = nx.Graph()
    h.add_nodes_from(g.labels)
    h.add_edges_from(g.label_edges())
    return h


def is_block_chain(g: Graph) -> bool:
    """True when the block-cut tree of a connected graph is a path (single
    vertex included).

    The block-cut incidence tree is a path exactly when no node of it has
    degree three: no block with >2 cut vertices, no cut vertex in >2
    blocks. The blocks are the 2-blocks and the bridges, the edges between
    two pieces.
    """
    dec = g.blocks
    piece = dec.piece_of
    blocks = [*dec.two_blocks,
              *({a, b} for a, b in g.edges if piece[a] != piece[b])]
    cuts = dec.cut_vertices
    return (all(len(vs & cuts) <= 2 for vs in blocks)
            and all(sum(c in vs for vs in blocks) <= 2 for c in cuts))


def tadpole(n: int) -> Graph:
    """path_graph(n) with an edge closing a triangle at p0: p2 has degree
    three, so above the vertex cap the search refuses it."""
    g = path_graph(n)
    return Graph(g.labels, g.edges + ((0, 2),))


def chorded_cycle(n: int) -> Graph:
    """cycle_graph(n) with one chord, c0 to its opposite vertex: two-connected
    with two vertices of degree three, so above the vertex cap both searches
    refuse it."""
    g = cycle_graph(n)
    return Graph(g.labels, g.edges + ((0, n // 2),))


def count_builds(monkeypatch) -> list[int]:
    """Wrap line_graph wherever the stage loop might look it up; the list
    returned gets the vertex count of each graph it builds."""
    built = []
    real = linegraph.line_graph

    def counting(h):
        result = real(h)
        built.append(result.graph.n)
        return result

    for module in (linegraph, oracles):
        monkeypatch.setattr(module, "line_graph", counting, raising=False)
    return built


def must_build(res, cap: int = 40) -> list[int]:
    """The vertex counts of the stages past 0 that the loop builds: those
    it searches, on at most `cap` vertices, and those the next stage reads
    as its preimage, as that stage is over the cap."""
    st = res.stages
    return [s.vertices for k, s in enumerate(st) if k and (
        s.vertices <= cap or k + 1 < len(st) and st[k + 1].vertices > cap)]


def all_trees(max_n: int) -> list[Graph]:
    return [t for n in range(1, max_n + 1) for t in enumerate_free_trees(n)]


@pytest.fixture(scope="session")
def trees_to_9():
    return all_trees(9)


@pytest.fixture(scope="session")
def trees_to_11():
    return all_trees(11)


@pytest.fixture
def exits_calls(monkeypatch):
    """A one-item list counting the calls of `formula._exits`, which the
    evaluator makes only for the up entries its result reads."""
    fast = formula._exits
    calls = [0]

    def counted(s, f, combine):
        calls[0] += 1
        return fast(s, f, combine)

    monkeypatch.setattr(formula, "_exits", counted)
    return calls
