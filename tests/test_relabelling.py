"""Labels are data: no value may depend on the vertex tokens.

Each graph is built again from its shuffled edges under two relabellings:
a random permutation of its own tokens, and hostile tokens that look like
the names the package makes itself (contracted pieces, line-graph vertices,
the fallback `e0`, the family's ring labels), non-ASCII text and tokens
over line_graph's 80-character name cap. hp_tree or the conjecture,
hp_oracle, h_oracle and both trail searches must give the same outcome, and
every witness replays on the graph it came from.
"""

import random

import networkx as nx
import pytest

from hpindex import (
    CappedError,
    FamilyParams,
    PreconditionError,
    SearchBudget,
    gen_hamiltonian_2block_family,
    graph_from_token_edges,
    h_oracle,
    has_dominating_trail,
    hp_blockchain_conjecture,
    hp_oracle,
    hp_tree,
    is_path,
    is_tree,
    iterate,
)
from hpindex.formula import bridge_reduction
from hpindex.oracles import check_cycle_witness, check_path_witness, check_trail_witness

# exact tiers only: a stage above 20 vertices is refused by its size, so no
# outcome hangs on the order in which a bounded search meets the vertices
BUDGET = SearchBudget(dp_vertex_cap=20, backtrack_vertex_cap=20)

HOSTILE = ("[a+b]", "a+b", "a.b", "a", "b.c", "c", "e0", "e1", "g0_1",
           "[a+b]'", "ünï", "頂点", "x" * 81)


def relabel(g, names, rng):
    edges = [(names[a], names[b]) if rng.random() < 0.5 else (names[b], names[a])
             for a, b in g.label_edges()]
    rng.shuffle(edges)
    return graph_from_token_edges(edges, isolated=[names[t] for t in g.labels])


def replay_walk(g, walk):
    idx = [g.index(t) for t in walk]
    assert len(set(idx)) == len(idx)
    assert all(g.has_edge(a, b) for a, b in zip(idx, idx[1:]))
    return idx


def formula_outcome(g):
    try:
        res = hp_tree(g) if is_tree(g) else hp_blockchain_conjecture(g, BUDGET)
    except PreconditionError as exc:
        return str(exc)
    if res.endpath is not None:
        r = g if is_tree(g) else bridge_reduction(g)
        ends = replay_walk(r, res.endpath)
        assert r.degree(ends[0]) == r.degree(ends[-1]) == 1
        for walk in ([res.off_path_branch] if res.off_path_branch else []):
            replay_walk(r, walk)
        for pair, _ in res.per_pair:
            for walk in pair:
                replay_walk(r, walk)
    return res.value, tuple(v for _, v in res.per_pair), res.conjectural


def outcome(g):
    """What a relabelling must keep; every witness is replayed on g."""
    out = [formula_outcome(g)]
    for oracle, check in ((hp_oracle, check_path_witness),
                          (h_oracle, check_cycle_witness)):
        if oracle is h_oracle and is_path(g):
            continue
        res = oracle(g, BUDGET)
        if res.witness is not None:
            check(iterate(g, res.value), res.witness)
        out.append((res.value, res.stages, res.capped_reason))
    for closed in (False, True):
        try:
            ok, walk = has_dominating_trail(g, BUDGET, closed=closed)
        except CappedError as exc:
            out.append(str(exc))
            continue
        if ok:
            check_trail_witness(g, walk, closed)
        out.append(ok)
    return out


def small_graphs():
    for h in nx.graph_atlas_g():
        if 1 <= h.number_of_nodes() <= 6 and nx.is_connected(h):
            yield graph_from_token_edges(
                [(str(a), str(b)) for a, b in h.edges()],
                isolated=[str(v) for v in h.nodes()])


def family_graphs():
    for g, _ in gen_hamiltonian_2block_family(FamilyParams(max_vertices=10)):
        yield g


@pytest.mark.parametrize("graphs, count", [
    pytest.param(small_graphs, 143, id="connected-6"),
    # about 30 s, most of it in h_oracle
    pytest.param(family_graphs, 663, id="family-10", marks=pytest.mark.slow),
])
def test_relabelling_changes_no_outcome(graphs, count):
    rng = random.Random(0)
    seen = 0
    for g in graphs():
        want = outcome(g)
        shuffled = list(g.labels)
        rng.shuffle(shuffled)
        assert outcome(relabel(g, dict(zip(g.labels, shuffled)), rng)) == want, \
            g.label_edges()
        hostile = dict(zip(g.labels, rng.sample(HOSTILE, g.n)))
        assert outcome(relabel(g, hostile, rng)) == want, g.label_edges()
        seen += 1
    assert seen == count
