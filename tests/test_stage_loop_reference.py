"""hp_oracle and h_oracle against the reference stage loop, which builds
every iterate and runs the public search on it. Under small vertex caps,
the oracles settle each stage over the cap past stage 0 by the screen read
off its preimage, without building it, while the reference searches the
built graph. The last two budgets' iteration budget ends some loops right
after such a stage, so its size comes from the screen's degrees. Each
oracle run must also build exactly the iterates that `must_build` names."""

from collections import Counter

import pytest

from hpindex import (FamilyParams, IterationBudget, SearchBudget,
                     enumerate_connected_graphs, gen_hamiltonian_2block_family,
                     h_oracle, hp_oracle, is_path)
from conftest import all_trees, count_builds, must_build
from reference_stage_loop import reference_stage_loop

BUDGETS = [SearchBudget(dp_vertex_cap=c, backtrack_vertex_cap=c, node_budget=20_000)
           for c in (3, 5, 8)] + [
    SearchBudget(dp_vertex_cap=c, backtrack_vertex_cap=c, node_budget=20_000,
                 iteration=IterationBudget(max_vertices=60, max_edges=400))
    for c in (5, 12)]


def _compare(graphs, monkeypatch) -> Counter:
    """Compare both loops on every graph under every budget, and check that
    the oracle builds exactly the iterates `must_build` names; count the
    stages settled "no" over the cap, the loops the iteration budget ends
    right after one, and the refusals."""
    built = count_builds(monkeypatch)
    seen: Counter = Counter()
    for budget in BUDGETS:
        cap = budget.backtrack_vertex_cap
        for g in graphs:
            for cycle, oracle in ((False, hp_oracle), (True, h_oracle)):
                if cycle and is_path(g):
                    continue
                want = reference_stage_loop(g, budget, cycle)
                built.clear()
                got = oracle(g, budget)
                assert got.to_json_dict() == want.to_json_dict(), (
                    g.label_edges(), cycle, budget)
                assert built == must_build(got, cap), (g.label_edges(), cycle, budget)
                over = [s for s in want.stages[1:] if s.vertices > cap]
                reason = want.capped_reason or ""
                seen["no"] += sum(s.verdict != "capped" for s in over)
                seen["no, then over budget"] += bool(
                    over and over[-1] == want.stages[-1] and "exceeds budget" in reason)
                seen["refusal"] += "search cap" in reason
    return seen


@pytest.mark.parametrize("n", range(2, 7))
def test_connected_graphs(n, monkeypatch):
    # every labelled graph to 5 vertices, every 16th on 6
    graphs = list(enumerate_connected_graphs(n))[::16 if n == 6 else 1]
    seen = _compare(graphs, monkeypatch)
    assert n < 5 or seen["no"] and seen["refusal"]


def test_glued_family_to_10_vertices(monkeypatch):
    family = gen_hamiltonian_2block_family(
        FamilyParams(max_vertices=10, cycle_sizes=(3, 4, 5)))
    assert all(_compare([g for g, _ in family], monkeypatch).values())


def test_free_trees_to_10_vertices(monkeypatch):
    assert all(_compare(all_trees(10), monkeypatch).values())
