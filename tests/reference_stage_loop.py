"""The stage loop as it was before the preimage screen, kept as the reference.

It builds every iterate L^k(g) and runs the public search on it, so a stage
over the vertex cap is settled by the search's own screen on the built
graph. The stage cap and the iteration budget end the loop as in
`oracles._stage_loop`, with the same reasons. Each search gets the whole
budget: there is no deadline over the loop and no trail cross-check.
"""

from __future__ import annotations

from hpindex import (CappedError, Graph, IndexResult, SearchBudget, StageRecord,
                     has_hamiltonian_cycle, has_hamiltonian_path, line_graph,
                     predict_line_size)


def reference_stage_loop(g: Graph, budget: SearchBudget, cycle: bool) -> IndexResult:
    """h_oracle(g, budget) when `cycle` is set, else hp_oracle(g, budget)."""
    search = has_hamiltonian_cycle if cycle else has_hamiltonian_path
    yes = "hamiltonian" if cycle else "traceable"
    stages: list[StageRecord] = []
    n = 0
    while True:
        try:
            ok, walk = search(g, budget)
        except CappedError as exc:
            stages.append(StageRecord(n, g.n, g.m, "capped"))
            return IndexResult(None, tuple(stages), None, str(exc))
        stages.append(StageRecord(n, g.n, g.m, yes if ok else "not-" + yes))
        if ok:
            return IndexResult(n, tuple(stages), walk)
        if n >= budget.stage_cap:
            return IndexResult(None, tuple(stages), None,
                               f"stage cap {budget.stage_cap} reached")
        n += 1
        pv, pe = predict_line_size(g)
        it = budget.iteration
        if pv > it.max_vertices or pe > it.max_edges:
            return IndexResult(None, tuple(stages), None,
                               f"stage {n}: predicted size |V|={pv}, |E|={pe} "
                               f"exceeds budget ({it.max_vertices}, {it.max_edges})")
        g = line_graph(g).graph
