"""Verification campaigns and the conclusion explorer.

Each campaign walks a declared instance family, tallies verdicts, and packs
the result into a CampaignReport. Report bodies are deterministic byte for
byte: parameters are echoed in full, witnesses are sorted by canonical key,
and the wall clock lives outside the body. A rerun with the same parameters
and seed must reproduce the body exactly.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Any

from .canon import graph_key
from .errors import CappedError, ValidationError
from .formula import compare_formula_oracle
from .generators import (
    FREE_TREE_CAP,
    LABELED_GRAPH_CAP,
    FamilyParams,
    enumerate_connected_graphs,
    enumerate_free_trees,
    gen_hamiltonian_2block_family,
)
from .graphs import Graph
from .linegraph import line_graph
from .oracles import (
    DEFAULT_SEARCH_BUDGET,
    SearchBudget,
    has_dominating_trail,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
)
from .version import __version__

VERDICTS = ("agree", "mismatch", "capped")


@dataclass(frozen=True)
class CampaignReport:
    """Summary of one campaign run.

    `counts` maps each verdict to how many instances landed there and always
    carries all three keys; the counts sum to `instances`. `witnesses` holds
    the full record of every mismatch, sorted by canonical graph key.
    """

    campaign: str
    parameters: dict[str, Any]
    seed: int | None
    instances: int
    counts: dict[str, int]
    witnesses: tuple[dict[str, Any], ...]
    wall_clock_s: float

    def __post_init__(self) -> None:
        if sorted(self.counts) != sorted(VERDICTS):
            raise ValidationError("campaign counts must cover exactly the verdicts")
        if sum(self.counts.values()) != self.instances:
            raise ValidationError("campaign counts must sum to instances processed")

    def body_dict(self) -> dict[str, Any]:
        """Everything except the wall clock; the reproducible part."""
        return {
            "campaign": self.campaign,
            "version": __version__,
            "parameters": self.parameters,
            "seed": self.seed,
            "instances": self.instances,
            "counts": {v: self.counts[v] for v in VERDICTS},
            "witnesses": list(self.witnesses),
        }

    def body_bytes(self) -> bytes:
        return json.dumps(self.body_dict(), sort_keys=True, indent=2).encode()

    def to_json_dict(self) -> dict[str, Any]:
        out = self.body_dict()
        out["wall_clock_s"] = self.wall_clock_s
        return out


def _run(campaign: str, parameters: dict[str, Any], seed: int | None,
         records) -> CampaignReport:
    """Report on the records as they arrive, timed from the first.

    Records are objects with `verdict`, `graph_key` and `to_json_dict()`.
    Only the mismatches are kept and keyed; their sort by graph key is
    stable, so ties keep their run order.
    """
    start = time.monotonic()
    counts = {v: 0 for v in VERDICTS}
    mismatches = []
    for rec in records:
        counts[rec.verdict] += 1
        if rec.verdict == "mismatch":
            mismatches.append(rec)
    mismatches.sort(key=lambda r: r.graph_key)
    return CampaignReport(campaign, parameters, seed, sum(counts.values()), counts,
                          tuple(r.to_json_dict() for r in mismatches),
                          time.monotonic() - start)


def verify_trees(max_n: int,
                 budget: SearchBudget = DEFAULT_SEARCH_BUDGET) -> CampaignReport:
    """Tree formula versus the iterated-line-graph oracle, all trees <= max_n."""
    if not 1 <= max_n <= FREE_TREE_CAP:
        raise ValidationError(f"verify trees supports max_n in 1..{FREE_TREE_CAP}")
    return _run("verify-trees", {"max_n": max_n}, None,
                (compare_formula_oracle(tree, budget, f"T{n}.{i}")
                 for n in range(1, max_n + 1)
                 for i, tree in enumerate(enumerate_free_trees(n))))


@dataclass(frozen=True)
class _TrailRecord:
    """One dominating-trail versus line-graph comparison; `trail_ok` and
    `line_ok` are None when their search was capped."""

    graph: Graph
    family_tag: str
    kind: str
    trail_ok: bool | None
    line_ok: bool | None

    @property
    def verdict(self) -> str:
        if self.trail_ok is None or self.line_ok is None:
            return "capped"
        return "agree" if self.trail_ok == self.line_ok else "mismatch"

    @cached_property
    def graph_key(self) -> str:
        return graph_key(self.graph)

    def to_json_dict(self) -> dict[str, Any]:
        return {
            "graph_key": self.graph_key,
            "graph_edges": [list(e) for e in self.graph.label_edges()],
            "family_tag": self.family_tag,
            self.kind: "capped" if self.trail_ok is None else self.trail_ok,
            "line_graph_ok": self.line_ok,
            "verdict": self.verdict,
        }


def _verify_trail_criterion(name: str, max_n: int, min_edges: int, closed: bool,
                            budget: SearchBudget) -> CampaignReport:
    if not 2 <= max_n <= LABELED_GRAPH_CAP:
        raise ValidationError(
            f"{name} supports max_n in 2..{LABELED_GRAPH_CAP}")
    kind = "dominating_closed_trail" if closed else "dominating_trail"
    search = has_hamiltonian_cycle if closed else has_hamiltonian_path

    def records():
        for n in range(2, max_n + 1):
            for i, g in enumerate(enumerate_connected_graphs(n)):
                if g.m < min_edges:
                    continue
                lg = line_graph(g).graph
                try:
                    line_ok, _ = search(lg, budget)
                except CappedError:
                    line_ok = None
                try:
                    trail_ok, _ = has_dominating_trail(g, budget, closed=closed)
                except CappedError:
                    trail_ok = None
                yield _TrailRecord(g, f"n{n}.{i}", kind, trail_ok, line_ok)

    return _run(name, {"max_n": max_n}, None, records())


def verify_xiongzong(max_n: int,
                     budget: SearchBudget = DEFAULT_SEARCH_BUDGET) -> CampaignReport:
    """Dominating trail in g versus traceable L(g), exhaustively for n <= max_n."""
    return _verify_trail_criterion("verify-xiongzong", max_n, 1, False, budget)


def verify_hnw(max_n: int,
               budget: SearchBudget = DEFAULT_SEARCH_BUDGET) -> CampaignReport:
    """Dominating closed trail versus hamiltonian L(g), needs >= 3 edges."""
    return _verify_trail_criterion("verify-hnw", max_n, 3, True, budget)


def explore_conclusion(params: FamilyParams,
                       budget: SearchBudget = DEFAULT_SEARCH_BUDGET,
                       ) -> CampaignReport:
    """Hunt for graphs where the block-chain formula misses the true index.

    Runs the formula-versus-oracle comparison across the glued-cycle family.
    Every mismatch goes into the witness list with its full structure; a
    clean run produces an honest negative report over the family searched.
    """
    parameters = {
        "max_vertices": params.max_vertices,
        "cycle_sizes": sorted(set(params.cycle_sizes)),
        "base_tree_source": params.base_tree_source,
        "include_bases": params.include_bases,
        "random_bases": params.random_bases,
    }
    return _run("explore-conclusion", parameters, params.seed,
                (compare_formula_oracle(g, budget, tag)
                 for g, tag in gen_hamiltonian_2block_family(params)))
