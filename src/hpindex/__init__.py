"""Hamiltonian path index of iterated line graphs.

The package computes h_p(G), the least n for which the n-fold line graph of
G has a hamiltonian path: a closed-form evaluator for trees, an exact
iterated-search oracle for general graphs, dominating-trail checks, and the
enumeration/verification harness that compares them at scale.
"""

from .branches import Branch, absorption_time, branches
from .campaigns import (
    CampaignReport,
    explore_conclusion,
    verify_hnw,
    verify_trees,
    verify_xiongzong,
)
from .canon import canonical_key, graph_key
from .errors import (
    CappedError,
    EdgeListParseError,
    HPIndexError,
    InternalCheckError,
    PreconditionError,
    ValidationError,
)
from .formula import (
    ExplorerRecord,
    FormulaResult,
    compare_formula_oracle,
    hp_blockchain_conjecture,
    hp_tree,
)
from .generators import (
    FamilyParams,
    enumerate_connected_graphs,
    enumerate_free_trees,
    gen_hamiltonian_2block_family,
    random_tree,
)
from .graphs import (
    BlockDecomposition,
    Graph,
    blocks_and_cuts,
    graph_from_token_edges,
    is_connected,
    is_path,
    is_tree,
)
from .io import from_edge_list, from_graph6, to_dot, to_edge_list, to_graph6
from .linegraph import (
    IterationBudget,
    LineGraphResult,
    iterate,
    line_graph,
    predict_line_size,
)
from .oracles import (
    DEFAULT_SEARCH_BUDGET,
    IndexResult,
    SearchBudget,
    StageRecord,
    h_oracle,
    has_dominating_trail,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    hp_oracle,
)
from .rng import SplitMix64
from .version import __version__

__all__ = [
    "Branch",
    "BlockDecomposition",
    "CampaignReport",
    "CappedError",
    "DEFAULT_SEARCH_BUDGET",
    "EdgeListParseError",
    "ExplorerRecord",
    "FamilyParams",
    "FormulaResult",
    "Graph",
    "HPIndexError",
    "IndexResult",
    "InternalCheckError",
    "IterationBudget",
    "LineGraphResult",
    "PreconditionError",
    "SearchBudget",
    "SplitMix64",
    "StageRecord",
    "ValidationError",
    "absorption_time",
    "blocks_and_cuts",
    "branches",
    "canonical_key",
    "compare_formula_oracle",
    "enumerate_connected_graphs",
    "enumerate_free_trees",
    "explore_conclusion",
    "from_edge_list",
    "from_graph6",
    "gen_hamiltonian_2block_family",
    "graph_from_token_edges",
    "graph_key",
    "h_oracle",
    "has_dominating_trail",
    "has_hamiltonian_cycle",
    "has_hamiltonian_path",
    "hp_blockchain_conjecture",
    "hp_oracle",
    "hp_tree",
    "is_connected",
    "is_path",
    "is_tree",
    "iterate",
    "line_graph",
    "predict_line_size",
    "random_tree",
    "to_dot",
    "to_edge_list",
    "to_graph6",
    "verify_hnw",
    "verify_trees",
    "verify_xiongzong",
    "__version__",
]
