"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: EdgeListParseError, ValidationError and
the PreconditionError family (EdgeStarvationError included) exit 2; the
CappedError family (TooLargeError and BudgetExceededError included) exits 1.
"""

from __future__ import annotations


class HPIndexError(Exception):
    """Base class for all package-specific errors."""


class EdgeListParseError(HPIndexError):
    """Malformed edge-list or graph6 input. Carries a 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ValidationError(HPIndexError):
    """Structurally invalid data: self-loops, bad parameters, out-of-range sizes."""


class PreconditionError(HPIndexError):
    """Input outside an operation's stated domain (disconnected, not a tree, ...)."""


class CappedError(HPIndexError):
    """An exact search ran out of time or size budget. Never a wrong answer."""


class TooLargeError(CappedError):
    """Instance exceeds a hard feasibility cap (canonicalization size, search blowup)."""


class BudgetExceededError(CappedError):
    """An iterated line graph would outgrow the configured budget."""

    def __init__(self, stage: int, predicted_vertices: int, predicted_edges: int,
                 max_vertices: int, max_edges: int):
        super().__init__(
            f"stage {stage}: predicted size |V|={predicted_vertices}, "
            f"|E|={predicted_edges} exceeds budget ({max_vertices}, {max_edges})"
        )
        self.stage = stage
        self.predicted_vertices = predicted_vertices
        self.predicted_edges = predicted_edges


class EdgeStarvationError(PreconditionError):
    """Iteration asked to take the line graph of an edgeless graph."""

    def __init__(self, stage: int):
        super().__init__(f"stage {stage}: graph has no edges left to iterate")
        self.stage = stage


class InternalCheckError(HPIndexError):
    """A built-in consistency check failed, e.g. a witness did not replay.

    Indicates a bug in this package, not bad input.
    """


class EmptyCandidateError(InternalCheckError):
    """The min-max evaluator found fewer than two items on its tree.

    Unreachable on trees that are not paths, which have three branches or
    more; the graph is serialized into the message so a report can be filed.
    """

    def __init__(self, witness_edge_list: str):
        super().__init__(
            "no endpath contains a maximal branch pair; witness graph:\n"
            + witness_edge_list
        )
        self.witness_edge_list = witness_edge_list
