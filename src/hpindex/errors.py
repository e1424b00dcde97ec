"""Exception taxonomy shared across the package.

One class per outcome, and the CLI maps each onto an exit code:
EdgeListParseError, ValidationError and PreconditionError exit 2, CappedError
exits 1. InternalCheckError marks a fault in this package, and the CLI lets
it escape as a traceback.
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
    """A size, time or budget cap stopped an exact computation: too many
    vertices to canonicalize or search, a clock or node budget run out, an
    iterated line graph over its budget. Never a wrong answer."""


class InternalCheckError(HPIndexError):
    """A built-in consistency check failed, e.g. a witness did not replay.

    Indicates a bug in this package, not bad input.
    """

