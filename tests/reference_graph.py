"""The set-based `Graph.__init__`, kept as the reference.

`hpindex.graphs.Graph.__init__` used to keep one set of neighbours per
vertex next to its set of edges and sort each set. It now collects the
edges alone and derives the adjacency lists from their sorted tuple, as
`Graph._trusted` does for line graphs; the differential tests compare the
two field for field, and the first error on bad input.

`checked_edges` is the checking loop that followed. `Graph.__init__` now
reports a pair that does not unpack into two values as a ValidationError;
the tests compare its edges and first error with it.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from hpindex.errors import ValidationError


def graph_fields(labels: Sequence[str], edge_pairs: Iterable[tuple[int, int]]):
    """(labels, adj, edges) as the set-based constructor left them."""
    labels = tuple(labels)
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate vertex labels")
    n = len(labels)
    adj_sets: list[set[int]] = [set() for _ in range(n)]
    edges: set[tuple[int, int]] = set()
    for u, v in edge_pairs:
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError("edge endpoint out of range")
        if u == v:
            raise ValidationError(f"self-loop at vertex {labels[u]!r}")
        a, b = (u, v) if u < v else (v, u)
        edges.add((a, b))
        adj_sets[a].add(b)
        adj_sets[b].add(a)
    return (labels, tuple(tuple(sorted(s)) for s in adj_sets),
            tuple(sorted(edges)))


def checked_edges(labels: Sequence[str], edge_pairs: Iterable[tuple[int, int]]):
    """The edges as the one-tuple-per-pair constructor left them.

    A pair that does not unpack into two values escapes as the
    interpreter's TypeError or ValueError.
    """
    labels = tuple(labels)
    # exactly str: every reader sorts, joins and quotes labels as text
    if any(type(lab) is not str for lab in labels):
        raise ValidationError("vertex labels must be str")
    if len(set(labels)) != len(labels):
        raise ValidationError("duplicate vertex labels")
    n = len(labels)
    edges: set[tuple[int, int]] = set()
    for u, v in edge_pairs:
        # exactly int: bools and numpy integers would be stored as given
        if type(u) is not int or type(v) is not int:
            raise ValidationError("edge endpoints must be int indices")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError("edge endpoint out of range")
        if u == v:
            raise ValidationError(f"self-loop at vertex {labels[u]!r}")
        edges.add((u, v) if u < v else (v, u))
    return tuple(sorted(edges))
