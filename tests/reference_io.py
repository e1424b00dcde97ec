"""The line-by-line edge-list parser, kept as the reference.

`hpindex.io.from_edge_list` used to read every text one line at a time.
It now reads plain text, edge lines alone with no token ``v`` and no
self-loop, in one pass over all its tokens, and sends every other text
through the same line loop. The differential tests compare the two graph
for graph, and error for error. `from_edge_list` below is the parser as
it was.
"""

from __future__ import annotations

import re

from hpindex.errors import EdgeListParseError
from hpindex.graphs import Graph

TOKEN_RE = re.compile(r"[A-Za-z0-9_.-]+\Z")


def from_edge_list(text: str) -> Graph:
    """Parse edge-list text into a Graph.

    One edge per line as two whitespace-separated tokens; ``v TOKEN`` declares
    an isolated vertex; ``#`` starts a comment. Duplicate edges collapse
    silently, self-loops are rejected. Vertices appear in first-mention order.
    """
    order: dict[str, int] = {}
    pairs: list[tuple[int, int]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if not parts:
            continue
        if parts[0] == "v":
            if len(parts) != 2:
                raise EdgeListParseError(line_no, "vertex line must be 'v TOKEN'")
            # a token already in `order` has passed TOKEN_RE
            if parts[1] not in order and not TOKEN_RE.match(parts[1]):
                raise EdgeListParseError(line_no, f"bad vertex token {parts[1]!r}")
            order.setdefault(parts[1], len(order))
            continue
        if len(parts) != 2:
            raise EdgeListParseError(
                line_no, f"expected two tokens, got {len(parts)}")
        a, b = parts
        if a not in order and not TOKEN_RE.match(a):
            raise EdgeListParseError(line_no, f"bad vertex token {a!r}")
        if b not in order and not TOKEN_RE.match(b):
            raise EdgeListParseError(line_no, f"bad vertex token {b!r}")
        if a == b:
            raise EdgeListParseError(line_no, f"self-loop at {a!r}")
        pairs.append((order.setdefault(a, len(order)),
                      order.setdefault(b, len(order))))

    return Graph(tuple(order), pairs)

