"""Reading and writing graphs: edge-list text, graph6, DOT."""

from __future__ import annotations

import re

from .errors import EdgeListParseError, ValidationError
from .graphs import Graph

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


def to_edge_list(g: Graph) -> str:
    """Serialize to edge-list text. Deterministic: edges sorted by token pair.

    A line opening with the token ``v`` declares a vertex, so an edge at a
    vertex named ``v`` is written with its other token first. An empty label,
    or one holding whitespace or ``#``, raises ValidationError.
    """
    if bad := [tok for tok in g.labels if not tok or re.search(r"[\s#]", tok)]:
        raise ValidationError(f"label {bad[0]!r} cannot be written as an edge-list token")
    isolated = sorted(g.labels[v] for v in range(g.n) if g.degree(v) == 0)
    lines = [f"v {tok}" for tok in isolated]
    lines.extend(f"{b} {a}" if a == "v" else f"{a} {b}"
                 for a, b in g.label_edges())
    return "\n".join(lines) + ("\n" if lines else "")


_G6_HEADER = ">>graph6<<"


def from_graph6(text: str) -> Graph:
    """Decode a single graph6 line (optional ``>>graph6<<`` header)."""
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if len(lines) != 1:
        raise EdgeListParseError(
            max(1, len(lines)), f"expected exactly one graph6 line, got {len(lines)}")
    line = lines[0]
    if line.startswith(_G6_HEADER):
        line = line[len(_G6_HEADER):]
    data = [ord(c) - 63 for c in line]
    if any(d < 0 or d > 63 for d in data):
        raise EdgeListParseError(1, "graph6 characters must be in the range 63..126")
    if not data:
        raise EdgeListParseError(1, "empty graph6 line")

    if data[0] < 63:
        n = data[0]
        body = data[1:]
    else:
        if len(data) < 4 or data[1] == 63:
            raise EdgeListParseError(1, "unsupported graph6 size prefix")
        n = (data[1] << 12) | (data[2] << 6) | data[3]
        body = data[4:]

    nbits = n * (n - 1) // 2
    if len(body) != (nbits + 5) // 6:
        raise EdgeListParseError(1, "graph6 body has the wrong length")
    # six bits per character, most significant first
    bits = "".join(f"{d:06b}" for d in body)
    if "1" in bits[nbits:]:
        raise EdgeListParseError(1, "nonzero padding bits in graph6 body")
    # the upper triangle column by column: (0,1), (0,2), (1,2), (0,3), ...
    pairs = [p for p, bit in zip(((i, j) for j in range(1, n) for i in range(j)), bits)
             if bit == "1"]
    return Graph(tuple(str(i) for i in range(n)), pairs)


def to_graph6(g: Graph) -> str:
    """Encode as graph6 (vertex order = construction order)."""
    n = g.n
    if n > 258047:
        raise ValidationError("graph too large for this graph6 encoder")
    if n <= 62:
        head = [n]
    else:
        head = [63, (n >> 12) & 63, (n >> 6) & 63, n & 63]
    # the upper triangle column by column, column j holding rows 0..j-1
    # most significant first, then zero padding to whole characters
    body = 0
    for j in range(1, n):
        body = body << j | sum(1 << (j - 1 - i) for i in g.adj[j] if i < j)
    nbits = n * (n - 1) // 2
    width = (nbits + 5) // 6 * 6
    bits = f"{body << (width - nbits):0{width}b}"
    return "".join(chr(63 + d) for d in head) + "".join(
        chr(63 + int(bits[k:k + 6], 2)) for k in range(0, width, 6))


def _dot_quote(tok: str) -> str:
    return '"' + tok.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: Graph, name: str = "G") -> str:
    """Render as an undirected DOT graph."""
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        if g.degree(v) == 0:
            lines.append(f"  {_dot_quote(g.labels[v])};")
    for a, b in g.label_edges():
        lines.append(f"  {_dot_quote(a)} -- {_dot_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
