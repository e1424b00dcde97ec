import networkx as nx
import pytest

from hpindex import (
    EdgeListParseError,
    Graph,
    ValidationError,
    canonical_key,
    from_edge_list,
    from_graph6,
    graph_from_token_edges,
    to_dot,
    to_edge_list,
    to_graph6,
)
from hpindex.formula import bridge_reduction
from shapes import (complete_graph, cycle_graph, path_graph,
                    random_connected_graph)
from conftest import nx_graph


def test_edge_list_basic():
    g = from_edge_list("a b\nb c  # tail comment\n\nv lonely\n")
    assert g.labels == ("a", "b", "c", "lonely")
    assert g.m == 2


def test_edge_list_roundtrip():
    g = from_edge_list("b a\na c\nv z\n")
    again = from_edge_list(to_edge_list(g))
    assert to_edge_list(again) == to_edge_list(g)
    assert canonical_key(again) == canonical_key(g)


@pytest.mark.parametrize("text", [
    "w v\nw x\n",    # the edge v-w sorts as "v w", which reads as a vertex line
    "a v\n",
    "v v1\nv1 v\n",  # an isolated-vertex line for v1, then the edge v-v1
    "v z\nz v\n",
    "v v\nv a\nb c\n",
])
def test_edge_list_roundtrip_with_a_vertex_named_v(text):
    g = from_edge_list(text)
    again = from_edge_list(to_edge_list(g))
    assert again.label_edges() == g.label_edges()
    assert set(again.labels) == set(g.labels)
    assert to_edge_list(again) == to_edge_list(g)


def test_edge_list_without_a_vertex_v_prints_sorted_pairs():
    g = from_edge_list("w u\nw x\nv a\n")
    assert to_edge_list(g) == "v a\nu w\nw x\n"


@pytest.mark.parametrize("label", ["a b", "a\tb", "a\nb", "a#b", "#", ""])
def test_edge_list_refuses_labels_it_cannot_write(label):
    # such text would split, comment out or drop the label when read back,
    # on an edge line ("a b c") or on an isolated-vertex line
    for g in (graph_from_token_edges([(label, "c")]),
              graph_from_token_edges([], isolated=[label])):
        with pytest.raises(ValidationError, match="cannot be written"):
            to_edge_list(g)


def test_edge_list_writes_contracted_piece_names():
    # bridge_reduction names its pieces "[a+b+c]" and primes a name that is
    # taken; these labels are not input tokens but hold no space or "#"
    g = graph_from_token_edges([("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"),
                                ("[a+b+c]", "x"), ("x", "y"), ("y", "[a+b+c]"),
                                ("d", "x")])
    r = bridge_reduction(g)
    assert "[a+b+c]'" in r.labels
    assert to_edge_list(r) == "[[a+b+c]+x+y] d\n[a+b+c]' d\n"


def test_edge_list_duplicate_edges_collapse():
    g = from_edge_list("a b\nb a\na b\n")
    assert g.m == 1


@pytest.mark.parametrize("text,line_no", [
    ("a b\nc\n", 2),
    ("a b c\n", 1),
    ("a a\n", 1),
    ("v\n", 1),
    ("a b!\n", 1),
])
def test_edge_list_errors_carry_line_numbers(text, line_no):
    with pytest.raises(EdgeListParseError) as exc:
        from_edge_list(text)
    assert exc.value.line_no == line_no


@pytest.mark.parametrize("text,message", [
    ("a b\nc! d\n", "line 2: bad vertex token 'c!'"),
    ("a b\n\nc d!\n", "line 3: bad vertex token 'd!'"),
    ("a b\nc! d!\n", "line 2: bad vertex token 'c!'"),
    ("a b\nc d e  # three\n", "line 2: expected two tokens, got 3"),
    ("a b\n# note\nc\n", "line 3: expected two tokens, got 1"),
    ("a b\nc c\n", "line 2: self-loop at 'c'"),
    ("a b\nc! c!\n", "line 2: bad vertex token 'c!'"),
    ("a b\nv c d\n", "line 2: vertex line must be 'v TOKEN'"),
    ("a b\n  v\n", "line 2: vertex line must be 'v TOKEN'"),
    ("a b\nv c?\n", "line 2: bad vertex token 'c?'"),
], ids=["bad-first", "bad-second", "both-bad", "three-tokens", "one-token",
        "self-loop", "bad-self-loop", "v-three-tokens", "v-alone", "v-bad"])
def test_edge_list_errors_are_pinned(text, message):
    with pytest.raises(EdgeListParseError) as exc:
        from_edge_list(text)
    assert str(exc.value) == message


# frozen vectors cross-checked against networkx's encoder below
G6_VECTORS = [
    (complete_graph(2), "A_"),
    (path_graph(4), "Ch"),
    (cycle_graph(4), "Cl"),
    (complete_graph(4), "C~"),
]


@pytest.mark.parametrize("g,encoded", G6_VECTORS)
def test_graph6_frozen_vectors(g, encoded):
    assert to_graph6(g) == encoded
    back = from_graph6(encoded)
    assert canonical_key(back) == canonical_key(g)


@pytest.mark.parametrize("seed", range(60))
def test_graph6_matches_networkx(seed):
    g = random_connected_graph(3 + seed % 10, seed % 4, seed)
    theirs = nx.to_graph6_bytes(nx_graph(g), header=False).decode().strip()
    # vertex order differs, so compare up to isomorphism via canonical keys
    assert canonical_key(from_graph6(theirs)) == canonical_key(g)
    assert canonical_key(from_graph6(to_graph6(g))) == canonical_key(g)


def test_graph6_header_accepted():
    assert from_graph6(">>graph6<<A_\n").m == 1


@pytest.mark.parametrize("text", [
    "",
    "A_\nA_\n",
    "C" + chr(40),
    "~~~",
])
def test_graph6_rejects_malformed(text):
    with pytest.raises(EdgeListParseError):
        from_graph6(text)


def test_dot_output():
    g = from_edge_list("a b\nv q\n")
    dot = to_dot(g, "H")
    assert dot == 'graph H {\n  "q";\n  "a" -- "b";\n}\n'


def test_dot_output_escapes_quotes_and_backslashes():
    g = Graph(('say"hi', "back\\slash", 'x\\"'), [(0, 1)])
    assert to_dot(g) == ('graph G {\n'
                         '  "x\\\\\\"";\n'
                         '  "back\\\\slash" -- "say\\"hi";\n'
                         '}\n')


@pytest.mark.parametrize("n", range(2, 122))
def test_graph6_is_byte_identical_to_networkx(n):
    # up to 121 vertices, so sizes above 62 use the 4-character size header
    g = random_connected_graph(n, (n * 7) % (2 * n), 1000 + n)
    theirs = nx.to_graph6_bytes(nx_graph(g), header=False).decode().rstrip("\n")
    assert to_graph6(g) == theirs
    back = from_graph6(theirs)
    assert back.n == g.n and back.edges == g.edges


@pytest.mark.parametrize("text,line_no,message", [
    ("", 1, "expected exactly one graph6 line, got 0"),
    ("A_\nA_\n", 2, "expected exactly one graph6 line, got 2"),
    ("C" + chr(40), 1, "graph6 characters must be in the range 63..126"),
    (">>graph6<<", 1, "empty graph6 line"),
    ("~~~", 1, "unsupported graph6 size prefix"),
    ("~~??", 1, "unsupported graph6 size prefix"),
    ("A", 1, "graph6 body has the wrong length"),
    ("C~~", 1, "graph6 body has the wrong length"),
    ("A`", 1, "nonzero padding bits in graph6 body"),
    ("Bx", 1, "nonzero padding bits in graph6 body"),
])
def test_graph6_rejections_are_pinned(text, line_no, message):
    with pytest.raises(EdgeListParseError) as exc:
        from_graph6(text)
    assert exc.value.line_no == line_no
    assert str(exc.value) == f"line {line_no}: {message}"
