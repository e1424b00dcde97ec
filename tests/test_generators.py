"""Tree/graph enumeration and the glued-cycle family.

The free-tree stream is checked against two independent oracles: the
Otter-style counting recurrence and a brute-force Pruefer decode of every
labeled tree. Labeled graph enumeration is checked against the
inclusion-exclusion count.
"""

import gc
import re

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpindex import (
    FamilyParams,
    PreconditionError,
    SplitMix64,
    ValidationError,
    canonical_key,
    enumerate_connected_graphs,
    enumerate_free_trees,
    from_edge_list,
    from_graph6,
    gen_hamiltonian_2block_family,
    graph_from_token_edges,
    graph_key,
    hp_blockchain_conjecture,
    is_connected,
    is_tree,
    random_tree,
    to_edge_list,
    to_graph6,
)
from hpindex.graphs import Graph

from conftest import nx_graph
from reference_trees import (
    connected_graph_counts,
    free_tree_counts,
    rooted_tree_counts,
)
from shapes import random_connected_graph, spider


# ------------------------------------------------------------- count oracles


def test_rooted_tree_count_pins():
    # classical sequence, first ten terms by hand
    assert rooted_tree_counts(10)[1:] == [1, 1, 2, 4, 9, 20, 48, 115, 286, 719]


def test_free_tree_count_pins():
    expected = [1, 1, 1, 2, 3, 6, 11, 23, 47, 106, 235, 551, 1301, 3159]
    assert free_tree_counts(14)[1:] == expected


def test_connected_labeled_count_pins():
    assert connected_graph_counts(6)[1:] == [1, 1, 4, 38, 728, 26704]


# --------------------------------------------------------------- free trees


def test_free_tree_stream_matches_counts():
    counts = free_tree_counts(12)
    for n in range(1, 13):
        assert sum(1 for _ in enumerate_free_trees(n)) == counts[n], n


@pytest.mark.slow
def test_free_tree_stream_matches_counts_large():
    counts = free_tree_counts(14)
    for n in (13, 14):
        assert sum(1 for _ in enumerate_free_trees(n)) == counts[n], n


def test_free_tree_stream_members_are_trees():
    for n in range(1, 10):
        keys = set()
        for t in enumerate_free_trees(n):
            assert t.labels == tuple(str(i + 1) for i in range(n))
            assert is_tree(t)
            keys.add(graph_key(t))
        assert len(keys) == free_tree_counts(n)[n]


def test_free_tree_bounds_rejected():
    with pytest.raises(ValidationError):
        list(enumerate_free_trees(0))
    with pytest.raises(ValidationError):
        list(enumerate_free_trees(15))


def _pruefer_decode(n: int, seq: tuple[int, ...]) -> Graph:
    # test-side reimplementation, deliberately independent of the package
    deg = [1] * n
    for v in seq:
        deg[v] += 1
    edges = []
    for v in seq:
        leaf = min(u for u in range(n) if deg[u] == 1)
        edges.append((leaf, v))
        deg[leaf] -= 1
        deg[v] -= 1
    last = [u for u in range(n) if deg[u] == 1]
    edges.append((last[0], last[1]))
    return Graph(tuple(str(i + 1) for i in range(n)), edges)


def _ahu_key(t: Graph) -> str:
    """Centre-rooted AHU code of a tree, a complete isomorphism invariant.

    Leaves are peeled layer by layer down to the centre or bicentre; the key
    is the least sorted-parenthesis encoding of the tree rooted there. It is
    test-side and shares no code with the package's canonical forms.
    """
    deg = [len(a) for a in t.adj]
    layer = [v for v in range(t.n) if deg[v] <= 1]
    left = t.n
    while left > 2:
        left -= len(layer)
        nxt = []
        for v in layer:
            for w in t.adj[v]:
                deg[w] -= 1
                if deg[w] == 1:
                    nxt.append(w)
        layer = nxt

    def code(v: int, parent: int) -> str:
        return "(" + "".join(sorted(code(w, v) for w in t.adj[v]
                                    if w != parent)) + ")"

    return min(code(c, -1) for c in layer)


def _pruefer_key_set(n: int) -> set[str]:
    if n <= 2:
        return {_ahu_key(Graph(tuple(str(i + 1) for i in range(n)),
                               [(0, 1)] if n == 2 else []))}
    keys = set()
    seqs = [()]
    for _ in range(n - 2):
        seqs = [s + (v,) for s in seqs for v in range(n)]
    for seq in seqs:
        keys.add(_ahu_key(_pruefer_decode(n, seq)))
    return keys


# unlabelled trees on n vertices (OEIS A000055)
FREE_TREE_CLASSES = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3, 6: 6, 7: 11, 8: 23}


def test_free_trees_cover_every_isomorphism_class():
    # all n^(n-2) labeled trees collapse onto exactly the enumerated classes
    for n in range(1, 8):
        enumerated = {_ahu_key(t) for t in enumerate_free_trees(n)}
        assert enumerated == _pruefer_key_set(n), n
        assert len(enumerated) == FREE_TREE_CLASSES[n], n


@pytest.mark.slow
def test_free_trees_cover_every_isomorphism_class_n8():
    enumerated = {_ahu_key(t) for t in enumerate_free_trees(8)}
    assert enumerated == _pruefer_key_set(8)
    assert len(enumerated) == FREE_TREE_CLASSES[8]


# ------------------------------------------------------------ labeled graphs


def test_connected_enumeration_matches_counts():
    counts = connected_graph_counts(5)
    for n in range(2, 6):
        assert sum(1 for _ in enumerate_connected_graphs(n)) == counts[n], n


def test_connected_enumeration_members():
    seen = set()
    for g in enumerate_connected_graphs(4):
        assert g.n == 4
        assert is_connected(g)
        seen.add((g.labels, g.edges))
    assert len(seen) == 38


def test_connected_enumeration_bounds_rejected():
    with pytest.raises(ValidationError):
        list(enumerate_connected_graphs(1))
    with pytest.raises(ValidationError):
        list(enumerate_connected_graphs(7))


# -------------------------------------------------------------- random draws


def test_below_rejects_an_empty_range():
    with pytest.raises(ValidationError, match=r"^below\(\) needs n >= 1$"):
        SplitMix64(0).below(0)


def test_random_tree_is_deterministic():
    a = random_tree(5, 1)
    b = random_tree(5, 1)
    assert a.label_edges() == b.label_edges()


def test_random_tree_two_vertices():
    for seed in (0, 1, 99):
        assert random_tree(2, seed).label_edges() == (("1", "2"),)


def test_random_tree_always_a_tree():
    for seed in range(1000):
        t = random_tree(9, seed)
        assert t.n == 9
        assert is_tree(t)


def test_random_tree_varies_with_seed():
    keys = {graph_key(random_tree(8, seed)) for seed in range(40)}
    assert len(keys) > 1


def test_random_tree_rejects_tiny():
    with pytest.raises(PreconditionError):
        random_tree(1, 0)


@given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=2**63))
@settings(max_examples=60, deadline=None)
def test_random_tree_property(n, seed):
    t = random_tree(n, seed)
    assert t.n == n and t.m == n - 1
    assert is_tree(t)


def test_random_connected_graph_edge_budget():
    g = random_connected_graph(8, 3, 7)
    assert is_connected(g)
    assert g.n == 8 and g.m == 10
    assert random_connected_graph(8, 3, 7).edges == g.edges


def test_random_connected_graph_saturates():
    g = random_connected_graph(5, 100, 3)
    assert g.m == 10


def test_random_connected_graph_rejections():
    with pytest.raises(PreconditionError):
        random_connected_graph(1, 0, 0)
    with pytest.raises(ValidationError):
        random_connected_graph(5, -1, 0)


# ----------------------------------------------------------- explorer family


def test_family_params_validation():
    for bad in (
        dict(max_vertices=0),
        dict(max_vertices=15),
        dict(cycle_sizes=()),
        dict(cycle_sizes=(3, 2)),
        dict(base_tree_source="mystery"),
        dict(base_tree_source="random"),
    ):
        with pytest.raises(ValidationError):
            FamilyParams(**bad)


@pytest.mark.parametrize("bad", [
    dict(max_vertices=True),
    dict(max_vertices=5.0),
    dict(random_bases=True),
    dict(base_tree_source="random", random_bases=1.5),
    dict(seed=True),
    dict(base_tree_source="random", random_bases=2, seed="1"),
    dict(include_bases=1),
    dict(cycle_sizes=(3.5,)),
    dict(cycle_sizes=(3, 4.0)),
    dict(cycle_sizes="3"),
    dict(cycle_sizes=3),
], ids=repr)
def test_family_params_refuse_other_types(bad):
    # a bool would be echoed into the explore report body, and a float or
    # a str would fail inside the generator
    with pytest.raises(ValidationError):
        FamilyParams(**bad)


def test_family_contains_known_members():
    params = FamilyParams(max_vertices=9, cycle_sizes=(3,))
    keys = {graph_key(g) for g, _ in gen_hamiltonian_2block_family(params)}

    triangle_with_tail = graph_from_token_edges(
        [("a", "b"), ("b", "c"), ("c", "a"), ("a", "d"), ("d", "e")]
    )
    assert graph_key(triangle_with_tail) in keys

    base = spider(2, 2, 2)
    tip = "L0_2"
    glued = graph_from_token_edges(
        list(base.label_edges()) + [(tip, "x1"), ("x1", "x2"), ("x2", tip)]
    )
    assert glued.n == 9
    assert graph_key(glued) in keys


def test_family_tags_and_budget():
    params = FamilyParams(max_vertices=10, cycle_sizes=(3, 5))
    tag_re = re.compile(r"T\d+\.\d+(\+C\d+@[A-Za-z0-9_.-]+)*\Z")
    count = 0
    for g, tag in gen_hamiltonian_2block_family(params):
        assert g.n <= 10
        assert tag_re.match(tag), tag
        count += 1
    assert count > 100


def test_family_members_satisfy_conjecture_hypothesis():
    params = FamilyParams(max_vertices=8, cycle_sizes=(3, 4))
    for g, tag in gen_hamiltonian_2block_family(params):
        hp_blockchain_conjecture(g)  # must not raise PreconditionError


def test_family_has_no_isomorphic_duplicates():
    params = FamilyParams(max_vertices=7, cycle_sizes=(3, 4))
    graphs = [g for g, _ in gen_hamiltonian_2block_family(params)]
    keys = [graph_key(g) for g in graphs]
    assert len(keys) == len(set(keys))
    # spot-check the key function against a second implementation
    small = [g for g in graphs if g.n <= 6]
    for i in range(len(small)):
        for j in range(i + 1, len(small)):
            assert not nx.is_isomorphic(nx_graph(small[i]), nx_graph(small[j]))


def test_family_without_bases_always_has_a_cycle():
    params = FamilyParams(max_vertices=7, cycle_sizes=(3,), include_bases=False)
    for g, tag in gen_hamiltonian_2block_family(params):
        assert g.m >= g.n
        assert "+C" in tag


def test_family_round_trips_through_serialization():
    params = FamilyParams(max_vertices=8, cycle_sizes=(3, 4))
    for g, _ in gen_hamiltonian_2block_family(params):
        key = canonical_key(g)
        assert canonical_key(from_edge_list(to_edge_list(g))) == key
        assert canonical_key(from_graph6(to_graph6(g))) == key


def test_family_random_bases_deterministic():
    params = FamilyParams(
        max_vertices=6, cycle_sizes=(3,), base_tree_source="random",
        random_bases=2, seed=5,
    )
    first = [(graph_key(g), tag) for g, tag in gen_hamiltonian_2block_family(params)]
    second = [(graph_key(g), tag) for g, tag in gen_hamiltonian_2block_family(params)]
    assert first == second
    assert first


@pytest.mark.parametrize("stream", [
    lambda: gen_hamiltonian_2block_family(
        FamilyParams(max_vertices=7, cycle_sizes=(3,))),
    lambda: enumerate_free_trees(9),
], ids=["family", "free-trees"])
def test_generators_leave_no_cyclic_garbage(stream):
    # nothing either stream builds refers to itself, so reference counting
    # frees it all and the cycle collector finds nothing
    gc.collect()
    gc.disable()
    try:
        for _ in stream():
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()
