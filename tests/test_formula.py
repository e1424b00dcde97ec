import sys
import time
from collections import Counter

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpindex import (
    CappedError,
    Graph,
    PreconditionError,
    SearchBudget,
    StageRecord,
    blocks_and_cuts,
    compare_formula_oracle,
    enumerate_connected_graphs,
    graph_from_token_edges,
    hp_blockchain_conjecture,
    hp_oracle,
    hp_tree,
    is_path,
    line_graph,
    random_tree,
)
from hpindex import formula, oracles
from hpindex.formula import bridge_reduction
from reference_formula import reduction_label_map
from shapes import cycle_graph, double_spider, path_graph, spider, star_graph
from conftest import tadpole

DESK_EXAMPLES = [
    (path_graph(7), 0),
    (star_graph(3), 1),
    (spider(2, 2, 2), 2),
    (spider(3, 2, 2), 2),
    (double_spider((3, 3), 1, (3, 3)), 3),
]


@pytest.mark.parametrize("tree,value", DESK_EXAMPLES)
def test_desk_examples(tree, value):
    assert hp_tree(tree).value == value


def test_paths_are_index_zero():
    res = hp_tree(path_graph(9))
    assert res.value == 0
    assert res.endpath is None and res.off_path_branch is None
    assert res.per_pair == ()
    assert not res.conjectural


def test_formula_rejects_non_trees():
    with pytest.raises(PreconditionError):
        hp_tree(cycle_graph(4))


def test_formula_structure_spider():
    res = hp_tree(spider(3, 2, 2))
    assert res.value == 2
    # the chosen endpath runs through the 3-leg and one 2-leg,
    # leaving the other 2-leg off the path
    assert len(res.endpath) == 6
    assert len(res.off_path_branch) == 3
    assert len(res.per_pair) == 2
    assert all(v == 2 for _, v in res.per_pair)


def test_formula_json_shape():
    d = hp_tree(spider(2, 2, 2)).to_json_dict()
    assert set(d) == {"value", "endpath", "off_path_branch", "per_pair",
                      "conjectural"}
    assert d["value"] == 2
    assert isinstance(d["per_pair"], list) and d["per_pair"]


def test_formula_matches_oracle_small_trees(trees_to_9):
    for t in trees_to_9:
        res = hp_oracle(t)
        assert res.value is not None
        assert hp_tree(t).value == res.value, t.label_edges()


def test_pair_choice_does_not_change_the_value(trees_to_11):
    # fixing any maximal pair and minimizing over endpaths that contain it
    # must land on the same value
    for t in trees_to_11:
        if is_path(t):
            continue
        res = hp_tree(t)
        assert {v for _, v in res.per_pair} == {res.value}, t.label_edges()


def test_index_drops_by_one_per_line_graph(trees_to_9):
    for t in trees_to_9:
        v = hp_tree(t).value
        if v < 1:
            continue
        assert hp_oracle(line_graph(t).graph).value == v - 1, t.label_edges()


TRIANGLE_TAIL = graph_from_token_edges(
    [("t1", "t2"), ("t2", "t3"), ("t1", "t3"), ("t3", "p1"), ("p1", "p2")])


def test_bridge_reduction_contracts_the_triangle():
    r = bridge_reduction(TRIANGLE_TAIL)
    assert is_path(r)
    assert r.n == 3
    assert "[t1+t2+t3]" in r.labels
    fwd = reduction_label_map(TRIANGLE_TAIL)
    assert fwd["t1"] == fwd["t2"] == fwd["t3"] == "[t1+t2+t3]"
    assert fwd["p1"] == "p1"


def _triangle_with_tails(a="a", p2="p2"):
    return graph_from_token_edges(
        [(a, "b"), ("b", "c"), (a, "c"), (a, "p1"), ("p1", p2),
         ("b", "q1"), ("q1", "q2"), ("c", "r1")])


@pytest.mark.parametrize("a, p2, piece", [
    ("a", "[p2]", "[a+b+c]"),
    ("x+y", "p2", "[b+c+x+y]"),
])
def test_conjecture_takes_labels_that_look_like_contracted_pieces(a, p2, piece):
    # a label is never parsed back into members, so brackets and "+" in a
    # token change nothing
    assert hp_blockchain_conjecture(_triangle_with_tails()).value == 1
    g = _triangle_with_tails(a, p2)
    assert hp_blockchain_conjecture(g).value == 1
    rec = compare_formula_oracle(g)
    assert (rec.formula_value, rec.oracle_value) == (1, 1)
    assert reduction_label_map(g) == {
        a: piece, "b": piece, "c": piece, "p1": "p1", p2: p2,
        "q1": "q1", "q2": "q2", "r1": "r1"}


def _triangle_with_pendant(pendant):
    return graph_from_token_edges(
        [("a", "b"), ("b", "c"), ("a", "c"), ("c", pendant), (pendant, "t1"),
         ("a", "t2")])


def test_piece_label_that_is_a_token_is_primed():
    # the triangle's own name "[a+b+c]" is taken by a real vertex, so the
    # piece gets a name no input token has, and the values do not move
    plain = _triangle_with_pendant("x")
    g = _triangle_with_pendant("[a+b+c]")
    r = bridge_reduction(g)
    assert sorted(r.label_edges()) == [("[a+b+c]", "[a+b+c]'"),
                                       ("[a+b+c]", "t1"), ("[a+b+c]'", "t2")]
    assert reduction_label_map(g) == {
        "a": "[a+b+c]'", "b": "[a+b+c]'", "c": "[a+b+c]'",
        "[a+b+c]": "[a+b+c]", "t1": "t1", "t2": "t2"}
    assert bridge_reduction(plain).labels == ("[a+b+c]", "t1", "t2", "x")
    for h in (plain, g):
        assert hp_blockchain_conjecture(h).value == 0
        rec = compare_formula_oracle(h)
        assert (rec.formula_value, rec.oracle_value, rec.verdict) == (0, 0, "agree")


def test_pieces_with_the_same_label_are_told_apart():
    # {w, x, y+z} and {w+x, y, z} both join to "[w+x+y+z]"; the piece whose
    # sorted members come first keeps it
    g = graph_from_token_edges(
        [("w", "x"), ("x", "y+z"), ("w", "y+z"), ("w+x", "y"), ("y", "z"),
         ("w+x", "z"), ("w", "y")])
    fwd = reduction_label_map(g)
    assert fwd["w"] == fwd["x"] == fwd["y+z"] == "[w+x+y+z]"
    assert fwd["w+x"] == fwd["y"] == fwd["z"] == "[w+x+y+z]'"
    assert bridge_reduction(g).label_edges() == (("[w+x+y+z]", "[w+x+y+z]'"),)


def test_bridge_reduction_of_tree_is_identity_shaped():
    t = spider(2, 2, 2)
    r = bridge_reduction(t)
    assert sorted(r.labels) == sorted(t.labels)
    assert sorted(r.label_edges()) == sorted(t.label_edges())


@pytest.mark.parametrize("n", range(1, 7))
def test_reduction_matches_networkx_on_every_connected_labelled_graph(n):
    # the conjecture only reduces graphs whose 2-blocks have spanning
    # cycles; the reduction itself is checked on every graph, against
    # pieces, names and bridges all found by networkx
    graphs = ([Graph(("a",), [])] if n == 1
              else enumerate_connected_graphs(n))
    for g in graphs:
        to_r = reduction_label_map(g)
        h = nx.Graph()
        h.add_edges_from(g.label_edges())
        edges = {tuple(sorted((to_r[a], to_r[b]))) for a, b in nx.bridges(h)}
        hubs = {name for name, k in Counter(to_r.values()).items() if k > 1}
        r, got_hubs = formula._reduce(g)
        assert r.labels == tuple(sorted(set(to_r.values()))), g.label_edges()
        assert r.label_edges() == tuple(sorted(edges)), g.label_edges()
        assert {r.labels[v] for v in got_hubs} == hubs, g.label_edges()


def test_conjecture_defers_to_trees():
    for t in (path_graph(5), spider(2, 2, 2), double_spider((3, 3), 1, (3, 3))):
        res = hp_blockchain_conjecture(t)
        assert res.value == hp_tree(t).value
        assert not res.conjectural


def test_conjecture_triangle_with_tail_is_zero():
    res = hp_blockchain_conjecture(TRIANGLE_TAIL)
    assert res.value == 0
    assert res.conjectural


def test_conjecture_spider_with_triangle_at_leaf():
    # spider(2,2,2) with a triangle glued at one leg tip: the leg into the
    # cycle is no longer pendant, so its absorption time rises to 3
    g = graph_from_token_edges(
        list(spider(2, 2, 2).label_edges())
        + [("L0_2", "q1"), ("q1", "q2"), ("q2", "L0_2")])
    res = hp_blockchain_conjecture(g)
    assert res.value == 2
    assert res.conjectural


@pytest.fixture
def decompositions(monkeypatch):
    """The graphs blocks_and_cuts runs on, in call order."""
    seen = []

    def counting(h):
        seen.append(h)
        return blocks_and_cuts(h)

    # Graph.blocks looks the decomposer up in hpindex.graphs at call time;
    # the package re-exports functions named like its modules, hence sys.modules
    monkeypatch.setattr(sys.modules["hpindex.graphs"], "blocks_and_cuts", counting)
    return seen


def test_conjecture_decomposes_the_graph_once(decompositions):
    g = graph_from_token_edges(
        list(spider(2, 2, 2).label_edges())
        + [("L0_2", "q1"), ("q1", "q2"), ("q2", "L0_2")])
    assert hp_blockchain_conjecture(g).value == 2
    assert decompositions == [g]

    # two leaves, so the stage-0 path search reaches the end-block test and
    # reuses the decomposition the formula made
    g = graph_from_token_edges(
        [("t1", "t2"), ("t2", "t3"), ("t1", "t3"), ("t1", "a"), ("t2", "b")])
    decompositions.clear()
    rec = compare_formula_oracle(g)
    assert (rec.verdict, rec.formula_value, rec.oracle_value) == ("agree", 0, 0)
    assert decompositions.count(g) == 1


def test_hp_tree_runs_no_block_decomposition(decompositions):
    hp_tree(random_tree(20_000, 1))
    assert decompositions == []


def test_connectivity_is_searched_once_per_graph(monkeypatch):
    graphs = sys.modules["hpindex.graphs"]
    searched = []

    def counting(h):
        searched.append(h)
        return reaches(h)

    reaches = graphs._reaches_every_vertex
    monkeypatch.setattr(graphs, "_reaches_every_vertex", counting)
    t = random_tree(2_000, 1)
    hp_tree(t)
    assert searched == [t]
    # hp_oracle and its stage-0 path search share one answer too
    g = spider(2, 2, 2)
    searched.clear()
    hp_oracle(g)
    assert searched.count(g) == 1


def test_conjecture_requires_hamiltonian_two_blocks():
    k23 = graph_from_token_edges(
        [("u1", "w1"), ("u1", "w2"), ("u1", "w3"),
         ("u2", "w1"), ("u2", "w2"), ("u2", "w3")])
    with pytest.raises(PreconditionError):
        hp_blockchain_conjecture(k23)


CENTER_TRIANGLE = graph_from_token_edges(
    [("a", "b"), ("b", "c"), ("b", "x"), ("b", "y"), ("x", "y")])


def test_conjecture_is_falsified_by_a_center_triangle():
    # P3 with a triangle glued at its middle: reduction gives a path, so the
    # conjectural formula says 0, but the graph is not traceable
    assert hp_blockchain_conjecture(CENTER_TRIANGLE).value == 0
    assert hp_oracle(CENTER_TRIANGLE).value == 1
    rec = compare_formula_oracle(CENTER_TRIANGLE, family_tag="desk")
    assert rec.verdict == "mismatch"
    assert (rec.formula_value, rec.oracle_value) == (0, 1)


def test_compare_record_fields():
    rec = compare_formula_oracle(spider(2, 2, 2), family_tag="spider")
    assert rec.verdict == "agree"
    assert rec.formula_value == rec.oracle_value == 2
    assert rec.family_tag == "spider"
    assert rec.graph_key.startswith("canon:")
    d = rec.to_json_dict()
    assert d["oracle_value"] == 2
    assert d["formula"]["conjectural"] is False
    assert d["oracle"]["value"] == 2


def test_compare_capped_oracle_reports_capped():
    rec = compare_formula_oracle(tadpole(50))
    assert rec.verdict == "capped"
    assert rec.to_json_dict()["oracle_value"] == "capped"


def test_one_comparison_runs_under_one_deadline(monkeypatch):
    # three K4 blocks in a chain: each block search takes two thirds of the
    # limit, so the formula spends the whole limit on two of them and the
    # stage loop is capped before its first search
    limit, step = 0.15, 0.1
    searched = []

    def slow_yes(g, budget):
        time.sleep(step)
        return True, None

    def slow_path(g, budget):
        searched.append(g.n)
        time.sleep(step)
        return True, None

    monkeypatch.setattr(formula, "has_hamiltonian_cycle", slow_yes)
    monkeypatch.setattr(oracles, "has_hamiltonian_path", slow_path)
    g = graph_from_token_edges(
        [(f"k{b}{i}", f"k{b}{j}") for b in range(3)
         for i in range(4) for j in range(i + 1, 4)]
        + [("k03", "k10"), ("k13", "k20")])
    t0 = time.monotonic()
    rec = compare_formula_oracle(g, SearchBudget(time_limit_s=limit))
    assert time.monotonic() - t0 < 3 * step
    assert searched == []
    assert rec.verdict == "capped"
    assert rec.formula is None and rec.oracle.value is None
    assert rec.oracle.capped_reason == "time limit hit before a search"
    assert rec.oracle.stages == (StageRecord(0, 12, 20, "capped"),)


def junction_spine():
    # a 3000-vertex spine with a pendant leaf at every spine vertex puts
    # 3000 junctions in a row; the two 10-edge legs at s0 are the one pair
    edges = [(f"s{i}", f"s{i + 1}") for i in range(2999)]
    edges += [(f"s{i}", f"p{i}") for i in range(3000)]
    for leg in "ab":
        edges += [("s0", f"{leg}0")]
        edges += [(f"{leg}{j}", f"{leg}{j + 1}") for j in range(9)]
    return graph_from_token_edges(edges)


def test_deep_junction_tree_needs_no_recursion():
    res = hp_tree(junction_spine())
    assert res.value == 2
    assert len(res.per_pair) == 1
    assert res.endpath == (tuple(f"a{j}" for j in range(9, -1, -1)) + ("s0",)
                           + tuple(f"b{j}" for j in range(10)))


@pytest.mark.parametrize("tree", [junction_spine, lambda: random_tree(1000, 2)],
                         ids=["junction-spine", "random-1000"])
def test_unread_up_entries_are_never_computed(exits_calls, tree):
    # no maximal pair of these trees has one corridor above the other, so
    # the result reads no up entry and none is computed
    hp_tree(tree())
    assert exits_calls[0] == 0


def test_hub_of_degree_20002():
    res = hp_tree(spider(3, 2, *[1] * 20000))
    assert res.value == 1
    assert res.endpath == ("L0_3", "L0_2", "L0_1", "c", "L1_1", "L1_2")
    assert res.off_path_branch == ("L10000_1", "c")


@pytest.mark.slow
def test_random_tree_with_100000_vertices():
    t = random_tree(100_000, 1)
    res = hp_tree(t)
    assert {v for _, v in res.per_pair} == {res.value}
    ends = [t.index(res.endpath[0]), t.index(res.endpath[-1])]
    assert [t.degree(v) for v in ends] == [1, 1]
    edges = set(t.label_edges())
    assert all((min(a, b), max(a, b)) in edges
               for a, b in zip(res.endpath, res.endpath[1:]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 3), max_size=8))
def test_largest3_breaks_ties_like_a_stable_sort(keys):
    # heapq.nlargest's order: largest first, equal keys lower position first
    ranked = sorted(range(len(keys)), key=keys.__getitem__, reverse=True)
    assert formula._largest3(keys) == tuple((ranked + [-1] * 3)[:3])


@settings(max_examples=300, deadline=None)
@given(st.integers(3, 8).flatmap(lambda d: st.tuples(
    st.lists(st.integers(0, 3), min_size=d, max_size=d),
    st.lists(st.integers(0, 3), min_size=d, max_size=d))),
    st.integers(0, 3))
def test_exits_matches_its_definition(sf, bound):
    # entry j is the least combine(max(s[k] for k not in {i, j}), f[i]) over
    # i != j, for both combines _evaluate passes; small values make ties common
    s, f = sf
    d = len(s)
    beyond = 4  # more than every f, as the rank of no leaf
    for combine in (max, lambda m, r: r if m <= bound else beyond):
        want = [min(combine(max(s[k] for k in range(d) if k not in (i, j)), f[i])
                    for i in range(d) if i != j) for j in range(d)]
        assert formula._exits(s, f, combine) == want
