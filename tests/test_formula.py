import sys

import pytest

from hpindex import (
    CappedError,
    PreconditionError,
    SearchBudget,
    blocks_and_cuts,
    bridge_reduction,
    compare_formula_oracle,
    cycle_graph,
    double_spider,
    graph_from_token_edges,
    hp_blockchain_conjecture,
    hp_oracle,
    hp_tree,
    is_caterpillar,
    is_path,
    line_graph,
    h_oracle,
    path_graph,
    random_tree,
    spider,
    star_graph,
)
from hpindex.formula import reduction_label_map

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


def test_value_one_iff_caterpillar(trees_to_11):
    for t in trees_to_11:
        if is_path(t):
            continue
        assert (hp_tree(t).value == 1) == is_caterpillar(t), t.label_edges()


def test_path_index_at_most_hamiltonian_index(trees_to_9):
    # h_oracle may cap when iterates outgrow the search tier; those are
    # skipped, everything that completes must satisfy the inequality.
    # Trimmed node budget: the hopeless instances give up fast and only
    # one borderline tree moves from completed to capped.
    budget = SearchBudget(node_budget=400_000)
    completed = capped = 0
    for t in trees_to_9:
        if is_path(t):
            continue
        h = h_oracle(t, budget=budget).value
        if h is None:
            capped += 1
            continue
        completed += 1
        assert hp_tree(t).value <= h, t.label_edges()
    assert completed >= 70
    assert capped <= 15


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


def test_bridge_reduction_of_tree_is_identity_shaped():
    t = spider(2, 2, 2)
    r = bridge_reduction(t)
    assert sorted(r.labels) == sorted(t.labels)
    assert sorted(r.label_edges()) == sorted(t.label_edges())


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
    rec = compare_formula_oracle(path_graph(50))
    assert rec.verdict == "capped"
    assert rec.to_json_dict()["oracle_value"] == "capped"


def test_deep_junction_tree_needs_no_recursion():
    # a 3000-vertex spine with a pendant leaf at every spine vertex puts
    # 3000 junctions in a row; the two 10-edge legs at s0 are the one pair
    edges = [(f"s{i}", f"s{i + 1}") for i in range(2999)]
    edges += [(f"s{i}", f"p{i}") for i in range(3000)]
    for leg in "ab":
        edges += [("s0", f"{leg}0")]
        edges += [(f"{leg}{j}", f"{leg}{j + 1}") for j in range(9)]
    res = hp_tree(graph_from_token_edges(edges))
    assert res.value == 2
    assert len(res.per_pair) == 1
    assert res.endpath == (tuple(f"a{j}" for j in range(9, -1, -1)) + ("s0",)
                           + tuple(f"b{j}" for j in range(10)))


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
