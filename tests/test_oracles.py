import gc
import hashlib
import itertools
import os
import subprocess
import sys
import time
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hpindex import (
    CappedError,
    FamilyParams,
    Graph,
    InternalCheckError,
    IterationBudget,
    PreconditionError,
    SearchBudget,
    ValidationError,
    absorption_time,
    branches,
    enumerate_connected_graphs,
    gen_hamiltonian_2block_family,
    graph_from_token_edges,
    h_oracle,
    has_dominating_trail,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    hp_oracle,
    is_path,
    line_graph,
    random_tree,
)
from hpindex import oracles
from hpindex.oracles import (StageRecord, check_cycle_witness, check_path_witness,
                             check_trail_witness)
from shapes import (complete_graph, cycle_graph, double_spider, path_graph,
                    random_connected_graph, spider, star_graph)
from conftest import chorded_cycle, count_builds, must_build, tadpole

BOWTIE = graph_from_token_edges(
    [("a", "b"), ("b", "c"), ("a", "c"), ("c", "d"), ("d", "e"), ("c", "e")])


def test_hamiltonian_path_positives():
    for g in (path_graph(1), path_graph(7), cycle_graph(5), complete_graph(6), BOWTIE):
        ok, walk = has_hamiltonian_path(g)
        assert ok
        check_path_witness(g, walk)


def test_hamiltonian_path_negatives():
    for g in (star_graph(3), spider(2, 2, 2), double_spider((2, 2), 1, (2, 2))):
        ok, walk = has_hamiltonian_path(g)
        assert not ok and walk is None


def test_hamiltonian_path_disconnected_is_false():
    g = graph_from_token_edges([("a", "b"), ("c", "d")])
    assert has_hamiltonian_path(g) == (False, None)


def test_hamiltonian_cycle_positives():
    for g in (cycle_graph(3), cycle_graph(8), complete_graph(5)):
        ok, walk = has_hamiltonian_cycle(g)
        assert ok
        check_cycle_witness(g, walk)


def test_hamiltonian_cycle_negatives():
    # bowtie has a cut vertex; tree and path lack min degree 2
    for g in (BOWTIE, star_graph(3), path_graph(4), complete_graph(2)):
        assert has_hamiltonian_cycle(g) == (False, None)


def test_size_cap_raises():
    with pytest.raises(CappedError):
        has_hamiltonian_path(tadpole(41))
    with pytest.raises(CappedError):
        has_hamiltonian_cycle(chorded_cycle(41))


@pytest.mark.parametrize("n", [41, 50, 500])
def test_paths_and_cycles_above_the_cap_are_walked(n):
    p, c = path_graph(n), cycle_graph(n)
    for oracle, g, check in ((hp_oracle, p, check_path_witness),
                             (hp_oracle, c, check_path_witness),
                             (h_oracle, c, check_cycle_witness)):
        res = oracle(g)
        assert res.value == 0
        assert [s.verdict for s in res.stages] == [
            "hamiltonian" if oracle is h_oracle else "traceable"]
        check(g, res.witness)
    # the search walks them from the lower-label leaf, and on a cycle from
    # c0 to c1
    assert hp_oracle(p).witness == p.labels
    assert h_oracle(c).witness == hp_oracle(c).witness == c.labels


@pytest.mark.parametrize("g, search", [
    (cycle_graph(30), has_hamiltonian_path), (cycle_graph(30), has_hamiltonian_cycle),
    (path_graph(50), has_hamiltonian_path), (cycle_graph(50), has_hamiltonian_cycle)])
def test_paths_and_cycles_keep_the_node_budget(g, search):
    # below the vertex cap and above it, the same budgeted search walks them
    with pytest.raises(CappedError, match="node budget exhausted"):
        search(g, SearchBudget(dp_vertex_cap=4, node_budget=1))


def test_budget_validation():
    with pytest.raises(PreconditionError):
        SearchBudget(dp_vertex_cap=0)
    with pytest.raises(PreconditionError):
        SearchBudget(dp_vertex_cap=20, backtrack_vertex_cap=10)


@pytest.mark.parametrize("field", ["node_budget", "prepass_nodes"])
@pytest.mark.parametrize("value", [0, -3])
def test_node_counts_below_one_are_refused(field, value):
    with pytest.raises(PreconditionError):
        SearchBudget(**{field: value})
    assert getattr(SearchBudget(**{field: 1}), field) == 1


@pytest.mark.parametrize("budget, field, error, message", [
    (SearchBudget, "dp_vertex_cap", PreconditionError, "between 1 and 26"),
    (SearchBudget, "backtrack_vertex_cap", PreconditionError, "at least the dp cap"),
    (SearchBudget, "time_limit_s", PreconditionError, "must be positive"),
    (SearchBudget, "node_budget", PreconditionError, "must be positive"),
    (SearchBudget, "prepass_nodes", PreconditionError, "must be positive"),
    (SearchBudget, "stage_cap", PreconditionError, "must be positive"),
    (IterationBudget, "max_vertices", ValidationError, "must be positive"),
    (IterationBudget, "max_edges", ValidationError, "must be positive"),
])
def test_nan_budget_fields_are_refused(budget, field, error, message):
    # every comparison with NaN is false, so a check written as "refuse if
    # below" would let a NaN switch its bound off
    with pytest.raises(error, match=message):
        budget(**{field: float("nan")})


def test_backtracking_solver_used_above_dp_cap():
    # petersen-like ring that still fits the backtracking tier
    g = cycle_graph(30)
    budget = SearchBudget(dp_vertex_cap=4)
    ok, walk = has_hamiltonian_path(g, budget)
    assert ok
    check_path_witness(g, walk)
    ok, walk = has_hamiltonian_cycle(g, budget)
    assert ok
    check_cycle_witness(g, walk)


def test_backtracking_walks_longer_than_the_recursion_limit():
    # the DFS keeps its own stack, so a walk of 1200 vertices cannot
    # overflow the interpreter's
    g = cycle_graph(1200)
    for search in (has_hamiltonian_path, has_hamiltonian_cycle):
        ok, walk = search(g)
        assert ok and len(walk) == 1200


def test_backtracking_deadline_is_read_often_on_large_graphs(monkeypatch):
    # a walk along a path or a cycle places n nodes, and the clock is read
    # once to set the deadline, then every max(1, 4096 // n) nodes, as a
    # flood from neighbours that lie apart still costs a node time that
    # grows with n; a deadline already past stops the search at its first read
    reads = []
    past = False

    def clock():
        reads.append(None)
        return 1e9 if past and len(reads) > 1 else 0.0

    monkeypatch.setattr(oracles.time, "monotonic", clock)
    for n in (100, 1200, 5000):
        g = cycle_graph(n)
        tick = max(1, 4096 // n)
        for search in (has_hamiltonian_path, has_hamiltonian_cycle):
            past = False
            reads.clear()
            ok, walk = search(g)
            assert ok and len(walk) == n
            assert len(reads) == 1 + n // tick
            past = True
            reads.clear()
            with pytest.raises(CappedError,
                               match="^time limit hit during backtracking search$"):
                search(g)
            assert len(reads) == 2


@pytest.mark.parametrize("oracle, name", [(hp_oracle, "has_hamiltonian_path"),
                                          (h_oracle, "has_hamiltonian_cycle")])
def test_one_deadline_covers_the_whole_stage_loop(monkeypatch, oracle, name):
    # every stage search takes a quarter of the limit and says no; cycle
    # iterates stay cycles, and the trail cross-check agrees at once, so only
    # the deadline can end the loop before the stage cap
    limit, step = 0.4, 0.1
    limits = []

    def slow_no(g, budget):
        limits.append(budget.time_limit_s)
        time.sleep(step)
        return False, None

    monkeypatch.setattr(oracles, name, slow_no)
    monkeypatch.setattr(oracles, "has_dominating_trail",
                        lambda g, budget, closed: (False, None))
    t0 = time.monotonic()
    res = oracle(cycle_graph(25), SearchBudget(time_limit_s=limit))
    elapsed = time.monotonic() - t0
    assert res.value is None and res.stages[-1].verdict == "capped"
    assert "time limit" in res.capped_reason
    assert elapsed < limit + step + 0.2
    assert all(0 < left <= limit for left in limits)
    assert limits == sorted(limits, reverse=True)


# the path cases keep bare seed ids so their test ids stay stable
@pytest.mark.parametrize(
    "search, seed",
    [pytest.param(has_hamiltonian_path, s, id=str(s)) for s in range(400)]
    + [pytest.param(has_hamiltonian_cycle, s, id=f"cycle-{s}") for s in range(400)])
def test_dp_and_backtracking_agree(search, seed):
    n = 2 + seed % 17
    g = random_connected_graph(n, seed % 4, seed)
    dp_ok, _ = search(g)
    try:
        bt_ok, _ = search(g, SearchBudget(dp_vertex_cap=1))
    except CappedError:
        return
    assert dp_ok == bt_ok


@pytest.mark.parametrize("search", [has_hamiltonian_path, has_hamiltonian_cycle])
def test_prepass_table_and_backtracking_agree_in_prepass_band(search):
    # at 17-18 vertices the default budget runs the backtracking prepass first;
    # prepass_nodes=1 leaves the answer to the subset table, dp_vertex_cap=1
    # to backtracking alone. Sparse graphs of this order fail the cheap
    # filters, so these carry 12-30 edges beyond a spanning tree.
    for n in (17, 18):
        for extra in (12, 20, 30):
            for seed in range(4):
                g = random_connected_graph(n, extra, seed)
                ok, _ = search(g)
                assert search(g, SearchBudget(prepass_nodes=1))[0] == ok
                assert search(g, SearchBudget(dp_vertex_cap=1))[0] == ok


TABLE_ONLY = SearchBudget(prepass_nodes=1)


@pytest.fixture
def tables_built(monkeypatch):
    """Vertex counts of the subset tables built, in call order."""
    built = []

    table = oracles._dp_table_np

    def counting(adj, *rest):
        built.append(len(adj))
        return table(adj, *rest)

    monkeypatch.setattr(oracles, "_dp_table_np", counting)
    return built


def assert_prepass_returns_the_table_answer(g):
    # the whole answer, witness included; prepass_nodes=1 leaves it to the table
    for search in (has_hamiltonian_path, has_hamiltonian_cycle):
        assert search(g) == search(g, TABLE_ONLY), (search.__name__, g.label_edges())


@pytest.mark.parametrize("n", [2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)])
def test_index_order_prepass_returns_the_table_answer(n):
    # every connected labelled graph on n vertices, and up to n = 5 its line
    # graph, whose vertex order comes from the edge order
    for g in enumerate_connected_graphs(n):
        assert_prepass_returns_the_table_answer(g)
        if n <= 5:
            assert_prepass_returns_the_table_answer(line_graph(g).graph)


def complete_bipartite(a, b):
    return Graph([str(i) for i in range(a + b)],
                 [(i, a + j) for i in range(a) for j in range(b)])


@pytest.mark.parametrize("a, b, tables", [(2, 5, []), (6, 8, [14])])
def test_index_order_prepass_refutes_or_falls_back(tables_built, a, b, tables):
    # K_{a,b} with b >= a + 2 has no hamiltonian path yet passes every cheap
    # filter; the prepass refutes K_{2,5} itself, and on K_{6,8} it drains
    # its nodes and hands the graph to the table
    g = complete_bipartite(a, b)
    assert has_hamiltonian_path(g) == (False, None)
    assert tables_built == tables
    assert has_hamiltonian_path(g, TABLE_ONLY) == (False, None)


def test_drained_index_order_prepass_keeps_the_witness(tables_built, monkeypatch):
    g = random_connected_graph(16, 16, 7)
    answers = (has_hamiltonian_path(g), has_hamiltonian_cycle(g))
    assert answers[0][0] and answers[1][0] and tables_built == []
    # a one-node prepass drains at once and leaves both searches to the table
    monkeypatch.setattr(oracles, "_LEX_NODES", 1)
    assert (has_hamiltonian_path(g), has_hamiltonian_cycle(g)) == answers
    assert tables_built == [16, 16]


def test_numpy_is_loaded_with_the_first_table():
    # numpy is most of the package's import time, and a run that builds no
    # subset table never needs it
    src = Path(__file__).resolve().parents[1] / "src"
    # a one-node prepass leaves the path a-b-c-d to the table
    code = ("import sys, hpindex\n"
            "print('numpy' in sys.modules)\n"
            "g = hpindex.from_edge_list('a b\\nb c\\nc d\\n')\n"
            "print(hpindex.has_hamiltonian_path(g, hpindex.SearchBudget(prepass_nodes=1))[0])\n"
            "print('numpy' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(src)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "True", "True"]


@pytest.mark.parametrize("block", range(4))
def test_dp_and_backtracking_agree_full_sweep(block):
    # 2,000 seeded instances total, split into four chunks
    disagreements = []
    for seed in range(block * 500, block * 500 + 500):
        n = 2 + (seed * 7919 + 13) % 17
        g = random_connected_graph(n, (seed * 31) % 6, seed)
        dp_ok, _ = has_hamiltonian_path(g)
        try:
            bt_ok, _ = has_hamiltonian_path(g, SearchBudget(dp_vertex_cap=1))
        except CappedError:
            continue
        if dp_ok != bt_ok:
            disagreements.append(seed)
    assert not disagreements


def test_witness_checks_reject_tampering():
    g = path_graph(4)
    with pytest.raises(InternalCheckError):
        check_path_witness(g, ("p0", "p1", "p2"))
    with pytest.raises(InternalCheckError):
        check_path_witness(g, ("p0", "p2", "p1", "p3"))
    with pytest.raises(InternalCheckError):
        check_cycle_witness(cycle_graph(4), ("c0", "c1", "c3", "c2"))
    with pytest.raises(InternalCheckError):
        check_trail_witness(g, ("p0", "p1", "p0"), closed=False)


def test_dominating_trail_examples():
    ok, walk = has_dominating_trail(star_graph(3))
    assert ok
    check_trail_witness(star_graph(3), walk, closed=False)

    ok, walk = has_dominating_trail(path_graph(4))
    assert ok and len(walk) >= 2

    # spider(2,2,2) is the smallest tree without one
    assert has_dominating_trail(spider(2, 2, 2)) == (False, None)


def test_dominating_closed_trail_examples():
    # a single vertex meeting every edge counts as a closed trail
    ok, walk = has_dominating_trail(star_graph(4), closed=True)
    assert ok and len(walk) == 1

    ok, walk = has_dominating_trail(cycle_graph(5), closed=True)
    assert ok
    check_trail_witness(cycle_graph(5), walk, closed=True)

    assert has_dominating_trail(path_graph(4), closed=True) == (False, None)


def test_dominating_trail_search_frees_its_memo():
    # the memo of failed states must be freed when the call returns, not
    # left in a reference cycle for the collector
    g = random_connected_graph(10, 8, 3)
    gc.collect()
    gc.disable()
    try:
        for closed in (False, True):
            ok, _ = has_dominating_trail(g, closed=closed)
            assert ok
            assert gc.collect() == 0
    finally:
        gc.enable()


def _induces_connected(g, vertices):
    if not vertices:
        return True
    reach, grow = set(), [min(vertices)]
    while grow:
        v = grow.pop()
        if v not in reach:
            reach.add(v)
            grow.extend(vertices.intersection(g.adj[v]))
    return reach == vertices


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_dead_end_matches_its_definition(monkeypatch, n):
    # every call _dfs makes, in both orders, for paths and cycles, on every
    # connected labelled graph on n vertices: the unvisited vertices and cur
    # induce a connected graph, which lets the flood stop early, and the
    # answer is that vertices are left and either none of them is next to
    # cur or they induce a disconnected graph
    calls = []
    dead_end = oracles._dead_end

    def checked(cur, visited, full, adj):
        rem = {v for v in range(n) if not visited >> v & 1}
        assert _induces_connected(g, rem | {cur})
        dead = dead_end(cur, visited, full, adj)
        assert dead == bool(rem and (not rem.intersection(g.adj[cur])
                                     or not _induces_connected(g, rem)))
        calls.append(dead)
        return dead

    monkeypatch.setattr(oracles, "_dead_end", checked)
    for g in enumerate_connected_graphs(n):
        adj = oracles._adj_masks(g)
        for starts, cycle in ((list(range(n)), False), ([0], True)):
            for by_degree in (False, True):
                oracles._dfs(adj, starts, float("inf"), float("inf"),
                             cycle, by_degree)
    # on K2 no walk can be cut
    assert set(calls) == ({False, True} if n > 2 else {False})


def test_index_order_prepass_settles_where_a_split_remainder_drained(monkeypatch):
    # L(L(T)) of an 11-vertex tree, a 13-vertex stage of verify_trees(12):
    # the index-order prepass drained its 1,000 nodes while the dead-end
    # check asked only that each piece of the unvisited vertices touch the
    # current one, and handed the stage to the table; cutting every walk
    # whose unvisited vertices fall apart finds the table's walk in 479 nodes
    t = graph_from_token_edges([("1", "2"), ("1", "6"), ("1", "9"), ("1", "11"),
                                ("2", "3"), ("3", "4"), ("3", "5"), ("6", "7"),
                                ("7", "8"), ("9", "10")])
    g = line_graph(line_graph(t).graph).graph
    assert g.n == 13
    from_table = has_hamiltonian_path(g, SearchBudget(prepass_nodes=1))
    assert from_table[0]

    def no_table(*args):
        raise AssertionError("the prepass drained")

    monkeypatch.setattr(oracles, "_dp_table_np", no_table)
    assert has_hamiltonian_path(g) == from_table


def test_backtracking_search_leaves_nothing_to_collect():
    # dp_vertex_cap=5 sends a 30-vertex graph to backtracking; its DFS must
    # not stay alive in a reference cycle after the call returns
    g = cycle_graph(30)
    budget = SearchBudget(dp_vertex_cap=5)
    gc.collect()
    gc.disable()
    try:
        for search in (has_hamiltonian_path, has_hamiltonian_cycle):
            ok, _ = search(g, budget)
            assert ok
            assert gc.collect() == 0
    finally:
        gc.enable()


def test_dominating_trail_edge_cap():
    # K7 has 21 edges, past the 20-edge cap the whole-graph search had; the
    # engine has no cap, and K7's degrees are all even, so it has both trails
    g = complete_graph(7)
    for closed in (False, True):
        ok, walk = has_dominating_trail(g, closed=closed)
        assert ok
        check_trail_witness(g, walk, closed)


def test_piece_search_spends_the_node_budget():
    # K5 is one piece, and its trail takes more than one step
    with pytest.raises(CappedError, match="^trail search node budget exhausted$"):
        has_dominating_trail(complete_graph(5), SearchBudget(node_budget=1))


def _grid_with_tails(k):
    # the k x k grid, one piece, with a two-edge tail at two opposite corners:
    # the route enters the grid at one corner and must leave it at the other
    edges = [((i, j), (i + di, j + dj)) for i in range(k) for j in range(k)
             for di, dj in ((1, 0), (0, 1)) if i + di < k and j + dj < k]
    edges += [((0, 0), "a1"), ("a1", "a2"), ((k - 1, k - 1), "b1"), ("b1", "b2")]
    return graph_from_token_edges([(str(a), str(b)) for a, b in edges])


def test_trail_search_reads_the_clock_by_piece_size():
    # 3,124 edges: every node floods the grid, so a clock read every 4096
    # nodes came 3 s after a 0.05 s limit
    g = _grid_with_tails(40)
    assert g.m == 3_124
    t0 = time.monotonic()
    with pytest.raises(CappedError, match="time limit"):
        has_dominating_trail(g, SearchBudget(time_limit_s=0.05))
    assert time.monotonic() - t0 < 0.5


def _pinned_trail_corpus():
    for n in range(2, 7):
        yield from enumerate_connected_graphs(n)
    family = gen_hamiltonian_2block_family(
        FamilyParams(max_vertices=10, cycle_sizes=(3, 4, 5)))
    yield from (g for g, _ in family)


# sha256 over the reprs of has_dominating_trail(g, closed=c), verdict and
# witness, for c = False then True over the corpus above; recorded from the
# engine that searched closed trails apart from the open route
PINNED_TRAIL_DIGEST = (
    "0b58d0f8aeb38a42e3186c59b19a29f512db8e05805cae7cae37ab0ff7661fcd")


def test_dominating_trail_witnesses_are_pinned():
    digest = hashlib.sha256()
    for g in _pinned_trail_corpus():
        for closed in (False, True):
            digest.update(repr(has_dominating_trail(g, closed=closed)).encode())
    assert digest.hexdigest() == PINNED_TRAIL_DIGEST


def test_a_small_trail_memo_costs_nodes_not_answers(monkeypatch):
    # a memo cleared at every third state walks failed states again: more
    # nodes, the same verdict and witness on every graph of the corpus
    searches = []

    class Counting(oracles._PieceSearch):
        def __init__(self, budget):
            super().__init__(budget)
            searches.append(self)

    monkeypatch.setattr(oracles, "_PieceSearch", Counting)
    # K_{2,5} with each edge subdivided twice: no closed trail, found by
    # running out of states
    chains = [(hub, f"{hub}{i}p", f"{hub}{i}q", f"c{i}") for i in range(5) for hub in "ab"]
    g = graph_from_token_edges([e for c in chains for e in zip(c, c[1:])])
    assert has_dominating_trail(g, closed=True) == (False, None)
    unbounded = searches[-1].nodes
    monkeypatch.setattr(oracles, "_TRAIL_MEMO_CAP", 3)
    assert has_dominating_trail(g, closed=True) == (False, None)
    assert searches[-1].nodes > unbounded
    test_dominating_trail_witnesses_are_pinned()


def test_dominating_trail_edge_cases():
    # K1 open and every star closed: the one-vertex walk
    assert has_dominating_trail(path_graph(1)) == (True, ("p0",))
    for leaves in (1, 2, 5):
        ok, walk = has_dominating_trail(star_graph(leaves), closed=True)
        assert ok and len(walk) == 1
        check_trail_witness(star_graph(leaves), walk, closed=True)
    # an open trail on a graph with edges crosses one: K2 and every star
    # make a core of one single-vertex piece
    for g in (path_graph(2), star_graph(3), star_graph(6)):
        ok, walk = has_dominating_trail(g)
        assert ok and len(walk) == 2
        check_trail_witness(g, walk, closed=False)
    disconnected = graph_from_token_edges([("a", "b")], isolated=["c"])
    for closed in (False, True):
        assert has_dominating_trail(disconnected, closed=closed) == (False, None)
    with pytest.raises(PreconditionError):
        has_dominating_trail(Graph((), ()))


def _stack_depth():
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    return depth


def test_dominating_trail_search_keeps_its_own_stack():
    # trails found 15 frames from the recursion limit: on a path and a
    # caterpillar of 5,000 vertices, split at their bridges, and on C500,
    # one piece searched with a stack entry per trail vertex
    spine = [(f"s{i}", f"s{i + 1}") for i in range(2_499)]
    caterpillar = graph_from_token_edges(spine + [(f"s{i}", f"x{i}") for i in range(2_500)])
    for g, closed in ((path_graph(5_000), False), (caterpillar, False),
                      (cycle_graph(500), False), (cycle_graph(500), True)):
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(_stack_depth() + 15)
        try:
            ok, walk = has_dominating_trail(g, closed=closed)
        finally:
            sys.setrecursionlimit(limit)
        assert ok
        check_trail_witness(g, walk, closed)


def test_trail_criterion_for_traceable_line_graphs():
    # exhaustive over small connected graphs: trail in g iff L(g) traceable
    for n in (2, 3, 4):
        for g in enumerate_connected_graphs(n):
            trail_ok, _ = has_dominating_trail(g)
            line_ok, _ = has_hamiltonian_path(line_graph(g).graph)
            assert trail_ok == line_ok


def test_closed_trail_criterion_for_hamiltonian_line_graphs():
    for n in (2, 3, 4):
        for g in enumerate_connected_graphs(n):
            if g.m < 3:
                continue
            trail_ok, _ = has_dominating_trail(g, closed=True)
            cycle_ok, _ = has_hamiltonian_cycle(line_graph(g).graph)
            assert trail_ok == cycle_ok


def test_hp_oracle_values():
    assert hp_oracle(path_graph(7)).value == 0
    assert hp_oracle(star_graph(3)).value == 1
    assert hp_oracle(spider(2, 2, 2)).value == 2
    assert hp_oracle(cycle_graph(6)).value == 0


def test_hp_oracle_stage_records():
    res = hp_oracle(star_graph(3))
    assert [s.verdict for s in res.stages] == ["not-traceable", "traceable"]
    assert res.stages[1].vertices == 3
    assert res.witness is not None


def test_hp_oracle_rejects_disconnected():
    with pytest.raises(PreconditionError):
        hp_oracle(graph_from_token_edges([("a", "b"), ("c", "d")]))


def test_hp_oracle_caps_honestly():
    res = hp_oracle(tadpole(50))
    assert res.value is None
    assert res.capped_reason
    assert res.stages[-1].verdict == "capped"
    assert res.to_json_dict()["value"] == "capped"


@given(st.integers(min_value=2, max_value=9), st.integers(min_value=0, max_value=2**32))
@settings(max_examples=100, deadline=None)
def test_hp_oracle_zero_iff_traceable(n, seed):
    g = random_connected_graph(n, seed % 5, seed)
    assert (hp_oracle(g).value == 0) == has_hamiltonian_path(g)[0]


def test_h_oracle_values():
    assert h_oracle(cycle_graph(5)).value == 0
    assert h_oracle(star_graph(3)).value == 1
    assert h_oracle(BOWTIE).value == 1


def test_h_oracle_rejects_paths():
    with pytest.raises(PreconditionError):
        h_oracle(path_graph(5))


def _chartrand_wall(t):
    # h of a non-path tree: the largest absorption time of its branches
    return max(absorption_time(b) for b in branches(t))


@pytest.mark.parametrize("edges, h", [
    # stages of 8, 7, 12, 35; 9, 8, 13, 39; 9, 8, 14, 39; 9, 8, 9, 14, 36
    # vertices: the last cycle search drains even 5,000,000 nodes unless a
    # walk is kept off vertex 0's last unvisited neighbour until its last step
    ("1-2 1-5 1-6 1-7 1-8 2-3 3-4", 3),
    ("1-2 1-5 1-7 1-8 1-9 2-3 3-4 5-6", 3),
    ("1-2 1-6 1-7 1-8 1-9 2-3 3-4 3-5", 3),
    ("1-2 1-6 1-9 2-3 3-4 4-5 6-7 6-8", 4),
    # stages of 9, 8, 13, 30 vertices; the last drains 50,000 nodes
    # without that cut
    ("1-2 1-6 2-3 2-4 2-5 6-7 6-8 6-9", 3),
])
def test_spider_like_trees_settle_under_a_small_node_budget(edges, h):
    t = graph_from_token_edges([e.split("-") for e in edges.split()])
    res = h_oracle(t, SearchBudget(node_budget=50_000))
    assert res.value == h == _chartrand_wall(t)
    assert [s.verdict for s in res.stages] == ["not-hamiltonian"] * h + ["hamiltonian"]


def test_h_oracle_matches_chartrand_wall_on_trees(trees_to_9):
    # past 40 vertices a stage that is not a cycle is refused, the one cap
    # these trees meet; none drains the node budget
    refused = 0
    for t in trees_to_9:
        if is_path(t):
            continue
        res = h_oracle(t)
        if res.value is None:
            assert res.capped_reason.endswith("exceed the search cap 40"), t.label_edges()
            refused += 1
        else:
            assert res.value == _chartrand_wall(t), t.label_edges()
    assert refused == 9


@pytest.mark.parametrize("budget", [
    SearchBudget(),
    SearchBudget(dp_vertex_cap=16, node_budget=2_000, time_limit_s=3600,
                 stage_cap=3, iteration=IterationBudget(max_vertices=50, max_edges=90)),
])
def test_time_left_is_the_budget_with_the_time_left(monkeypatch, budget):
    monkeypatch.setattr(oracles.time, "monotonic", lambda: 100.0)
    left = oracles._time_left(budget, 102.5)
    assert left == replace(budget, time_limit_s=2.5)
    assert hash(left) == hash(replace(budget, time_limit_s=2.5))
    assert budget.time_limit_s != 2.5
    with pytest.raises(FrozenInstanceError):
        left.time_limit_s = 1.0
    with pytest.raises(CappedError, match="before a search"):
        oracles._time_left(budget, 100.0)


def test_index_result_json_shape():
    d = hp_oracle(star_graph(3)).to_json_dict()
    assert set(d) == {"value", "stages", "witness"}
    assert d["stages"][0] == {"n": 0, "V": 4, "E": 3, "verdict": "not-traceable"}


def _capped(reason, *stages):
    return {"value": "capped", "capped_reason": reason,
            "stages": [{"n": n, "V": v, "E": e, "verdict": verdict}
                       for n, v, e, verdict in stages]}


_SPIDER_222 = ((0, 7, 6), (1, 6, 6))
_SPIDER_333 = ((0, 10, 9), (1, 9, 9), (2, 9, 12))


def _from_text(edges):
    return graph_from_token_edges([e.split("-") for e in edges.split()])


# refused at stage 3 (hp) and 4 (h), the stages before them too small to be refused
_HP_REFUSED = _from_text("1-11 1-12 1-2 1-5 1-8 10-9 2-3 3-4 5-6 6-7 8-9")
_H_REFUSED = _from_text("1-2 1-6 1-7 1-8 2-3 3-4 4-5")
_H_REFUSED_STAGES = ((0, 8, 7), (1, 7, 9), (2, 9, 17), (3, 17, 55))
# a stage over the cap with at most two leaves (hp) or no leaf (h), which
# the leaf blocks (hp) or a cut vertex (h) settle; a later stage is refused
_HP_LEAF_BLOCKS = _from_text("1-16 1-4 10-16 10-7 11-3 12-4 12-9 13-15 13-3 14-6 "
                             "14-9 15-4 17-7 18-6 2-4 5-6 6-8")
_H_CUT_VERTEX = _from_text("1-4 10-3 10-8 11-8 12-8 2-5 2-9 3-4 4-7 5-8 6-8")


@pytest.mark.parametrize("oracle, g, budget, expected", [
    (h_oracle, spider(2, 2, 2), SearchBudget(stage_cap=1), _capped(
        "stage cap 1 reached",
        *[s + ("not-hamiltonian",) for s in _SPIDER_222])),
    (hp_oracle, spider(2, 2, 2), SearchBudget(stage_cap=1), _capped(
        "stage cap 1 reached",
        *[s + ("not-traceable",) for s in _SPIDER_222])),
    (h_oracle, spider(2, 2, 2),
     SearchBudget(iteration=IterationBudget(max_vertices=6, max_edges=8)), _capped(
        "stage 2: predicted size |V|=6, |E|=9 exceeds budget (6, 8)",
        *[s + ("not-hamiltonian",) for s in _SPIDER_222])),
    (hp_oracle, spider(2, 2, 2),
     SearchBudget(iteration=IterationBudget(max_vertices=5, max_edges=100)), _capped(
        "stage 1: predicted size |V|=6, |E|=6 exceeds budget (5, 100)",
        (0, 7, 6, "not-traceable"))),
    (hp_oracle, spider(3, 3, 3), SearchBudget(dp_vertex_cap=1, node_budget=1), _capped(
        "backtracking node budget exhausted",
        *[s + ("not-traceable",) for s in _SPIDER_333], (3, 12, 27, "capped"))),
    (h_oracle, spider(3, 3, 3), SearchBudget(dp_vertex_cap=1, node_budget=1), _capped(
        "backtracking node budget exhausted",
        *[s + ("not-hamiltonian",) for s in _SPIDER_333], (3, 12, 27, "capped"))),
    (h_oracle, chorded_cycle(41), SearchBudget(), _capped(
        "41 vertices exceed the search cap 40", (0, 41, 42, "capped"))),
    (hp_oracle, chorded_cycle(41), SearchBudget(), _capped(
        "41 vertices exceed the search cap 40", (0, 41, 42, "capped"))),
    (hp_oracle, _HP_REFUSED, SearchBudget(), _capped(
        "45 vertices exceed the search cap 40",
        (0, 12, 11, "not-traceable"), (1, 11, 16, "not-traceable"),
        (2, 16, 45, "not-traceable"), (3, 45, 255, "capped"))),
    (h_oracle, _H_REFUSED, SearchBudget(), _capped(
        "55 vertices exceed the search cap 40",
        *[s + ("not-hamiltonian",) for s in _H_REFUSED_STAGES],
        (4, 55, 324, "capped"))),
    (hp_oracle, _HP_LEAF_BLOCKS, SearchBudget(), _capped(
        "151 vertices exceed the search cap 40",
        (0, 18, 17, "not-traceable"), (1, 17, 22, "not-traceable"),
        (2, 22, 43, "not-traceable"), (3, 43, 151, "not-traceable"),
        (4, 151, 1009, "capped"))),
    (h_oracle, _H_CUT_VERTEX, SearchBudget(), _capped(
        "229 vertices exceed the search cap 40",
        (0, 12, 11, "not-hamiltonian"), (1, 11, 17, "not-hamiltonian"),
        (2, 17, 45, "not-hamiltonian"), (3, 45, 229, "not-hamiltonian"),
        (4, 229, 2282, "capped"))),
    # stage 4 is over the iteration budget and over the vertex cap: the
    # budget's reason wins, and the stage gets no record
    (h_oracle, _H_REFUSED, SearchBudget(iteration=IterationBudget(max_vertices=54)),
     _capped("stage 4: predicted size |V|=55, |E|=324 exceeds budget (54, 65536)",
             *[s + ("not-hamiltonian",) for s in _H_REFUSED_STAGES])),
], ids=["h-stage", "hp-stage", "h-iteration", "hp-iteration", "hp-nodes", "h-nodes",
        "h-vertices", "hp-vertices", "hp-refused-iterate", "h-refused-iterate",
        "hp-leaf-blocks", "h-cut-vertex", "h-iteration-over-cap"])
def test_capped_results_are_pinned(oracle, g, budget, expected):
    # capped_reason is printed by `hp oracle --json` and parsed by callers
    assert oracle(g, budget).to_json_dict() == expected


@pytest.mark.parametrize("oracle, g", [(hp_oracle, _HP_REFUSED), (h_oracle, _H_REFUSED),
                                       (hp_oracle, _HP_LEAF_BLOCKS),
                                       (h_oracle, _H_CUT_VERTEX)],
                         ids=["hp-refused-iterate", "h-refused-iterate",
                              "hp-leaf-blocks", "h-cut-vertex"])
def test_a_refused_iterate_is_never_built(monkeypatch, oracle, g):
    built = count_builds(monkeypatch)
    res = oracle(g)
    assert res.stages[-1].verdict == "capped"
    searched = len(res.stages) - 1
    assert len(built) == searched - 1
    assert built == must_build(res)


@pytest.mark.parametrize("oracle, no", [(hp_oracle, "not-traceable"),
                                        (h_oracle, "not-hamiltonian")])
def test_an_iterate_settled_by_its_screen_is_built_only_as_a_preimage(
        monkeypatch, oracle, no):
    # stages 1-3 are over the cap and settled "no" off their preimages, and
    # stage 4 is over the iteration budget, so L^3 is never built
    built = count_builds(monkeypatch)
    res = oracle(random_tree(1000, 2))
    assert res.to_json_dict() == _capped(
        "stage 4: predicted size |V|=20452, |E|=226656 exceeds budget (4096, 65536)",
        *[s + (no,) for s in ((0, 1000, 999), (1, 999, 1493), (2, 1493, 3911),
                              (3, 3911, 20452))])
    assert built == [999, 1493] == must_build(res)


@pytest.mark.parametrize("oracle, no", [(hp_oracle, "not-traceable"),
                                        (h_oracle, "not-hamiltonian")])
def test_a_refusal_past_the_deadline_is_a_time_cap(monkeypatch, oracle, no):
    # a star is settled at stage 0 without a clock read; its line graph,
    # K41, is refused
    g = star_graph(41)
    expected = [StageRecord(0, 42, 41, no), StageRecord(1, 41, 820, "capped")]
    assert oracle(g).capped_reason == "41 vertices exceed the search cap 40"
    # the deadline is fixed at 0 and every later read is past it
    clock = itertools.chain([0.0], itertools.repeat(100.0))
    monkeypatch.setattr(oracles.time, "monotonic", lambda: next(clock))
    res = oracle(g)
    assert list(res.stages) == expected
    assert res.capped_reason == "time limit hit before a search"


@pytest.mark.parametrize("oracle, no", [(hp_oracle, "not-traceable"),
                                        (h_oracle, "not-hamiltonian")])
def test_a_stage_past_the_deadline_builds_nothing(monkeypatch, oracle, no):
    # stage 1 is L(K_{1,5}) = K5, under the cap: the clock caps it before
    # it is built
    built = count_builds(monkeypatch)
    clock = itertools.chain([0.0], itertools.repeat(100.0))
    monkeypatch.setattr(oracles.time, "monotonic", lambda: next(clock))
    res = oracle(star_graph(5))
    assert list(res.stages) == [StageRecord(0, 6, 5, no),
                                StageRecord(1, 5, 10, "capped")]
    assert res.capped_reason == "time limit hit before a search"
    assert built == []


@pytest.mark.parametrize("oracle, no", [(hp_oracle, "not-traceable"),
                                        (h_oracle, "not-hamiltonian")])
def test_a_screened_stage_is_not_built_before_the_next_clock(monkeypatch, oracle, no):
    # stage 1 is settled "no" off the tree; the deadline, stage 1's clock
    # and the trail cross-check read 0.0, and stage 2's clock reads past
    # the deadline before L^1, stage 2's preimage, is built
    built = count_builds(monkeypatch)
    clock = itertools.chain([0.0] * 3, itertools.repeat(100.0))
    monkeypatch.setattr(oracles.time, "monotonic", lambda: next(clock))
    res = oracle(random_tree(1000, 2))
    assert list(res.stages) == [StageRecord(0, 1000, 999, no),
                                StageRecord(1, 999, 1493, no),
                                StageRecord(2, 1493, 3911, "capped")]
    assert res.capped_reason == "time limit hit before a search"
    assert built == []
