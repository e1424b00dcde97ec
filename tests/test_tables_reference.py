"""The numpy subset table against the per-(end, neighbour) reference.

`oracles._dp_table_np` and the reference in reference_tables.py must build
the same table entry for entry: the witness walk is read back from it, so a
table that differs anywhere can change a witness even when every verdict
holds.
"""

import random
from itertools import combinations

import numpy as np
import pytest

from hpindex import (
    CappedError,
    Graph,
    IterationBudget,
    SearchBudget,
    enumerate_connected_graphs,
    enumerate_free_trees,
    h_oracle,
    has_hamiltonian_cycle,
    has_hamiltonian_path,
    hp_oracle,
    is_path,
)
from hpindex import oracles
from reference_tables import _dp_table_np as reference_table
from shapes import random_connected_graph

NO_DEADLINE = float("inf")


def assert_same_table(g, starts):
    adj = oracles._adj_masks(g)
    fast = oracles._dp_table_np(adj, starts, NO_DEADLINE)
    ref = reference_table(adj, starts, NO_DEADLINE)
    assert fast.dtype == ref.dtype
    assert np.array_equal(fast, ref), (g.label_edges(), starts)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_every_small_connected_graph(n):
    rng = random.Random(n)
    full = (1 << n) - 1
    for g in enumerate_connected_graphs(n):
        for starts in (full, 1, rng.randrange(1, full + 1)):
            assert_same_table(g, starts)


@pytest.mark.parametrize("block", range(4))
def test_seeded_random_graphs_13_to_20(block):
    # 200 graphs in four chunks; even seeds seed every vertex (path search),
    # odd seeds vertex 0 alone (cycle search)
    for seed in range(block * 50, block * 50 + 50):
        n = 13 + seed % 8
        g = random_connected_graph(n, seed * 7 % 31, seed)
        assert_same_table(g, (1 << n) - 1 if seed % 2 == 0 else 1)


def test_stage_graphs_of_free_trees_up_to_10(monkeypatch):
    # every iterate of 13-16 vertices that the hp and h stage loops search;
    # the iteration budget ends each loop before it builds a larger iterate
    stages = []

    def recording(search):
        def wrapped(g, budget):
            if 13 <= g.n <= 16:
                stages.append(g)
            return search(g, budget)
        return wrapped

    monkeypatch.setattr(oracles, "has_hamiltonian_path", recording(has_hamiltonian_path))
    monkeypatch.setattr(oracles, "has_hamiltonian_cycle", recording(has_hamiltonian_cycle))
    budget = SearchBudget(iteration=IterationBudget(max_vertices=16))
    for n in range(2, 11):
        for t in enumerate_free_trees(n):
            hp_oracle(t, budget)
            if not is_path(t):
                h_oracle(t, budget)
    assert len(stages) == 74
    table_only = SearchBudget(prepass_nodes=1)
    for g in stages:
        assert_same_table(g, (1 << g.n) - 1)
        assert_same_table(g, 1)
        # the index-order prepass returns the table's own answer and witness
        assert has_hamiltonian_path(g) == has_hamiltonian_path(g, table_only)
        assert has_hamiltonian_cycle(g) == has_hamiltonian_cycle(g, table_only)


def three_starts(n, rng):
    # every vertex (path search), vertex 0 alone (cycle search), and a
    # seeded mask of at least two vertices
    full = (1 << n) - 1
    mask = 0
    while mask.bit_count() < 2:
        mask = rng.randrange(1, full + 1)
    return full, 1, mask


@pytest.mark.parametrize("n", range(2, 17))
def test_complete_graphs(n):
    # every mask is live in every layer
    g = Graph([str(i) for i in range(n)], list(combinations(range(n), 2)))
    for starts in three_starts(n, random.Random(n)):
        assert_same_table(g, starts)


@pytest.mark.parametrize("a", range(1, 8))
def test_unbalanced_complete_bipartite_graphs(a):
    # no hamiltonian path, yet large live layers up to the last one
    for b in range(a + 2, 17 - a):
        g = Graph([str(i) for i in range(a + b)],
                  [(i, a + j) for i in range(a) for j in range(b)])
        for starts in three_starts(a + b, random.Random(a * 100 + b)):
            assert_same_table(g, starts)


@pytest.mark.parametrize("n", range(13, 19))
def test_dense_random_graphs(n):
    # edge densities 0.6 to 0.9
    rng = random.Random(n)
    pairs = n * (n - 1) // 2
    for seed, density in enumerate((0.6, 0.7, 0.8, 0.9)):
        g = random_connected_graph(n, round(density * pairs) - (n - 1), seed)
        for starts in three_starts(n, rng):
            assert_same_table(g, starts)


@pytest.mark.parametrize("n", range(17, 21))
def test_hamiltonian_cycles_with_chords(n):
    # the cycle 0..n-1 plus random chords, 1.6 n edges in all, as in the
    # benchmark's table queries
    rng = random.Random(n)
    cycle = {(i, i + 1) for i in range(n - 1)} | {(0, n - 1)}
    chords = [p for p in combinations(range(n), 2) if p not in cycle]
    for _ in range(2):
        edges = sorted(cycle) + rng.sample(chords, round(0.6 * n))
        g = Graph([str(i) for i in range(n)], edges)
        for starts in three_starts(n, rng):
            assert_same_table(g, starts)


@pytest.mark.slow
def test_24_vertex_table():
    g = random_connected_graph(24, 24, 8)
    assert_same_table(g, (1 << 24) - 1)


_PINNED = {
    (13, 7): (
        ("11", "4", "9", "6", "3", "10", "13", "12", "2", "8", "5", "7", "1"),
        ("1", "11", "4", "9", "6", "3", "10", "13", "12", "2", "8", "5", "7")),
    (16, 7): (
        ("16", "5", "14", "2", "10", "12", "13", "15", "7", "11", "8", "4", "9",
         "3", "6", "1"),
        ("1", "16", "5", "14", "2", "10", "12", "13", "15", "7", "11", "8", "4",
         "9", "3", "6")),
    (20, 7): (
        ("13", "15", "14", "6", "18", "12", "20", "19", "16", "3", "9", "5",
         "11", "17", "4", "7", "10", "2", "8", "1"),
        ("1", "11", "17", "4", "7", "10", "5", "9", "18", "12", "20", "19", "16",
         "6", "3", "14", "15", "13", "2", "8")),
    (24, 8): (
        ("17", "12", "13", "4", "18", "8", "6", "23", "24", "14", "19", "21",
         "7", "15", "20", "22", "10", "9", "2", "5", "16", "3", "11", "1"),
        ("1", "12", "17", "6", "8", "18", "4", "13", "20", "15", "19", "21", "7",
         "22", "10", "9", "2", "5", "16", "3", "23", "24", "14", "11")),
}


@pytest.mark.parametrize("n, seed", list(_PINNED), ids=[f"v{n}" for n, _ in _PINNED])
def test_table_witnesses_are_pinned(n, seed):
    # prepass_nodes=1 hands the 17-24 vertex cases to the table as well
    g = random_connected_graph(n, n, seed)
    budget = SearchBudget(prepass_nodes=1)
    path, cycle = _PINNED[n, seed]
    assert has_hamiltonian_path(g, budget) == (True, path)
    assert has_hamiltonian_cycle(g, budget) == (True, cycle)
    if n < 17:
        # below 17 vertices the default budget's prepass finds the same walks
        assert has_hamiltonian_path(g) == (True, path)
        assert has_hamiltonian_cycle(g) == (True, cycle)


def test_table_deadline_caps_the_search():
    g = random_connected_graph(20, 20, 7)
    assert has_hamiltonian_path(g)[0]
    budget = SearchBudget(prepass_nodes=1, time_limit_s=1e-9)
    reason = "time limit hit during subset dynamic programming"
    with pytest.raises(CappedError, match=f"^{reason}$"):
        has_hamiltonian_path(g, budget)
    assert hp_oracle(g, budget).to_json_dict() == {
        "value": "capped", "capped_reason": reason,
        "stages": [{"n": 0, "V": 20, "E": 39, "verdict": "capped"}]}
