"""`Graph.__init__` against the set-based constructor it replaced.

Both constructors must leave the same labels, adjacency and edges, as equal
tuples of the same shape, and raise the same first error on bad input.
`Graph._trusted`, given the reference's labels and edges, must derive the
same adjacency too: it and `__init__` share one adjacency builder.
"""

import random
from itertools import combinations, product

import pytest

from hpindex.errors import ValidationError
from hpindex.graphs import Graph
from reference_graph import graph_fields

LABELS = ("d", "a", "c", "b")


def assert_same_graph(labels, pairs):
    g = Graph(labels, iter(pairs))  # one pass over any iterable
    want = graph_fields(labels, pairs)
    assert (g.labels, g.adj, g.edges) == want, (labels, pairs)
    assert Graph._trusted(want[0], want[2]).adj == want[1]
    assert [g.index(lab) for lab in labels] == list(range(len(labels)))


def first_error(build, labels, pairs):
    try:
        build(labels, pairs)
    except ValidationError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_every_small_pair_multiset(n):
    # each pair absent, once either way round, both ways, or three times
    rng = random.Random(n)
    choices = [((), ((u, v),), ((v, u),), ((u, v), (v, u)),
                ((v, u), (u, v), (u, v)))
               for u, v in combinations(range(n), 2)]
    for pick in product(*choices):
        pairs = [p for chosen in pick for p in chosen]
        rng.shuffle(pairs)
        assert_same_graph(LABELS[:n], pairs)


@pytest.mark.parametrize("seed", range(40))
def test_seeded_pair_lists(seed):
    rng = random.Random(seed)
    n = rng.randint(2, 200)
    labels = [f"v{i}" for i in range(n)]
    rng.shuffle(labels)
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 4 * n))]
    pairs += rng.sample(pairs, len(pairs) // 4)  # repeats, in any order
    assert_same_graph(labels, pairs)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_the_first_fault_raises_the_same_error(n):
    faults = [(-1, 0), (0, -1), (0, n), (n, 0), (n, n), (-1, -1)] + [
        (v, v) for v in range(n)]
    valid = [(u, v) for u, v in combinations(range(n), 2)]
    for first, second in product(faults, repeat=2):
        for prefix in ([], valid, valid[::-1]):
            pairs = prefix + [first, second]
            want = first_error(graph_fields, LABELS[:n], pairs)
            assert want is not None
            assert first_error(Graph, LABELS[:n], pairs) == want, pairs
    for labels in (("a", "a"), ("a", "b", "a")):
        assert (first_error(Graph, labels, [(0, 0)])
                == first_error(graph_fields, labels, [(0, 0)])
                == "duplicate vertex labels")
