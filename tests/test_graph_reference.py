"""`Graph.__init__` against the set-based constructor it replaced.

Both constructors must leave the same labels, adjacency and edges, as equal
tuples of the same shape, and raise the same first error on bad input.
`Graph._trusted`, given the reference's labels and edges, must derive the
same adjacency too: it and `__init__` share one adjacency builder.

`checked_edges`, the checking loop as it was before malformed pairs were
refused, is the reference for pairs of every kind, good or bad: the same edges, and the
same first fault. A pair it could not unpack must now raise
ValidationError in its place.
"""

import random
from itertools import combinations, product

import numpy as np
import pytest

from hpindex.errors import ValidationError
from hpindex.graphs import Graph
from reference_graph import checked_edges, graph_fields

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


MALFORMED = "each edge must be a pair of endpoints"


def first_fault(build, labels, pairs):
    """The edges `build` returns, or the message of its first error; a pair
    that does not unpack counts as the ValidationError `Graph` raises."""
    try:
        return build(labels, pairs)
    except ValidationError as exc:
        return str(exc)
    except (TypeError, ValueError):
        return MALFORMED


def fault(kind, n, rng):
    if kind == "type":
        return rng.choice([(False, 1), (0, True), (0.0, 1), (0, 1.0),
                           (np.int64(0), 1), (0, np.int64(1)), ("0", "1"), "ab"])
    if kind == "range":
        return rng.choice([(-1, 0), (0, -1), (n, 0), (0, n), (n, n), (-1, -1),
                           (n + 5, -3)])
    if kind == "self-loop":
        v = rng.randrange(n)
        return rng.choice([(v, v), [v, v]])
    return rng.choice([(0,), (0, 1, 1), [0], [0, 1, 1], (), 5, None, "abc"])


@pytest.mark.parametrize("seed", range(120))
def test_seeded_pairs_with_faults_of_every_kind(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 40)
    labels = [f"v{i}" for i in range(n)]
    pairs = []
    for _ in range(rng.randint(0, 3 * n) if n > 1 else 0):
        u, v = rng.sample(range(n), 2)
        # ascending and descending, as tuples and as lists, with repeats
        pairs.append(rng.choice([(u, v), [u, v]]))
        if rng.random() < 0.3:
            pairs.append(rng.choice([(v, u), [v, u], (u, v)]))
    kinds = ["type", "range", "self-loop", "malformed"]
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        pairs.insert(rng.randint(0, len(pairs)), fault(rng.choice(kinds), n, rng))
    want = first_fault(checked_edges, labels, pairs)
    assert first_fault(lambda ls, ps: Graph(ls, iter(ps)).edges, labels, pairs) == want
    if isinstance(want, str):
        return
    assert_same_graph(labels, pairs)
