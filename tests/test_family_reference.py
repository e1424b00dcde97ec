"""The glued-cycle family against its canonical-key reference.

`gen_hamiltonian_2block_family` dedupes by a coloured base-tree code; the
reference in reference_family.py builds every candidate and dedupes by
`graph_key`. Both must stream the same graphs under the same tags, in the
same order.
"""

import pytest

from hpindex import FamilyParams, gen_hamiltonian_2block_family
from reference_family import gen_hamiltonian_2block_family as reference_family


def stream(family, params):
    return [(tag, g.labels, g.label_edges()) for g, tag in family(params)]


def assert_same_stream(params):
    got = stream(gen_hamiltonian_2block_family, params)
    assert got == stream(reference_family, params)
    assert got


@pytest.mark.parametrize("max_vertices", range(1, 11))
def test_enumerated_bases(max_vertices):
    assert_same_stream(FamilyParams(max_vertices=max_vertices))


@pytest.mark.slow
def test_enumerated_bases_to_12():
    assert_same_stream(FamilyParams(max_vertices=12))


@pytest.mark.parametrize("seed", range(4))
def test_random_bases(seed):
    assert_same_stream(FamilyParams(max_vertices=12, base_tree_source="random",
                                    random_bases=12, seed=seed))


@pytest.mark.parametrize("cycle_sizes", [(3,), (4, 6)])
def test_cycle_sizes(cycle_sizes):
    assert_same_stream(FamilyParams(max_vertices=10, cycle_sizes=cycle_sizes))


@pytest.mark.parametrize("source", ["enumerated", "random"])
def test_without_bases(source):
    random_bases = 12 if source == "random" else 0
    assert_same_stream(FamilyParams(max_vertices=10, include_bases=False,
                                    base_tree_source=source,
                                    random_bases=random_bases))
