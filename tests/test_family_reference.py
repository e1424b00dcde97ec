"""The glued-cycle family against its canonical-key reference.

`gen_hamiltonian_2block_family` dedupes by a coloured base-tree code; the
reference in reference_family.py builds every candidate and dedupes by
`graph_key`. Both must stream the same graphs under the same tags, in the
same order.
"""

import pytest

from hpindex import FamilyParams, gen_hamiltonian_2block_family, is_path
from hpindex import generators
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


@pytest.mark.parametrize("cycle_sizes", [(3,), (4, 6)])
@pytest.mark.parametrize("seed", range(4, 10))
def test_random_bases_with_other_cycle_sizes(seed, cycle_sizes):
    assert_same_stream(FamilyParams(max_vertices=12, cycle_sizes=cycle_sizes,
                                    base_tree_source="random", random_bases=8,
                                    seed=seed))


@pytest.mark.parametrize("include_bases", [True, False])
def test_repeated_random_bases_are_skipped(monkeypatch, include_bases):
    # all eight random bases of order 3 are paths, so only the first one
    # has its assignments listed; the other seven stop at the empty one
    params = FamilyParams(max_vertices=8, cycle_sizes=(3,),
                          base_tree_source="random", random_bases=8, seed=4,
                          include_bases=include_bases)
    assert [is_path(t) for t in generators._base_trees(params, 3)] == [True] * 8
    attachments = generators._attachments
    drawn = []

    def listing(sites, sizes, room):
        drawn.append((len(sites), []))
        for assignment in attachments(sites, sizes, room):
            drawn[-1][1].append(assignment)
            yield assignment

    monkeypatch.setattr(generators, "_attachments", listing)
    assert_same_stream(params)
    # the two orders where every base is a path list one base each
    for order in (2, 3):
        lists = [got for n, got in drawn if n == order]
        assert len(lists) == 8
        assert len(lists[0]) > 1
        assert lists[1:] == [[()]] * 7
