"""The canonical-key dedupe of the glued-cycle family, kept as the reference.

`hpindex.generators.gen_hamiltonian_2block_family` used to be exactly
`gen_hamiltonian_2block_family` below: it built every candidate graph and
dropped it when its `graph_key` had been seen before. The generator now
dedupes by a coloured base-tree code before building anything, and the
differential tests compare the two streams.
"""

from __future__ import annotations

from typing import Iterator

from hpindex.canon import graph_key
from hpindex.generators import FamilyParams, _base_trees, _glued
from hpindex.graphs import Graph


def gen_hamiltonian_2block_family(
    params: FamilyParams,
) -> Iterator[tuple[Graph, str]]:
    sizes = tuple(sorted(set(params.cycle_sizes)))
    seen: set[str] = set()
    for order in range(1, params.max_vertices + 1):
        for ti, tree in enumerate(_base_trees(params, order)):
            base_tag = f"T{order}.{ti}"
            verts = sorted(tree.labels)

            def attachments(
                start: int, used: int
            ) -> Iterator[tuple[tuple[str, int], ...]]:
                yield ()
                for j in range(start, len(verts)):
                    for k in sizes:
                        if tree.n + used + k - 1 > params.max_vertices:
                            continue
                        for rest in attachments(j + 1, used + k - 1):
                            yield ((verts[j], k),) + rest

            for assignment in attachments(0, 0):
                if not assignment and not params.include_bases:
                    continue
                g = _glued(tree, assignment)
                key = graph_key(g)
                if key in seen:
                    continue
                seen.add(key)
                tag = base_tag + "".join(f"+C{k}@{v}" for v, k in assignment)
                yield g, tag
