"""The per-(end, neighbour) numpy subset table, kept as the reference, and
the dense view of the kernel's layered table.

`hpindex.oracles._dp_table_np` used to be exactly `_dp_table_np` below: in
each popcount layer it selects the masks ending at each vertex v and pushes
them to every neighbour w of v, n * deg boolean selections and scatters per
layer, with popcounts from a bit-twiddling pass over a 2^n uint32 array of
masks. That dense table holds 2^n entries, 64 MiB at 24 vertices, where the
kernel now keeps only the live masks: one pair of arrays per popcount
layer, the masks ascending and each one's ends. `dense_table` checks that
layout and spreads it back into 2^n entries, so the differential tests
compare the full tables entry for entry.
"""

from __future__ import annotations

import time

import numpy as np

from hpindex.errors import CappedError


def _popcount32(a: np.ndarray) -> np.ndarray:
    a = a - ((a >> 1) & np.uint32(0x55555555))
    a = (a & np.uint32(0x33333333)) + ((a >> 2) & np.uint32(0x33333333))
    a = (a + (a >> 4)) & np.uint32(0x0F0F0F0F)
    return (a * np.uint32(0x01010101)) >> 24


def _dp_table_np(adj: list[int], starts: int, deadline: float) -> np.ndarray:
    n = len(adj)
    size = 1 << n
    masks = np.arange(size, dtype=np.uint32)
    pop = _popcount32(masks).astype(np.uint8)
    dp = np.zeros(size, dtype=np.uint32)
    for v in range(n):
        if starts >> v & 1:
            dp[1 << v] = np.uint32(1 << v)
    for k in range(1, n):
        if time.monotonic() > deadline:
            raise CappedError("time limit hit during subset dynamic programming")
        layer = masks[pop == k]
        vals = dp[layer]
        if not vals.any():
            continue
        for v in range(n):
            bit_v = np.uint32(1 << v)
            src = layer[(vals & bit_v) != 0]
            if src.size == 0:
                continue
            nb = adj[v]
            while nb:
                wbit = nb & -nb
                nb ^= wbit
                bit_w = np.uint32(wbit)
                ext = src[(src & bit_w) == 0]
                if ext.size:
                    # distinct sources stay distinct targets, so fancy |= is safe
                    dp[ext | bit_w] |= bit_w
    return dp


def dense_table(table: list[tuple[np.ndarray, np.ndarray]], n: int) -> np.ndarray:
    """The 2^n uint32 table that the kernel's layers stand for, once each
    layer is checked: layer k - 1 holds masks of popcount k, strictly
    ascending as int32, each with a nonzero uint32 end set inside it."""
    dp = np.zeros(1 << n, dtype=np.uint32)
    assert len(table) <= n
    for k, (masks, ends) in enumerate(table, start=1):
        assert masks.dtype == np.int32 and ends.dtype == np.uint32
        assert masks.shape == ends.shape
        assert (np.diff(masks) > 0).all()
        assert (_popcount32(masks.astype(np.uint32)) == k).all()
        assert (ends != 0).all() and not (ends & ~masks.astype(np.uint32)).any()
        dp[masks] = ends
    return dp
