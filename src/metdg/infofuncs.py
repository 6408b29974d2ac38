"""Multi-type information functions of component codes.

For a code whose sockets are grouped by edge type, the table entry at a
tuple (g_1, ..., g_ne) is the sum of GF(2) ranks over every way of picking
g_l generator columns from each type-l group.  Variable nodes get one extra
axis: the split table also picks u identity columns among the transmitted
information bits, so the last axis of a VN table runs over u, and a VN table
walks the same key space (sockets, then channel bits) as its local decoding
map in `peeling`.

Tables hold exact integers.  They are the one place the toolkit is
exponential in code size: `gf2.subset_slots` eliminates every column subset
in blocks, each subset's rank is its count of nonzero echelon slots, and
`np.bincount` sums the ranks into the cell of the subset's per-axis counts.
The walk is n_sockets wide for a CN and n_sockets + n_transmitted wide for a
VN, and is checked against `gf2.WALK_BUDGET` before it starts.
"""

from __future__ import annotations

import math

import numpy as np

from . import gf2
from .ensemble import CnType, VnType

_cache: dict = {}


def _subset_sums(steps: list[int]) -> np.ndarray:
    """Entry s is the sum of steps[c] over the set bits c of s."""
    sums = np.zeros(1, dtype=np.int64)
    for step in steps:
        sums = np.concatenate([sums, sums + step])
    return sums


def _walk_table(columns: list[int], axes: list[int], shape: tuple[int, ...], n_rows: int) -> np.ndarray:
    """Sum of ranks over all subsets of columns, bucketed by the number of
    columns picked on each axis (axes[c] is the axis of columns[c])."""
    steps = [math.prod(shape[a + 1 :]) for a in axes]
    # a key's cell is the sum of the steps of its set bits, 12 bits at a time
    parts = [(i, _subset_sums(steps[i : i + 12])) for i in range(0, len(steps), 12)]
    table = np.zeros(math.prod(shape), dtype=np.int64)
    for keys, slots in gf2.subset_slots(columns, n_rows, [0], len(columns)):
        cell = sum(sums[(keys >> i) & 4095] for i, sums in parts)
        ranks = np.count_nonzero(slots, axis=0)
        table += np.bincount(cell, weights=ranks, minlength=table.size).astype(np.int64)
    return table.reshape(shape)


def _groups(matrix, socket_types, n_edge_types) -> tuple[tuple[int, ...], ...]:
    """Generator columns per edge type, each group sorted."""
    cols = matrix.column_bits()
    return tuple(
        tuple(sorted(bits for bits, t in zip(cols, socket_types) if t == l0 + 1))
        for l0 in range(n_edge_types)
    )


def _cached(key, groups, identity: list[int], shape: tuple[int, ...], n_rows: int) -> np.ndarray:
    """The memoized table of the per-type column groups, plus a VN's
    identity columns on the axis after them."""
    if key not in _cache:
        columns = [bits for g in groups for bits in g] + identity
        axes = [l0 for l0, g in enumerate(groups) for _ in g] + [len(groups)] * len(identity)
        _cache[key] = _walk_table(columns, axes, shape, n_rows)
    return _cache[key]


def cn_info_table(cn: CnType, n_edge_types: int) -> np.ndarray:
    """Information-function table of a CN type, shape (s_1+1, ..., s_ne+1).

    The table only depends on the row space of the generator, so the cache
    key uses the reduced row echelon form; permuting columns within one edge
    type does not change the table either, so per-type column multisets are
    canonicalized as well.
    """
    gf2.check_walk(cn.n_sockets, f"information table of CN type {cn.name!r}")
    _, rows = gf2.rref(cn.generator)
    canon = gf2.GF2Matrix(len(rows), cn.generator.n_cols, rows)
    groups = _groups(canon, cn.socket_types, n_edge_types)
    key = ("cn", n_edge_types, canon.row_bits, groups)
    return _cached(key, groups, [], tuple(len(g) + 1 for g in groups), len(rows))


def vn_info_table(vn: VnType, n_edge_types: int) -> np.ndarray:
    """Split information-function table of a VN type.

    Shape is (q_1+1, ..., q_ne+1, w+1) where w is the number of transmitted
    information bits; the last axis indexes how many of their identity
    columns are selected.  The generator is the encoder and enters the key
    as-is; only within-type column order is canonicalized.
    """
    gf2.check_walk(vn.n_sockets + vn.n_transmitted, f"information table of VN type {vn.name!r}")
    groups = _groups(vn.generator, vn.socket_types, n_edge_types)
    key = ("vn", n_edge_types, vn.generator.row_bits, groups, vn.puncture)
    shape = tuple(len(g) + 1 for g in groups) + (vn.n_transmitted + 1,)
    identity = [1 << i for i in vn.transmitted_positions]
    return _cached(key, groups, identity, shape, vn.n_info_bits)
