"""Multi-type information functions of component codes.

For a code whose sockets are grouped by edge type, the table entry at a
tuple (g_1, ..., g_ne) is the sum of GF(2) ranks over every way of picking
g_l generator columns from each type-l group.  Variable nodes get one extra
axis: the split table also picks u identity columns among the transmitted
information bits, so the last axis of a VN table runs over u, and a VN table
walks the same key space (sockets, then channel bits) as its local decoding
map in `peeling`.

Tables hold exact integers.  They are the one place the toolkit is
exponential in code size: `gf2.subset_ranks` ranks every column subset in
blocks, and `np.bincount` sums the ranks into the cell of the subset's
per-axis counts.
The walk is n_sockets wide for a CN and n_sockets + n_transmitted wide for a
VN, and is checked against `gf2.WALK_BUDGET` before it starts.
"""

from __future__ import annotations

import math

import numpy as np

from . import gf2
from .ensemble import CnType, VnType


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
    for keys, ranks in gf2.subset_ranks(columns, n_rows, [0], len(columns)):
        cell = sum(sums[(keys >> i) & 4095] for i, sums in parts)
        table += np.bincount(cell, weights=ranks, minlength=table.size).astype(np.int64)
    return table.reshape(shape)


def _table(node: CnType | VnType, n_edge_types: int, identity: list[int] | None) -> np.ndarray:
    """The table of a node's generator columns grouped by edge type, plus,
    for a VN, its identity columns on one more axis."""
    cols = node.generator.column_bits()
    groups = [
        [bits for bits, t in zip(cols, node.socket_types) if t == l0 + 1] for l0 in range(n_edge_types)
    ]
    shape = tuple(len(g) + 1 for g in groups)
    columns = [bits for g in groups for bits in g]
    axes = [l0 for l0, g in enumerate(groups) for _ in g]
    if identity is not None:
        shape += (len(identity) + 1,)
        columns += identity
        axes += [n_edge_types] * len(identity)
    return _walk_table(columns, axes, shape, node.generator.n_rows)


def cn_info_table(cn: CnType, n_edge_types: int) -> np.ndarray:
    """Information-function table of a CN type, shape (s_1+1, ..., s_ne+1).

    The table depends only on the code: a basis change of the generator's
    rows, or a permutation of the columns within one edge type, leaves it
    unchanged.
    """
    gf2.check_walk(cn.n_sockets, f"information table of CN type {cn.name!r}")
    return _table(cn, n_edge_types, None)


def vn_info_table(vn: VnType, n_edge_types: int) -> np.ndarray:
    """Split information-function table of a VN type.

    Shape is (q_1+1, ..., q_ne+1, w+1) where w is the number of transmitted
    information bits; the last axis indexes how many of their identity
    columns are selected.  The generator is the encoder, so the table
    depends on its rows as given, not only on their span.
    """
    gf2.check_walk(vn.n_sockets + vn.n_transmitted, f"information table of VN type {vn.name!r}")
    identity = [1 << i for i in vn.transmitted_positions]
    return _table(vn, n_edge_types, identity)
