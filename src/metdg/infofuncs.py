"""Multi-type information functions of component codes.

For a code whose sockets are grouped by edge type, the table entry at a
tuple (g_1, ..., g_ne) is the sum of GF(2) ranks over every way of picking
g_l generator columns from each type-l group.  Variable nodes get one extra
axis: the split table also picks u identity columns among the transmitted
information bits, so the last axis of a VN table runs over u.

Tables hold exact integers.  They are the one place the toolkit is
exponential in code size, so construction walks the column subsets
depth-first and reuses the elimination state along the walk: extending a
selection by one column costs a single reduce against the current basis.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

import numpy as np

from . import gf2
from .ensemble import CnType, VnType
from .errors import InternalError

_cache: dict = {}
_cache_lock = threading.Lock()


def _rank_table(columns: list[tuple[int, int]], shape: tuple[int, ...]) -> np.ndarray:
    """Sum of ranks over all column subsets, bucketed by per-axis counts.

    columns: (bit_vector, axis) pairs; shape: per-axis bucket counts
    (axis dimension = group size + 1).
    """
    strides = [0] * len(shape)
    acc = 1
    for a in range(len(shape) - 1, -1, -1):
        strides[a] = acc
        acc *= shape[a]
    table = [0] * acc
    cols = [(bits, strides[axis]) for bits, axis in columns]
    n = len(cols)
    pivots: list[int] = []
    vecs: list[int] = []

    def visit(i: int, offset: int) -> None:
        if i == n:
            table[offset] += len(pivots)
            return
        visit(i + 1, offset)
        v, stride = cols[i]
        v = gf2.reduce_vector(v, pivots, vecs)
        if v:
            p = v & -v
            j = bisect_left(pivots, p)
            pivots.insert(j, p)
            vecs.insert(j, v)
            visit(i + 1, offset + stride)
            pivots.pop(j)
            vecs.pop(j)
        else:
            visit(i + 1, offset + stride)

    visit(0, 0)
    arr = np.array(table, dtype=np.int64).reshape(shape)
    if arr.min() < 0:
        raise InternalError("rank table overflowed int64")
    return arr


def _typed_columns(matrix, socket_types) -> list[tuple[int, int]]:
    cols = matrix.column_bits()
    return [(bits, socket_types[j] - 1) for j, bits in enumerate(cols)]


def cn_info_table(cn: CnType, n_edge_types: int) -> np.ndarray:
    """Information-function table of a CN type, shape (s_1+1, ..., s_ne+1).

    The table only depends on the row space of the generator, so the cache
    key uses the reduced row echelon form; permuting columns within one edge
    type does not change the table either, so per-type column multisets are
    canonicalized as well.
    """
    gf2.check_sockets(cn.n_sockets)
    piv, rows = gf2.rref(cn.generator)
    canon = gf2.GF2Matrix(len(rows), cn.generator.n_cols, rows)
    groups = tuple(
        tuple(sorted(bits for bits, ax in _typed_columns(canon, cn.socket_types) if ax == l0))
        for l0 in range(n_edge_types)
    )
    key = ("cn", n_edge_types, canon.row_bits, groups)
    with _cache_lock:
        if key not in _cache:
            shape = tuple(len(g) + 1 for g in groups)
            columns = [(bits, l0) for l0, g in enumerate(groups) for bits in g]
            _cache[key] = _rank_table(columns, shape)
        return _cache[key]


def vn_info_table(vn: VnType, n_edge_types: int) -> np.ndarray:
    """Split information-function table of a VN type.

    Shape is (q_1+1, ..., q_ne+1, w+1) where w is the number of transmitted
    information bits; the last axis indexes how many of their identity
    columns are selected.  The generator is the encoder and enters the key
    as-is; only within-type column order is canonicalized.
    """
    gf2.check_sockets(vn.n_sockets)
    gf2.check_input_bits(vn.n_info_bits)
    groups = tuple(
        tuple(sorted(bits for bits, ax in _typed_columns(vn.generator, vn.socket_types) if ax == l0))
        for l0 in range(n_edge_types)
    )
    key = ("vn", n_edge_types, vn.generator.row_bits, groups, vn.puncture)
    with _cache_lock:
        if key not in _cache:
            u_axis = n_edge_types
            shape = tuple(len(g) + 1 for g in groups) + (vn.n_transmitted + 1,)
            columns = [(bits, l0) for l0, g in enumerate(groups) for bits in g]
            columns += [(1 << i, u_axis) for i in vn.transmitted_positions]
            _cache[key] = _rank_table(columns, shape)
        return _cache[key]
