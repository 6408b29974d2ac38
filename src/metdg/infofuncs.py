"""Multi-type information functions of component codes.

For a code whose sockets are grouped by edge type, the table entry at a
tuple (g_1, ..., g_ne) is the sum of GF(2) ranks over every way of picking
g_l generator columns from each type-l group.  Variable nodes get one extra
axis: the split table also picks u identity columns among the transmitted
information bits, so the last axis of a VN table runs over u, and a VN table
walks the same key space (sockets, then channel bits) as its local decoding
map in `peeling`.

Tables hold exact integers, built in one of two ways:

- a rank programme on Python ints: one pass over the columns whose states
  are the spans reached so far, each with the number of subsets per cell
  that reach it.  Its work grows with the number of spans, which is small
  when the code or its dual has a small dimension; it runs on the dual
  matroid when that has the smaller rank.
- the subset walk: `gf2.subset_ranks` ranks every column subset in blocks
  in numpy, and `np.bincount` sums the ranks into the cell of the subset's
  per-axis counts.  Its work is 2**n for n columns, whatever the code.

`_programme_pays` picks the one with the smaller estimated work, from the
number of columns, their rank and the table's shape.  Either way the width
(n_sockets for a CN, n_sockets + n_transmitted for a VN) is checked against
`gf2.WALK_BUDGET` before the build starts.  The public tables are int64
numpy arrays; the EXIT engine reads the same values as Python ints, so it
builds them without numpy.
"""

from __future__ import annotations

import math
from itertools import product
from typing import TYPE_CHECKING

from . import gf2
from .ensemble import CnType, VnType

if TYPE_CHECKING:
    import numpy as np


def _subset_sums(steps: list[int]) -> np.ndarray:
    """Entry s is the sum of steps[c] over the set bits c of s."""
    import numpy as np

    sums = np.zeros(1, dtype=np.int64)
    for step in steps:
        sums = np.concatenate([sums, sums + step])
    return sums


def _walk_table(columns: list[int], axes: list[int], shape: tuple[int, ...], n_rows: int) -> np.ndarray:
    """Sum of ranks over all subsets of columns, bucketed by the number of
    columns picked on each axis (axes[c] is the axis of columns[c]), as an
    int64 array of the given shape."""
    import numpy as np

    steps = [math.prod(shape[a + 1 :]) for a in axes]
    # a key's cell is the sum of the steps of its set bits, 12 bits at a time
    parts = [(i, _subset_sums(steps[i : i + 12])) for i in range(0, len(steps), 12)]
    table = np.zeros(math.prod(shape), dtype=np.int64)
    for keys, ranks in gf2.subset_ranks(columns, n_rows, [0], len(columns)):
        cell = sum(sums[(keys >> i) & 4095] for i, sums in parts)
        table += np.bincount(cell, weights=ranks, minlength=table.size).astype(np.int64)
    return table.reshape(shape)


def _grow(basis: tuple[int, ...], v: int) -> tuple[int, ...]:
    """The reduced echelon basis of span(basis + (v,)).  A basis is reduced
    when no vector holds the top bit of another; sorted in descending order,
    it is then the one key of its span."""
    for b in basis:
        if v >> (b.bit_length() - 1) & 1:
            v ^= b
    if not v:
        return basis
    top = v.bit_length() - 1
    return tuple(sorted([b ^ v if b >> top & 1 else b for b in basis] + [v], reverse=True))


def _programme_table(columns: list[int], axes: list[int], shape: tuple[int, ...], rank: int) -> list[int]:
    """What _walk_table computes, as a flat list in C order, by a pass over
    the columns.  Its state maps each span reached to the number of subsets
    per cell that reach it, packed into one int: the count of cell i in a
    field of `width` bits at bit i * width.  Taking a column of axis a moves
    every count up by that axis's cell step, which is one shift.  `width`
    holds any count times a rank, so the sum over spans of rank times
    counts is the table, still packed."""
    width = len(columns) + rank.bit_length() + 1
    states = {(): 1}
    for v, a in zip(columns, axes):
        shift = math.prod(shape[a + 1 :]) * width
        grown = dict(states)
        for basis, counts in states.items():
            key = _grow(basis, v)
            grown[key] = grown.get(key, 0) + (counts << shift)
        states = grown
    table = sum(len(basis) * counts for basis, counts in states.items())
    mask = (1 << width) - 1
    return [table >> (i * width) & mask for i in range(math.prod(shape))]


def _gaussian_binomial(d: int, j: int) -> int:
    """The number of j-dimensional subspaces of GF(2)^d."""
    num = den = 1
    for i in range(j):
        num *= (1 << (d - i)) - 1
        den *= (1 << (i + 1)) - 1
    return num // den


def _programme_pays(side: list[int], d: int, shape: tuple[int, ...]) -> bool:
    """Whether the rank programme is estimated to take less time than the
    subset walk, for a table of this shape, where the programme would run
    on the columns `side` of rank d: the code's columns, or its dual's when
    that has the smaller rank.

    After i columns of which u are distinct, its spans are at most 2**u,
    and at most sum_j min(C(u, j), [d choose j]_2): a span of dimension j
    is spanned by j distinct columns, and is a j-dimensional subspace of
    GF(2)^d.  Each span costs one step per column, about 1.5 us plus the
    time to shift its packed counts, which grows with the table's cells
    times their width.  The walk costs about 0.15 us per subset plus about
    0.45 ms per table.  (Measured on a 2-core Xeon, Python 3.11, numpy
    2.4.)"""
    n = len(side)
    limits = [_gaussian_binomial(d, j) for j in range(d + 1)]
    distinct = (len(set(side[:i])) for i in range(1, n + 1))
    spans = sum(min(1 << u, sum(map(min, (math.comb(u, j) for j in range(d + 1)), limits))) for u in distinct)
    packed_bits = math.prod(shape) * (n + d.bit_length() + 1)
    # both sides in units of 0.15 us
    return 10 * spans * (1 + packed_bits / 8192) <= (1 << n) + 3000


def _rank_table(columns: list[int], axes: list[int], shape: tuple[int, ...], n_rows: int) -> list[int]:
    """The table of these columns as a flat list of ints in C order, by the
    rank programme or the walk, whichever _programme_pays picks.

    On the dual: matroid duality gives r(S) = |S| - (n - rank) + r*(E \\ S)
    for the rank r* of the dual matroid, represented by the columns of a
    generator of the null space of the columns' matrix (Oxley, Matroid
    Theory, 2.1).  Summed over a cell g that is
    prod_l C(s_l, g_l) (|g| - (n - rank)) + T*(s - g), and the cell s - g
    is cell g read from the other end of the flat table (Helleseth, Klove
    and Levenshtein, On the information function of an error-correcting
    code, IEEE Trans. IT 43(2), 1997)."""
    n = len(columns)
    rows = [sum((v >> i & 1) << c for c, v in enumerate(columns)) for i in range(n_rows)]
    matrix = gf2.GF2Matrix(n_rows, n, rows)
    rank = matrix.rank()
    d = min(rank, n - rank)
    side = columns if rank == d else gf2.generator_from_parity(matrix).column_bits()
    if not _programme_pays(side, d, shape):
        return _walk_table(columns, axes, shape, n_rows).reshape(-1).tolist()
    if rank == d:
        return _programme_table(columns, axes, shape, rank)
    reverse = _programme_table(side, axes, shape, d)[::-1]
    return [
        math.prod(map(math.comb, (s - 1 for s in shape), g)) * (sum(g) - (n - rank)) + t
        for g, t in zip(product(*map(range, shape)), reverse)
    ]


def _table(node: CnType | VnType, n_edge_types: int, identity: list[int] | None):
    """The table of a node's generator columns grouped by edge type, plus,
    for a VN, its identity columns on one more axis, as (flat values in C
    order, shape)."""
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
    return _rank_table(columns, axes, shape, node.generator.n_rows), shape


def cn_table(cn: CnType, n_edge_types: int) -> tuple[list[int], tuple[int, ...]]:
    """cn_info_table's values as Python ints, flat in C order, and its shape."""
    gf2.check_walk(cn.n_sockets, f"information table of CN type {cn.name!r}")
    return _table(cn, n_edge_types, None)


def vn_table(vn: VnType, n_edge_types: int) -> tuple[list[int], tuple[int, ...]]:
    """vn_info_table's values as Python ints, flat in C order, and its shape."""
    gf2.check_walk(vn.n_sockets + vn.n_transmitted, f"information table of VN type {vn.name!r}")
    return _table(vn, n_edge_types, [1 << i for i in vn.transmitted_positions])


def _array(values: list[int], shape: tuple[int, ...]) -> np.ndarray:
    import numpy as np

    return np.array(values, dtype=np.int64).reshape(shape)


def cn_info_table(cn: CnType, n_edge_types: int) -> np.ndarray:
    """Information-function table of a CN type, shape (s_1+1, ..., s_ne+1),
    as an int64 numpy array.

    The table depends only on the code: a basis change of the generator's
    rows, or a permutation of the columns within one edge type, leaves it
    unchanged.
    """
    return _array(*cn_table(cn, n_edge_types))


def vn_info_table(vn: VnType, n_edge_types: int) -> np.ndarray:
    """Split information-function table of a VN type, as an int64 numpy
    array.

    Shape is (q_1+1, ..., q_ne+1, w+1) where w is the number of transmitted
    information bits; the last axis indexes how many of their identity
    columns are selected.  The generator is the encoder, so the table
    depends on its rows as given, not only on their span.
    """
    return _array(*vn_table(vn, n_edge_types))
