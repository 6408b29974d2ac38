"""Dense GF(2) linear algebra on bit-packed rows, and the subset walk.

Rows live in Python ints (bit j = column j), so a row operation is a single
XOR.  Matrices are immutable; every operation allocates private scratch,
which keeps them safe to share between concurrent workers.

One elimination, `rref`, serves rank, the null space, and the codeword
facts the analyses need: the weight-2 codewords come from equal columns of
a parity-check matrix, and the minimum distance from a walk over the span
of the smaller of the code and its dual (at most 2**12 words for the 24
sockets a component may have).

The subset walk (`subset_ranks`) ranks every subset of a column list at once
in numpy, for the local decoding maps and for the information tables that
`infofuncs` does not build by its rank programme.  It imports numpy when it
is called; the rest of the module runs on Python ints alone.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import permutations
from math import comb
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from .errors import CapacityError, ValidationError, as_index, is_int

if TYPE_CHECKING:
    import numpy as np

# The one enumeration limit: every exhaustive walk in the toolkit (the
# subsets of an information table's columns, the span of the basis walked
# for a minimum distance) is exponential in its width, which is checked
# against this budget before the walk starts.
WALK_BUDGET = 24
# A walk runs the subset recurrence over at most this many low key bits at a
# time, which bounds its scratch arrays to 2**_FILL_MAX_LOW keys.
_FILL_MAX_LOW = 14


def check_walk(width: int, what: str, unit: str = "columns") -> None:
    """Refuse a walk over more than WALK_BUDGET units (columns or basis rows)."""
    if width > WALK_BUDGET:
        raise CapacityError(
            f"{what}: a walk over {width} {unit} exceeds the enumeration limit,"
            f" the walk budget WALK_BUDGET={WALK_BUDGET}"
        )


class GF2Matrix:
    """Immutable dense binary matrix with bit-packed rows."""

    __slots__ = ("n_rows", "n_cols", "row_bits")

    def __init__(self, n_rows: int, n_cols: int, row_bits: Iterable[int]):
        # integers only, numpy ones included: int() would truncate floats,
        # parse strings and take True for 1
        n_rows, n_cols = as_index(n_rows, "n_rows"), as_index(n_cols, "n_cols")
        if n_rows < 0 or n_cols < 0:
            raise ValidationError("matrix dimensions must be nonnegative")
        bits = tuple(as_index(r, "a row's bits") for r in row_bits)
        if len(bits) != n_rows:
            raise ValidationError(f"expected {n_rows} rows, got {len(bits)}")
        mask = (1 << n_cols) - 1
        for r in bits:
            if r < 0 or r & ~mask:
                raise ValidationError("row has bits outside the column range")
        object.__setattr__(self, "n_rows", n_rows)
        object.__setattr__(self, "n_cols", n_cols)
        object.__setattr__(self, "row_bits", bits)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("GF2Matrix is immutable")

    def __reduce__(self):
        return (GF2Matrix, (self.n_rows, self.n_cols, self.row_bits))

    @classmethod
    def from_rows(cls, rows: Iterable[Iterable[int]]) -> "GF2Matrix":
        rows = [list(r) for r in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        bits = []
        for r in rows:
            if len(r) != n_cols:
                raise ValidationError("ragged rows")
            if not all(is_int(b) and b in (0, 1) for b in r):
                raise ValidationError("matrix entries must be 0 or 1")
            bits.append(sum(b << j for j, b in enumerate(r)))
        return cls(n_rows, n_cols, bits)

    @classmethod
    def identity(cls, n: int) -> "GF2Matrix":
        return cls(n, n, [1 << i for i in range(n)])

    @classmethod
    def zeros(cls, n_rows: int, n_cols: int) -> "GF2Matrix":
        return cls(n_rows, n_cols, [0] * n_rows)

    def to_rows(self) -> list[list[int]]:
        return [[(r >> j) & 1 for j in range(self.n_cols)] for r in self.row_bits]

    def column_bits(self) -> list[int]:
        """Columns as bit-packed ints (bit i = row i)."""
        cols = [0] * self.n_cols
        for i, r in enumerate(self.row_bits):
            while r:
                low = r & -r
                cols[low.bit_length() - 1] |= 1 << i
                r ^= low
        return cols

    def rank(self) -> int:
        return len(rref(self)[0])

    def has_zero_column(self) -> bool:
        used = 0
        for r in self.row_bits:
            used |= r
        return used != (1 << self.n_cols) - 1 if self.n_cols else False

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, GF2Matrix)
            and self.n_rows == other.n_rows
            and self.n_cols == other.n_cols
            and self.row_bits == other.row_bits
        )

    def __hash__(self) -> int:
        return hash((self.n_rows, self.n_cols, self.row_bits))

    def __repr__(self) -> str:
        return f"GF2Matrix({self.n_rows}x{self.n_cols})"


def rref(m: GF2Matrix) -> tuple[list[int], list[int]]:
    """Reduced row echelon form as (pivot column indices, reduced rows).

    Rows come back in pivot-column order; every pivot column has exactly one
    set bit across the reduced rows.
    """
    piv_cols: list[int] = []
    rows: list[int] = []
    for v in m.row_bits:
        for c, b in zip(piv_cols, rows):
            if (v >> c) & 1:
                v ^= b
        if v:
            c = (v & -v).bit_length() - 1
            for i in range(len(rows)):
                if (rows[i] >> c) & 1:
                    rows[i] ^= v
            pos = bisect_left(piv_cols, c)
            piv_cols.insert(pos, c)
            rows.insert(pos, v)
    return piv_cols, rows


def generator_from_parity(h: GF2Matrix) -> GF2Matrix:
    """Full-row-rank generator of the null space of h (code positions keep order).

    A full-column-rank h yields a 0-row generator: the code it defines is
    trivial, which callers flag upstream.
    """
    piv_cols, rows = rref(h)
    n = h.n_cols
    piv_set = set(piv_cols)
    free_cols = [c for c in range(n) if c not in piv_set]
    gen_rows = []
    for f in free_cols:
        v = 1 << f
        for c, b in zip(piv_cols, rows):
            if (b >> f) & 1:
                v |= 1 << c
        gen_rows.append(v)
    return GF2Matrix(len(free_cols), n, gen_rows)


def _span_weights(rows: Sequence[int], n: int) -> list[int]:
    """Weight distribution of the span of independent rows: entry w counts
    its words of weight w, walked in Gray order."""
    counts = [0] * (n + 1)
    counts[0] = 1
    cw = 0
    for i in range(1, 1 << len(rows)):
        cw ^= rows[(i & -i).bit_length() - 1]
        counts[cw.bit_count()] += 1
    return counts


def min_distance(g: GF2Matrix) -> int:
    """Exact minimum nonzero codeword weight of the row space of g.

    Walks the span of the smaller of the code and its dual.  From the dual's
    weights B_j the code's are, by the MacWilliams identity,
    A_i = 2**-(n-k) * sum_j B_j K_i(j), K_i the Krawtchouk polynomial
    (MacWilliams & Sloane, The Theory of Error-Correcting Codes, ch. 5);
    only the sign of the sum is needed.
    """
    n = g.n_cols
    rows = rref(g)[1]
    if not rows:
        raise ValidationError("code has no nonzero codeword")
    dual = generator_from_parity(g).row_bits
    walked = min(rows, dual, key=len)
    check_walk(
        len(walked), f"minimum distance of a ({n}, {len(rows)}) code and its dual", "basis rows"
    )
    weights = _span_weights(walked, n)
    if walked is dual:
        weights = [
            sum(b * sum((-1) ** s * comb(j, s) * comb(n - j, i - s) for s in range(i + 1))
                for j, b in enumerate(weights) if b)
            for i in range(n + 1)
        ]
    return next(i for i in range(1, n + 1) if weights[i])


def enumerate_weight2_pairs(
    g: GF2Matrix,
    socket_types: Iterable[int],
    with_input_weight: bool = False,
):
    """Ordered socket-type pair counts over weight-2 codewords.

    For every codeword of Hamming weight 2 with support {i, j}, both ordered
    pairs (i, j) and (j, i) are counted under the key (type_i, type_j) or,
    when with_input_weight is set, (type_i, type_j, input_weight).

    e_i + e_j is a codeword exactly when columns i and j of a parity-check
    matrix are equal (two zero columns included).  Its input word comes
    from one elimination of g with each row tagged by its own identity bit:
    the reduced rows with pivot i or j sum to e_i + e_j, and their tags to
    the input.  g must have full row rank.
    """
    st = list(socket_types)
    n, k = g.n_cols, g.n_rows
    if len(st) != n:
        raise ValidationError(f"socket type vector has length {len(st)}, expected {n}")
    piv_cols, rows = rref(GF2Matrix(k, n + k, [r | 1 << (n + i) for i, r in enumerate(g.row_bits)]))
    if piv_cols and piv_cols[-1] >= n:
        raise ValidationError("weight-2 pairs need a full-row-rank generator")
    by_pivot = dict(zip(piv_cols, rows))
    groups: dict = {}
    for j, col in enumerate(generator_from_parity(g).column_bits()):
        groups.setdefault(col, []).append(j)
    counts: dict = {}
    for group in groups.values():
        for i, j in permutations(group, 2):
            key = (st[i], st[j])
            if with_input_weight:
                u = (by_pivot.get(i, 0) ^ by_pivot.get(j, 0)) >> n
                key += (u.bit_count(),)
            counts[key] = counts.get(key, 0) + 1
    return counts


def _uint_dtype(bits: int) -> type:
    """Narrowest unsigned integer dtype that holds `bits` bits."""
    import numpy as np

    return next(dt for dt in (np.uint8, np.uint16, np.uint32, np.uint64) if bits <= np.iinfo(dt).bits)


def _insert(slots: np.ndarray, v: np.ndarray) -> None:
    """Insert v[r] into the echelon basis slots[:, r], in place; v is consumed.

    slots[p, r] holds a basis vector whose top bit is p, or 0.  A zero or
    dependent v[r] leaves basis r unchanged.  Any trailing shape works.
    """
    import numpy as np

    # reducing never raises a top bit, so rows above the largest v stay put
    for p in range(int(v.max(initial=0)).bit_length() - 1, -1, -1):
        s = slots[p]
        hit = (v & (1 << p)) != 0
        np.copyto(s, v, where=hit & (s == 0))
        # a placed v clears itself, so it is placed once
        v ^= s * hit


def subset_ranks(
    columns: Sequence[int], n_rows: int, bases, free: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """GF(2) ranks of the keys b | s, for each base key b (its `free` low
    bits clear) and each s < 2**free, as (keys, ranks) blocks in base-major
    key order; key bit c selects columns[c], an n_rows-bit vector.

    The walk keeps every key's echelon basis, slots[p] being the basis
    vector with top bit p or 0, and a key's rank is its count of nonzero
    slots.  A base starts from its own columns; its low columns come in by
    the subset recurrence (the subsets with top bit c are the subsets below
    2**c with column c inserted).  A block holds at most 2**_FILL_MAX_LOW
    keys.
    """
    import numpy as np

    dt = _uint_dtype(n_rows)
    cols = np.array(columns, dtype=dt)
    low = min(free, _FILL_MAX_LOW)
    bases = np.asarray(bases, dtype=np.int64)[:, None] | np.arange(1 << free - low, dtype=np.int64) << low
    bases = bases.reshape(-1)
    # every base's own columns, for all bases at once
    heads = np.zeros((n_rows, len(bases)), dtype=dt)
    for c in range(low, len(cols)):
        _insert(heads, np.where((bases >> c) & 1, cols[c], dt(0)))
    per = 1 << _FILL_MAX_LOW - low
    for first in range(0, len(bases), per):
        block = bases[first : first + per]
        slots = np.zeros((n_rows, len(block), 1 << low), dtype=dt)
        slots[:, :, 0] = heads[:, first : first + per]
        for c in range(low):
            grown = slots[:, :, 1 << c : 2 << c]
            grown[...] = slots[:, :, : 1 << c]
            _insert(grown, np.full(grown.shape[1:], cols[c], dtype=dt))
        keys = (block[:, None] | np.arange(1 << low, dtype=np.int64)).reshape(-1)
        yield keys, np.count_nonzero(slots, axis=0).reshape(-1)
