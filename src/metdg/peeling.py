"""Finite-length erasure decoding of codes sampled from an ensemble.

A code instance is one uniform interleaver per edge type matching VN sockets
to CN sockets of the same type.  Decoding iterates exact local erasure
decoding at every node: a quantity is recovered as soon as its coordinate
functional lies in the span of the known ones, which is the decoder the
asymptotic EXIT analysis models.

The schedule is flooding (a VN pass, then a CN pass and a VN pass per
iteration) run as a frontier: message flags only ever turn on, and a node's
outputs depend only on its packed key (channel-known mask << q |
incoming-known mask), so a pass looks up only the nodes whose key grew since
they were last evaluated (every node, on its side's first pass).  A flag
that turns on adds its socket bit to the key of the node it enters, found
through per-edge owner maps made with the code.  The iteration stops at the
first one that turns no flag on.

Sweeps that record no trajectory pass one message per edge, as the peeling
decoder does: a node sends on no socket whose incoming message is known.  It
sends on a socket once that column lies in the span of what it knows, so a
later message in adds nothing to that span and could flip only outputs the
rule drops too: success and residual erasures are those of flooding.
decode() and recorded trajectories keep flooding, whose counts they report.

A sampled code carries one local decoding map per component type, keyed by
the known input pattern, so a pass is a few table lookups vectorized over
the due nodes of each type.  A map holds each key's out mask and its rank,
filled on first use by one rank walk over the keys a lookup misses (the
subset walk `gf2.subset_ranks`, which also builds the information tables
of codes whose rank programme would cost more); the codes of one trial
loop share one set of maps, so each key is filled once per loop.

A simulation decodes its trials in blocks: runs of consecutive trials of at
most _BLOCK_EDGES edges in all, each sampled from its own stream into one
disjoint-union graph (a larger code is a block of one).  One frontier run
serves the whole block, and each trial's outcome is read off its own node
and edge ranges, so it is the one that trial gets decoded alone.  The
blocks are shared out among at most `jobs` workers, and never more workers
than the CPUs this process may use.  Each worker is a child forked for its
share, which sends its sums back pickled through a pipe; where os.fork does
not exist, one process runs every block.  A worker keeps the memory it frees
until it exits (where the C library has glibc's mallopt), so its blocks
reuse their pages and its RSS stays at its peak; the calling process's
allocator is left as it is.
"""

from __future__ import annotations

import math
import os
import pickle
from typing import NamedTuple

import numpy as np

from . import gf2
from .ensemble import EnsembleSpec
from .errors import CapacityError, InternalError, ValidationError, is_int, is_real

_RNG_NAME = "philox"
# Stream derivation packs the grid index into 16 bits and the trial index
# into 32 (see _trial_rng).
MAX_GRID_POINTS = 1 << 16
MAX_TRIALS = 1 << 32
# Two-sided 95% normal quantile of the Wilson intervals.
_WILSON_Z = 1.96


def _check_seed(seed) -> None:
    if not is_int(seed) or not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _check_count(value, name: str, low: int) -> None:
    if not is_int(value) or value < low:
        raise ValidationError(f"{name} must be an integer >= {low}, got {value!r}")


def _check_scale(spec: EnsembleSpec, scale) -> None:
    # Every node and transmitted bit owns an edge, so a trial's edge count
    # bounds the length of every array it needs.
    _check_count(scale, "scale", 1)
    if scale * sum(spec.edge_counts) > np.iinfo(np.intp).max:
        raise ValidationError(f"at scale {scale}, a trial has more edges than numpy can index")


def _philox(seed: int, stream: int) -> np.random.Generator:
    # 128-bit key: the user seed in one word, a derived stream id in the other.
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _trial_rng(seed: int, eps_index: int, trial_index: int) -> np.random.Generator:
    if not 0 <= trial_index < MAX_TRIALS or not 0 <= eps_index < MAX_GRID_POINTS:
        raise ValidationError("trial or grid index out of range for stream derivation")
    return _philox(seed, (1 << 63) | (eps_index << 32) | trial_index)


class SampledCode(NamedTuple):
    """One Tanner-graph realization at a given scale, or a block: the
    disjoint union of `trials` of them.  Trial b of a block owns edges
    [b E, (b + 1) E) of its E edges per trial and, in each node type of c
    nodes per trial, rows [b c, (b + 1) c); counts and sizes are those of
    the union."""

    spec: EnsembleSpec
    scale: int
    n_edges: int
    edge_type0: np.ndarray
    vn_counts: tuple[int, ...]
    cn_counts: tuple[int, ...]
    vn_edges: list[np.ndarray]
    cn_edges: list[np.ndarray]
    n_transmitted: int
    # Local maps of the VN types and of the CN types, which decode fills and
    # reads; the blocks of one trial loop share them.
    maps: tuple[list[_LocalMaps], list[_LocalMaps]]
    # Owner maps (see _owner_map) of the VN side, shared by the blocks of one
    # size as cn_slots is (see _wiring), and of the CN side, gathered from it.
    owners: tuple[tuple[np.ndarray, int], tuple[np.ndarray, int]]
    cn_slots: np.ndarray
    trials: int = 1


def _socket_blocks(node_types, n_edge_types: int, scale: int):
    """Per edge type, the (type index, position, nodes per code) blocks of
    one side's sockets in slot order."""
    blocks: list[list[tuple[int, int, int]]] = [[] for _ in range(n_edge_types)]
    for ti, t in enumerate(node_types):
        for pos, l in enumerate(t.socket_types):
            blocks[l - 1].append((ti, pos, t.count * scale))
    return blocks


def _index_dtype(n: int) -> type:
    """Narrowest signed integer dtype that holds every value below n."""
    return np.int32 if n <= 1 << 31 else np.int64


def sample_code(spec: EnsembleSpec, scale: int, seed: int) -> SampledCode:
    """Draw one code: deterministic in (spec, scale, seed)."""
    _check_seed(seed)
    _check_scale(spec, scale)
    code = _new_block(spec, scale, 1, _local_maps(spec))
    _sample_code(code, 0, _philox(seed, 0))
    return code


def _new_block(spec: EnsembleSpec, scale: int, trials: int, maps, wiring=None) -> SampledCode:
    """A block of `trials` codes whose interleavers are still to be drawn.

    wiring is _wiring of the same spec, scale and trials, built here when
    not given.  _sample_code fills the CN side of each trial.
    """
    vn_edges, vn_owner, (cn_slots, cn_bits) = wiring or _wiring(spec, scale, trials)
    per_type, idx_dtype = [count * scale for count in spec.edge_counts], vn_edges[0].dtype
    cn_edges = [
        np.empty((trials * t.count * scale, t.n_sockets), dtype=idx_dtype) for t in spec.cn_types
    ]
    return SampledCode(
        spec=spec,
        scale=scale,
        n_edges=len(cn_slots),
        edge_type0=np.tile(np.repeat(np.arange(len(per_type), dtype=idx_dtype), per_type), trials),
        vn_counts=tuple(map(len, vn_edges)),
        cn_counts=tuple(map(len, cn_edges)),
        vn_edges=vn_edges,
        cn_edges=cn_edges,
        n_transmitted=trials * scale * sum(t.count * t.n_transmitted for t in spec.vn_types),
        maps=maps,
        owners=(vn_owner, (np.empty_like(cn_slots), cn_bits)),
        cn_slots=cn_slots,
        trials=trials,
    )


def _wiring(spec: EnsembleSpec, scale: int, trials: int):
    """What every block of `trials` codes shares: per VN type its sockets'
    edges and the VN side's owner map (see _owner_map), and the CN slot
    owners, the CN side's owner map if it were wired as the VN side is: slot
    k of an edge type (a side's sockets of that type in type, position, node
    order) carrying the type's k-th edge."""
    per_type = [count * scale for count in spec.edge_counts]
    n_edges = trials * sum(per_type)
    trial_first = np.arange(0, n_edges, sum(per_type))[:, None]
    sides = []
    for types in (spec.vn_types, spec.cn_types):
        edges = [np.empty((trials * t.count * scale, t.n_sockets), dtype=_index_dtype(n_edges))
                 for t in types]
        first = 0
        for blocks in _socket_blocks(types, spec.n_edge_types, scale):
            for ti, pos, cnt in blocks:
                edges[ti][:, pos] = (trial_first + np.arange(first, first + cnt)).reshape(-1)
                first += cnt
        sides.append((edges, _owner_map(edges, n_edges)))
    return (*sides[0], sides[1][1])


def _sample_code(code: SampledCode, trial: int, rng: np.random.Generator) -> None:
    """Draw the interleavers of one trial of a block from rng: per edge type,
    a uniform permutation perm maps VN slots to CN slots.  CN slot perm[k]
    carries edge first + k, the edge of VN slot k, so the CN owner map is a
    gather of the slot owners."""
    spec = code.spec
    first = trial * (code.n_edges // code.trials)
    for l0, blocks in enumerate(_socket_blocks(spec.cn_types, spec.n_edge_types, code.scale)):
        count = spec.edge_counts[l0] * code.scale
        perm = rng.permutation(count)
        # perm is in range, and mode="raise" would gather into a temporary
        np.take(code.cn_slots[first : first + count], perm, out=code.owners[1][0][first : first + count],
                mode="clip")
        inv = np.empty(count, dtype=code.edge_type0.dtype)
        inv[perm] = np.arange(first, first + count, dtype=inv.dtype)
        for ti, pos, cnt in blocks:
            code.cn_edges[ti][trial * cnt : (trial + 1) * cnt, pos] = inv[:cnt]
            inv = inv[cnt:]
        first += count


# Edges in one block of trials decoded together (see sweep).
_BLOCK_EDGES = 1 << 16
# A map's array holds an out mask and a rank per key, 2 x 8 MiB at this
# width; wider types fall back to a dict memo.
_ARRAY_MAX_WIDTH = 20
# Missing dict keys filled per vectorized call, each with its q neighbours.
_DICT_FILL_CHUNK = 2048


def _out_masks(keys: np.ndarray, q: int, rank) -> np.ndarray:
    """Out masks of keys, given rank(keys) for any keys: bit j is set when
    column j adds no rank to the key with socket j cleared."""
    out = 0
    for j in range(q):
        out = out | (rank(keys | 1 << j) == rank(keys & ~(1 << j))).astype(np.int64) << j
    return out


class _LocalMaps:
    """Exact local erasure decoding for one component type.

    Key layout: (channel-known mask << n_sockets) | incoming-known mask, key
    bit j selecting the j-th socket column, then the identity column of
    each channel-known info bit.  Per key the map holds the extrinsic out
    mask and the rank of the key's columns.  Out bit j of key S is "column j
    lies in the span of S without socket j", that is rank(S | 1 << j) ==
    rank(S & ~(1 << j)), so the keys sharing one channel mask (a block) get
    their out masks from that block's ranks alone.  One subset walk ranks
    the keys a lookup misses.
    """

    def __init__(self, column_bits: list[int], n_rows: int, chan_positions: tuple[int, ...]):
        self.q = len(column_bits)
        self.kb = len(chan_positions)
        self.n_rows = n_rows
        self._columns = list(column_bits) + [1 << pos for pos in chan_positions]
        width = self.q + self.kb
        self._array_backed = width <= _ARRAY_MAX_WIDTH
        if self._array_backed:
            self.table = np.empty((2, 1 << width), dtype=np.int64)
            self._filled = np.zeros(1 << self.kb, dtype=bool)
        else:
            self._dict: dict[int, tuple[int, int]] = {}

    def lookup(self, keys: np.ndarray, row: int) -> np.ndarray:
        """Row 0 (out masks) or row 1 (ranks) of the map at keys, filled
        where missing."""
        if self._array_backed:
            if not self._filled.all():
                due = np.zeros_like(self._filled)
                due[keys >> self.q] = True
                missing = np.flatnonzero(due & ~self._filled)
                if len(missing):
                    self._fill_blocks(missing)
            return self.table[row][keys]
        uniq, inv = np.unique(keys, return_inverse=True)
        missing = [key for key in uniq.tolist() if key not in self._dict]
        if missing:
            self._fill_dict(np.array(missing, dtype=np.int64))
        return np.array([self._dict[key][row] for key in uniq.tolist()], dtype=np.int64)[inv]

    def _fill_blocks(self, chans: np.ndarray) -> None:
        walked = []
        for keys, ranks in gf2.subset_ranks(self._columns, self.n_rows, chans << self.q, self.q):
            self.table[1, keys] = ranks
            walked.append(keys)
        # out masks read ranks across a channel block, which can span several
        # walk blocks, so they wait for the whole walk
        for keys in walked:
            self.table[0, keys] = _out_masks(keys, self.q, self.table[1].take)
        self._filled[chans] = True

    def _fill_dict(self, missing: np.ndarray) -> None:
        bits = np.int64(1) << np.arange(self.q, dtype=np.int64)
        for lo in range(0, len(missing), _DICT_FILL_CHUNK):
            chunk = missing[lo : lo + _DICT_FILL_CHUNK]
            keys = np.unique(np.concatenate([chunk, (chunk[:, None] ^ bits).reshape(-1)]))
            ranks = np.concatenate([r for _, r in gf2.subset_ranks(self._columns, self.n_rows, keys, 0)])

            def rank(at):
                return ranks[np.searchsorted(keys, at)]

            out = _out_masks(chunk, self.q, rank)
            self._dict.update(zip(chunk.tolist(), zip(out.tolist(), rank(chunk).tolist())))


def _local_maps(spec: EnsembleSpec) -> tuple[list[_LocalMaps], list[_LocalMaps]]:
    """Fresh, unfilled local maps for the VN types and for the CN types."""
    vn_maps = [
        _LocalMaps(vn.generator.column_bits(), vn.n_info_bits, vn.transmitted_positions)
        for vn in spec.vn_types
    ]
    cn_maps = [_LocalMaps(cn.generator.column_bits(), cn.dimension, ()) for cn in spec.cn_types]
    return vn_maps, cn_maps


class DecodeResult(NamedTuple):
    success: bool
    residual_erasures: int
    iterations: int
    trajectory: np.ndarray | None = None
    vc_history: list[np.ndarray] | None = None


def _bit_rows(masks: np.ndarray, width: int) -> np.ndarray:
    """(len(masks), width) bool matrix: row r, column j is bit j of masks[r]."""
    if width <= 8:
        as_bytes = masks.astype(np.uint8).reshape(-1, 1)
    else:
        as_bytes = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(as_bytes, axis=1, count=width, bitorder="little").view(bool)


class _Side:
    """Decoder state of the VNs or the CNs of one code, by node number
    across the types of the side: each node's key, the out mask of its last
    lookup, and whether its key grew since (every node is due on its side's
    first pass)."""

    def __init__(self, edges: list[np.ndarray], maps: list[_LocalMaps], owner, one_way: bool):
        """owner: the side's owner map and its bits (see _owner_map); one_way: see _decode_block."""
        self.edges = edges
        self.maps = maps
        first = np.cumsum([0] + [len(e) for e in edges]).tolist()
        self.spans = list(zip(first, first[1:]))
        self.keys = np.zeros(first[-1], dtype=np.int64)
        self.out = np.zeros(first[-1], dtype=np.int64)
        self.due = np.ones(first[-1], dtype=bool)
        self.owner, self.bits = owner
        self.one_way = one_way

    def send(self, other: "_Side") -> np.ndarray:
        """Look up the due nodes and pass the messages that turned known on
        to the other side; returns their edges."""
        flipped = np.concatenate([self._evaluate(t) for t in range(len(self.edges))])
        other.receive(flipped)
        return flipped

    def _evaluate(self, t: int) -> np.ndarray:
        """Look up the due nodes of type t; return the edges whose outgoing
        flag turned on."""
        (lo, hi), edges = self.spans[t], self.edges[t]
        rows = np.flatnonzero(self.due[lo:hi])
        if len(rows) == 0:
            return np.zeros(0, dtype=edges.dtype)
        # On a side's first pass every node is due, and a slice gathers and
        # scatters faster than the index array.
        every = len(rows) == hi - lo
        nodes = slice(lo, hi) if every else rows + lo
        self.due[nodes] = False
        keys = self.keys[nodes]
        out = self.maps[t].lookup(keys, 0)
        # one_way drops the key's low q bits, its incoming-known mask
        new = out & ~(self.out[nodes] | keys) if self.one_way else out & ~self.out[nodes]
        self.out[nodes] = out
        hit = np.flatnonzero(new)
        senders = edges.take(hit if every else rows[hit], axis=0)
        return senders[_bit_rows(new[hit], edges.shape[1])]

    def receive(self, edges: np.ndarray) -> None:
        """Add the socket bits of newly known incoming edges to the keys of
        their nodes, and mark those nodes due."""
        code = self.owner[edges]
        node = code >> self.bits
        code &= (1 << self.bits) - 1
        # A node can gain several sockets at once, hence the unbuffered add;
        # it sets each bit exactly, as an edge turns known once and enters
        # one (node, socket).  The bits are int64 whatever the owner dtype,
        # as sockets reach 63.
        np.add.at(self.keys, node, np.left_shift(1, code, dtype=np.int64))
        self.due[node] = True


def _owner_map(edges: list[np.ndarray], n_edges: int) -> tuple[np.ndarray, int]:
    """Per edge, the node it enters on one side of a code, packed as
    (node << bits) | socket with nodes numbered across the side's types;
    and bits."""
    first = np.cumsum([0] + [len(e) for e in edges]).tolist()
    bits = (max(e.shape[1] for e in edges) - 1).bit_length()
    owner = np.empty(n_edges, dtype=_index_dtype(first[-1] << bits))
    for lo, hi, e in zip(first, first[1:], edges):
        owner[e] = np.arange(lo, hi)[:, None] << bits | np.arange(e.shape[1])
    return owner, bits


def decode(
    code: SampledCode,
    erasure_pattern,
    max_iters: int | None = None,
    record_trajectory: bool = False,
    keep_history: bool = False,
) -> DecodeResult:
    """Run iterative local erasure decoding on one received word.

    erasure_pattern flags the erased transmitted bits, ordered by (VN type,
    node, transmitted position).  Runs to the message fixpoint unless
    max_iters cuts it short.
    """
    if max_iters is not None:
        _check_count(max_iters, "max_iters", 0)
    try:
        erased = np.asarray(erasure_pattern)
    except ValueError:  # a ragged sequence
        erased = np.array(None)
    if erased.shape != (code.n_transmitted,) or erased.dtype.kind not in "biu" or np.any(erased >> 1):
        raise ValidationError(f"erasure pattern must be {code.n_transmitted} bools or 0/1 integers, "
                              f"got shape {erased.shape} and dtype {erased.dtype}")
    success, residual, iterations, trajectory, history = _decode_block(
        code, erased[None] != 0, max_iters, record_trajectory, keep_history
    )
    return DecodeResult(
        success=bool(success[0]),
        residual_erasures=int(residual[0]),
        iterations=int(iterations[0]),
        trajectory=None if trajectory is None else trajectory[:, 0],
        vc_history=history,
    )


def _decode_block(code: SampledCode, erased: np.ndarray, max_iters, record_trajectory=False,
                  keep_history=False, one_way=False):
    """Decode every trial of a block in one run of the frontier decoder, with
    one message per edge when one_way (see the module docstring).

    erased holds one row per trial, in decode's pattern order.  Returns per
    trial success, residual erasures and iterations; when asked, the known
    VN-to-CN fractions per edge type after each VN pass, shape (passes,
    trials, edge types); and when asked, the block's VN-to-CN flags after
    each VN pass.  The graphs are disjoint, so a trial at its fixpoint stays
    there while the block runs on: its iterations end at the first one that
    turned none of its messages known, and its later trajectory rows repeat
    its last one.
    """
    spec, n_trials = code.spec, code.trials
    n_e, per_trial = spec.n_edge_types, code.n_edges // n_trials
    vn = _Side(code.vn_edges, code.maps[0], code.owners[0], one_way)
    cn = _Side(code.cn_edges, code.maps[1], code.owners[1], one_way)
    # A VN key starts as its channel-known mask (bit j = j-th transmitted
    # position) above its q incoming bits.
    chan_bits: list[np.ndarray] = []
    offset = 0
    for (lo, hi), t in zip(vn.spans, spec.vn_types):
        width = (hi - lo) // n_trials * t.n_transmitted
        chan_bits.append(~erased[:, offset : offset + width].reshape(hi - lo, t.n_transmitted))
        offset += width
        chan = (chan_bits[-1].astype(np.int64) << np.arange(t.n_transmitted)).sum(axis=1)
        vn.keys[lo:hi] = chan << t.n_sockets

    # per trial, the last iteration that turned one of its messages known
    last_flip = np.zeros(n_trials, dtype=np.int64)
    msg_vc = np.zeros(code.n_edges, dtype=bool) if keep_history else None
    # per VN pass, the messages it turned known per (trial, edge type)
    turned: list[np.ndarray] = []
    history: list[np.ndarray] = []

    def vn_pass() -> np.ndarray:
        flipped = vn.send(cn)
        if record_trajectory:
            classes = code.edge_type0[flipped] + flipped // per_trial * n_e
            turned.append(np.bincount(classes, minlength=n_trials * n_e))
        if keep_history:
            msg_vc[flipped] = True
            history.append(msg_vc.copy())
        return flipped

    vn_pass()
    iterations = 0
    while max_iters is None or iterations < max_iters:
        iterations += 1
        flipped = np.concatenate([cn.send(vn), vn_pass()])
        if len(flipped) == 0:
            break
        last_flip[flipped // per_trial if n_trials > 1 else 0] = iterations

    residual = np.zeros(n_trials, dtype=np.int64)
    for i, t in enumerate(spec.vn_types):
        # every VN was last looked up at its current key, so its rank is a
        # hit; an erased bit is recovered when its identity column adds no rank
        (lo, hi), maps = vn.spans[i], vn.maps[i]
        keys = vn.keys[lo:hi]
        rank = maps.lookup(keys, 1)
        for c in range(t.n_transmitted):
            lost = ~chan_bits[i][:, c] & (maps.lookup(keys | 1 << (maps.q + c), 1) != rank)
            residual += lost.reshape(n_trials, -1).sum(axis=1)
    return (
        residual == 0,
        residual,
        np.minimum(last_flip + 1, iterations),
        np.cumsum(turned, axis=0).reshape(-1, n_trials, n_e)
        / np.bincount(code.edge_type0[:per_trial], minlength=n_e) if record_trajectory else None,
        history if keep_history else None,
    )


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion, from integers
    0 <= successes <= trials; (0, 1) when trials is 0."""
    if not (is_int(successes) and is_int(trials) and 0 <= successes <= trials):
        raise ValidationError(
            f"need integers 0 <= successes <= trials, got {successes!r} and {trials!r}"
        )
    if trials == 0:
        return 0.0, 1.0
    z = _WILSON_Z
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    # At p_hat = 0 (or 1) the bound center -/+ half is exactly 0 (or 1) in closed form.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _sample_block(spec, scale, seed, eps, trials, start, stop, maps, wiring=None):
    """The block of flat trials [start, stop) and its erasure patterns, one
    row per trial; eps holds the grid and wiring is passed to _new_block."""
    code = _new_block(spec, scale, stop - start, maps, wiring)
    draws = np.empty((stop - start, code.n_transmitted // (stop - start)))
    for b, flat in enumerate(range(start, stop)):
        # each trial draws its code, then its erasures, from its own stream
        rng = _trial_rng(seed, *divmod(flat, trials))
        _sample_code(code, b, rng)
        rng.random(out=draws[b])
    return code, draws < eps[np.arange(start, stop) // trials, None]


def _run_trials(spec, scale, seed, eps_grid, trials, starts, size, record_exit_iters):
    """Run the blocks [start, start + size) of flat trial indices (grid index
    x trials + trial index), one per start.  Returns the failures and the
    residual erasures summed per grid point and, when recording, each
    block's trajectories keyed by its start.  The blocks share one set of
    local maps."""
    maps = _local_maps(spec)
    eps = np.array(eps_grid, dtype=float)
    total = len(eps) * trials
    failures = np.zeros(len(eps), dtype=np.int64)
    residuals = np.zeros(len(eps), dtype=np.int64)
    trajectories = {}
    wiring, wired = None, 0
    for start in starts:
        stop = min(start + size, total)
        # Blocks of one size share a wiring; only the last can be smaller.
        if stop - start != wired:
            wiring, wired = _wiring(spec, scale, stop - start), stop - start
        code, erased = _sample_block(spec, scale, seed, eps, trials, start, stop, maps, wiring)
        # Trajectories count every VN-to-CN message, so they keep flooding.
        success, residual, _, traj, _ = _decode_block(
            code, erased, None, record_exit_iters > 0, one_way=record_exit_iters == 0
        )
        points = np.arange(start, stop) // trials
        # Drop this block before the next one is sampled, so that memory
        # holds one block at a time.
        del code, erased
        np.add.at(failures, points, ~success)
        np.add.at(residuals, points, residual)
        if record_exit_iters > 0:
            # Past the block's fixpoint, iterations repeat its last row.
            rows = np.minimum(np.arange(record_exit_iters + 1), len(traj) - 1)
            trajectories[start] = traj[rows].transpose(1, 0, 2)
    # Plain ints: a parent that unpickles a worker's arrays keeps about 50 KB
    # more heap in use for the rest of the process.
    return failures.tolist(), residuals.tolist(), trajectories


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# glibc mallopt settings of a worker, as (param, value) in the order they are
# set: M_MMAP_THRESHOLD (-3) at 32 MiB serves every block-sized array from
# the heap instead of a fresh mapping, and M_TRIM_THRESHOLD (-1) keeps the
# heap top, so a block reuses the pages the last one freed instead of
# faulting them in again.  Only the first can be refused (older glibc caps
# it at 32 MiB, 512 KiB on 32-bit), and then nothing has changed.
_WORKER_MALLOPT = ((-3, 32 << 20), (-1, (1 << 31) - 1))


def _libc_mallopt():
    """The C library's mallopt(int, int), or None where it has none."""
    # numpy has imported ctypes already
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return mallopt


def _keep_heap(mallopt) -> None:
    """Set _WORKER_MALLOPT through mallopt (see _libc_mallopt), stopping at
    the first setting it refuses."""
    if mallopt is not None:
        for param, value in _WORKER_MALLOPT:
            if mallopt(param, value) != 1:
                return


def _fork_shares(shares: list[tuple]) -> list:
    """_run_trials on each share of arguments, each in a child forked for
    it; returns the parts in share order.

    A child first makes its allocator keep what it frees (see _keep_heap):
    its blocks free and allocate arrays of the same sizes again and again.
    mallopt is resolved here, as a child must not load libraries while the
    parent has other threads, and the parent's allocator stays as it is.

    A child pickles (True, part) or (False, exception) into its own pipe and
    leaves through os._exit, skipping atexit handlers and stdio flushes.  A
    worker's exception is raised again here; a child that ends without a
    result is an InternalError.  No exit path leaves a child running.
    """
    mallopt = _libc_mallopt()
    pipes, pids = [], []  # pids: the children not yet reaped
    try:
        for share in shares:
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError as e:
                os.close(read)
                os.close(write)
                raise CapacityError(f"cannot start a simulation worker: {e}") from None
            if pid == 0:
                code = 1
                try:
                    os.close(read)
                    try:
                        _keep_heap(mallopt)
                        reply = (True, _run_trials(*share))
                    except BaseException as e:  # raised again in the parent
                        reply = (False, e)
                    with os.fdopen(write, "wb") as pipe:
                        pickle.dump(reply, pipe)
                    code = 0
                finally:
                    os._exit(code)
            os.close(write)
            pids.append(pid)
            pipes.append(os.fdopen(read, "rb"))
        parts = []
        for pipe in pipes:
            data = pipe.read()
            _, status = os.waitpid(pids.pop(0), 0)
            try:
                ok, part = pickle.loads(data)
            except Exception:
                raise InternalError("a simulation worker ended without a result (exit code "
                                    f"{os.waitstatus_to_exitcode(status)})") from None
            if not ok:
                raise part
            parts.append(part)
        return parts
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            # Imported here: a run whose workers all return never pays for it.
            import signal

            for pid in pids:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


class SweepResult(NamedTuple):
    rows: list[dict]
    rng_name: str
    seed: int
    # False when the ensemble is outside the assumptions of the asymptotic
    # stability analysis (punctured bits or distance-1 component codes), in
    # which case no threshold or stability prediction applies to the sweep.
    stability_prediction: bool
    # eps -> the (trials, record_exit_iters + 1, n_e) flooding trajectories
    trajectories: dict


def sweep(
    spec: EnsembleSpec,
    scale: int,
    eps_grid,
    trials: int,
    seed: int,
    jobs: int = 1,
    record_exit_iters: int = 0,
) -> SweepResult:
    """Monte Carlo block/bit erasure rates over a grid of channel parameters.

    Each trial draws a fresh code and a fresh erasure pattern from a
    counter-based stream keyed by (seed, grid index, trial index), so results
    do not depend on scheduling or on the number of workers, which is at
    most jobs and the CPUs this process may use (see usable_cpus).  The
    key holds at most MAX_GRID_POINTS grid points and MAX_TRIALS trials per
    point.  A failed allocation, here or in a worker, is a CapacityError.
    """
    _check_scale(spec, scale)
    _check_count(trials, "trials", 1)
    _check_count(jobs, "jobs", 1)
    _check_count(record_exit_iters, "record_exit_iters", 0)
    _check_seed(seed)
    try:
        eps_grid = list(eps_grid)
    except TypeError:
        raise ValidationError(f"eps grid must be a sequence of numbers, got {eps_grid!r}") from None
    bad = [eps for eps in eps_grid if not (is_real(eps) and 0.0 <= eps <= 1.0)]
    if bad:
        raise ValidationError(f"erasure probabilities must be numbers in [0, 1], got {bad[0]!r}")
    eps_grid = [float(eps) for eps in eps_grid]
    if not 0 < len(eps_grid) <= MAX_GRID_POINTS:
        raise ValidationError(f"eps grid has {len(eps_grid)} points, 1 to {MAX_GRID_POINTS} allowed")
    # recorded trials are keyed by eps, so a repeated point would lose some
    if record_exit_iters > 0 and len(set(eps_grid)) < len(eps_grid):
        raise ValidationError("a sweep that records trajectories needs distinct eps grid values")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials must be at most {MAX_TRIALS}, got {trials!r}")
    result = SweepResult(rows=[], rng_name=_RNG_NAME, seed=seed,
                         stability_prediction=spec.stability_eligible, trajectories={})
    n_bits = scale * sum(vn.count * vn.n_transmitted for vn in spec.vn_types)
    total = len(eps_grid) * trials
    # Blocks hold at most _BLOCK_EDGES edges (a larger code is a block of
    # one), and each worker gets the same number of blocks, at least one.
    n = min(jobs, total, usable_cpus()) if hasattr(os, "fork") else 1
    rounds = -(-total // (n * max(1, _BLOCK_EDGES // (scale * sum(spec.edge_counts)))))
    size = -(-total // (n * rounds))
    n = min(n, -(-total // size))
    run = (spec, scale, seed, eps_grid, trials)
    try:
        if n == 1:
            parts = [_run_trials(*run, range(0, total, size), size, record_exit_iters)]
        else:
            # Worker w runs blocks w, w + n, ... in one call: it fills its own
            # local maps on first use and keeps them for all of its blocks.
            parts = _fork_shares([(*run, range(w * size, total, n * size), size, record_exit_iters)
                                  for w in range(n)])
    except MemoryError as e:  # a worker's is raised again by _fork_shares
        raise CapacityError(f"at scale {scale}, the simulation needs more memory than is available: "
                            f"{e}") from None
    failures, residuals = np.sum([part[:2] for part in parts], axis=0)
    if record_exit_iters > 0:
        traj = np.empty((total, record_exit_iters + 1, spec.n_edge_types))
        for _, _, blocks in parts:
            for start, block in blocks.items():
                traj[start : start + len(block)] = block
    for eps_index, eps in enumerate(eps_grid):
        fails = int(failures[eps_index])
        ci_lo, ci_hi = wilson_interval(fails, trials)
        result.rows.append(
            {
                "eps": eps,
                "ber": int(residuals[eps_index]) / (n_bits * trials),
                "bler": fails / trials,
                "ci_lo": ci_lo,
                "ci_hi": ci_hi,
                "trials": trials,
            }
        )
        if record_exit_iters > 0:
            result.trajectories[eps] = traj[eps_index * trials : (eps_index + 1) * trials]
    return result
