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
they were last evaluated (every node, on its side's first pass).  Keys are
kept as decoder state; a flag that turns on adds its socket bit to the key of
the node it enters, found through per-edge owner maps: the VN side's is
built once per block size of a simulation, as every block of one size wires
its VN sockets the same way, and the CN side's when decoding starts.  The
iteration stops at the first one that turns no flag on.

A sampled code carries one local decoding map per component type, keyed by
the known input pattern, so a pass is a few table lookups vectorized over
the due nodes of each type.  A map is filled on first use from the echelon
bases of many keys at a time, which the subset walk shared with the
information tables (`gf2.subset_slots`) provides; the codes of one trial
loop share one set of maps, so each key is filled once per loop.

A simulation decodes its trials in blocks: runs of consecutive trials of at
most _BLOCK_EDGES edges in all, each sampled from its own stream into one
disjoint-union graph (a larger code is a block of one).  One frontier run
serves the whole block, and each trial's outcome is read off its own node
and edge ranges, so it is the one that trial gets decoded alone.  The
blocks are shared out among at most `jobs` workers, and never more workers
than the machine has CPUs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .ensemble import EnsembleSpec
from .errors import ValidationError, is_int

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


@dataclass
class SampledCode:
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
    maps: tuple[list[_LocalMaps], list[_LocalMaps]] = field(compare=False, repr=False)
    # The VN side's owner map (see _owner_map), shared by the blocks of one
    # size in a trial loop.
    vn_owner: tuple[np.ndarray, int] = field(compare=False, repr=False)
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


def _new_block(spec: EnsembleSpec, scale: int, trials: int, maps, vn_wiring=None) -> SampledCode:
    """A block of `trials` codes whose interleavers are still to be drawn.

    vn_wiring is _vn_wiring of the same spec, scale and trials, built here
    when not given.  _sample_code fills the CN sockets of each trial.
    """
    per_type = [count * scale for count in spec.edge_counts]
    n_edges = trials * sum(per_type)
    idx_dtype = _index_dtype(n_edges)
    vn_edges, vn_owner = vn_wiring or _vn_wiring(spec, scale, trials)
    cn_edges = [
        np.empty((trials * t.count * scale, t.n_sockets), dtype=idx_dtype) for t in spec.cn_types
    ]
    return SampledCode(
        spec=spec,
        scale=scale,
        n_edges=n_edges,
        edge_type0=np.tile(np.repeat(np.arange(len(per_type), dtype=idx_dtype), per_type), trials),
        vn_counts=tuple(map(len, vn_edges)),
        cn_counts=tuple(map(len, cn_edges)),
        vn_edges=vn_edges,
        cn_edges=cn_edges,
        n_transmitted=trials * scale * sum(t.count * t.n_transmitted for t in spec.vn_types),
        maps=maps,
        vn_owner=vn_owner,
        trials=trials,
    )


def _vn_wiring(spec: EnsembleSpec, scale: int, trials: int):
    """The VN side of a block of `trials` codes, which is the same in every
    block of that size: per VN type its sockets' edges, and the VN side's
    per-edge owner map (see _owner_map).

    VN slot k of an edge type (VN sockets of that type in type, position,
    node order) carries the k-th edge of the type.
    """
    per_type = [count * scale for count in spec.edge_counts]
    n_edges = trials * sum(per_type)
    idx_dtype = _index_dtype(n_edges)
    vn_edges = [
        np.empty((trials * t.count * scale, t.n_sockets), dtype=idx_dtype) for t in spec.vn_types
    ]
    trial_first = np.arange(0, n_edges, sum(per_type))[:, None]
    first = 0
    for blocks in _socket_blocks(spec.vn_types, spec.n_edge_types, scale):
        for ti, pos, cnt in blocks:
            vn_edges[ti][:, pos] = (trial_first + np.arange(first, first + cnt)).reshape(-1)
            first += cnt
    return vn_edges, _owner_map(vn_edges, n_edges)


def _sample_code(code: SampledCode, trial: int, rng: np.random.Generator) -> None:
    """Draw the interleavers of one trial of a block from rng: per edge type,
    a uniform permutation maps VN slots to CN slots, and CN slot j carries
    the edge whose VN slot maps to it."""
    spec = code.spec
    first = trial * (code.n_edges // code.trials)
    for l0, blocks in enumerate(_socket_blocks(spec.cn_types, spec.n_edge_types, code.scale)):
        count = spec.edge_counts[l0] * code.scale
        inv = np.empty(count, dtype=code.edge_type0.dtype)
        inv[rng.permutation(count)] = np.arange(first, first + count)
        for ti, pos, cnt in blocks:
            code.cn_edges[ti][trial * cnt : (trial + 1) * cnt, pos] = inv[:cnt]
            inv = inv[cnt:]
        first += count


# Edges in one block of trials decoded together (see sweep).
_BLOCK_EDGES = 1 << 16
# Array tables cap at 2 x 8 MiB; wider types fall back to a dict memo.
_ARRAY_MAX_WIDTH = 20
# Missing dict keys filled per vectorized call, each with its q neighbours.
_DICT_FILL_CHUNK = 2048


def _extrinsic(det: np.ndarray, cleared_rows) -> np.ndarray:
    """Out masks: bit j is read from the determined-column masks det at the
    row of the key with incoming bit j cleared; cleared_rows yields those
    rows for j = 0, 1, ..."""
    out = 0
    for j, rows in enumerate(cleared_rows):
        out = out | ((det[rows] >> j) & 1) << j
    return out


class _LocalMaps:
    """Exact local erasure decoding for one component type.

    Key layout: (channel-known mask << n_sockets) | incoming-known mask.
    Values: extrinsic outgoing-known mask and (non-extrinsic) recovered
    information-bit mask.  Out bit j of key S is "column j lies in the span
    of S without socket j", a lookup of the determined-column mask of S with
    incoming bit j cleared; so the keys sharing one channel mask (a block)
    are filled together, from that block alone.
    """

    def __init__(self, column_bits: list[int], n_rows: int, chan_positions: tuple[int, ...]):
        self.q = len(column_bits)
        self.kb = len(chan_positions)
        self.n_rows = n_rows
        # key bit j selects one of these: the socket columns, then the
        # channel-known info bits
        self._columns = list(column_bits) + [1 << pos for pos in chan_positions]
        # functionals tested against every span: the socket columns, then the info bits
        self._tests = list(column_bits) + [1 << i for i in range(n_rows)]
        width = self.q + self.kb
        self._array_backed = width <= _ARRAY_MAX_WIDTH
        if self._array_backed:
            self.table = np.empty((2, 1 << width), dtype=np.int64)
            self._filled = np.zeros(1 << self.kb, dtype=bool)
        else:
            self._dict: dict[int, tuple[int, int]] = {}

    def lookup(self, keys: np.ndarray, row: int) -> np.ndarray:
        """Row 0 (out masks) or row 1 (recovered-info masks) of the map at
        keys, filled where missing."""
        if self._array_backed:
            if not self._filled.all():
                due = np.zeros_like(self._filled)
                due[keys >> self.q] = True
                for chan in np.flatnonzero(due & ~self._filled).tolist():
                    self._fill_block(chan)
            return self.table[row][keys]
        uniq, inv = np.unique(keys, return_inverse=True)
        missing = [key for key in uniq.tolist() if key not in self._dict]
        if missing:
            self._fill_dict(np.array(missing, dtype=np.int64))
        return np.array([self._dict[key][row] for key in uniq.tolist()], dtype=np.int64)[inv]

    def _fill_block(self, chan: int) -> None:
        base = chan << self.q
        det, info = self._span_masks(np.array([base]), self.q)
        inc = np.arange(1 << self.q, dtype=np.int64)
        block = slice(base, base + len(inc))
        self.table[0, block] = _extrinsic(det, (inc & ~(1 << j) for j in range(self.q)))
        self.table[1, block] = info
        self._filled[chan] = True

    def _fill_dict(self, missing: np.ndarray) -> None:
        bits = np.int64(1) << np.arange(self.q, dtype=np.int64)
        for lo in range(0, len(missing), _DICT_FILL_CHUNK):
            chunk = missing[lo : lo + _DICT_FILL_CHUNK]
            cleared = chunk[:, None] & ~bits
            keys = np.unique(np.concatenate([chunk, cleared.reshape(-1)]))
            det, info = self._span_masks(keys, 0)
            out = _extrinsic(det, np.searchsorted(keys, cleared).T)
            own = info[np.searchsorted(keys, chunk)]
            self._dict.update(zip(chunk.tolist(), zip(out.tolist(), own.tolist())))

    def _span_masks(self, bases: np.ndarray, free: int) -> tuple[np.ndarray, np.ndarray]:
        """Determined-column and recovered-info masks of every key b | s, for
        each base key b (its `free` low bits clear) and each s < 2**free,
        ordered base-major.

        A functional is determined iff it reduces to zero against the key's
        echelon basis from the subset walk.
        """
        blocks = []
        for _, slots in gf2.subset_slots(self._columns, self.n_rows, bases, free):
            det = np.zeros(slots.shape[1], dtype=np.int64)
            for i, test in enumerate(self._tests):
                v = np.full(slots.shape[1], test, dtype=slots.dtype)
                for p in range(test.bit_length() - 1, -1, -1):
                    v ^= slots[p] * ((v & (1 << p)) != 0)
                det |= (v == 0).astype(np.int64) << i
            blocks.append(det)
        det = np.concatenate(blocks)
        return det & ((1 << self.q) - 1), det >> self.q


def _local_maps(spec: EnsembleSpec) -> tuple[list[_LocalMaps], list[_LocalMaps]]:
    """Fresh, unfilled local maps for the VN types and for the CN types."""
    vn_maps = [
        _LocalMaps(vn.generator.column_bits(), vn.n_info_bits, vn.transmitted_positions)
        for vn in spec.vn_types
    ]
    cn_maps = [_LocalMaps(cn.generator.column_bits(), cn.dimension, ()) for cn in spec.cn_types]
    return vn_maps, cn_maps


@dataclass
class DecodeResult:
    success: bool
    residual_erasures: int
    iterations: int
    trajectory: np.ndarray | None = None
    vc_history: list[np.ndarray] | None = None


def _bit_rows(masks: np.ndarray, width: int) -> np.ndarray:
    """(len(masks), width) bool matrix: row r, column j is bit j of masks[r]."""
    as_bytes = masks.astype("<u8").view(np.uint8).reshape(-1, 8)
    return np.unpackbits(as_bytes, axis=1, count=width, bitorder="little").view(bool)


class _Side:
    """Decoder state of the VNs or the CNs of one code, by node number
    across the types of the side: each node's key, the out mask of its last
    lookup, and whether its key grew since (every node is due on its side's
    first pass)."""

    def __init__(self, edges: list[np.ndarray], maps: list[_LocalMaps], owner):
        """owner: the side's per-edge owner map and its bits (see _owner_map)."""
        self.edges = edges
        self.maps = maps
        first = np.cumsum([0] + [len(e) for e in edges]).tolist()
        self.spans = list(zip(first, first[1:]))
        self.keys = np.zeros(first[-1], dtype=np.int64)
        self.out = np.zeros(first[-1], dtype=np.int64)
        self.due = np.ones(first[-1], dtype=bool)
        self.owner, self.bits = owner

    def send(self, other: "_Side") -> list[np.ndarray]:
        """Look up the due nodes and pass the messages that turned known on
        to the other side; returns their edges, per type."""
        sent = []
        for t in range(len(self.edges)):
            flipped = self._evaluate(t)
            if len(flipped):
                other.receive(flipped)
                sent.append(flipped)
        return sent

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
        out = self.maps[t].lookup(self.keys[nodes], 0)
        new = out & ~self.out[nodes]
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
    if max_iters is not None and max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters!r}")
    erased = np.asarray(erasure_pattern, dtype=bool)
    if erased.shape != (code.n_transmitted,):
        raise ValidationError(
            f"erasure pattern has shape {erased.shape}, expected ({code.n_transmitted},)"
        )
    success, residual, iterations, trajectory, history = _decode_block(
        code, erased[None], max_iters, record_trajectory, keep_history
    )
    return DecodeResult(
        success=bool(success[0]),
        residual_erasures=int(residual[0]),
        iterations=int(iterations[0]),
        trajectory=None if trajectory is None else trajectory[:, 0],
        vc_history=history,
    )


def _decode_block(
    code: SampledCode, erased: np.ndarray, max_iters, record_trajectory=False, keep_history=False
):
    """Decode every trial of a block in one run of the frontier decoder.

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
    vn = _Side(code.vn_edges, code.maps[0], code.vn_owner)
    cn = _Side(code.cn_edges, code.maps[1], _owner_map(code.cn_edges, code.n_edges))
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

    edge_totals = np.bincount(code.edge_type0[:per_trial], minlength=n_e).astype(float)
    known_vc = np.zeros(n_trials * n_e, dtype=np.int64)
    # per trial, the last iteration that turned one of its messages known
    last_flip = np.zeros(n_trials, dtype=np.int64)
    msg_vc = np.zeros(code.n_edges, dtype=bool) if keep_history else None
    trajectory: list[np.ndarray] = []
    history: list[np.ndarray] = []

    def note(sent: list[np.ndarray], iteration: int) -> int:
        for flipped in sent:
            last_flip[flipped // per_trial if n_trials > 1 else 0] = iteration
        return sum(map(len, sent))

    def vn_pass(iteration: int) -> int:
        sent = vn.send(cn)
        for flipped in sent:
            if record_trajectory:
                classes = code.edge_type0[flipped] + flipped // per_trial * n_e
                known_vc[:] += np.bincount(classes, minlength=n_trials * n_e)
            if keep_history:
                msg_vc[flipped] = True
        if record_trajectory:
            trajectory.append(known_vc.reshape(n_trials, n_e) / edge_totals)
        if keep_history:
            history.append(msg_vc.copy())
        return note(sent, iteration)

    vn_pass(0)
    iterations = 0
    while max_iters is None or iterations < max_iters:
        iterations += 1
        if note(cn.send(vn), iterations) + vn_pass(iterations) == 0:
            break

    residual = np.zeros(n_trials, dtype=np.int64)
    for i, t in enumerate(spec.vn_types):
        # every VN was last looked up at its current key, so this is a hit
        lo, hi = vn.spans[i]
        info = vn.maps[i].lookup(vn.keys[lo:hi], 1)
        recovered = (info[:, None] >> np.array(t.transmitted_positions, dtype=np.int64)) & 1
        residual += (~chan_bits[i] & (recovered == 0)).reshape(n_trials, -1).sum(axis=1)
    return (
        residual == 0,
        residual,
        np.minimum(last_flip + 1, iterations),
        np.array(trajectory) if record_trajectory else None,
        history if keep_history else None,
    )


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
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


def _sample_block(spec, scale, seed, eps, trials, start, stop, maps, vn_wiring=None):
    """The block of flat trials [start, stop) and its erasure patterns, one
    row per trial; eps holds the grid and vn_wiring is passed to
    _new_block."""
    code = _new_block(spec, scale, stop - start, maps, vn_wiring)
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
        # Every block of one size wires its VN sockets the same way; only
        # the last block can be smaller.
        if stop - start != wired:
            wiring, wired = _vn_wiring(spec, scale, stop - start), stop - start
        code, erased = _sample_block(spec, scale, seed, eps, trials, start, stop, maps, wiring)
        success, residual, _, traj, _ = _decode_block(
            code, erased, None, record_trajectory=record_exit_iters > 0
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
    # Plain ints: a pool's parent that unpickles arrays keeps about 50 KB
    # more heap in use for the rest of the process.
    return failures.tolist(), residuals.tolist(), trajectories


@dataclass
class SweepResult:
    rows: list[dict]
    rng_name: str = _RNG_NAME
    seed: int = 0
    # False when the ensemble is outside the assumptions of the asymptotic
    # stability analysis (punctured bits or distance-1 component codes), in
    # which case no threshold or stability prediction applies to the sweep.
    stability_prediction: bool = True
    trajectories: dict = field(default_factory=dict)


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
    most jobs and the machine's CPU count.  The key holds at most
    MAX_GRID_POINTS grid points and MAX_TRIALS trials per point.
    """
    eps_grid = [float(eps) for eps in eps_grid]
    _check_scale(spec, scale)
    _check_count(trials, "trials", 1)
    _check_count(jobs, "jobs", 1)
    _check_count(record_exit_iters, "record_exit_iters", 0)
    _check_seed(seed)
    bad = [eps for eps in eps_grid if not 0.0 <= eps <= 1.0]
    if bad:
        raise ValidationError(f"erasure probabilities must lie in [0, 1], got {bad[0]!r}")
    if len(eps_grid) > MAX_GRID_POINTS:
        raise ValidationError(f"eps grid has {len(eps_grid)} points, at most {MAX_GRID_POINTS} allowed")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials must be at most {MAX_TRIALS}, got {trials!r}")
    result = SweepResult(rows=[], seed=seed, stability_prediction=spec.stability_eligible)
    n_bits = scale * sum(vn.count * vn.n_transmitted for vn in spec.vn_types)
    total = len(eps_grid) * trials
    # Blocks hold at most _BLOCK_EDGES edges (a larger code is a block of
    # one), and each worker gets the same number of blocks, at least one.
    n = min(jobs, total, os.cpu_count() or 1)
    rounds = -(-total // (n * max(1, _BLOCK_EDGES // (scale * sum(spec.edge_counts)))))
    size = -(-total // (n * rounds))
    n = min(n, -(-total // size))
    run = (spec, scale, seed, eps_grid, trials)
    if n == 1:
        parts = [_run_trials(*run, range(0, total, size), size, record_exit_iters)]
    else:
        # Worker w runs blocks w, w + n, ... in one call: it receives the
        # spec once, fills its own local maps on first use and keeps them for
        # all of its blocks.  Imported here: set-up and single-process runs
        # never pay for it.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=n) as pool:
            futures = [
                pool.submit(_run_trials, *run, range(w * size, total, n * size), size,
                            record_exit_iters)
                for w in range(n)
            ]
            parts = [f.result() for f in futures]
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
