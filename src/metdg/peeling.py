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
they were last evaluated.  Keys are kept as decoder state; a flag that turns
on ORs its socket bit into the key of the node it enters, found through the
per-edge owner maps the interleaver leaves behind.  The iteration stops at
the first one that turns no flag on.

A sampled code carries one local decoding map per component type, keyed by
the known input pattern, so a pass is a few table lookups vectorized over
the due nodes of each type.  A map is filled on first use from the echelon
bases of many keys at a time, which the subset walk shared with the
information tables (`gf2.subset_slots`) provides; the codes of one trial
loop share one set of maps, so each key is filled once per loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import gf2
from .ensemble import EnsembleSpec
from .errors import ValidationError

_RNG_NAME = "philox"
# Stream derivation packs the grid index into 16 bits and the trial index
# into 32 (see _trial_rng).
MAX_GRID_POINTS = 1 << 16
MAX_TRIALS = 1 << 32


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or not 0 <= seed < 1 << 64:
        raise ValidationError(f"seed must be an integer in [0, 2**64), got {seed!r}")


def _philox(seed: int, stream: int) -> np.random.Generator:
    # 128-bit key: the user seed in one word, a derived stream id in the other.
    return np.random.Generator(np.random.Philox(key=np.array([seed, stream], dtype=np.uint64)))


def _trial_rng(seed: int, eps_index: int, trial_index: int) -> np.random.Generator:
    if not 0 <= trial_index < MAX_TRIALS or not 0 <= eps_index < MAX_GRID_POINTS:
        raise ValidationError("trial or grid index out of range for stream derivation")
    return _philox(seed, (1 << 63) | (eps_index << 32) | trial_index)


@dataclass
class SampledCode:
    """One Tanner-graph realization at a given scale."""

    spec: EnsembleSpec
    scale: int
    n_edges: int
    edge_type0: np.ndarray
    vn_counts: tuple[int, ...]
    cn_counts: tuple[int, ...]
    vn_edges: list[np.ndarray]
    cn_edges: list[np.ndarray]
    n_transmitted: int
    # Per edge, the node at each end: (node index << _socket_bits) | socket,
    # nodes numbered across the types of a side (see _owners).
    vn_owner: np.ndarray
    cn_owner: np.ndarray
    # Local maps of the VN types and of the CN types, which decode fills and
    # reads; codes sampled by one trial loop share them.
    maps: tuple[list[_LocalMaps], list[_LocalMaps]] = field(compare=False, repr=False)

    @property
    def n_vn(self) -> int:
        return sum(self.vn_counts)

    @property
    def n_cn(self) -> int:
        return sum(self.cn_counts)


def _socket_blocks(counts_per_type, n_edge_types, socket_type_vectors):
    """Per edge type, the (type index, position, node count) blocks in slot order."""
    blocks: list[list[tuple[int, int, int]]] = [[] for _ in range(n_edge_types)]
    for ti, st in enumerate(socket_type_vectors):
        for pos, l in enumerate(st):
            blocks[l - 1].append((ti, pos, counts_per_type[ti]))
    return blocks


def _socket_bits(edges: list[np.ndarray]) -> int:
    """Low bits of an owner code that hold the socket, on one side."""
    return (max(e.shape[1] for e in edges) - 1).bit_length()


def _index_dtype(n: int) -> type:
    """Narrowest signed integer dtype that holds every value below n."""
    return np.int32 if n <= 1 << 31 else np.int64


def sample_code(spec: EnsembleSpec, scale: int, seed: int) -> SampledCode:
    """Draw one code: deterministic in (spec, scale, seed)."""
    _check_seed(seed)
    return _sample_code(spec, scale, _philox(seed, 0), _local_maps(spec))


def _sample_code(spec: EnsembleSpec, scale: int, rng: np.random.Generator, maps) -> SampledCode:
    if scale < 1:
        raise ValidationError("scale must be a positive integer")
    n_e = spec.n_edge_types
    vn_counts = tuple(vn.count * scale for vn in spec.vn_types)
    cn_counts = tuple(cn.count * scale for cn in spec.cn_types)

    vn_blocks = _socket_blocks(vn_counts, n_e, [vn.socket_types for vn in spec.vn_types])
    cn_blocks = _socket_blocks(cn_counts, n_e, [cn.socket_types for cn in spec.cn_types])

    edge_offsets = []
    total = 0
    for l0 in range(n_e):
        edge_offsets.append(total)
        total += spec.edge_counts[l0] * scale
    n_edges = total

    idx_dtype = _index_dtype(n_edges)
    edge_type0 = np.empty(n_edges, dtype=idx_dtype)
    for l0 in range(n_e):
        lo = edge_offsets[l0]
        hi = lo + spec.edge_counts[l0] * scale
        edge_type0[lo:hi] = l0

    vn_edges = [
        np.empty((vn_counts[i], vn.n_sockets), dtype=idx_dtype)
        for i, vn in enumerate(spec.vn_types)
    ]
    cn_edges = [
        np.empty((cn_counts[i], cn.n_sockets), dtype=idx_dtype)
        for i, cn in enumerate(spec.cn_types)
    ]

    for l0 in range(n_e):
        count_l = spec.edge_counts[l0] * scale
        perm = rng.permutation(count_l)
        inv = np.empty(count_l, dtype=idx_dtype)
        inv[perm] = np.arange(count_l, dtype=idx_dtype)
        # VN slot k of this type carries edge (offset + k); CN slot j carries
        # the edge whose VN slot maps to it under the interleaver.
        base = 0
        for ti, pos, cnt in vn_blocks[l0]:
            vn_edges[ti][:, pos] = edge_offsets[l0] + base + np.arange(cnt)
            base += cnt
        base = 0
        for ti, pos, cnt in cn_blocks[l0]:
            cn_edges[ti][:, pos] = edge_offsets[l0] + inv[base : base + cnt]
            base += cnt

    n_tx = sum(c * vn.n_transmitted for c, vn in zip(vn_counts, spec.vn_types))
    return SampledCode(
        spec=spec,
        scale=scale,
        n_edges=n_edges,
        edge_type0=edge_type0,
        vn_counts=vn_counts,
        cn_counts=cn_counts,
        vn_edges=vn_edges,
        cn_edges=cn_edges,
        n_transmitted=n_tx,
        vn_owner=_owners(vn_edges, n_edges),
        cn_owner=_owners(cn_edges, n_edges),
        maps=maps,
    )


def _owners(edges: list[np.ndarray], n_edges: int) -> np.ndarray:
    """Per edge, (node << socket bits) | socket of the node it enters on one
    side, given that side's (node, socket) -> edge arrays per type."""
    bits = _socket_bits(edges)
    n_nodes = sum(len(e) for e in edges)
    owner = np.empty(n_edges, dtype=_index_dtype(n_nodes << bits))
    first = 0
    for e in edges:
        owner[e] = np.arange(first, first + len(e))[:, None] << bits | np.arange(e.shape[1])
        first += len(e)
    return owner


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
            self.out_table = np.empty(1 << width, dtype=np.int64)
            self.info_table = np.empty(1 << width, dtype=np.int64)
            self._filled = np.zeros(1 << self.kb, dtype=bool)
        else:
            self._dict: dict[int, tuple[int, int]] = {}

    def lookup_many(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._array_backed:
            if not self._filled.all():
                due = np.zeros_like(self._filled)
                due[keys >> self.q] = True
                for chan in np.flatnonzero(due & ~self._filled).tolist():
                    self._fill_block(chan)
            return self.out_table[keys], self.info_table[keys]
        uniq, inv = np.unique(keys, return_inverse=True)
        missing = [key for key in uniq.tolist() if key not in self._dict]
        if missing:
            self._fill_dict(np.array(missing, dtype=np.int64))
        pairs = np.array([self._dict[key] for key in uniq.tolist()], dtype=np.int64)
        pairs = pairs.reshape(-1, 2)  # keeps two columns for an empty batch
        return pairs[inv, 0], pairs[inv, 1]

    def _fill_block(self, chan: int) -> None:
        base = chan << self.q
        det, info = self._span_masks(np.array([base]), self.q)
        inc = np.arange(1 << self.q, dtype=np.int64)
        block = slice(base, base + len(inc))
        self.out_table[block] = _extrinsic(det, (inc & ~(1 << j) for j in range(self.q)))
        self.info_table[block] = info
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
    lookup, and whether its key grew since."""

    def __init__(self, edges: list[np.ndarray], maps: list[_LocalMaps], owner: np.ndarray):
        self.edges = edges
        self.maps = maps
        self.owner = owner
        self.bits = _socket_bits(edges)
        first = np.cumsum([0] + [len(e) for e in edges]).tolist()
        self.spans = list(zip(first, first[1:]))
        self.keys = np.zeros(first[-1], dtype=np.int64)
        self.out = np.zeros(first[-1], dtype=np.int64)
        self.due = np.zeros(first[-1], dtype=bool)

    def send(self, other: "_Side", every_node: bool) -> list[np.ndarray]:
        """Look up the due nodes (or every node) and pass the messages that
        turned known on to the other side; returns their edges, per type."""
        sent = []
        for t in range(len(self.edges)):
            flipped = self._evaluate(t, every_node)
            if len(flipped):
                other.receive(flipped)
                sent.append(flipped)
        return sent

    def _evaluate(self, t: int, every_node: bool) -> np.ndarray:
        """Look up the due nodes of type t; return the edges whose outgoing
        flag turned on."""
        (lo, hi), edges = self.spans[t], self.edges[t]
        if every_node:
            nodes = rows = slice(lo, hi)
        else:
            rows = np.flatnonzero(self.due[lo:hi])
            if len(rows) == 0:
                return np.zeros(0, dtype=edges.dtype)
            nodes = rows + lo
        self.due[nodes] = False
        out = self.maps[t].lookup_many(self.keys[nodes])[0]
        new = out & ~self.out[nodes]
        self.out[nodes] = out
        hit = np.flatnonzero(new)
        senders = edges.take(hit if every_node else rows[hit], axis=0)
        return senders[_bit_rows(new[hit], edges.shape[1])]

    def receive(self, edges: np.ndarray) -> None:
        """OR the socket bits of newly known incoming edges into the keys of
        their nodes, and mark those nodes due."""
        code = self.owner[edges]
        node = code >> self.bits
        code &= (1 << self.bits) - 1
        # A node can gain several sockets at once, hence the unbuffered OR;
        # the bits are int64 whatever the owner dtype, as sockets reach 63.
        np.bitwise_or.at(self.keys, node, np.left_shift(1, code, dtype=np.int64))
        self.due[node] = True


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
    spec = code.spec
    n_e = spec.n_edge_types
    if max_iters is not None and max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters!r}")
    erased = np.asarray(erasure_pattern, dtype=bool)
    if erased.shape != (code.n_transmitted,):
        raise ValidationError(
            f"erasure pattern has shape {erased.shape}, expected ({code.n_transmitted},)"
        )

    vn_maps, cn_maps = code.maps
    vn = _Side(code.vn_edges, vn_maps, code.vn_owner)
    cn = _Side(code.cn_edges, cn_maps, code.cn_owner)
    # A VN key starts as its channel-known mask (bit j = j-th transmitted
    # position) above its q incoming bits.
    chan_bits: list[np.ndarray] = []
    offset = 0
    for i, t in enumerate(spec.vn_types):
        (lo, hi), w = vn.spans[i], t.n_transmitted
        block = ~erased[offset : offset + (hi - lo) * w].reshape(hi - lo, w)
        offset += (hi - lo) * w
        chan_bits.append(block)
        chan = (block.astype(np.int64) << np.arange(w, dtype=np.int64)).sum(axis=1)
        vn.keys[lo:hi] = chan << t.n_sockets

    edge_totals = np.bincount(code.edge_type0, minlength=n_e).astype(float)
    known_vc = np.zeros(n_e, dtype=np.int64)
    msg_vc = np.zeros(code.n_edges, dtype=bool) if keep_history else None
    trajectory = [] if record_trajectory else None
    history = [] if keep_history else None

    def vn_pass(every_node: bool) -> int:
        sent = vn.send(cn, every_node)
        for flipped in sent:
            if record_trajectory:
                known_vc[:] += np.bincount(code.edge_type0[flipped], minlength=n_e)
            if keep_history:
                msg_vc[flipped] = True
        if record_trajectory:
            trajectory.append(known_vc / edge_totals)
        if keep_history:
            history.append(msg_vc.copy())
        return sum(map(len, sent))

    # Every node is due on its side's first pass; later passes look up only
    # the nodes whose key grew.
    vn_pass(every_node=True)
    iterations = 0
    while max_iters is None or iterations < max_iters:
        flips = sum(map(len, cn.send(vn, every_node=iterations == 0)))
        flips += vn_pass(every_node=False)
        iterations += 1
        if flips == 0:
            break

    residual = 0
    for i, t in enumerate(spec.vn_types):
        if t.n_transmitted == 0:
            continue
        # every VN was last looked up at its current key, so this is a hit
        lo, hi = vn.spans[i]
        _, info = vn.maps[i].lookup_many(vn.keys[lo:hi])
        pos = np.array(t.transmitted_positions, dtype=np.int64)
        recovered = ((info[:, None] >> pos) & 1).astype(bool)
        residual += int(np.sum(~chan_bits[i] & ~recovered))

    return DecodeResult(
        success=residual == 0,
        residual_erasures=residual,
        iterations=iterations,
        trajectory=np.array(trajectory) if record_trajectory else None,
        vc_history=history,
    )


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if trials == 0:
        return 0.0, 1.0
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p_hat * (1 - p_hat) / trials + z * z / (4 * trials * trials)) / denom
    # At p_hat = 0 (or 1) the bound center -/+ half is exactly 0 (or 1) in closed form.
    lo = 0.0 if successes == 0 else max(0.0, center - half)
    hi = 1.0 if successes == trials else min(1.0, center + half)
    return lo, hi


def _run_trials(spec, scale, seed, tasks, record_exit_iters, max_iters) -> list[tuple]:
    """(success, residual erasures, trajectory or None) of each task, a
    (grid index, trial index, eps) triple, in task order.  The codes of all
    tasks share one set of local maps."""
    maps = _local_maps(spec)
    outcomes = []
    for eps_index, trial_index, eps in tasks:
        rng = _trial_rng(seed, eps_index, trial_index)
        code = _sample_code(spec, scale, rng, maps)
        pattern = rng.random(code.n_transmitted) < eps
        res = decode(code, pattern, max_iters=max_iters, record_trajectory=record_exit_iters > 0)
        # Drop this trial's graph before the next one is sampled, so that
        # memory holds one graph at a time.
        del code, pattern
        traj = None
        if record_exit_iters > 0:
            traj = res.trajectory
            want = record_exit_iters + 1
            if traj.shape[0] < want:
                # The fixpoint was reached early; later iterations repeat it.
                pad = np.repeat(traj[-1:], want - traj.shape[0], axis=0)
                traj = np.vstack([traj, pad])
            else:
                traj = traj[:want]
        outcomes.append((res.success, res.residual_erasures, traj))
    return outcomes


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
    max_iters: int | None = None,
) -> SweepResult:
    """Monte Carlo block/bit erasure rates over a grid of channel parameters.

    Each trial draws a fresh code and a fresh erasure pattern from a
    counter-based stream keyed by (seed, grid index, trial index), so results
    do not depend on scheduling or on the number of workers.  The key holds
    at most MAX_GRID_POINTS grid points and MAX_TRIALS trials per point.
    """
    eps_grid = [float(eps) for eps in eps_grid]
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if jobs < 1:
        raise ValidationError("jobs must be >= 1")
    if max_iters is not None and max_iters < 0:
        raise ValidationError("max_iters must be >= 0")
    if record_exit_iters < 0:
        raise ValidationError(f"record_exit_iters must be >= 0, got {record_exit_iters!r}")
    _check_seed(seed)
    bad = [eps for eps in eps_grid if not 0.0 <= eps <= 1.0]
    if bad:
        raise ValidationError(f"erasure probabilities must lie in [0, 1], got {bad[0]!r}")
    if len(eps_grid) > MAX_GRID_POINTS:
        raise ValidationError(f"eps grid has {len(eps_grid)} points, at most {MAX_GRID_POINTS} allowed")
    if trials > MAX_TRIALS:
        raise ValidationError(f"trials must be at most {MAX_TRIALS}, got {trials!r}")
    result = SweepResult(rows=[], seed=seed, stability_prediction=spec.stability_eligible)
    n_tx_per_scale = sum(vn.count * vn.n_transmitted for vn in spec.vn_types)
    n_bits = n_tx_per_scale * scale
    tasks = [(eps_index, t, eps) for eps_index, eps in enumerate(eps_grid) for t in range(trials)]
    if jobs == 1:
        outcomes = _run_trials(spec, scale, seed, tasks, record_exit_iters, max_iters)
    else:
        # Worker w runs tasks w, w + n, ... in one call: it receives the spec
        # once, fills its own local maps on first use and keeps them for all
        # of its tasks.  Imported here: set-up and single-process runs never
        # pay for it.
        from concurrent.futures import ProcessPoolExecutor

        n = min(jobs, len(tasks))
        outcomes = [None] * len(tasks)
        with ProcessPoolExecutor(max_workers=n) as pool:
            parts = [
                pool.submit(_run_trials, spec, scale, seed, tasks[w::n], record_exit_iters, max_iters)
                for w in range(n)
            ]
            for w, part in enumerate(parts):
                outcomes[w::n] = part.result()
    for eps_index, eps in enumerate(eps_grid):
        point = outcomes[eps_index * trials : (eps_index + 1) * trials]
        failures = sum(1 for ok, _, _ in point if not ok)
        residual_total = sum(r for _, r, _ in point)
        ci_lo, ci_hi = wilson_interval(failures, trials)
        result.rows.append(
            {
                "eps": eps,
                "ber": residual_total / (n_bits * trials),
                "bler": failures / trials,
                "ci_lo": ci_lo,
                "ci_hi": ci_hi,
                "trials": trials,
            }
        )
        if record_exit_iters > 0:
            result.trajectories[eps] = np.stack([t for _, _, t in point])
    return result
