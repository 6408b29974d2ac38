"""Independent reference implementations used only by the tests.

Everything here recomputes package quantities through a different route
(numpy elimination, itertools subset scans, scalar recursions), so agreement
with the package is a meaningful check rather than a tautology.
"""

import itertools
from bisect import bisect_left
from fractions import Fraction

import numpy as np

from metdg import GF2Matrix, peeling


def select_columns(g, indices):
    """The submatrix of g's columns at indices, in that order."""
    return GF2Matrix.from_rows([[row[j] for j in indices] for row in g.to_rows()])


def rank_gf2_numpy(mat) -> int:
    """GF(2) rank by plain numpy row reduction."""
    a = (np.array(mat, dtype=np.uint8) % 2).copy()
    if a.size == 0:
        return 0
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if a[i, c]:
                piv = i
                break
        if piv is None:
            continue
        a[[r, piv]] = a[[piv, r]]
        for i in range(rows):
            if i != r and a[i, c]:
                a[i] ^= a[r]
        r += 1
        if r == rows:
            break
    return r


def row_span_size(mat) -> int:
    """Number of distinct vectors in the row span, by explicit enumeration."""
    rows = np.array(mat, dtype=np.uint8) % 2
    k = rows.shape[0]
    span = set()
    for mask in range(1 << k):
        v = np.zeros(rows.shape[1], dtype=np.uint8)
        for i in range(k):
            if (mask >> i) & 1:
                v ^= rows[i]
        span.add(tuple(v.tolist()))
    return len(span)


def all_codewords(gen_rows):
    """All (input tuple, codeword array) pairs via explicit matrix products."""
    g = np.array(gen_rows, dtype=np.uint8)
    k = g.shape[0]
    out = []
    for bits in itertools.product((0, 1), repeat=k):
        cw = (np.array(bits, dtype=np.uint8) @ g) % 2
        out.append((bits, cw))
    return out


def naive_weight2_pairs(gen_rows, socket_types, with_input_weight):
    counts = {}
    for bits, cw in all_codewords(gen_rows):
        support = np.flatnonzero(cw)
        if len(support) != 2 or cw.sum() != 2:
            continue
        i, j = int(support[0]), int(support[1])
        u = sum(bits)
        for a, b in ((i, j), (j, i)):
            key = (
                (socket_types[a], socket_types[b], u)
                if with_input_weight
                else (socket_types[a], socket_types[b])
            )
            counts[key] = counts.get(key, 0) + 1
    return counts


def disjoint_support_by_pairs(spec) -> bool:
    """Whether the weight-2 codewords of the VN types and those of the CN
    types touch disjoint edge-type sets, read off the enumerated codewords
    instead of the stability matrices.  spec is stability-eligible."""

    def touched(types):
        return {
            l
            for t in types
            for key in naive_weight2_pairs(t.generator.to_rows(), list(t.socket_types), False)
            for l in key
        }

    return not (touched(spec.vn_types) & touched(spec.cn_types))


def naive_info_table(gen_rows, socket_types, n_edge_types, puncture=None):
    """Rank-sum table by brute-force selection scans (no shared iterator)."""
    g = np.array(gen_rows, dtype=np.uint8)
    k = g.shape[0]
    by_type = [
        [j for j in range(g.shape[1]) if socket_types[j] == l + 1]
        for l in range(n_edge_types)
    ]
    dims = [len(c) for c in by_type]
    identity = np.eye(k, dtype=np.uint8)
    if puncture is None:
        supp = []
    else:
        supp = [i for i, b in enumerate(puncture) if b]
    w = len(supp)
    shape = tuple(d + 1 for d in dims) + ((w + 1,) if puncture is not None else ())
    table = np.zeros(shape, dtype=np.int64)

    u_range = range(w + 1) if puncture is not None else (None,)
    for gtuple in itertools.product(*(range(d + 1) for d in dims)):
        for u in u_range:
            total = 0
            group_choices = [
                list(itertools.combinations(by_type[l], gtuple[l]))
                for l in range(n_edge_types)
            ]
            id_choices = (
                list(itertools.combinations(supp, u)) if u is not None else [tuple()]
            )
            for id_pick in id_choices:
                id_cols = identity[:, list(id_pick)] if id_pick else np.zeros((k, 0), np.uint8)
                for picks in itertools.product(*group_choices):
                    cols = [c for grp in picks for c in grp]
                    sel = g[:, cols] if cols else np.zeros((k, 0), np.uint8)
                    total += rank_gf2_numpy(np.hstack([sel, id_cols]))
            idx = gtuple + ((u,) if u is not None else ())
            table[idx] = total
    return table


def rank_table_recursion(columns, shape):
    """Sum of ranks over all column subsets, bucketed by per-axis counts, by
    a depth-first walk that extends one Python-int echelon basis a column at
    a time.

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

    def reduce(v: int) -> int:
        # each basis vector's pivot is its lowest bit, in ascending order
        for p, b in zip(pivots, vecs):
            if v & p:
                v ^= b
        return v

    def visit(i: int, offset: int) -> None:
        if i == n:
            table[offset] += len(pivots)
            return
        visit(i + 1, offset)
        v, stride = cols[i]
        v = reduce(v)
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
    return np.array(table, dtype=np.int64).reshape(shape)


def weight_pair_enumerator(g):
    """Counts of (input weight, output weight) over all 2^k input words."""
    counts = {}
    for bits, cw in all_codewords(g.to_rows()):
        key = (sum(bits), int(cw.sum()))
        counts[key] = counts.get(key, 0) + 1
    return counts


def weight_enumerator(g):
    """Codeword-weight multiplicities over all 2^k input words."""
    counts = {}
    for _, cw in all_codewords(g.to_rows()):
        w = int(cw.sum())
        counts[w] = counts.get(w, 0) + 1
    return counts


def semantic_extrinsic_known_probability(
    gen_rows, socket_types, i_av, edge_type, eps=None, puncture=None
):
    """Extrinsic known probability straight from its operational definition.

    Average over the sockets j of the requested edge type of the probability
    that position j is determined by the span of the known functionals, when
    every other socket of type l is independently known with probability
    i_av[l-1] and (for VNs) every transmitted information bit survives the
    channel with probability 1 - eps.
    """
    g = np.array(gen_rows, dtype=np.uint8)
    k, q = g.shape
    supp = [i for i, b in enumerate(puncture) if b] if puncture is not None else []
    identity = np.eye(k, dtype=np.uint8)
    targets = [j for j in range(q) if socket_types[j] == edge_type]
    total = 0.0
    for j in targets:
        others = [i for i in range(q) if i != j]
        p_recover = 0.0
        for chan_mask in range(1 << len(supp)):
            p_chan = 1.0
            chan_cols = []
            for idx, pos in enumerate(supp):
                if (chan_mask >> idx) & 1:
                    p_chan *= 1.0 - eps
                    chan_cols.append(identity[:, pos])
                else:
                    p_chan *= eps
            for inc_mask in range(1 << len(others)):
                p_inc = 1.0
                known_cols = list(chan_cols)
                for idx, pos in enumerate(others):
                    p_known = i_av[socket_types[pos] - 1]
                    if (inc_mask >> idx) & 1:
                        p_inc *= p_known
                        known_cols.append(g[:, pos])
                    else:
                        p_inc *= 1.0 - p_known
                if p_chan * p_inc == 0.0:
                    continue
                if known_cols:
                    known = np.stack(known_cols, axis=1)
                    base = rank_gf2_numpy(known)
                    augmented = rank_gf2_numpy(np.hstack([known, g[:, [j]]]))
                else:
                    base = 0
                    augmented = rank_gf2_numpy(g[:, [j]])
                if augmented == base:
                    p_recover += p_chan * p_inc
        total += p_recover
    return total / len(targets)


def scalar_de_converges(eps, dv, dc, max_iters=20000, tol=1e-10):
    """Erasure-domain recursion for (dv, dc)-regular codes, mirroring the
    engine's convergence and stall rules."""
    y = eps
    if y <= tol:
        return True
    for _ in range(max_iters):
        y_next = eps * (1.0 - (1.0 - y) ** (dc - 1)) ** (dv - 1)
        if y_next <= tol:
            return True
        if abs(y_next - y) < 1e-15:
            return False
        y = y_next
    return False


def scalar_de_threshold(dv, dc, tol_eps=1e-6, max_iters=20000, tol=1e-10):
    lo, hi = 0.0, 1.0
    while hi - lo > 2 * tol_eps:
        mid = 0.5 * (lo + hi)
        if scalar_de_converges(mid, dv, dc, max_iters=max_iters, tol=tol):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def classic_peeling_history(code, erased):
    """Classical erasure message passing for repetition-VN / SPC-CN graphs.

    Returns (per-iteration copies of the VN-to-CN known flags, residual).
    Only valid when every VN is a repetition code with one transmitted bit
    and every CN a single parity check.
    """
    spec = code.spec
    msg_vc = np.zeros(code.n_edges, dtype=bool)
    msg_cv = np.zeros(code.n_edges, dtype=bool)

    chan = []
    offset = 0
    for i, vn in enumerate(spec.vn_types):
        assert vn.n_info_bits == 1 and vn.n_transmitted == 1
        cnt = code.vn_counts[i]
        chan.append(~erased[offset : offset + cnt])
        offset += cnt

    def vn_pass():
        for i, vn in enumerate(spec.vn_types):
            eids = code.vn_edges[i]
            inc = msg_cv[eids]
            sums = inc.sum(axis=1)
            out = chan[i][:, None] | ((sums[:, None] - inc.astype(np.int64)) > 0)
            msg_vc[eids] = out

    def cn_pass():
        for i, cn in enumerate(spec.cn_types):
            s = cn.n_sockets
            eids = code.cn_edges[i]
            inc = msg_vc[eids]
            sums = inc.sum(axis=1)
            out = (sums[:, None] - inc.astype(np.int64)) == (s - 1)
            msg_cv[eids] = out

    history = []
    vn_pass()
    history.append(msg_vc.copy())
    prev = (int(msg_vc.sum()), int(msg_cv.sum()))
    while True:
        cn_pass()
        vn_pass()
        history.append(msg_vc.copy())
        cur = (int(msg_vc.sum()), int(msg_cv.sum()))
        if cur == prev:
            break
        prev = cur

    residual = 0
    for i, vn in enumerate(spec.vn_types):
        eids = code.vn_edges[i]
        recovered = chan[i] | msg_cv[eids].any(axis=1)
        residual += int(np.sum(~chan[i] & ~recovered))
    return history, residual


def flooding_decode(code, erasure_pattern, max_iters=None, record_trajectory=False, keep_history=False):
    """The flooding schedule with full passes: every pass rebuilds every
    node's key from the message flags and looks up its out mask, and the
    loop stops at the first iteration that leaves the flag counts unchanged.
    The recovered transmitted bits come from `naive_local_map` at each VN's
    last key, not from the maps.

    Same arguments and result as `metdg.decode`, which must agree with it
    exactly while touching only the nodes next to flipped edges.
    """
    spec = code.spec
    n_e = spec.n_edge_types
    erased = np.asarray(erasure_pattern, dtype=bool)
    assert erased.shape == (code.n_transmitted,)

    # Per VN type: channel-known masks (bit j = j-th transmitted position).
    chan_masks = []
    chan_bits = []
    offset = 0
    for i, vn in enumerate(spec.vn_types):
        cnt, w = code.vn_counts[i], vn.n_transmitted
        block = ~erased[offset : offset + cnt * w].reshape(cnt, w)
        offset += cnt * w
        chan_bits.append(block)
        chan_masks.append((block.astype(np.int64) << np.arange(w, dtype=np.int64)).sum(axis=1))

    vn_maps, cn_maps = code.maps

    msg_vc = np.zeros(code.n_edges, dtype=bool)
    msg_cv = np.zeros(code.n_edges, dtype=bool)
    # per VN type, the keys of its last pass
    vn_keys = [np.zeros(c, dtype=np.int64) for c in code.vn_counts]

    edge_totals = np.bincount(code.edge_type0, minlength=n_e).astype(float)

    def vn_pass() -> None:
        for i, vn in enumerate(spec.vn_types):
            if code.vn_counts[i] == 0:
                continue
            q = vn.n_sockets
            eids = code.vn_edges[i]
            shifts = np.arange(q, dtype=np.int64)
            inc = (msg_cv[eids].astype(np.int64) << shifts).sum(axis=1)
            keys = (chan_masks[i] << q) | inc
            vn_keys[i] = keys
            out = vn_maps[i].lookup(keys, 0)
            msg_vc[eids] = ((out[:, None] >> shifts) & 1).astype(bool)

    def cn_pass() -> None:
        for i, cn in enumerate(spec.cn_types):
            if code.cn_counts[i] == 0:
                continue
            s = cn.n_sockets
            eids = code.cn_edges[i]
            shifts = np.arange(s, dtype=np.int64)
            inc = (msg_vc[eids].astype(np.int64) << shifts).sum(axis=1)
            out = cn_maps[i].lookup(inc, 0)
            msg_cv[eids] = ((out[:, None] >> shifts) & 1).astype(bool)

    def known_fractions() -> np.ndarray:
        return np.bincount(code.edge_type0, weights=msg_vc, minlength=n_e) / edge_totals

    trajectory = [] if record_trajectory else None
    history = [] if keep_history else None

    vn_pass()
    if record_trajectory:
        trajectory.append(known_fractions())
    if keep_history:
        history.append(msg_vc.copy())

    iterations = 0
    prev = (int(msg_vc.sum()), int(msg_cv.sum()))
    while max_iters is None or iterations < max_iters:
        cn_pass()
        vn_pass()
        iterations += 1
        if record_trajectory:
            trajectory.append(known_fractions())
        if keep_history:
            history.append(msg_vc.copy())
        cur = (int(msg_vc.sum()), int(msg_cv.sum()))
        if cur == prev:
            break
        prev = cur

    residual = 0
    for i, vn in enumerate(spec.vn_types):
        if code.vn_counts[i] == 0 or vn.n_transmitted == 0:
            continue
        # recovered info bits by codeword enumeration, once per distinct key
        rows = vn.generator.to_rows()
        info = {key: naive_local_map(rows, vn.transmitted_positions, key)[1]
                for key in set(vn_keys[i].tolist())}
        info_masks = np.array([info[key] for key in vn_keys[i].tolist()], dtype=np.int64)
        pos = np.array(vn.transmitted_positions, dtype=np.int64)
        recovered = ((info_masks[:, None] >> pos) & 1).astype(bool)
        residual += int(np.sum(~chan_bits[i] & ~recovered))

    return peeling.DecodeResult(
        success=residual == 0,
        residual_erasures=residual,
        iterations=iterations,
        trajectory=np.array(trajectory) if record_trajectory else None,
        vc_history=history,
    )


def naive_local_map(gen_rows, chan_positions, key):
    """(out, info) masks of exact local erasure decoding, by codeword enumeration.

    key = (channel-known mask << n_sockets) | incoming-known mask, where
    channel bit idx reveals input bit chan_positions[idx].  A functional is
    known iff every input word that is zero on all known functionals is zero
    on it too; the output for socket j leaves socket j's own input out.
    """
    g = np.array(gen_rows, dtype=np.uint8)
    k, q = g.shape
    words = np.array(list(itertools.product((0, 1), repeat=k)), dtype=np.uint8)
    cws = (words.astype(np.int64) @ g) % 2
    chan = key >> q
    known_inputs = [p for idx, p in enumerate(chan_positions) if (chan >> idx) & 1]
    known_sockets = [j for j in range(q) if (key >> j) & 1]

    def kernel(sockets):
        zero = np.ones(len(words), dtype=bool)
        for p in known_inputs:
            zero &= words[:, p] == 0
        for j in sockets:
            zero &= cws[:, j] == 0
        return zero

    ker = kernel(known_sockets)
    info = sum(1 << i for i in range(k) if not words[ker, i].any())
    out = 0
    for j in range(q):
        if not cws[kernel([s for s in known_sockets if s != j]), j].any():
            out |= 1 << j
    return out, info


def tensordot_step(spec, x, eps):
    """One EXIT DE step (CN pass, then VN pass) by the original evaluation:
    each part's coefficient array contracted axis by axis with
    np.tensordot, every weight vector built from its closed form, no axis
    dropped."""
    from metdg.exitchart import _exit_coefficients
    from metdg.infofuncs import cn_info_table, vn_info_table

    n_e = spec.n_edge_types

    def socket_weights(value, n):
        t = np.arange(n + 1)
        return (1.0 - value) ** t * value ** (n - t)

    def mixture(tables, counts, fractions, state, channel_bits):
        out = np.zeros(n_e)
        for i, table in enumerate(tables):
            for e0 in range(n_e):
                q = counts[i][e0]
                if q == 0:
                    continue
                shape = table.shape[:e0] + (q,) + table.shape[e0 + 1 :]
                arr = np.array(_exit_coefficients(table.reshape(-1).tolist(), table.shape, e0), float)
                arr = arr.reshape(shape)
                vectors = [
                    socket_weights(state[l0], counts[i][l0] - (1 if l0 == e0 else 0))
                    for l0 in range(n_e)
                ]
                if channel_bits is not None:
                    z = np.arange(channel_bits[i] + 1)
                    vectors.append(eps**z * (1.0 - eps) ** (channel_bits[i] - z))
                for v in vectors:
                    arr = np.tensordot(arr, v, axes=(0, 0))
                out[e0] += float(fractions[i][e0]) * (1.0 - float(arr) / q)
        return out

    cn_tables = [cn_info_table(cn, n_e) for cn in spec.cn_types]
    vn_tables = [vn_info_table(vn, n_e) for vn in spec.vn_types]
    y = mixture(cn_tables, spec.cn_socket_counts, spec.cn_edge_fractions, np.asarray(x, float), None)
    bits = [vn.n_transmitted for vn in spec.vn_types]
    return mixture(vn_tables, spec.vn_socket_counts, spec.vn_edge_fractions, y, bits)


def stall_only_run(step, n_edge_types, eps, max_iters=20000, tol=1e-10):
    """DE run without any early-exit certificate: iterate step from the
    all-unknown prior until every component reaches 1 - tol (converged), no
    component moves by 1e-15 (stalled) or max_iters steps have been taken.
    Returns (converged, iterations)."""
    x = np.array(step(np.zeros(n_edge_types), eps))
    if x.min() >= 1.0 - tol:
        return True, 0
    for it in range(1, max_iters + 1):
        x_next = np.array(step(x, eps))
        if x_next.min() >= 1.0 - tol:
            return True, it
        if np.max(np.abs(x_next - x)) < 1e-15:
            return False, it
        x = x_next
    return False, max_iters


def stall_only_threshold(step, n_edge_types, tol_eps=1e-6, max_iters=20000, tol=1e-10):
    """Plain bisection over stall_only_run; returns (threshold, probes)."""
    lo, hi = 0.0, 1.0
    probes = 0
    while hi - lo > 2 * tol_eps:
        mid = 0.5 * (lo + hi)
        converged, _ = stall_only_run(step, n_edge_types, mid, max_iters=max_iters, tol=tol)
        probes += 1
        if converged:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), probes


def _det(rows):
    """Determinant of a square rational matrix by Gaussian elimination."""
    a = [list(row) for row in rows]
    det = Fraction(1)
    for col in range(len(a)):
        piv = next((r for r in range(col, len(a)) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        for r in range(col + 1, len(a)):
            f = a[r][col] / a[col][col]
            a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def principal_minor_verdict(m) -> str:
    """"stable", "marginal" or "unstable" as rho(m) is <, = or > 1, for a
    square nonnegative rational m, from the definitions: I - m is a
    nonsingular M-matrix (rho < 1) exactly when all its leading principal
    minors are positive, and an M-matrix (rho <= 1) exactly when all its
    principal minors are nonnegative."""
    n = len(m)
    a = [[int(i == j) - Fraction(m[i][j]) for j in range(n)] for i in range(n)]

    def minor(idx):
        return _det([[a[i][j] for j in idx] for i in idx])

    if all(minor(range(k)) > 0 for k in range(1, n + 1)):
        return "stable"
    subsets = (s for k in range(1, n + 1) for s in itertools.combinations(range(n), k))
    return "marginal" if all(minor(s) >= 0 for s in subsets) else "unstable"


def fraction_certified_bound(engine, v, epsilon):
    """ExitEngine._certified_bound with every coefficient a Fraction: the
    step g = h_V . h_C along the ray c v composed in rationals (each axis's
    weights y^t (1 - y)^(n - t) multiplied out as polynomials in c), the
    Bernstein coefficients of (c v_l - g_l(c v)) / c on [0, 1] and de
    Casteljau halving by means.  Returns the bound s v - _CERT_SLACK, or
    None when it is not positive."""
    from math import comb

    from metdg.exitchart import _BASIN_DEPTH, _CERT_SLACK

    def poly_add(a, b):
        if len(a) < len(b):
            a, b = b, a
        return [x + y for x, y in zip(a, b)] + a[len(b) :]

    def poly_mul(a, b):
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    def poly_dot(vec, acc):
        m, d_v = vec.shape
        rows = acc.reshape(m, -1, acc.shape[-1])
        d_a = rows.shape[-1]
        out = np.zeros((rows.shape[1], d_a + d_v - 1), dtype=object)
        for t in range(m):
            for j in range(d_v):
                if vec[t, j]:
                    out[:, j : j + d_a] += vec[t, j] * rows[t]
        return out

    def weights(y, n):
        """y^t (1 - y)^(n - t) for t = 0..n, padded to one length."""
        rest = poly_add([Fraction(1)], [-a for a in y])
        vec = []
        for t in range(n + 1):
            w = [Fraction(1)]
            for factor in [y] * t + [rest] * (n - t):
                w = poly_mul(w, factor)
            vec.append(w)
        length = max(map(len, vec))
        return [w + [Fraction(0)] * (length - len(w)) for w in vec]

    def erasure_polynomials(half, inputs, eps=None):
        vectors = []
        for src, n in half._axes:
            y = [eps] if src == half.n_edge_types else inputs[src]
            vectors.append(np.array(weights(y, n), dtype=object))
        polys = []
        for parts in half.parts:
            total = [Fraction(0)]
            for _, weight, n_sockets, arr, kept in parts:
                acc = np.array(arr, dtype=object).reshape(-1, 1)
                for k in kept:
                    acc = poly_dot(vectors[k], acc)
                total = poly_add(total, (weight / n_sockets * acc[0]).tolist())
            assert total[0] == 0
            polys.append(total)
        return polys

    def bernstein(coeffs, width):
        d = len(coeffs) - 1
        scaled = [a * width**j for j, a in enumerate(coeffs)]
        return [
            sum(Fraction(comb(i, j), comb(d, j)) * scaled[j] for j in range(i + 1))
            for i in range(d + 1)
        ]

    def positive_share(b, depth):
        if b[0] <= 0:
            return Fraction(0)
        if min(b) >= 0:
            return Fraction(1)
        if depth == 0:
            return Fraction(0)
        left, right = [b[0]], [b[-1]]
        while len(b) > 1:
            b = [(u + t) / 2 for u, t in zip(b, b[1:])]
            left.append(b[0])
            right.append(b[-1])
        share = positive_share(left, depth - 1) / 2
        if share < Fraction(1, 2):
            return share
        return share + positive_share(right[::-1], depth - 1) / 2

    v_q = [Fraction(t) for t in v]
    y_c = erasure_polynomials(engine._cn, [[Fraction(0), t] for t in v_q])
    g = erasure_polynomials(engine._vn, y_c, Fraction(float(epsilon)))
    # (c v_l - g_l(c v)) / c, as g_l has no constant term
    ray = [[t - h[1]] + [-a for a in h[2:]] for t, h in zip(v_q, g)]
    share = min(positive_share(bernstein(p, Fraction(1)), _BASIN_DEPTH) for p in ray)
    bound = [share * t - Fraction(_CERT_SLACK) for t in v_q]
    return bound if min(bound) > 0 else None


def stepwise_run(engine, epsilon, max_iters=20000, tol=1e-10, record=False):
    """ExitEngine.run as a plain Python loop over engine.step: after each
    step the tol test, the basin test, the stall test, then the
    super-solution test when it is due.  The basin test is exact: 1 - x <=
    bound in rationals, for the bound _certified_bound proves, which is
    proven at the start of the run.  Returns run's ProbeOutcome and the
    rows that run hands to record, as one list of state tuples, empty
    unless record is set."""
    from operator import sub

    from metdg.exitchart import (
        _CERT_FIRST,
        _CERT_SPACING,
        _STALL_TOL,
        ProbeOutcome,
    )
    from metdg.stability import _verdict

    n_e = engine.n_edge_types
    bounds = []
    sm = None if record else engine._stability
    if sm is not None:
        verdict, v = _verdict(sm, epsilon, solve=True)
        if verdict == "unstable":
            return ProbeOutcome(epsilon, "unstable", 0), []
        if verdict == "stable":
            # the bound that _basin's prove() reads, caught on its way
            certify = engine._certified_bound
            engine._certified_bound = lambda *args: bounds.append(certify(*args))
            try:
                engine._basin(epsilon, v)[1]()
            finally:
                del engine._certified_bound
    bound = bounds[0] if bounds else None

    def settled(x):
        if min(x) >= 1.0 - tol:
            return "tol"
        if bound is not None and all(1 - Fraction(a) <= b for a, b in zip(x, bound)):
            return "basin"
        return None

    x = engine.step(np.zeros(n_e), epsilon)
    trajectory = [x]
    next_check = max_iters + 1 if record else _CERT_FIRST
    x_prev = x_prev2 = None
    it = 0
    reason = settled(x)
    while reason is None and it < max_iters:
        x_prev2, x_prev, x = x_prev, x, engine.step(x, epsilon)
        it += 1
        if record:
            trajectory.append(x)
        reason = settled(x)
        if reason is None and max(map(abs, map(sub, x, x_prev))) < _STALL_TOL:
            reason = "stall"
        if reason is None and it >= next_check:
            next_check = it + max(_CERT_FIRST, it // _CERT_SPACING)
            if engine._never_converges(x, x_prev, x_prev2, epsilon, 1.0 - tol):
                reason = "super-solution"
    return ProbeOutcome(epsilon, reason or "max_iters", it), trajectory if record else []


def plain_threshold(engine, tol_eps=1e-6, max_iters=20000, tol=1e-10):
    """ExitEngine.threshold as a bisection that runs every step: from the
    same start, one engine.run per midpoint.  Returns ((lo, hi), counts,
    probes), counts per outcome as threshold returns them and probes the
    ProbeOutcome of each run in order."""
    from metdg.exitchart import OUTCOMES

    lo, hi = 0.0, engine._unstable_start(tol_eps)
    counts = dict.fromkeys(OUTCOMES, 0)
    probes = []
    while hi - lo > 2.0 * tol_eps:
        mid = 0.5 * (lo + hi)
        probes.append(engine.run(mid, max_iters, tol))
        counts[probes[-1].outcome] += 1
        if probes[-1].outcome == "converged":
            lo = mid
        else:
            hi = mid
    return (lo, hi), counts, probes
