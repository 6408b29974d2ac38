import concurrent.futures
import multiprocessing
import os
import tracemalloc

import numpy as np
import pytest

from metdg import ExitEngine, ValidationError, decode, sample_code, sweep, wilson_interval
from metdg import GF2Matrix
from metdg import peeling
from metdg.peeling import (
    _decode_block,
    _local_maps,
    _LocalMaps,
    _new_block,
    _sample_block,
    _sample_code,
    _trial_rng,
)

from conftest import (
    dgldpc_spec,
    example2_spec,
    fig1_spec,
    ldpc_spec,
    random_component_code,
    random_eligible_spec,
    rep_gen,
    spc_gen,
)
from naive_oracles import classic_peeling_history, flooding_decode, naive_local_map


def test_sampling_is_deterministic():
    spec = ldpc_spec(3, 6)
    a = sample_code(spec, 10, seed=42)
    b = sample_code(spec, 10, seed=42)
    for ea, eb in zip(a.vn_edges, b.vn_edges):
        assert np.array_equal(ea, eb)
    for ea, eb in zip(a.cn_edges, b.cn_edges):
        assert np.array_equal(ea, eb)
    c = sample_code(spec, 10, seed=43)
    assert any(
        not np.array_equal(ea, ec) for ea, ec in zip(a.cn_edges, c.cn_edges)
    )


def test_fig1_sample_counts():
    code = sample_code(fig1_spec(), 1, seed=0)
    assert code.n_transmitted == 28
    punctured = sum(
        cnt * (vn.n_info_bits - vn.n_transmitted)
        for cnt, vn in zip(code.vn_counts, code.spec.vn_types)
    )
    assert punctured == 4
    assert code.n_edges == sum(code.spec.edge_counts)


def test_example2_scaled_edge_counts():
    spec = example2_spec(rep_gen(3), m=1)
    code = sample_code(spec, 100, seed=1)
    q = 3
    assert code.n_edges == 3 * 100 * q
    assert np.bincount(code.edge_type0).tolist() == [100 * q, 2 * 100 * q]


def test_socket_balance_in_sampled_graph():
    rng = np.random.default_rng(5)
    spec = random_eligible_spec(rng)
    code = sample_code(spec, 3, seed=9)
    # every edge appears exactly once on each side
    seen_vn = np.concatenate([e.reshape(-1) for e in code.vn_edges])
    seen_cn = np.concatenate([e.reshape(-1) for e in code.cn_edges])
    assert np.array_equal(np.sort(seen_vn), np.arange(code.n_edges))
    assert np.array_equal(np.sort(seen_cn), np.arange(code.n_edges))
    # edges connect sockets of equal type on both sides
    for i, vn in enumerate(spec.vn_types):
        for pos, l in enumerate(vn.socket_types):
            assert np.all(code.edge_type0[code.vn_edges[i][:, pos]] == l - 1)
    for i, cn in enumerate(spec.cn_types):
        for pos, l in enumerate(cn.socket_types):
            assert np.all(code.edge_type0[code.cn_edges[i][:, pos]] == l - 1)


def test_all_known_pattern_decodes_immediately():
    code = sample_code(ldpc_spec(3, 6), 20, seed=3)
    res = decode(code, np.zeros(code.n_transmitted, dtype=bool))
    assert res.success
    assert res.residual_erasures == 0


def test_all_erased_pattern_fails_when_dimension_positive():
    spec = ldpc_spec(3, 6)
    assert spec.dimension >= 1
    code = sample_code(spec, 20, seed=3)
    res = decode(code, np.ones(code.n_transmitted, dtype=bool))
    assert not res.success
    assert res.residual_erasures > 0


def test_pattern_length_validated():
    code = sample_code(ldpc_spec(3, 6), 5, seed=0)
    with pytest.raises(ValidationError):
        decode(code, np.zeros(3, dtype=bool))


def test_decoding_monotone_in_known_bits():
    spec = ldpc_spec(3, 6)
    code = sample_code(spec, 15, seed=11)
    rng = np.random.default_rng(2)
    for _ in range(20):
        pattern = rng.random(code.n_transmitted) < 0.5
        base = decode(code, pattern)
        erased_idx = np.flatnonzero(pattern)
        if len(erased_idx) == 0:
            continue
        better = pattern.copy()
        better[rng.choice(erased_idx)] = False
        improved = decode(code, better)
        assert improved.residual_erasures <= base.residual_erasures
        if base.success:
            assert improved.success


def test_known_message_flags_are_monotone_over_iterations():
    spec = ldpc_spec(3, 6)
    code = sample_code(spec, 25, seed=13)
    pattern = np.random.default_rng(3).random(code.n_transmitted) < 0.42
    res = decode(code, pattern, keep_history=True)
    hist = res.vc_history
    for earlier, later in zip(hist, hist[1:]):
        assert np.all(later | ~earlier)


def test_rank_decoder_reproduces_classical_peeling_on_ldpc():
    rng = np.random.default_rng(17)
    for trial in range(10):
        dv, dc = (3, 6) if trial % 2 == 0 else (2, 4)
        spec = ldpc_spec(dv, dc, vn_count=dc)
        code = sample_code(spec, 8, seed=100 + trial)
        pattern = rng.random(code.n_transmitted) < rng.uniform(0.2, 0.7)
        res = decode(code, pattern, keep_history=True)
        oracle_hist, oracle_residual = classic_peeling_history(code, ~(~pattern))
        assert res.residual_erasures == oracle_residual
        assert len(res.vc_history) == len(oracle_hist)
        for mine, theirs in zip(res.vc_history, oracle_hist):
            assert np.array_equal(mine, theirs)


def test_ldpc36_success_rate_below_threshold():
    spec = ldpc_spec(3, 6)
    code_scale = 2000  # 6000 bits
    successes = 0
    trials = 200
    for t in range(trials):
        rng = _trial_rng(2024, 0, t)
        code = sample_code(spec, code_scale, seed=int(rng.integers(1 << 62)))
        pattern = rng.random(code.n_transmitted) < 0.35
        successes += decode(code, pattern).success
    assert successes / trials > 0.99


def test_sweep_zero_eps_row_is_error_free():
    spec = ldpc_spec(3, 6)
    result = sweep(spec, scale=10, eps_grid=[0.0, 0.2], trials=5, seed=1)
    row0 = result.rows[0]
    assert row0["eps"] == 0.0
    assert row0["ber"] == 0.0 and row0["bler"] == 0.0
    assert result.rows[1]["trials"] == 5


def test_sweep_is_reproducible_and_jobs_invariant():
    spec = ldpc_spec(3, 6)
    a = sweep(spec, scale=20, eps_grid=[0.3, 0.45], trials=8, seed=7)
    b = sweep(spec, scale=20, eps_grid=[0.3, 0.45], trials=8, seed=7)
    assert a.rows == b.rows
    c = sweep(spec, scale=20, eps_grid=[0.3, 0.45], trials=8, seed=7, jobs=2)
    assert a.rows == c.rows


_DGLDPC_GRID = [0.30, 0.38, 0.45]


@pytest.mark.parametrize(
    "jobs, eps_grid, trials, start_method",
    [
        (2, _DGLDPC_GRID, 6, None),
        (3, _DGLDPC_GRID, 6, None),
        # more jobs than tasks: one worker per task
        (3, [0.38], 2, None),
        # spawned workers import metdg afresh and inherit nothing
        (2, _DGLDPC_GRID, 6, "spawn"),
    ],
    ids=["jobs2", "jobs3", "jobs3-2tasks", "jobs2-spawn"],
)
def test_sweep_jobs_invariant_on_dgldpc_grid(jobs, eps_grid, trials, start_method, monkeypatch):
    # one pool serves every grid point, each worker taking every n-th task;
    # rows and trajectories stay grouped by grid index and equal the serial run's
    # (as many CPUs as jobs, so that sweep's CPU cap leaves them all)
    monkeypatch.setattr(os, "cpu_count", lambda: jobs)
    pool_class = concurrent.futures.ProcessPoolExecutor
    pools = []

    def pool(max_workers):
        pools.append(max_workers)
        return pool_class(max_workers, mp_context=multiprocessing.get_context(start_method))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    spec = dgldpc_spec()
    kwargs = dict(scale=1, eps_grid=eps_grid, trials=trials, seed=11, record_exit_iters=3)
    b = sweep(spec, jobs=jobs, **kwargs)
    a = sweep(spec, jobs=1, **kwargs)
    assert pools == [min(jobs, len(eps_grid) * trials)]
    assert a.rows == b.rows
    assert list(a.trajectories) == list(b.trajectories) == eps_grid
    for eps, traj in a.trajectories.items():
        assert traj.shape == (trials, 4, spec.n_edge_types)
        assert np.array_equal(traj, b.trajectories[eps])


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: decode(sample_code(spec, 2, seed=0), np.zeros(8, dtype=bool), max_iters=-5),
        lambda spec: sweep(spec, scale=2, eps_grid=[0.3], trials=2, seed=0, record_exit_iters=-3),
        lambda spec: sweep(spec, scale=2, eps_grid=[0.3], trials=2, seed=-1),
        lambda spec: sweep(spec, scale=2, eps_grid=[0.3], trials=2, seed=1 << 64),
        lambda spec: sample_code(spec, 2, seed=-1),
        lambda spec: sample_code(spec, 2, seed=1 << 64),
        lambda spec: sample_code(spec, 2, seed=1.5),
        # a seed is a Python int, as scale and trials are: True is not 1
        lambda spec: sample_code(spec, 2, seed=True),
        lambda spec: sample_code(spec, 2, seed=np.int64(1)),
        lambda spec: sweep(spec, scale=2, eps_grid=[0.3], trials=2, seed=False),
        lambda spec: sweep(spec, scale=2, eps_grid=[0.3], trials=2, seed=np.uint64(1)),
        lambda spec: sweep(spec, scale=2.5, eps_grid=[0.3], trials=2, seed=0),
        lambda spec: sweep(spec, scale=True, eps_grid=[0.3], trials=2, seed=0),
        lambda spec: sweep(spec, scale=2, eps_grid=[0.3], trials=2.5, seed=0),
        lambda spec: sweep(spec, scale=2, eps_grid=[0.3], trials=True, seed=0),
        lambda spec: sweep(spec, scale=2, eps_grid=[0.3], trials=2, seed=0, jobs=1.5),
        lambda spec: sample_code(spec, 2.5, seed=0),
        lambda spec: sample_code(spec, True, seed=0),
        # 6 * 10**20 edges: more than numpy can index, refused before any
        # array is allocated
        lambda spec: sweep(ldpc_spec(3, 6, 2 * 10**20), scale=1, eps_grid=[0.3], trials=1, seed=0),
        lambda spec: sample_code(ldpc_spec(3, 6, 2 * 10**20), 1, seed=0),
    ],
    ids=["decode-max-iters", "record-exit-iters", "sweep-seed-neg", "sweep-seed-big",
         "sample-seed-neg", "sample-seed-big", "sample-seed-float", "sample-seed-bool",
         "sample-seed-numpy", "sweep-seed-bool", "sweep-seed-numpy", "sweep-scale-float",
         "sweep-scale-bool", "sweep-trials-float", "sweep-trials-bool", "sweep-jobs-float",
         "sample-scale-float",
         "sample-scale-bool", "sweep-unindexable", "sample-unindexable"],
)
def test_peeling_rejects_bad_inputs(call):
    with pytest.raises(ValidationError):
        call(ldpc_spec(3, 6))


def test_largest_seed_is_accepted():
    code = sample_code(ldpc_spec(3, 6), 2, seed=(1 << 64) - 1)
    assert decode(code, np.zeros(code.n_transmitted, dtype=bool)).success


def _assert_same_decoding(code, pattern, max_iters):
    mine = decode(code, pattern, max_iters=max_iters, record_trajectory=True, keep_history=True)
    theirs = flooding_decode(code, pattern, max_iters=max_iters, record_trajectory=True, keep_history=True)
    assert mine.success == theirs.success
    assert mine.residual_erasures == theirs.residual_erasures
    assert mine.iterations == theirs.iterations
    assert np.array_equal(mine.trajectory, theirs.trajectory)
    assert len(mine.vc_history) == len(theirs.vc_history)
    for a, b in zip(mine.vc_history, theirs.vc_history):
        assert np.array_equal(a, b)


def _parallel_edge_spec():
    from metdg import CnType, VnType, build_spec

    vn = VnType("rep4", rep_gen(4), (1,), (1,) * 4, 1)
    cn = CnType("spc4", spc_gen(4), (1,) * 4, 1)
    return build_spec(1, [vn], [cn])


def _half_punctured_spec():
    from metdg import CnType, VnType, build_spec

    vn = VnType("half", GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]]), (1, 0), (1, 1, 1), 2)
    cn = CnType("spc3", spc_gen(3), (1, 1, 1), 2)
    return build_spec(1, [vn], [cn])


def _decode_specs(rng):
    # spc21 is past the array cutoff, so its CN maps are a dict memo
    specs = [dgldpc_spec(), fig1_spec(), _parallel_edge_spec(), _half_punctured_spec(), ldpc_spec(3, 21, 7)]
    return specs + [random_eligible_spec(rng) for _ in range(6)]


@pytest.mark.parametrize("max_iters", [None, 0, 1, 3])
def test_frontier_decode_matches_flooding_oracle(max_iters):
    # the frontier decoder looks up only the nodes next to flipped edges; the
    # oracle runs full passes; every output must agree exactly
    rng = np.random.default_rng(41)
    ldpc36 = ldpc_spec(3, 6)
    for eps in (0.40, 0.42, 0.44, 0.46):
        code = sample_code(ldpc36, 500, seed=int(eps * 100))
        _assert_same_decoding(code, rng.random(code.n_transmitted) < eps, max_iters)
    for k, spec in enumerate(_decode_specs(rng)):
        code = sample_code(spec, 6, seed=k)
        for eps in (0.1, 0.35, 0.6, 0.9):
            _assert_same_decoding(code, rng.random(code.n_transmitted) < eps, max_iters)


def _oracle_check(gen: GF2Matrix, chan_positions, keys):
    maps = _LocalMaps(gen.column_bits(), gen.n_rows, tuple(chan_positions))
    keys_arr = np.asarray(keys, dtype=np.int64)
    out, info = maps.lookup(keys_arr, 0), maps.lookup(keys_arr, 1)
    rows = gen.to_rows()
    for key, o, i in zip(keys, out.tolist(), info.tolist()):
        assert (o, i) == naive_local_map(rows, chan_positions, key), (rows, chan_positions, key)
    return maps


def test_local_maps_match_codeword_oracle_on_every_key():
    rng = np.random.default_rng(23)
    for _ in range(10):
        gen = random_component_code(rng, max_sockets=7, max_k=4)
        k = gen.n_rows
        partial = sorted(rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False).tolist())
        # unpunctured VN, fully punctured VN or CN, partially punctured VN
        for chan_positions in (list(range(k)), [], partial[:-1] or partial):
            width = gen.n_cols + len(chan_positions)
            _oracle_check(gen, chan_positions, list(range(1 << width)))


@pytest.mark.parametrize(
    "k, q, chan_positions, array_backed",
    # 18 sockets plus 3 channel bits is past the array cutoff, so the dict memo
    # serves the keys; 17 sockets fill each block in 8 sub-blocks
    [(4, 18, [0, 2, 3], False), (2, 17, [], True)],
)
def test_wide_local_maps_match_codeword_oracle_on_sampled_keys(k, q, chan_positions, array_backed):
    rng = np.random.default_rng(29)
    while True:
        gen = GF2Matrix.from_rows(rng.integers(0, 2, size=(k, q)).tolist())
        if gen.rank() == k and not gen.has_zero_column():
            break
    width = q + len(chan_positions)
    keys = rng.integers(0, 1 << width, size=120).tolist()
    maps = _oracle_check(gen, chan_positions, keys)
    assert maps._array_backed == array_backed
    # a second batch mixes memoized keys with new ones
    _oracle_check(gen, chan_positions, keys[::3] + rng.integers(0, 1 << width, size=40).tolist())
    # an empty batch
    out, info = maps.lookup(np.zeros(0, dtype=np.int64), 0), maps.lookup(np.zeros(0, dtype=np.int64), 1)
    assert out.shape == info.shape == (0,)


def test_sweep_waterfall_brackets_threshold(ldpc36):
    # coarse grid around the asymptotic threshold: clearly good below,
    # clearly bad above
    result = sweep(ldpc36, scale=400, eps_grid=[0.30, 0.50], trials=30, seed=5)
    assert result.rows[0]["bler"] <= 0.1
    assert result.rows[1]["bler"] >= 0.9


def test_wilson_interval_sanity():
    lo, hi = wilson_interval(0, 100)
    assert lo == 0.0 and hi < 0.05
    lo, hi = wilson_interval(100, 100)
    assert hi == 1.0 and lo > 0.95
    lo, hi = wilson_interval(50, 100)
    assert lo < 0.5 < hi


def test_empirical_exit_trajectory_matches_analysis():
    spec = ldpc_spec(3, 6)
    iters = 8
    result = sweep(
        spec, scale=500, eps_grid=[0.40], trials=60, seed=31, record_exit_iters=iters
    )
    trajs = result.trajectories[0.40]
    mean = trajs.mean(axis=0)
    se = trajs.std(axis=0, ddof=1) / np.sqrt(trajs.shape[0])
    engine = ExitEngine(spec)
    _, de_traj, _ = engine.run(0.40, max_iters=iters, record=True)
    for it in range(iters + 1):
        for l0 in range(spec.n_edge_types):
            budget = 3 * max(se[it, l0], 1e-4)
            assert abs(mean[it, l0] - de_traj[it, l0]) <= budget


def test_decode_handles_punctured_specs():
    code = sample_code(fig1_spec(), 4, seed=2)
    rng = np.random.default_rng(9)
    pattern = rng.random(code.n_transmitted) < 0.1
    res = decode(code, pattern)
    assert res.residual_erasures >= 0
    all_clear = decode(code, np.zeros(code.n_transmitted, dtype=bool))
    assert all_clear.success


def test_parallel_edges_are_legal_and_decode_sanely():
    # one rep-4 VN wired entirely to one SPC CN: every edge is parallel
    code = sample_code(_parallel_edge_spec(), 1, seed=0)
    assert code.n_edges == 4
    assert decode(code, np.array([False])).success
    # with the only channel bit erased nothing is extrinsically recoverable
    res = decode(code, np.array([True]))
    assert not res.success and res.residual_erasures == 1


def test_decode_with_partially_punctured_vn_type():
    code = sample_code(_half_punctured_spec(), 6, seed=4)
    assert code.n_transmitted == 12  # one transmitted bit per node
    assert decode(code, np.zeros(12, dtype=bool)).success
    rng = np.random.default_rng(10)
    for _ in range(10):
        pattern = rng.random(12) < 0.4
        base = decode(code, pattern)
        assert base.residual_erasures <= int(pattern.sum())


def _trials_alone(spec, scale, seed, eps_grid, trials, flats, max_iters=None):
    """Each of the flat trials sampled as one code and decoded on its own:
    (code, DecodeResult) pairs."""
    maps = _local_maps(spec)
    out = []
    for flat in flats:
        point, t = divmod(flat, trials)
        rng = _trial_rng(seed, point, t)
        code = _new_block(spec, scale, 1, maps)
        _sample_code(code, 0, rng)
        pattern = rng.random(code.n_transmitted) < eps_grid[point]
        out.append((code, decode(code, pattern, max_iters=max_iters, record_trajectory=True)))
    return out


@pytest.mark.parametrize("max_iters", [None, 0, 1, 3])
def test_block_decode_equals_each_trial_decoded_alone(max_iters):
    # a block of flat trials 2..12 at 3 trials per grid point mixes five eps
    # values and crosses four grid-point boundaries
    rng = np.random.default_rng(43)
    eps_grid = [0.1, 0.35, 0.45, 0.6, 0.9]
    trials, start, stop = 3, 2, 13
    specs = [(ldpc_spec(3, 6), 50)] + [(spec, 6) for spec in _decode_specs(rng)]
    for seed, (spec, scale) in enumerate(specs):
        code, erased = _sample_block(
            spec, scale, seed, np.array(eps_grid), trials, start, stop, _local_maps(spec)
        )
        success, residual, iterations, traj, _ = _decode_block(
            code, erased, max_iters, record_trajectory=True
        )
        per_trial = code.n_edges // code.trials
        alone = _trials_alone(spec, scale, seed, eps_grid, trials, range(start, stop), max_iters)
        for b, (one, res) in enumerate(alone):
            # the block holds trial b's graph at its node rows and edge range
            for side, one_side in ((code.vn_edges, one.vn_edges), (code.cn_edges, one.cn_edges)):
                for mine, theirs in zip(side, one_side):
                    rows = mine[b * len(theirs) : (b + 1) * len(theirs)]
                    assert np.array_equal(rows - b * per_trial, theirs)
            assert success[b] == res.success
            assert residual[b] == res.residual_erasures
            assert iterations[b] == res.iterations
            passes = len(res.trajectory)
            assert np.array_equal(traj[:passes, b], res.trajectory)
            # after its own fixpoint a trial's rows repeat its last one
            assert np.all(traj[passes:, b] == res.trajectory[-1])


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    submitted: list = []
    max_workers: list = []

    def __init__(self, max_workers, **kwargs):
        self.max_workers.append(max_workers)
        super().__init__(max_workers, **kwargs)

    def submit(self, fn, *args, **kwargs):
        self.submitted.append(args)
        return super().submit(fn, *args, **kwargs)


@pytest.mark.parametrize("jobs", [2, 3])
def test_sweep_blocks_straddle_grid_points_and_equal_trials_alone(jobs, monkeypatch):
    # 4 points x 5 trials split into blocks of 10 (2 workers) or 7 (3
    # workers), which cross grid points; rows and trajectories must equal
    # those of every trial decoded alone (as many CPUs as jobs, so that
    # sweep's CPU cap leaves them all)
    monkeypatch.setattr(os, "cpu_count", lambda: jobs)
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    spec, grid, trials, iters = dgldpc_spec(), [0.3, 0.38, 0.42, 0.5], 5, 4
    result = sweep(spec, scale=1, eps_grid=grid, trials=trials, seed=17, jobs=jobs,
                   record_exit_iters=iters)

    total = len(grid) * trials
    blocks = sorted(
        (start, min(start + args[6], total)) for args in _RecordingPool.submitted for start in args[5]
    )
    assert len(_RecordingPool.submitted) == jobs
    assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == total
    assert any(lo // trials != (hi - 1) // trials for lo, hi in blocks)

    alone = [res for _, res in _trials_alone(spec, 1, 17, grid, trials, range(total))]
    n_bits = sum(vn.count * vn.n_transmitted for vn in spec.vn_types)
    for p, eps in enumerate(grid):
        point = alone[p * trials : (p + 1) * trials]
        assert result.rows[p]["bler"] == sum(not r.success for r in point) / trials
        assert result.rows[p]["ber"] == sum(r.residual_erasures for r in point) / (n_bits * trials)
        for t, res in enumerate(point):
            want = res.trajectory[: iters + 1]
            want = np.vstack([want] + [want[-1:]] * (iters + 1 - len(want)))
            assert np.array_equal(result.trajectories[eps][t], want)


def test_sweep_workers_are_capped_at_the_cpu_count(monkeypatch):
    # 64 jobs on 2 CPUs start 2 workers, and the rows equal the serial run's
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    monkeypatch.setattr(_RecordingPool, "submitted", [])
    monkeypatch.setattr(_RecordingPool, "max_workers", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)
    kwargs = dict(scale=1, eps_grid=[0.3, 0.42], trials=40, seed=5)
    capped = sweep(ldpc_spec(3, 6), jobs=64, **kwargs)
    assert _RecordingPool.max_workers == [2] and len(_RecordingPool.submitted) == 2
    assert capped.rows == sweep(ldpc_spec(3, 6), jobs=1, **kwargs).rows


def test_sweep_memory_does_not_grow_with_trials(monkeypatch):
    # sweep keeps no per-trial list: with blocks of 64 twelve-edge trials its
    # peak at 2 x 2048 trials stays that of 2 x 128
    monkeypatch.setattr(peeling, "_BLOCK_EDGES", 64 * 12)
    spec = ldpc_spec(3, 6)
    assert sample_code(spec, 1, seed=0).n_edges == 12

    def peak(trials):
        tracemalloc.start()
        try:
            sweep(spec, scale=1, eps_grid=[0.4, 0.5], trials=trials, seed=2)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    small = peak(128)
    assert peak(2048) < small + 100_000
