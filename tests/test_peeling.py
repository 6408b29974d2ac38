import errno
import json
import os
import pickle
import platform
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from metdg import ExitEngine, ValidationError, decode, sample_code, sweep, wilson_interval
from metdg import GF2Matrix
from metdg import CapacityError, InternalError, peeling
from metdg.cli import main
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
    fresh,
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


def test_decode_accepts_bools_and_01_integers_alike():
    code = sample_code(ldpc_spec(3, 6), 50, seed=4)
    pattern = np.random.default_rng(4).random(code.n_transmitted) < 0.42
    want = decode(code, pattern)
    for same in (pattern.tolist(), pattern.astype(np.uint8), pattern.astype(np.int64).tolist()):
        got = decode(code, same)
        assert (got.success, got.residual_erasures, got.iterations) == (
            want.success, want.residual_erasures, want.iterations)


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


@pytest.fixture()
def forked(monkeypatch):
    """Each call of peeling._fork_shares, recorded as (shares, parts)."""
    calls = []
    fork_shares = peeling._fork_shares

    def record(shares):
        calls.append((shares, fork_shares(shares)))
        return calls[-1][1]

    monkeypatch.setattr(peeling, "_fork_shares", record)
    return calls


def test_simulator_records_are_immutable_values():
    assert peeling.SampledCode._fields == (
        "spec", "scale", "n_edges", "edge_type0", "vn_counts", "cn_counts", "vn_edges",
        "cn_edges", "n_transmitted", "maps", "owners", "cn_slots", "trials",
    )
    assert peeling.DecodeResult._fields == (
        "success", "residual_erasures", "iterations", "trajectory", "vc_history"
    )
    assert peeling.SweepResult._fields == (
        "rows", "rng_name", "seed", "stability_prediction", "trajectories"
    )
    spec = ldpc_spec(3, 6)
    a, b = (sweep(spec, scale=1, eps_grid=[0.3], trials=2, seed=3) for _ in range(2))
    # equal by value, but each with its own trajectories dict
    assert a == b and a.trajectories == {} and a.trajectories is not b.trajectories
    assert a == peeling.SweepResult(a.rows, "philox", 3, True, {})
    assert a == peeling.SweepResult(rows=a.rows, rng_name="philox", seed=3,
                                    stability_prediction=True, trajectories={})
    code = sample_code(spec, 1, seed=0)
    result = decode(code, np.zeros(code.n_transmitted, dtype=bool))
    n = result.iterations
    assert result == peeling.DecodeResult(True, 0, n) == (True, 0, n, None, None)
    for record, attr in ((a, "seed"), (code, "trials"), (result, "success")):
        with pytest.raises(AttributeError):
            setattr(record, attr, 0)


@pytest.mark.parametrize(
    "jobs, eps_grid, trials",
    [
        (2, _DGLDPC_GRID, 6),
        (3, _DGLDPC_GRID, 6),
        # more jobs than tasks: one worker per task
        (3, [0.38], 2),
    ],
    ids=["jobs2", "jobs3", "jobs3-2tasks"],
)
def test_sweep_jobs_invariant_on_dgldpc_grid(jobs, eps_grid, trials, monkeypatch, forked):
    # one set of workers serves every grid point, each taking every n-th task;
    # rows and trajectories stay grouped by grid index and equal the serial run's
    # (as many CPUs as jobs, so that sweep's CPU cap leaves them all)
    monkeypatch.setattr(peeling, "usable_cpus", lambda: jobs)
    spec = dgldpc_spec()
    kwargs = dict(scale=1, eps_grid=eps_grid, trials=trials, seed=11, record_exit_iters=3)
    b = sweep(spec, jobs=jobs, **kwargs)
    a = sweep(spec, jobs=1, **kwargs)
    assert [len(shares) for shares, _ in forked] == [min(jobs, len(eps_grid) * trials)]
    assert a.rows == b.rows
    assert list(a.trajectories) == list(b.trajectories) == eps_grid
    for eps, traj in a.trajectories.items():
        assert traj.shape == (trials, 4, spec.n_edge_types)
        assert np.array_equal(traj, b.trajectories[eps])


def test_a_share_in_a_fresh_interpreter_equals_the_forked_part(monkeypatch, forked):
    # a forked worker inherits the parent's memory; its part must be the one
    # a fresh interpreter, which imports metdg afresh and inherits nothing,
    # computes from the same share
    monkeypatch.setattr(peeling, "usable_cpus", lambda: 2)
    sweep(dgldpc_spec(), scale=1, eps_grid=_DGLDPC_GRID, trials=6, seed=11, jobs=2, record_exit_iters=3)
    [(shares, parts)] = forked
    script = ("import pickle, sys; from metdg import peeling; "
              "sys.stdout.buffer.write(pickle.dumps(peeling._run_trials(*pickle.load(sys.stdin.buffer))))")
    failures, residuals, trajectories = pickle.loads(fresh("-c", script, input=pickle.dumps(shares[1])).stdout)
    assert (failures, residuals) == parts[1][:2]
    assert list(trajectories) == list(parts[1][2]) != []
    for start, block in trajectories.items():
        assert np.array_equal(block, parts[1][2][start])


class _WorkerFailed(Exception):
    pass


def _raise_in_worker(*share):
    raise _WorkerFailed("boom")


def _exit_in_worker(*share):
    os._exit(3)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# sweep arguments that start two workers on two CPUs
_TWO_WORKERS = dict(scale=1, eps_grid=[0.3, 0.42], trials=4, seed=5, jobs=2)


def _simulate_two_workers(tmp_path) -> int:
    """The exit code of the CLI's simulate on the same call."""
    path = tmp_path / "ldpc.json"
    path.write_text(json.dumps(ldpc_spec(3, 6).to_dict()))
    return main(["simulate", str(path), "--scale", "1", "--eps", "0.3,0.42", "--trials", "4", "--jobs", "2"])


@pytest.fixture()
def two_cpus(monkeypatch):
    monkeypatch.setattr(peeling, "usable_cpus", lambda: 2)


def test_a_worker_exception_is_raised_in_the_parent(monkeypatch, two_cpus):
    monkeypatch.setattr(peeling, "_run_trials", _raise_in_worker)
    with pytest.raises(_WorkerFailed, match="boom"):
        sweep(ldpc_spec(3, 6), **_TWO_WORKERS)
    _assert_no_child_left()


def test_a_worker_without_a_result_is_an_internal_error(monkeypatch, two_cpus, tmp_path, capsys):
    monkeypatch.setattr(peeling, "_run_trials", _exit_in_worker)
    with pytest.raises(InternalError, match="exit code 3"):
        sweep(ldpc_spec(3, 6), **_TWO_WORKERS)
    _assert_no_child_left()
    assert _simulate_two_workers(tmp_path) == 1
    err = capsys.readouterr().err
    assert err.startswith("internal error: ") and "Traceback" not in err
    _assert_no_child_left()


def test_a_failed_fork_is_a_capacity_error(monkeypatch, two_cpus, tmp_path, capsys):
    # the second fork of each run fails as it does when the process table is
    # full; the first worker is killed and reaped
    real_fork, forks = os.fork, []

    def fork():
        forks.append(None)
        if len(forks) % 2 == 0:
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    with pytest.raises(CapacityError, match="cannot start a simulation worker"):
        sweep(ldpc_spec(3, 6), **_TWO_WORKERS)
    _assert_no_child_left()
    assert _simulate_two_workers(tmp_path) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot start a simulation worker") and "Traceback" not in err
    assert len(forks) == 4
    _assert_no_child_left()


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_an_allocation_too_large_is_a_capacity_error(jobs, two_cpus, capsys):
    # a block of one trial with 4e15 VNs asks numpy for an 85 PiB array,
    # more than any 64-bit address space holds, so nothing is allocated; at
    # --jobs 2 each worker's MemoryError is raised again in the parent
    path = Path(__file__).resolve().parents[1] / "bench" / "specs" / "ldpc36.json"
    args = ["simulate", str(path), "--scale", str(10**15), "--eps", "0.4", "--trials", "2", "--jobs", jobs]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: at scale 1000000000000000, the simulation needs more memory than is available")
    assert err.count("\n") == 1
    _assert_no_child_left()


def test_sweep_runs_in_one_process_without_fork(monkeypatch, forked):
    monkeypatch.delattr(os, "fork")
    kwargs = dict(scale=1, eps_grid=[0.3, 0.42], trials=10, seed=5)
    assert sweep(ldpc_spec(3, 6), jobs=2, **kwargs).rows == sweep(ldpc_spec(3, 6), jobs=1, **kwargs).rows
    assert forked == []


def _mallopt_recorder(log_dir, accepted: int):
    """A mallopt stand-in that appends each call to a file per process and
    accepts the first `accepted` calls of that process."""
    made = []  # a forked child counts its own calls in its copy

    def mallopt(param, value):
        made.append((param, value))
        with open(log_dir / str(os.getpid()), "a") as log:
            log.write(f"{param} {value}\n")
        return int(len(made) <= accepted)

    return mallopt


def _mallopt_calls(log_dir) -> dict[int, list[tuple[int, int]]]:
    return {int(path.name): [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
            for path in log_dir.iterdir()}


@pytest.mark.parametrize("accepted", [2, 0], ids=["accepted", "refused"])
def test_only_the_workers_set_mallopt(accepted, monkeypatch, two_cpus, forked, tmp_path):
    # every worker sets each setting in order and stops at the first one
    # refused; neither the parent nor a one-process sweep calls mallopt
    monkeypatch.setattr(peeling, "_libc_mallopt", lambda: _mallopt_recorder(tmp_path, accepted))
    sweep(ldpc_spec(3, 6), **dict(_TWO_WORKERS, jobs=1))
    assert _mallopt_calls(tmp_path) == {}
    sweep(ldpc_spec(3, 6), **_TWO_WORKERS)
    calls = _mallopt_calls(tmp_path)
    [(shares, _)] = forked
    assert len(calls) == len(shares) == 2 and os.getpid() not in calls
    expected = list(peeling._WORKER_MALLOPT)[: accepted + 1]
    assert all(worker == expected for worker in calls.values())


def test_workers_without_mallopt_equal_one_process(monkeypatch, two_cpus, forked):
    monkeypatch.setattr(peeling, "_libc_mallopt", lambda: None)
    kwargs = dict(_TWO_WORKERS, record_exit_iters=2)
    forked_run = sweep(dgldpc_spec(), **kwargs)
    one = sweep(dgldpc_spec(), **dict(kwargs, jobs=1))
    assert len(forked) == 1 and forked_run.rows == one.rows
    for eps, traj in one.trajectories.items():
        assert np.array_equal(traj, forked_run.trajectories[eps])


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc only")
def test_glibc_accepts_every_worker_setting():
    # in a fresh interpreter: the settings would change this process's allocator
    script = ("from metdg import peeling; mallopt = peeling._libc_mallopt(); "
              "print([mallopt(*setting) for setting in peeling._WORKER_MALLOPT])")
    assert fresh("-c", script, text=True).stdout.strip() == str([1] * len(peeling._WORKER_MALLOPT))


@pytest.mark.parametrize(
    "call",
    [
        lambda spec: decode(sample_code(spec, 2, seed=0), np.zeros(8, dtype=bool), max_iters=-5),
        lambda spec: decode(sample_code(spec, 2, seed=0), np.zeros(8, dtype=bool), max_iters=1.5),
        lambda spec: decode(sample_code(spec, 2, seed=0), np.zeros(8, dtype=bool), max_iters=True),
        lambda spec: decode(sample_code(spec, 2, seed=0), np.zeros(8, dtype=bool), max_iters="3"),
        # an erasure pattern is bools or 0/1 integers, never cast to bool
        lambda spec: decode(sample_code(spec, 2, seed=0), [0.5] * 8),
        lambda spec: decode(sample_code(spec, 2, seed=0), [2] * 8),
        lambda spec: decode(sample_code(spec, 2, seed=0), np.full(8, -1)),
        lambda spec: decode(sample_code(spec, 2, seed=0), np.zeros(8)),
        lambda spec: decode(sample_code(spec, 2, seed=0), ["0"] * 8),
        lambda spec: decode(sample_code(spec, 2, seed=0), [[0]] * 7 + [[0, 1]]),
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
        lambda spec: sweep(spec, scale=2, eps_grid=[], trials=3, seed=1),
        # a recorded sweep keys its trajectories by eps: no point twice
        lambda spec: sweep(spec, scale=2, eps_grid=[0.4, 0.4, 0.45], trials=2, seed=1,
                           record_exit_iters=3),
        # grid points are numbers: no bool, no string, and the grid is a sequence
        lambda spec: sweep(spec, scale=2, eps_grid=["0.4", True], trials=2, seed=1),
        lambda spec: sweep(spec, scale=2, eps_grid=[True], trials=2, seed=1),
        lambda spec: sweep(spec, scale=2, eps_grid=["x"], trials=2, seed=1),
        lambda spec: sweep(spec, scale=2, eps_grid=0.4, trials=2, seed=1),
        lambda spec: sweep(spec, scale=2, eps_grid="0.4", trials=2, seed=1),
        lambda spec: sample_code(spec, 2.5, seed=0),
        lambda spec: sample_code(spec, True, seed=0),
        # 6 * 10**20 edges: more than numpy can index, refused before any
        # array is allocated
        lambda spec: sweep(ldpc_spec(3, 6, 2 * 10**20), scale=1, eps_grid=[0.3], trials=1, seed=0),
        lambda spec: sample_code(ldpc_spec(3, 6, 2 * 10**20), 1, seed=0),
    ],
    ids=["decode-max-iters", "decode-max-iters-float", "decode-max-iters-bool",
         "decode-max-iters-str", "decode-pattern-half", "decode-pattern-two",
         "decode-pattern-minus-one", "decode-pattern-float-zeros", "decode-pattern-str",
         "decode-pattern-ragged",
         "record-exit-iters", "sweep-seed-neg", "sweep-seed-big",
         "sample-seed-neg", "sample-seed-big", "sample-seed-float", "sample-seed-bool",
         "sample-seed-numpy", "sweep-seed-bool", "sweep-seed-numpy", "sweep-scale-float",
         "sweep-scale-bool", "sweep-trials-float", "sweep-trials-bool", "sweep-jobs-float",
         "sweep-grid-empty", "sweep-grid-repeat-recorded", "sweep-grid-str-bool",
         "sweep-grid-bool", "sweep-grid-text", "sweep-grid-scalar", "sweep-grid-str",
         "sample-scale-float", "sample-scale-bool", "sweep-unindexable",
         "sample-unindexable"],
)
def test_peeling_rejects_bad_inputs(call):
    with pytest.raises(ValidationError):
        call(ldpc_spec(3, 6))


def test_unrecorded_sweep_keeps_repeated_and_numpy_grid_points():
    # each point has its own trial streams, so a repeat is a fresh estimate
    spec = ldpc_spec(3, 6)
    result = sweep(spec, scale=2, eps_grid=[0.4, 0.4, 0.45], trials=3, seed=1)
    assert [row["eps"] for row in result.rows] == [0.4, 0.4, 0.45]
    same = sweep(spec, scale=2, eps_grid=np.array([0.4, 0.4, 0.45]), trials=3, seed=1)
    assert same.rows == result.rows
    recorded = sweep(spec, scale=2, eps_grid=[0.4, 0.45], trials=3, seed=1, record_exit_iters=3)
    assert sorted(recorded.trajectories) == [0.4, 0.45]


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


def _oracle_check(gen: GF2Matrix, chan_positions, keys, maps=None):
    # per key: the out mask of the codeword oracle, the rank of the key's
    # columns, and a channel bit that adds no rank exactly where the oracle
    # recovers its info bit; maps, when given, are those of an earlier call
    maps = maps or _LocalMaps(gen.column_bits(), gen.n_rows, tuple(chan_positions))
    q, columns = gen.n_cols, gen.column_bits() + [1 << p for p in chan_positions]
    keys_arr = np.asarray(keys, dtype=np.int64)
    out, rank = maps.lookup(keys_arr, 0).tolist(), maps.lookup(keys_arr, 1).tolist()
    chan_ranks = [maps.lookup(keys_arr | 1 << (q + i), 1).tolist() for i in range(len(chan_positions))]
    rows = gen.to_rows()
    for r, key in enumerate(keys):
        want_out, want_info = naive_local_map(rows, chan_positions, key)
        assert out[r] == want_out, (rows, chan_positions, key)
        picked = [c for j, c in enumerate(columns) if (key >> j) & 1]
        assert rank[r] == GF2Matrix(len(picked), gen.n_rows, picked).rank(), (rows, chan_positions, key)
        for i, p in enumerate(chan_positions):
            recovered = (want_info >> p) & 1 == 1
            assert (chan_ranks[i][r] == rank[r]) == recovered, (rows, chan_positions, key, i)
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
    # a second batch on the same maps mixes memoized keys with new ones
    second = keys[::3] + rng.integers(0, 1 << width, size=40).tolist()
    if not array_backed:
        assert 0 < sum(key in maps._dict for key in second) < len(second)
    assert _oracle_check(gen, chan_positions, second, maps) is maps
    # an empty batch
    out, rank = maps.lookup(np.zeros(0, dtype=np.int64), 0), maps.lookup(np.zeros(0, dtype=np.int64), 1)
    assert out.shape == rank.shape == (0,)


def test_sweep_waterfall_brackets_threshold(ldpc36):
    # coarse grid around the asymptotic threshold: clearly good below,
    # clearly bad above
    result = sweep(ldpc36, scale=400, eps_grid=[0.30, 0.50], trials=30, seed=5)
    assert result.rows[0]["bler"] <= 0.1
    assert result.rows[1]["bler"] >= 0.9


@pytest.mark.parametrize(
    "successes, trials",
    [(5, 3), (-1, 10), (1.0, 2), (True, 2), (1, 2.0), ("1", 2)],
    ids=["above-trials", "negative", "float-successes", "bool-successes", "float-trials", "str-successes"],
)
def test_wilson_interval_rejects_bad_counts(successes, trials):
    with pytest.raises(ValidationError):
        wilson_interval(successes, trials)


def test_wilson_interval_sanity():
    assert wilson_interval(0, 0) == (0.0, 1.0)
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
    rows = []
    engine.run(0.40, max_iters=iters, record=rows.extend)
    de_traj = np.array(rows)
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


def test_one_message_per_edge_keeps_success_and_residual():
    # one_way sends no message on a socket whose incoming message is known;
    # per trial of a block it must decode exactly as flooding does
    rng = np.random.default_rng(47)
    eps_grid = np.array([0.1, 0.3, 0.45, 0.6, 0.75, 0.9])
    trials = 4
    specs = [(ldpc_spec(3, 6), 50)] + [(spec, 6) for spec in _decode_specs(rng)]
    for seed, (spec, scale) in enumerate(specs):
        maps = _local_maps(spec)
        code, erased = _sample_block(spec, scale, seed, eps_grid, trials, 0, len(eps_grid) * trials, maps)
        flood = _decode_block(code, erased, None, keep_history=True)
        peel = _decode_block(code, erased, None, keep_history=True, one_way=True)
        assert np.array_equal(peel[0], flood[0])
        assert np.array_equal(peel[1], flood[1])
        # the rule does drop VN-to-CN messages on every one of these blocks
        assert peel[4][-1].sum() < flood[4][-1].sum()


@pytest.mark.parametrize("jobs", [1, 2])
def test_unrecorded_sweep_rows_equal_trials_decoded_alone(jobs, monkeypatch):
    # a sweep that records no trajectory passes one message per edge, in
    # blocks of many trials; its rows must equal those of every trial
    # decoded alone by decode(), which floods
    monkeypatch.setattr(peeling, "usable_cpus", lambda: jobs)
    for spec, scale, grid, trials in (
        (dgldpc_spec(), 1, [0.3, 0.38, 0.42, 0.5], 5),
        (ldpc_spec(3, 6), 40, [0.36, 0.42, 0.48], 6),
    ):
        result = sweep(spec, scale=scale, eps_grid=grid, trials=trials, seed=19, jobs=jobs)
        alone = [res for _, res in _trials_alone(spec, scale, 19, grid, trials, range(len(grid) * trials))]
        n_bits = scale * sum(vn.count * vn.n_transmitted for vn in spec.vn_types)
        for p, row in enumerate(result.rows):
            point = alone[p * trials : (p + 1) * trials]
            assert row["bler"] == sum(not r.success for r in point) / trials
            assert row["ber"] == sum(r.residual_erasures for r in point) / (n_bits * trials)


@pytest.mark.parametrize("jobs", [2, 3])
def test_sweep_blocks_straddle_grid_points_and_equal_trials_alone(jobs, monkeypatch, forked):
    # 4 points x 5 trials split into blocks of 10 (2 workers) or 7 (3
    # workers), which cross grid points; rows and trajectories must equal
    # those of every trial decoded alone (as many CPUs as jobs, so that
    # sweep's CPU cap leaves them all)
    monkeypatch.setattr(peeling, "usable_cpus", lambda: jobs)
    spec, grid, trials, iters = dgldpc_spec(), [0.3, 0.38, 0.42, 0.5], 5, 4
    result = sweep(spec, scale=1, eps_grid=grid, trials=trials, seed=17, jobs=jobs,
                   record_exit_iters=iters)

    total = len(grid) * trials
    [(shares, _)] = forked
    blocks = sorted((start, min(start + share[6], total)) for share in shares for start in share[5])
    assert len(shares) == jobs
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


def test_sweep_workers_are_capped_at_the_cpu_count(monkeypatch, forked):
    # 64 jobs on 2 usable CPUs start 2 workers, and the rows equal the serial run's
    monkeypatch.setattr(peeling, "usable_cpus", lambda: 2)
    kwargs = dict(scale=1, eps_grid=[0.3, 0.42], trials=40, seed=5)
    capped = sweep(ldpc_spec(3, 6), jobs=64, **kwargs)
    assert [len(shares) for shares, _ in forked] == [2]
    _assert_no_child_left()
    assert capped.rows == sweep(ldpc_spec(3, 6), jobs=1, **kwargs).rows


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert peeling.usable_cpus() == 3
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert peeling.usable_cpus() == 64


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
