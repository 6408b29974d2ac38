import time
from fractions import Fraction
from operator import mul

import numpy as np
import pytest

from metdg import (
    CnType,
    ExitEngine,
    GF2Matrix,
    InternalError,
    ProbeOutcome,
    ValidationError,
    VnType,
    build_spec,
    stability_bound,
    stability_verdict,
)
from metdg.stability import _verdict, build_matrices

from conftest import (
    dgldpc_spec,
    exact_jacobian_product,
    exact_stability_product,
    example1_spec,
    example2_spec,
    fig1_spec,
    irregular_ldpc_spec,
    lapack_sigma,
    ldpc_spec,
    pair_code_gen,
    random_component_code,
    random_eligible_spec,
    rep_gen,
    spc_gen,
    wide_spec,
)
from naive_oracles import (
    fraction_certified_bound,
    plain_threshold,
    scalar_de_converges,
    scalar_de_threshold,
    semantic_extrinsic_known_probability,
    stall_only_run,
    stall_only_threshold,
    stepwise_run,
    tensordot_step,
)


def _relabel(socket_types):
    """The edge types a node uses, ascending, and its sockets relabelled 1..k."""
    used = sorted(set(socket_types))
    return np.array(used), tuple(used.index(t) + 1 for t in socket_types)


def vn_probe(vn: VnType):
    """An engine whose step(x, eps)[k] is vn's extrinsic function on its k-th
    used edge type, and the used types.

    Every CN type is a repetition-2 code on one edge type, so the CN half is
    the identity.  A fully punctured vn gets a transmitted repetition-2
    partner on one more edge type of its own, the engine's last."""
    used, st = _relabel(vn.socket_types)
    n_e = len(used)
    vns = [VnType(vn.name, vn.generator, vn.puncture, st, 2)]
    cns = [CnType(f"rep2-{k}", rep_gen(2), (k, k), st.count(k)) for k in range(1, n_e + 1)]
    if vn.n_transmitted == 0:
        n_e += 1
        vns.append(VnType("partner", rep_gen(2), (1,), (n_e, n_e), 1))
        cns.append(CnType(f"rep2-{n_e}", rep_gen(2), (n_e, n_e), 1))
    return ExitEngine(build_spec(n_e, vns, cns)), used


def cn_probe(cn: CnType):
    """An engine whose step(x, 1.0)[k] is cn's extrinsic function on its k-th
    used edge type, and the used types.

    Every VN type is a repetition-2 code on one edge type, so on a fully
    unreliable channel the VN half is the identity."""
    used, st = _relabel(cn.socket_types)
    vns = [VnType(f"rep2-{k}", rep_gen(2), (1,), (k, k), st.count(k)) for k in range(1, len(used) + 1)]
    cns = [CnType(cn.name, cn.generator, st, 2)]
    return ExitEngine(build_spec(len(used), vns, cns)), used


def test_repetition_vn_closed_form():
    for q in (2, 3, 4):
        engine, _ = vn_probe(VnType("rep", rep_gen(q), (1,), (1,) * q, 1))
        for i_a in np.linspace(0, 1, 7):
            for eps in np.linspace(0, 1, 7):
                got = engine.step([i_a], eps)[0]
                want = 1 - eps * (1 - i_a) ** (q - 1)
                assert abs(got - want) < 1e-13


def test_vn_exit_all_ones_input_gives_one():
    rng = np.random.default_rng(2)
    for _ in range(10):
        spec = random_eligible_spec(rng)
        for vn in spec.vn_types:
            engine, used = vn_probe(vn)
            for eps in (0.1, 0.6, 0.95):
                assert np.all(np.array(engine.step(np.ones(len(used)), eps)) == 1.0)


def test_vn_exit_perfect_channel():
    engine, _ = vn_probe(VnType("rep2", rep_gen(2), (1,), (1, 1), 1))
    assert engine.step([0.0], 0.0)[0] == 1.0


def test_spc_cn_closed_form():
    for s in (3, 4, 5, 6):
        engine, _ = cn_probe(CnType("spc", spc_gen(s), (1,) * s, 1))
        for i_a in np.linspace(0, 1, 9):
            got = engine.step([i_a], 1.0)[0]
            assert abs(got - i_a ** (s - 1)) < 1e-13


def test_cn_exit_all_ones_gives_one():
    engine, _ = cn_probe(CnType("pair", pair_code_gen(), (1, 2, 2, 1), 1))
    assert np.all(np.array(engine.step([1.0, 1.0], 1.0)) == 1.0)


def test_mixed_type_spc_closed_form():
    engine, _ = cn_probe(CnType("spc32", GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]]), (1, 2, 2), 1))
    for a in np.linspace(0, 1, 5):
        for b in np.linspace(0, 1, 5):
            got = engine.step([a, b], 1.0)
            assert abs(got[0] - b * b) < 1e-14
            assert abs(got[1] - a * b) < 1e-14


def test_vn_exit_matches_operational_definition():
    # probability-weighted subset scan with explicit rank tests: ties the
    # closed-form machinery to what the decoder actually measures
    rng = np.random.default_rng(71)
    for _ in range(6):
        g = random_component_code(rng, max_sockets=5)
        st = tuple(int(t) for t in rng.integers(1, 3, size=g.n_cols))
        punct = tuple(int(b) for b in rng.integers(0, 2, size=g.n_rows))
        i_av = rng.random(2)
        eps = float(rng.random())
        engine, used = vn_probe(VnType("v", g, punct, st, 1))
        x = np.ones(engine.n_edge_types)
        x[: len(used)] = i_av[used - 1]
        out = engine.step(x, eps)
        for k, e in enumerate(used):
            want = semantic_extrinsic_known_probability(
                g.to_rows(), list(st), i_av, e, eps=eps, puncture=list(punct)
            )
            assert abs(out[k] - want) < 1e-12


def test_cn_exit_matches_operational_definition():
    rng = np.random.default_rng(72)
    for _ in range(6):
        g = random_component_code(rng, max_sockets=5)
        st = tuple(int(t) for t in rng.integers(1, 3, size=g.n_cols))
        i_ac = rng.random(2)
        engine, used = cn_probe(CnType("c", g, st, 1))
        out = engine.step(i_ac[used - 1], 1.0)
        for k, e in enumerate(used):
            want = semantic_extrinsic_known_probability(g.to_rows(), list(st), i_ac, e)
            assert abs(out[k] - want) < 1e-12


def test_coefficient_array_vanishes_at_full_selection_for_unpunctured_types():
    # the all-zero exclusion index must carry zero weight, otherwise the
    # all-known state could not be a fixed point
    from metdg.exitchart import _exit_coefficients
    from metdg.infofuncs import vn_info_table

    rng = np.random.default_rng(101)
    for _ in range(10):
        spec = random_eligible_spec(rng)
        for i, vn in enumerate(spec.vn_types):
            table = vn_info_table(vn, spec.n_edge_types)
            for e0 in range(spec.n_edge_types):
                if spec.vn_socket_counts[i][e0] == 0:
                    continue
                arr = _exit_coefficients(table.reshape(-1).tolist(), table.shape, e0)
                # the entries whose indices on every edge-type axis are 0
                first = arr[: table.shape[-1]]
                assert first == [0] * table.shape[-1]


def test_step_fixed_point_at_one():
    rng = np.random.default_rng(12)
    for _ in range(5):
        spec = random_eligible_spec(rng)
        engine = ExitEngine(spec)
        ones = np.ones(spec.n_edge_types)
        for eps in np.linspace(0.05, 0.95, 7):
            out = np.array(engine.step(ones, eps))
            assert np.max(np.abs(out - 1.0)) < 1e-12


def test_step_matches_scalar_recursion_for_regular_ldpc():
    spec = ldpc_spec(3, 6)
    engine = ExitEngine(spec)
    for eps in (0.2, 0.41, 0.48):
        x = np.zeros(1)
        y = eps
        for _ in range(60):
            x = engine.step(x, eps)
            assert abs((1 - x[0]) - y) < 1e-12
            y = eps * (1 - (1 - y) ** 5) ** 2


def test_step_perfect_channel_converges_immediately():
    rows = []
    outcome = ExitEngine(ldpc_spec(3, 6)).run(0.0, record=rows.extend)
    assert outcome.outcome == "converged"
    assert rows[0][0] == 1.0


def test_step_at_zero_epsilon_reaches_one_from_any_state():
    rng = np.random.default_rng(61)
    for _ in range(5):
        spec = random_eligible_spec(rng)
        engine = ExitEngine(spec)
        x = rng.random(spec.n_edge_types)
        assert np.all(np.array(engine.step(x, 0.0)) == 1.0)


def test_tiny_epsilon_converges_on_eligible_specs():
    rng = np.random.default_rng(62)
    for _ in range(3):
        spec = random_eligible_spec(rng)
        assert ExitEngine(spec).run(1e-6).outcome == "converged"


def test_step_monotone_in_state_and_epsilon():
    rng = np.random.default_rng(44)
    for _ in range(5):
        spec = random_eligible_spec(rng)
        engine = ExitEngine(spec)
        n = spec.n_edge_types
        for _ in range(10):
            x = rng.random(n)
            y = np.minimum(1.0, x + rng.random(n) * (1 - x))
            e1, e2 = sorted(rng.random(2))
            fx = np.array(engine.step(x, e2))
            fy = np.array(engine.step(y, e2))
            assert np.all(fy >= fx - 1e-12)
            assert np.all(np.array(engine.step(x, e1)) >= fx - 1e-12)


def test_run_to_fixed_point_around_ldpc_threshold():
    engine = ExitEngine(ldpc_spec(3, 6))
    below = engine.run(0.30, record=[].extend)
    rows = []
    above = engine.run(0.50, record=rows.extend)
    assert below.outcome == "converged"
    assert above.outcome != "converged"
    # the recorded trajectory climbs monotonically toward its stuck point
    vals = [row[0] for row in rows]
    assert len(vals) >= 2
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.9


def test_threshold_matches_scalar_oracle(ldpc36):
    (lo, hi), _ = ExitEngine(ldpc36).threshold()
    got = 0.5 * (lo + hi)
    want = scalar_de_threshold(3, 6)
    assert abs(got - want) <= 1e-4
    assert abs(got - 0.4294) < 1e-3


def test_threshold_of_heavily_redundant_spec_is_near_one():
    # every VN bit is protected by many repetition sockets and tiny SPCs
    vn = VnType("rep6", rep_gen(6), (1,), (1,) * 6, 2)
    cn = CnType("spc3", spc_gen(3), (1, 1, 1), 4)
    spec = build_spec(1, [vn], [cn])
    (lo, hi), _ = ExitEngine(spec).threshold(tol_eps=1e-4)
    assert 0.5 * (lo + hi) > 0.9


def test_probe_convergence_matches_scalar_oracle_on_grid(ldpc36):
    engine = ExitEngine(ldpc36)
    for eps in np.linspace(0.05, 0.95, 10):
        conv = engine.run(float(eps)).outcome == "converged"
        assert conv == scalar_de_converges(float(eps), 3, 6)


def test_jacobian_example1_closed_form():
    spec = example1_spec(spc_gen(3), spc_gen(3))
    engine = ExitEngine(spec)
    for eps in (Fraction(1, 10), Fraction(7, 20), Fraction(4, 5)):
        assert exact_jacobian_product(engine, eps) == [[0, 2 * eps], [2 * eps, 0]]


def test_jacobian_matches_stability_product_example2():
    spec = example2_spec(pair_code_gen())
    sm = build_matrices(spec)
    engine = ExitEngine(spec)
    for eps in (0.2, 0.5, 0.9):
        assert exact_jacobian_product(engine, eps) == exact_stability_product(sm, eps)


def test_jacobian_scalar_irregular_ldpc():
    spec, lam2, rho_prime = irregular_ldpc_spec(0.2)
    engine = ExitEngine(spec)
    for eps in (Fraction(1, 10), Fraction(2, 5), Fraction(7, 10)):
        assert exact_jacobian_product(engine, eps) == [[eps * lam2 * rho_prime]]


def test_jacobian_zero_column_when_no_weight2_paths():
    # bank1 CNs have distance 3, so no weight-2 path reacts to edge type 1
    spec = example1_spec(rep_gen(3), spc_gen(3))
    jac = exact_jacobian_product(ExitEngine(spec), Fraction(1, 2))
    assert jac[0][0] == jac[1][0] == 0
    assert jac[0][1] > Fraction(1, 10)


def _distance1_vn_spec():
    vn = VnType("pass", GF2Matrix.from_rows([[1, 0], [0, 1]]), (1, 1), (1, 1), 3)
    return build_spec(1, [vn], [CnType("spc3", spc_gen(3), (1, 1, 1), 2)])


@pytest.mark.parametrize("make", [_distance1_vn_spec, fig1_spec], ids=["distance-1", "punctured"])
def test_erasure_polynomials_require_a_fixed_all_known_state(make):
    # a VN type whose output stays erased when every other socket is known
    # moves the all-known state at eps > 0
    spec = make()
    with pytest.raises(InternalError, match="not a fixed point"):
        ExitEngine(spec)._vn.erasure_polynomials([[0, 1]] * spec.n_edge_types, 1, Fraction(1, 4))


@pytest.mark.parametrize(
    "call",
    [
        lambda e: e.step([1.0], float("nan")),
        lambda e: e.step([1.0], 1.5),
        lambda e: e.step([1.0], -0.1),
        lambda e: e.step([2.0], 0.3),
        lambda e: e.step([float("nan")], 0.3),
        lambda e: e.step([0.5, 0.5], 0.3),
        lambda e: e.step(["x"], 0.3),
        # real-number parameters are numbers: no bool, no string, no bytes
        lambda e: e.step(["0.5"], 0.3),
        lambda e: e.step([b"0.5"], 0.3),
        lambda e: e.step([True], 0.3),
        lambda e: e.step(0.5, 0.3),
        lambda e: e.step([[0.5]], 0.3),
        lambda e: e.step([0.5], True),
        lambda e: e.step([0.5], "0.3"),
        lambda e: e.run(True),
        lambda e: e.run("0.3"),
        # record is None or a callable that takes rows
        lambda e: e.run(0.3, record=True),
        lambda e: e.run(0.3, record="rows"),
        lambda e: e.threshold(tol_eps=True),
        lambda e: e.threshold(tol_eps="1e-3"),
        # max_iters is a Python int, as decode's is: True is not 1
        lambda e: e.run(0.3, max_iters=float("nan")),
        lambda e: e.run(0.3, max_iters=2.5),
        lambda e: e.run(0.3, max_iters=True),
        lambda e: e.run(0.3, max_iters=-1),
        lambda e: e.run(0.3, tol=0.0),
        lambda e: e.run(0.3, tol=1.0),
        lambda e: e.run(0.3, tol=float("nan")),
        lambda e: e.run(0.3, tol="0.1"),
        lambda e: e.run(0.3, tol=None),
        lambda e: e.threshold(tol_eps=0.0),
        lambda e: e.threshold(max_iters=float("nan")),
        lambda e: e.threshold(tol_fp="0.1"),
    ],
    ids=["step-nan", "step-high", "step-low", "step-state-high", "step-state-nan",
         "step-state-shape", "step-state-text", "step-state-str-number",
         "step-state-bytes", "step-state-bool", "step-state-scalar", "step-state-nested",
         "step-eps-bool", "step-eps-str", "run-eps-bool", "run-eps-str",
         "run-record-bool", "run-record-str",
         "threshold-tol-eps-bool", "threshold-tol-eps-str", "run-max-iters-nan", "run-max-iters-float",
         "run-max-iters-bool", "run-max-iters-neg", "run-tol-zero", "run-tol-one", "run-tol-nan",
         "run-tol-str", "run-tol-none",
         "threshold-tol-eps-zero", "threshold-max-iters-nan", "threshold-tol-fp-str"],
)
def test_engine_rejects_bad_inputs(call):
    with pytest.raises(ValidationError):
        call(ExitEngine(ldpc_spec(3, 6)))


def test_engine_takes_ints_and_numpy_scalars_as_numbers():
    engine = ExitEngine(ldpc_spec(3, 6))
    want = engine.step([0.5], 0.25)
    for x, eps in (([np.float32(0.5)], np.float64(0.25)), (np.array([0.5]), 0.25), ((0.5,), 0.25)):
        assert np.array_equal(engine.step(x, eps), want)
    assert np.array_equal(engine.step([1], 0), engine.step([1.0], 0.0))
    assert engine.run(np.float64(0.3)) == engine.run(0.3)
    assert engine.threshold(tol_eps=np.float64(1e-3)) == engine.threshold(tol_eps=1e-3)


def test_threshold_never_exceeds_stability_bound():
    # local stability is necessary for convergence, so the bound caps the
    # threshold; for the distance-3 outer code the bound is vacuous while
    # the threshold stays well inside (0, 1)
    spec = example2_spec(rep_gen(3))
    (lo, hi), _ = ExitEngine(spec).threshold(tol_eps=1e-3)
    assert stability_bound(build_matrices(spec)) is None
    assert 0.3 < 0.5 * (lo + hi) < 1.0

    # each result is within its own tol_eps of its true value
    for spec in (example2_spec(rep_gen(2)), example1_spec(spc_gen(3), spc_gen(3))):
        (lo, hi), _ = ExitEngine(spec).threshold(tol_eps=1e-3)
        bound = stability_bound(build_matrices(spec), tol_eps=1e-6)
        assert 0.5 * (lo + hi) <= bound + 1e-3 + 1e-6


def test_trajectory_indexing_and_initial_state():
    spec = ldpc_spec(3, 6)
    engine = ExitEngine(spec)
    eps = 0.3
    rows = []
    last = engine.run(eps, record=rows.extend)
    traj = np.array(rows)
    assert last == ProbeOutcome(eps, "tol", len(traj) - 1)
    assert traj.shape == (last.iteration + 1, spec.n_edge_types)
    # row 0 is the VN update applied to an all-unknown prior
    assert abs(traj[0, 0] - (1 - eps)) < 1e-15
    # row i is iteration i: each row is one step from the one before
    for i in range(1, len(traj)):
        assert np.array_equal(traj[i], engine.step(traj[i - 1], eps))
    # the last row is the first to meet the convergence test
    assert traj[-1].min() >= 1.0 - 1e-10 > traj[-2].min()


def test_flushed_run_hands_over_every_row_in_bounded_chunks():
    # a recorded run keeps at most _FLUSH_ROWS rows: the chunks are full but
    # the last, and together they are the trajectory of a plain stepwise loop
    from metdg.exitchart import _FLUSH_ROWS

    engine = ExitEngine(example1_spec(spc_gen(3), spc_gen(3)))
    for eps, max_iters in ((0.499, 20000), (0.4999999, 2 * _FLUSH_ROWS - 1), (0.3, 20000)):
        chunks = []
        got = engine.run(eps, max_iters, 1e-10, lambda rows: chunks.append(list(rows)))
        want, trajectory = stepwise_run(engine, eps, max_iters=max_iters, record=True)
        assert got == want
        assert [len(c) for c in chunks[:-1]] == [_FLUSH_ROWS] * (len(chunks) - 1)
        assert 0 < len(chunks[-1]) <= _FLUSH_ROWS
        assert sum(chunks, []) == trajectory


def test_step_matches_tensordot_oracle():
    rng = np.random.default_rng(91)
    specs = [random_eligible_spec(rng) for _ in range(8)] + [dgldpc_spec(), fig1_spec()]
    for spec in specs:
        engine = ExitEngine(spec)
        for _ in range(6):
            x = rng.random(spec.n_edge_types)
            eps = float(rng.random())
            got = np.array(engine.step(x, eps))
            assert np.max(np.abs(got - tensordot_step(spec, x, eps))) <= 1e-13
        for x in (np.zeros(spec.n_edge_types), np.ones(spec.n_edge_types)):
            for eps in (0.0, 1.0):
                got = np.array(engine.step(x, eps))
                assert np.max(np.abs(got - tensordot_step(spec, x, eps))) <= 1e-13


_DE_SPECS = {
    "ldpc36": (lambda: ldpc_spec(3, 6), 20000),
    "ex1_spc3": (lambda: example1_spec(spc_gen(3), spc_gen(3)), 20000),
    "ex2_rep3": (lambda: example2_spec(rep_gen(3)), 20000),
    "dgldpc": (dgldpc_spec, 20000),
}


@pytest.mark.parametrize("name", sorted(_DE_SPECS))
def test_certificate_never_changes_a_probe_outcome(name):
    make, max_iters = _DE_SPECS[name]
    engine = ExitEngine(make())
    n_e = engine.n_edge_types
    if name == "ex1_spc3":
        _check_stability_limited_search(engine, max_iters)
        return
    (lo, hi), probes = engine.threshold(tol_eps=1e-5, max_iters=max_iters)
    th = 0.5 * (lo + hi)
    assert (th, sum(probes.values())) == stall_only_threshold(
        engine.step, n_e, tol_eps=1e-5, max_iters=max_iters
    )
    grid = [float(e) for e in np.linspace(0.05, 0.95, 7)]
    grid += [th + d for d in (-1e-5, -2e-6, 2e-6, 1e-5)]
    for eps in grid:
        converged = engine.run(eps, max_iters=max_iters).outcome == "converged"
        assert converged == stall_only_run(engine.step, n_e, eps, max_iters=max_iters)[0], eps


def _check_stability_limited_search(engine, max_iters):
    """ex1_spc3's threshold is 1/2, its stability bound.  Within 1e-3 of it
    the stall-only oracle decides nothing at any practical cap, so there the
    bracket pins the basin certificate and the stability cap; every probe
    of the plain bisection and every grid point further away must agree
    with the oracle, which decides each of them within max_iters."""
    runs = []
    probe = engine.run

    def recording_probe(eps, *args):
        runs.append(eps)
        return probe(eps, *args)

    # threshold's runs
    engine.run = recording_probe
    (lo, hi), counts = engine.threshold(tol_eps=1e-5, max_iters=max_iters)
    del engine.run
    assert lo < 0.5 < hi and hi - lo <= 2e-5
    # the run at the top cell's lower end converges and decides all 15 steps
    assert counts == {"converged": 15, "stuck": 0, "undecided": 0} and len(runs) == 1
    bracket, plain_counts, plain_probes = plain_threshold(engine, tol_eps=1e-5, max_iters=max_iters)
    assert (bracket, plain_counts) == ((lo, hi), counts)
    grid = [p.epsilon for p in plain_probes] + [float(e) for e in np.linspace(0.05, 0.95, 7)]
    probes = [(eps, engine.run(eps, max_iters=max_iters)) for eps in grid + [0.499, 0.501]]
    far = [(eps, outcome) for eps, outcome in probes if abs(eps - 0.5) >= 1e-3]
    assert {outcome.reason for _, outcome in far} >= {"basin", "unstable"}
    for eps, outcome in far:
        converged, iters = stall_only_run(engine.step, engine.n_edge_types, eps, max_iters=max_iters)
        assert iters < max_iters, eps
        assert (outcome.outcome == "converged") == converged, eps


def test_basin_and_cap_agree_with_deciding_oracle_on_random_specs():
    # random eligible specs whose P(eps)C does not vanish, at grid points the
    # stall-only oracle decides within its cap
    rng = np.random.default_rng(131)
    specs = [random_eligible_spec(rng) for _ in range(16)]
    specs = [spec for spec in specs if not build_matrices(spec).vanishes()]
    assert len(specs) >= 8
    checked = set()
    for spec in specs:
        engine = ExitEngine(spec)
        for eps in np.linspace(0.05, 0.95, 10):
            outcome = engine.run(float(eps), max_iters=5000)
            converged, iters = stall_only_run(engine.step, spec.n_edge_types, float(eps), max_iters=5000)
            if iters < 5000:
                assert (outcome.outcome == "converged") == converged, (spec, eps)
                checked.add(outcome.reason)
    assert checked >= {"basin", "unstable", "super-solution"}


def test_every_state_in_a_certified_basin_converges():
    # the basin is {x >= lines}; by monotonicity of the step its corner
    # x = lines is the hardest state in it, so the iteration from the
    # corner must reach the all-known state.  Specs where local stability
    # does not limit the threshold put a stuck fixed point close to 0 just
    # below their stability bound, where an oversized basin would hold it.
    rng = np.random.default_rng(17)
    specs = [irregular_ldpc_spec(0.5)[0], example2_spec(pair_code_gen()), example2_spec(rep_gen(2))]
    specs += [spec for spec in (random_eligible_spec(rng) for _ in range(12))
              if not build_matrices(spec).vanishes()]
    built = 0
    for spec in specs:
        engine = ExitEngine(spec)
        sm = build_matrices(spec)
        for eps in np.linspace(0.05, 0.95, 37):
            if sm.sigma(float(eps)) > 0.99:
                continue
            lines = engine._basin(float(eps), _verdict(sm, float(eps), solve=True)[1])[1]()
            if max(lines) == 2.0:
                continue
            built += 1
            x = np.array(lines)
            for _ in range(5000):
                x = np.array(engine.step(x, float(eps)))
                if x.min() >= 1.0 - 1e-10:
                    break
            assert x.min() >= 1.0 - 1e-10, (spec, eps)
    assert built >= 50


def test_basin_ray_is_positive_and_contracted_by_the_linear_step(monkeypatch):
    # the floats v^ that _basin hands to the exact test satisfy v^ > 0,
    # max v^ = 1 and (I - P(eps)C) v^ > 0 in rationals: the ray along which
    # the step starts below the identity, as its docstring derives
    handed = []
    monkeypatch.setattr(ExitEngine, "_certified_bound", lambda self, *args: handed.append(args))
    rng = np.random.default_rng(23)
    specs = [example1_spec(spc_gen(3), spc_gen(3)), example2_spec(rep_gen(3))]
    specs += [spec for spec in (random_eligible_spec(rng) for _ in range(12))
              if not build_matrices(spec).vanishes()]
    checked = 0
    for spec in specs:
        engine, sm = ExitEngine(spec), build_matrices(spec)
        for eps in np.linspace(0.02, 1.0, 50):
            eps = float(eps)
            verdict, v = _verdict(sm, eps, solve=True)
            if verdict != "stable":
                continue
            engine._basin(eps, v)[1]()
            ray, at = handed.pop()
            assert at == eps
            ray = [Fraction(t) for t in ray]
            product = exact_stability_product(sm, eps)
            assert min(ray) > 0 and max(ray) == 1, (spec, eps)
            assert all(a > sum(map(mul, row, ray)) for row, a in zip(product, ray)), (spec, eps)
            checked += 1
    assert checked >= 300


def test_recorded_runs_take_no_early_exit():
    engine = ExitEngine(example1_spec(spc_gen(3), spc_gen(3)))
    assert engine.run(0.75).reason == "unstable"
    trajectory = []
    outcome = engine.run(0.75, record=trajectory.extend)
    assert outcome.reason == "stall" and len(trajectory) == outcome.iteration + 1
    assert engine.run(0.499, max_iters=100).reason == "basin"
    trajectory = []
    outcome = engine.run(0.499, max_iters=100, record=trajectory.extend)
    assert outcome == ProbeOutcome(0.499, "max_iters", 100)
    assert len(trajectory) == 101


def test_probe_outcome_is_an_immutable_value():
    probe = ProbeOutcome(0.42, "basin", 7)
    assert probe == ProbeOutcome(epsilon=0.42, reason="basin", iteration=7)
    assert hash(probe) == hash(ProbeOutcome(0.42, "basin", 7))
    assert probe != probe._replace(iteration=8)
    assert ProbeOutcome._fields == ("epsilon", "reason", "iteration")
    assert probe.outcome == "converged" and probe._replace(reason="stall").outcome == "stuck"
    for attr in ("reason", "extra"):
        with pytest.raises(AttributeError):
            setattr(probe, attr, "tol")


def test_marginal_point_is_left_to_the_run():
    # at the bound itself neither early decision applies
    engine = ExitEngine(example1_spec(spc_gen(3), spc_gen(3)))
    assert engine.run(0.5, max_iters=50) == ProbeOutcome(0.5, "max_iters", 50)


def test_probes_next_to_the_bound_end_in_the_basin():
    # the exact verdict calls these "stable"; float sigma lies within 1e-12
    # of 1 here, and the iterates alone would crawl past any cap
    engine = ExitEngine(example1_spec(spc_gen(3), spc_gen(3)))
    for eps in (0.5 - 2**-53, 0.5 - 1e-13):
        assert engine.run(eps).reason == "basin"


@pytest.mark.parametrize(
    "spec, eps",
    [
        (example1_spec(spc_gen(3), spc_gen(4)), 0.40824829046386296),
        (example2_spec(pair_code_gen()), 0.49999999999999994),
    ],
    ids=["ex1_spc3_spc4", "ex2_pair"],
)
def test_stable_probe_with_float_sigma_at_one_ends_in_the_basin(spec, eps):
    # stable by the exact verdict, yet LAPACK's sigma reads 1: the solution v
    # of (I - P(eps)C) v = 1 reaches about 2**53, so the linear step moves
    # the ray v^ = v / max(v) by only 1 / max(v).  The exact ray proof still
    # covers the first state, so the run ends at once
    sm = build_matrices(spec)
    assert stability_verdict(sm, eps) == "stable" and lapack_sigma(sm, eps) >= 1.0
    engine = ExitEngine(spec)
    start = time.perf_counter()
    assert engine.run(eps, max_iters=2000) == ProbeOutcome(eps, "basin", 0)
    assert time.perf_counter() - start < 0.5


def test_line_is_the_smallest_double_at_or_above_one_minus_b():
    # a float x has x >= _line(b) exactly when 1 - x <= b, which is what lets
    # the DE loop test basin membership on floats
    from math import inf, nextafter

    from metdg.exitchart import _line

    rng = np.random.default_rng(44)
    bs = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(3, 2**60), Fraction(2**53 - 1, 2**53)]
    bs += [Fraction(int(a), int(a) + int(b)) for a, b in rng.integers(1, 2**62, size=(500, 2))]
    bs += [Fraction(1, int(q)) for q in rng.integers(2, 2**62, size=100)]
    for b in bs:
        line = _line(b)
        assert Fraction(line) >= 1 - b > Fraction(nextafter(line, -inf)), b


@pytest.mark.parametrize(
    "coeffs, root",
    [
        ([Fraction(1, 4), Fraction(-1)], 0.25),  # 1/4 - c
        ([Fraction(1, 100), Fraction(-3, 5), Fraction(1)], 0.3 - 0.08**0.5),  # c^2 - 0.6c + 0.01
        ([Fraction(1, 10), Fraction(-3, 5), Fraction(1)], None),  # (c - 0.3)^2 + 0.01
        ([Fraction(-1, 10), Fraction(1)], 0.0),  # negative at 0
        ([Fraction(0), Fraction(1)], 0.0),  # c: nonnegative, but zero at 0
    ],
)
def test_bernstein_share_is_a_nonnegative_prefix(coeffs, root):
    from metdg.exitchart import _bernstein, _positive_share

    depth = 30
    got = _positive_share(_bernstein(coeffs, Fraction(1)), depth)
    if root is None:
        assert got == 1
    else:
        # the share stops at or short of the first root, by at most the
        # resolution of the halvings
        assert root - 2.0**-depth <= got <= root
    # the polynomial is positive on the share, its right end excluded
    for k in range(200 if got else 0):
        c = got * Fraction(k, 200)
        assert sum(a * c**j for j, a in enumerate(coeffs)) > 0


def test_ray_with_no_linear_margin_gets_no_basin():
    # at the marginal point 1/2 of the two-bank (3,2)-SPC ensemble, P(eps)C
    # swaps the two types, so it fixes v^ = (1, 1) and the ray proof's first
    # Bernstein coefficients are 0.  Its others are nonnegative, so only the
    # strict test refuses the basin
    engine = ExitEngine(example1_spec(spc_gen(3), spc_gen(3)))
    assert engine._certified_bound([1.0, 1.0], 0.5) is None
    assert engine._basin(0.5, [Fraction(3), Fraction(3)])[1]() == (2.0, 2.0)


def _draw(seed: int, k: int):
    """rngSx: the k-th draw of random_eligible_spec(default_rng(seed), max_sockets=12)."""
    rng = np.random.default_rng(seed)
    for _ in range(k):
        spec = random_eligible_spec(rng, max_sockets=12)
    return spec


def test_threshold_at_a_closed_form_stability_bound_is_decided():
    # rng5b: one edge type with P(eps)C = 12 eps / 11 + 6 eps^2 / 11, whose
    # threshold is its stability bound sqrt(102) / 6 - 1.  The probes below
    # it converge at a rate that tends to 1, so the ray basin decides them
    (lo, hi), counts = ExitEngine(_draw(5, 2)).threshold()
    assert counts["undecided"] == 0
    assert lo <= 102**0.5 / 6 - 1 <= hi


def test_threshold_next_to_a_three_type_stability_bound_is_decided():
    # rng10b: a probe at 0.408724755 converges after tens of thousands of
    # steps, and the stability bound is 0.4087353
    (lo, hi), counts = ExitEngine(_draw(10, 2)).threshold()
    assert counts["undecided"] == 0
    assert 0.408724755 <= lo <= 0.4087353


_SEARCH_SPECS = {
    "ldpc36": lambda: ldpc_spec(3, 6),
    "ex1_spc3": lambda: example1_spec(spc_gen(3), spc_gen(3)),
    "ex2_rep3": lambda: example2_spec(rep_gen(3)),
    "dgldpc": dgldpc_spec,
    "wide": wide_spec,
    "rng5b": lambda: _draw(5, 2),
    "rng10b": lambda: _draw(10, 2),
    "rng1e": lambda: _draw(1, 5),
}
# DE runs of a search whose threshold lies in the top two cells: the first
# run that is not stuck decides every step below it
_SEARCH_RUNS = {"ex1_spc3": 1, "wide": 1, "rng5b": 2, "rng10b": 2}


@pytest.mark.parametrize("name", sorted(_SEARCH_SPECS))
def test_threshold_equals_the_plain_bisection(name):
    # threshold() infers a step from an earlier run where monotonicity in eps
    # decides it; its bracket and per-step counts are those of the bisection
    # that runs every step, with at most two runs more (rng1e has an
    # undecided step, which only its own run decides)
    engine = ExitEngine(_SEARCH_SPECS[name]())
    runs = []
    probe = engine.run

    def counted(eps, *args):
        runs.append(eps)
        return probe(eps, *args)

    engine.run = counted
    got = engine.threshold()
    del engine.run
    bracket, counts, probes = plain_threshold(engine)
    assert got == (bracket, counts)
    assert len(set(runs)) == len(runs) <= len(probes) + 2
    assert len(runs) == _SEARCH_RUNS.get(name, len(runs))


@pytest.mark.parametrize("numpy_side", [False, True], ids=["generated", "numpy"])
def test_run_matches_a_stepwise_loop(numpy_side, monkeypatch):
    # run steps in a generated loop; its outcomes and rows are those of a
    # plain loop over step, bit for bit, with either kind of half.  The small
    # caps pin the first state and a super-solution check on the cap.
    from metdg.exitchart import _CERT_FIRST, _OUTCOME_OF

    caps = (0, 1, _CERT_FIRST, _CERT_FIRST + 1, 3 * _CERT_FIRST)
    runs = [(False, 3000), (True, 150)] + [(record, cap) for record in (False, True) for cap in caps]

    if numpy_side:
        monkeypatch.setattr("metdg.exitchart._KERNEL_MAX_ENTRIES", -1)
    rng = np.random.default_rng(15)
    specs = [random_eligible_spec(rng, n_edge_types=n) for n in (1, 2, 3) for _ in range(2)]
    specs += [ldpc_spec(3, 6), example1_spec(spc_gen(3), spc_gen(3)), dgldpc_spec()]
    reasons = set()
    for spec in specs:
        engine = ExitEngine(spec)
        assert engine._vn.generated() != numpy_side
        (lo, hi), _ = engine.threshold(tol_eps=1e-3, max_iters=400)
        near = 0.5 * (lo + hi)
        around = (near - 0.01, near - 1e-4, near + 1e-4, near + 0.01)
        for eps in (0.0, 0.2, *(e for e in around if 0.0 < e < 1.0), 0.7, 1.0):
            for record, max_iters in runs:
                rows = []
                got = engine.run(eps, max_iters=max_iters, record=rows.extend if record else None)
                want, want_rows = stepwise_run(engine, eps, max_iters=max_iters, record=record)
                assert got == want, (spec, eps, record)
                assert np.array(rows).shape == np.array(want_rows).shape
                assert np.array(rows).tobytes() == np.array(want_rows).tobytes(), (spec, eps, record)
                reasons.add(got.reason)
    assert reasons == set(_OUTCOME_OF)


def test_loop_inlines_generated_halves_and_calls_a_numpy_half():
    # a generated half is written into the loop, a wide one is called as its
    # numpy contraction; either way the recorded rows are those of a stepwise loop
    from metdg.exitchart import _advance_source

    for spec, called in ((example1_spec(spc_gen(3), spc_gen(3)), set()), (wide_spec(), {"cn"})):
        engine = ExitEngine(spec)
        assert {name for name in ("cn", "vn") if not getattr(engine, f"_{name}").generated()} == called
        source = _advance_source(engine.n_edge_types, engine._cn, engine._vn)
        for name in ("cn", "vn"):
            assert (f" {name}((" in source) == (name in called)
            assert (f" {name}_v0_0 = " in source) != (name in called)
        # the channel's weights are computed once, before the loop
        head, loop = source.split("while True:")
        assert "eps" not in loop.replace("eps, line", "")
        assert "vn_w" in head
        for eps, max_iters in ((0.05, 200), (0.3, 60)):
            rows = []
            got = engine.run(eps, max_iters=max_iters, record=rows.extend)
            want, want_rows = stepwise_run(engine, eps, max_iters=max_iters, record=True)
            assert got == want and np.array(rows).tobytes() == np.array(want_rows).tobytes(), (spec, eps)


def test_integer_basin_proof_matches_fractions(monkeypatch):
    certify = ExitEngine._certified_bound
    proofs = []

    def compared(self, *args):
        got = certify(self, *args)
        assert got == fraction_certified_bound(self, *args), args
        proofs.append(got is not None)
        return got

    monkeypatch.setattr(ExitEngine, "_certified_bound", compared)
    rng = np.random.default_rng(36)
    specs = [example1_spec(spc_gen(3), spc_gen(3)), example2_spec(rep_gen(3))]
    specs += [random_eligible_spec(rng, n_edge_types=n) for n in (1, 2, 3) for _ in range(2)]
    # the plain bisection's probes: threshold() runs few of them
    for spec in specs:
        plain_threshold(ExitEngine(spec), tol_eps=1e-4, max_iters=2000)
    assert len(proofs) >= 30 and all(proofs)


def test_certificate_stops_a_stuck_dgldpc_run_early():
    engine = ExitEngine(dgldpc_spec())
    (lo, hi), _ = engine.threshold()
    eps = 0.5 * (lo + hi) + 1e-4
    outcome = engine.run(eps)
    oracle_converged, oracle_iters = stall_only_run(engine.step, 2, eps)
    assert outcome.outcome != "converged" and not oracle_converged
    assert outcome.reason == "super-solution"
    assert outcome.iteration < oracle_iters
    # a recorded run never takes the certificate's exit
    trajectory = []
    engine.run(eps, record=trajectory.extend)
    assert len(trajectory) == oracle_iters + 1


def _spc_spec(n_sockets: int, n_edge_types: int):
    """One SPC CN whose sockets spread evenly over the edge types, and a
    degree-2 repetition VN type per edge type."""
    per = n_sockets // n_edge_types
    sockets = tuple(l + 1 for l in range(n_edge_types) for _ in range(per))
    cn = CnType("spc", spc_gen(n_sockets), sockets, 2)
    vns = [VnType(f"rep{l}", rep_gen(2), (1,), (l + 1, l + 1), per) for l in range(n_edge_types)]
    return build_spec(n_edge_types, vns, [cn])


def _entries(half) -> int:
    return sum(len(arr) for parts in half.parts for _, _, _, arr, _ in parts)


def _kernel(half):
    """A half as a function of (state tuple, eps) that returns a tuple of
    floats, as the DE loop evaluates it: its _kernel_source compiled alone
    for a generated half, else its numpy contraction."""
    from metdg.exitchart import _checked, _names

    if not half.generated():
        return half.contraction()
    setup, body = half._kernel_source("x", "o", "")
    n_e = half.n_edge_types
    lines = [f"{_names('x', n_e)}= x", *setup, *body, f"return ({_names('o', n_e)})"]
    source = "def kernel(x, eps):\n" + "".join(f"    {line}\n" for line in lines)
    namespace = {"_checked": _checked}
    exec(compile(source, "<exit kernel>", "exec"), namespace)
    return namespace["kernel"]


def test_compiled_halves_match_the_numpy_contraction():
    from metdg.exitchart import _KERNEL_MAX_ENTRIES

    rng = np.random.default_rng(29)
    specs = [random_eligible_spec(rng, n_edge_types=n) for n in (1, 2, 3) for _ in range(4)]
    below, above = _spc_spec(12, 4), _spc_spec(16, 4)
    specs += [fig1_spec(), below, above]
    sizes = {}
    for spec in specs:
        engine = ExitEngine(spec)
        for half, eps in ((engine._cn, None), (engine._vn, 0.0)):
            kernel = _kernel(half)
            generated = kernel.__code__.co_filename == "<exit kernel>"
            assert generated == (_entries(half) <= _KERNEL_MAX_ENTRIES)
            sizes[generated] = max(sizes.get(generated, 0), _entries(half))
            for _ in range(20):
                x = rng.random(spec.n_edge_types)
                if eps is not None:
                    eps = float(rng.random())
                got = kernel(tuple(x.tolist()), eps)
                assert type(got) is tuple and all(type(v) is float for v in got)
                want = np.array(half.contraction()(x, eps))
                assert np.max(np.abs(np.array(got) - want)) <= 1e-15, spec
    # the SPC(12) CN over 4 edge types is generated, the SPC(16) one is not
    assert _entries(ExitEngine(below)._cn) <= _KERNEL_MAX_ENTRIES < _entries(ExitEngine(above)._cn)
    assert sizes[True] > 700 and sizes[False] > _KERNEL_MAX_ENTRIES


def test_an_all_punctured_vn_and_a_cn_of_its_code_make_the_same_parts():
    # A VN differs from a CN only by its transmitted bits: with every bit
    # punctured (as fig1's "state" VN is), its table's channel axis has
    # length one and its parts are those of a CN of the same code.  The
    # Hamming(7,4) tables over 2 edge types have shapes (5, 4, 1) and (5, 4).
    ham74 = GF2Matrix.from_rows(
        [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
    )
    sockets = (1, 2, 1, 1, 2, 1, 2)
    vns = [VnType("punctured", ham74, (0,) * 4, sockets, 3)]
    vns += [VnType(f"v{l}", rep_gen(2), (1,), (l, l), 1) for l in (1, 2)]
    cns = [CnType("check", ham74, sockets, 3)]
    cns += [CnType(f"c{l}", rep_gen(2), (l, l), 1) for l in (1, 2)]
    engine = ExitEngine(build_spec(2, vns, cns))
    for e0 in range(2):
        (_, _, vn_sockets, vn_arr, vn_kept), *_ = engine._vn.parts[e0]
        (_, _, cn_sockets, cn_arr, cn_kept), *_ = engine._cn.parts[e0]
        assert (vn_sockets, vn_arr) == (cn_sockets, cn_arr)
        assert [engine._vn._axes[k] for k in vn_kept] == [engine._cn._axes[k] for k in cn_kept]
        assert len(vn_kept) == 2


@pytest.mark.parametrize("numpy_side", [False, True], ids=["generated", "numpy"])
def test_corrupted_coefficient_still_raises(numpy_side, monkeypatch):
    # a coefficient tripled pushes the CN output of the all-unknown state
    # to 1 - 3 = -2, far outside [0, 1]
    if numpy_side:
        monkeypatch.setattr("metdg.exitchart._KERNEL_MAX_ENTRIES", -1)
    engine = ExitEngine(ldpc_spec(3, 6))
    assert _kernel(engine._cn)((0.0,), None) == (0.0,)
    arr = engine._cn.parts[0][0][3]
    arr[:] = [3 * c for c in arr]
    with pytest.raises(InternalError, match="left \\[0,1\\]"):
        _kernel(engine._cn)((0.0,), None)
    # the engine's loop, compiled on its first step, inlines or binds the
    # corrupted half too
    with pytest.raises(InternalError, match="left \\[0,1\\]"):
        engine.step((0.0,), 0.3)


def test_type_names_stay_out_of_the_generated_code():
    names = ['a"b', "c'd", "e\\f", "g\nh", "'''\"\"\""]
    vns = [VnType(names[0], rep_gen(3), (1,), (1, 1, 1), 4)]
    cns = [CnType(names[1], spc_gen(6), (1,) * 6, 2)]
    spec = build_spec(1, vns, cns)
    plain = ldpc_spec(3, 6)
    engine, reference = ExitEngine(spec), ExitEngine(plain)
    assert np.array_equal(engine.step([0.3], 0.4), reference.step([0.3], 0.4))
    assert engine.threshold(tol_eps=1e-4) == reference.threshold(tol_eps=1e-4)
    two = example2_spec(rep_gen(3))
    renamed = build_spec(
        2,
        [VnType(n, vn.generator, vn.puncture, vn.socket_types, vn.count) for n, vn in zip(names[2:], two.vn_types)],
        [CnType(names[4], cn.generator, cn.socket_types, cn.count) for cn in two.cn_types],
    )
    assert ExitEngine(renamed).run(0.6) == ExitEngine(two).run(0.6)


def _probe_log(engine, certified):
    """The threshold search's probes, each with the number of exact basin
    proofs its run made (the length of certified grows by one per proof)."""
    log = []
    probe = engine.run

    def recording_probe(eps, *args):
        before = len(certified)
        outcome = probe(eps, *args)
        log.append((outcome, len(certified) - before))
        return outcome

    engine.run = recording_probe
    engine.threshold()
    return log


def test_exact_basin_is_built_only_when_a_state_comes_near_it(monkeypatch):
    spec = example2_spec(rep_gen(3))
    certified = []
    certify = ExitEngine._certified_bound

    def counting_certify(self, *args):
        certified.append(args)
        return certify(self, *args)

    monkeypatch.setattr(ExitEngine, "_certified_bound", counting_certify)
    lazy = _probe_log(ExitEngine(spec), certified)
    # the same probes with every basin certified at the start of its probe
    basin = ExitEngine._basin

    def eager_basin(self, *args):
        return basin(self, *args)[1](), None

    monkeypatch.setattr(ExitEngine, "_basin", eager_basin)
    eager = _probe_log(ExitEngine(spec), certified)
    assert [probe for probe, _ in lazy] == [probe for probe, _ in eager]
    assert all(n == 1 for _, n in eager)
    stuck = [n for probe, n in lazy if probe.outcome == "stuck"]
    assert len(stuck) >= 5 and not any(stuck)
    assert all(n == 1 for probe, n in lazy if probe.reason == "basin")
