import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from metdg import (
    CnType,
    ExitEngine,
    GF2Matrix,
    ProbeOutcome,
    ValidationError,
    VnType,
    build_spec,
    stability_bound,
    stability_verdict,
)
from metdg.stability import build_matrices

from conftest import (
    dgldpc_spec,
    example1_spec,
    example2_spec,
    fig1_spec,
    irregular_ldpc_spec,
    ldpc_spec,
    pair_code_gen,
    random_component_code,
    random_eligible_spec,
    rep_gen,
    spc_gen,
)
from naive_oracles import (
    central_difference_jacobian,
    scalar_de_converges,
    scalar_de_threshold,
    semantic_extrinsic_known_probability,
    stall_only_run,
    stall_only_threshold,
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
                assert np.all(engine.step(np.ones(len(used)), eps) == 1.0)


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
    assert np.all(engine.step([1.0, 1.0], 1.0) == 1.0)


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
                q_e = spec.vn_socket_counts[i][e0]
                if q_e == 0:
                    continue
                arr = _exit_coefficients(table, e0, q_e)
                first = arr[(0,) * spec.n_edge_types]
                assert np.all(first == 0.0)


def test_step_fixed_point_at_one():
    rng = np.random.default_rng(12)
    for _ in range(5):
        spec = random_eligible_spec(rng)
        engine = ExitEngine(spec)
        ones = np.ones(spec.n_edge_types)
        for eps in np.linspace(0.05, 0.95, 7):
            out = engine.step(ones, eps)
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
    conv, traj, _ = ExitEngine(ldpc_spec(3, 6)).run(0.0, record=True)
    assert conv
    assert traj[0, 0] == 1.0


def test_step_at_zero_epsilon_reaches_one_from_any_state():
    rng = np.random.default_rng(61)
    for _ in range(5):
        spec = random_eligible_spec(rng)
        engine = ExitEngine(spec)
        x = rng.random(spec.n_edge_types)
        assert np.all(engine.step(x, 0.0) == 1.0)


def test_tiny_epsilon_converges_on_eligible_specs():
    rng = np.random.default_rng(62)
    for _ in range(3):
        spec = random_eligible_spec(rng)
        conv, _, _ = ExitEngine(spec).run(1e-6)
        assert conv


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
            fx = engine.step(x, e2)
            fy = engine.step(y, e2)
            assert np.all(fy >= fx - 1e-12)
            assert np.all(engine.step(x, e1) >= fx - 1e-12)


def test_run_to_fixed_point_around_ldpc_threshold():
    engine = ExitEngine(ldpc_spec(3, 6))
    conv_below, _, _ = engine.run(0.30, record=True)
    conv_above, traj, _ = engine.run(0.50, record=True)
    assert conv_below
    assert not conv_above
    # the recorded trajectory climbs monotonically toward its stuck point
    vals = traj[:, 0].tolist()
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
        conv, _, _ = engine.run(float(eps))
        assert conv == scalar_de_converges(float(eps), 3, 6)


def test_jacobian_example1_closed_form():
    spec = example1_spec(spc_gen(3), spc_gen(3))
    engine = ExitEngine(spec)
    for eps in (0.1, 0.35, 0.8):
        jac = engine.jacobian(np.ones(2), eps)
        want = np.array([[0.0, 2 * eps], [2 * eps, 0.0]])
        assert np.abs(jac - want).max() < 1e-6


def test_jacobian_matches_stability_product_example2():
    spec = example2_spec(pair_code_gen())
    sm = build_matrices(spec)
    engine = ExitEngine(spec)
    for eps in (0.2, 0.5, 0.9):
        jac = engine.jacobian(np.ones(2), eps)
        assert np.abs(jac - sm.product(eps)).max() < 1e-6


def test_jacobian_scalar_irregular_ldpc():
    spec, lam2, rho_prime = irregular_ldpc_spec(0.2)
    engine = ExitEngine(spec)
    for eps in (0.1, 0.4, 0.7):
        jac = engine.jacobian(np.ones(1), eps)
        assert abs(jac[0, 0] - eps * lam2 * rho_prime) < 1e-6


def test_jacobian_zero_column_when_no_weight2_paths():
    # bank1 CNs have distance 3, so no weight-2 path reacts to edge type 1
    spec = example1_spec(rep_gen(3), spc_gen(3))
    jac = ExitEngine(spec).jacobian(np.ones(2), 0.5)
    assert np.abs(jac[:, 0]).max() < 1e-6
    assert jac[0, 1] > 0.1


@pytest.mark.parametrize(
    "call",
    [
        lambda e: e.step([1.0], float("nan")),
        lambda e: e.step([1.0], 1.5),
        lambda e: e.step([1.0], -0.1),
        lambda e: e.jacobian([1.0], float("nan")),
        lambda e: e.jacobian([1.0], 1.5),
        lambda e: e.jacobian([1.5], 0.3),
        lambda e: e.jacobian([-0.5], 0.3),
        lambda e: e.jacobian([float("nan")], 0.3),
        lambda e: e.step([2.0], 0.3),
        lambda e: e.step([float("nan")], 0.3),
        lambda e: e.step([0.5, 0.5], 0.3),
        lambda e: e.jacobian([0.5, 0.5], 0.3),
        lambda e: e.step(["x"], 0.3),
    ],
    ids=["step-nan", "step-high", "step-low", "jac-nan", "jac-high", "jac-state-high",
         "jac-state-low", "jac-state-nan", "step-state-high", "step-state-nan",
         "step-state-shape", "jac-state-shape", "step-state-text"],
)
def test_step_and_jacobian_reject_bad_inputs(call):
    with pytest.raises(ValidationError):
        call(ExitEngine(ldpc_spec(3, 6)))


def test_jacobian_interior_point_positive():
    spec = ldpc_spec(3, 6)
    engine = ExitEngine(spec)
    jac = engine.jacobian(np.array([0.5]), 0.3)
    assert jac[0, 0] > 0


def test_jacobian_matches_central_differences():
    # interior points and every corner of the unit box, on the punctured
    # fig1 ensemble, the D-GLDPC one and random eligible ones
    rng = np.random.default_rng(93)
    specs = [fig1_spec(), dgldpc_spec()] + [random_eligible_spec(rng) for _ in range(4)]
    for spec in specs:
        engine = ExitEngine(spec)
        n_e = spec.n_edge_types
        points = [rng.uniform(0.05, 0.95, n_e) for _ in range(4)]
        points += [np.array(c, dtype=float) for c in itertools.product((0.0, 1.0), repeat=n_e)]
        for x in points:
            for eps in (0.0, float(rng.random()), 1.0):
                want = central_difference_jacobian(engine.step, x, eps)
                assert np.abs(engine.jacobian(x, eps) - want).max() <= 1e-6


def test_threshold_never_exceeds_stability_bound():
    # local stability is necessary for convergence, so the bound caps the
    # threshold; for the distance-3 outer code the bound is vacuous while
    # the threshold stays well inside (0, 1)
    spec = example2_spec(rep_gen(3))
    (lo, hi), _ = ExitEngine(spec).threshold(tol_eps=1e-3)
    assert stability_bound(spec) is None
    assert 0.3 < 0.5 * (lo + hi) < 1.0

    # each result is within its own tol_eps of its true value
    for spec in (example2_spec(rep_gen(2)), example1_spec(spc_gen(3), spc_gen(3))):
        (lo, hi), _ = ExitEngine(spec).threshold(tol_eps=1e-3)
        bound = stability_bound(spec, tol_eps=1e-6)
        assert 0.5 * (lo + hi) <= bound + 1e-3 + 1e-6


def test_trajectory_indexing_and_initial_state():
    spec = ldpc_spec(3, 6)
    engine = ExitEngine(spec)
    eps = 0.3
    conv, traj, last = engine.run(eps, record=True)
    assert last == ProbeOutcome(eps, "tol", len(traj) - 1)
    assert traj.shape == (last.iteration + 1, spec.n_edge_types)
    # row 0 is the VN update applied to an all-unknown prior
    assert abs(traj[0, 0] - (1 - eps)) < 1e-15
    # row i is iteration i: each row is one step from the one before
    for i in range(1, len(traj)):
        assert np.array_equal(traj[i], engine.step(traj[i - 1], eps))
    # the last row is the first to meet the convergence test
    assert traj[-1].min() >= 1.0 - 1e-10 > traj[-2].min()


def test_step_matches_tensordot_oracle():
    rng = np.random.default_rng(91)
    specs = [random_eligible_spec(rng) for _ in range(8)] + [dgldpc_spec(), fig1_spec()]
    for spec in specs:
        engine = ExitEngine(spec)
        for _ in range(6):
            x = rng.random(spec.n_edge_types)
            eps = float(rng.random())
            got = engine.step(x, eps)
            assert np.max(np.abs(got - tensordot_step(spec, x, eps))) <= 1e-13
        for x in (np.zeros(spec.n_edge_types), np.ones(spec.n_edge_types)):
            for eps in (0.0, 1.0):
                assert np.max(np.abs(engine.step(x, eps) - tensordot_step(spec, x, eps))) <= 1e-13


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
        converged, _, _ = engine.run(eps, max_iters=max_iters)
        assert converged == stall_only_run(engine.step, n_e, eps, max_iters=max_iters)[0], eps


def _check_stability_limited_search(engine, max_iters):
    """ex1_spc3's threshold is 1/2, its stability bound.  Within 1e-3 of it
    the stall-only oracle decides nothing at any practical cap, so there the
    bracket pins the basin certificate and the stability cap; every probe
    and grid point further away must agree with the oracle, which decides
    each of them within max_iters."""
    probes = []
    run = engine.run

    def recording_run(eps, **kwargs):
        result = run(eps, **kwargs)
        probes.append((eps, result[2]))
        return result

    engine.run = recording_run
    (lo, hi), counts = engine.threshold(tol_eps=1e-5, max_iters=max_iters)
    assert lo < 0.5 < hi and hi - lo <= 2e-5
    assert counts["undecided"] == 0 and sum(counts.values()) == len(probes)
    grid = [float(e) for e in np.linspace(0.05, 0.95, 7)] + [0.499, 0.501]
    probes += [(eps, run(eps, max_iters=max_iters)[2]) for eps in grid]
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
            _, _, outcome = engine.run(float(eps), max_iters=5000)
            converged, iters = stall_only_run(engine.step, spec.n_edge_types, float(eps), max_iters=5000)
            if iters < 5000:
                assert (outcome.outcome == "converged") == converged, (spec, eps)
                checked.add(outcome.reason)
    assert checked >= {"basin", "unstable", "super-solution"}


def test_every_state_in_a_certified_basin_converges():
    # the basin is {1 - x <= bound}; by monotonicity of the step its corner
    # x = 1 - bound is the hardest state in it, so the iteration from the
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
            basin = engine._basin(sm, float(eps))
            if basin is None:
                continue
            built += 1
            x = np.array([1.0 - float(b) for b in basin._bound])
            for _ in range(5000):
                x = engine.step(x, float(eps))
                if x.min() >= 1.0 - 1e-10:
                    break
            assert x.min() >= 1.0 - 1e-10, (spec, eps)
    assert built >= 50


def test_recorded_runs_take_no_early_exit():
    engine = ExitEngine(example1_spec(spc_gen(3), spc_gen(3)))
    assert engine.run(0.75)[2].reason == "unstable"
    _, trajectory, outcome = engine.run(0.75, record=True)
    assert outcome.reason == "stall" and len(trajectory) == outcome.iteration + 1
    assert engine.run(0.499, max_iters=100)[2].reason == "basin"
    _, trajectory, outcome = engine.run(0.499, max_iters=100, record=True)
    assert outcome == ProbeOutcome(0.499, "max_iters", 100)
    assert len(trajectory) == 101


def test_marginal_point_is_left_to_the_run():
    # at the bound itself neither early decision applies
    engine = ExitEngine(example1_spec(spc_gen(3), spc_gen(3)))
    assert engine.run(0.5, max_iters=50)[2] == ProbeOutcome(0.5, "max_iters", 50)


def test_probes_next_to_the_bound_end_in_the_basin():
    # the exact verdict calls these "stable"; float sigma lies within 1e-12
    # of 1 here, and the iterates alone would crawl past any cap
    engine = ExitEngine(example1_spec(spc_gen(3), spc_gen(3)))
    for eps in (0.5 - 2**-53, 0.5 - 1e-13):
        assert engine.run(eps)[2].reason == "basin"


@pytest.mark.parametrize(
    "spec, eps",
    [
        (example1_spec(spc_gen(3), spc_gen(4)), 0.40824829046386296),
        (example2_spec(pair_code_gen()), 0.49999999999999994),
    ],
    ids=["ex1_spc3_spc4", "ex2_pair"],
)
def test_stable_probe_with_float_sigma_at_one_skips_the_basin(spec, eps):
    # stable by the exact verdict, yet float sigma reads 1: no gap to build
    # a basin on, so the run goes without one instead of spending 100,000
    # power-iteration steps
    sm = build_matrices(spec)
    assert stability_verdict(spec, eps, matrices=sm) == "stable" and sm.sigma(eps) >= 1.0
    engine = ExitEngine(spec)
    assert engine._basin(sm, eps) is None
    start = time.perf_counter()
    assert engine.run(eps, max_iters=2000)[2].reason == "max_iters"
    assert time.perf_counter() - start < 0.5


@pytest.mark.parametrize(
    "coeffs, root",
    [
        ([Fraction(1, 4), Fraction(-1)], 0.25),  # 1/4 - c
        ([Fraction(1, 100), Fraction(-3, 5), Fraction(1)], 0.3 - 0.08**0.5),  # c^2 - 0.6c + 0.01
        ([Fraction(1, 10), Fraction(-3, 5), Fraction(1)], None),  # (c - 0.3)^2 + 0.01
        ([Fraction(-1, 10), Fraction(1)], 0.0),  # negative at 0
    ],
)
def test_bernstein_share_is_a_nonnegative_prefix(coeffs, root):
    from metdg.exitchart import _bernstein, _nonnegative_share

    depth = 30
    got = _nonnegative_share(_bernstein(coeffs, Fraction(1)), depth)
    if root is None:
        assert got == 1
    else:
        # the share stops at or short of the first root, by at most the
        # resolution of the halvings
        assert root - 2.0**-depth <= got <= root
    for k in range(201 if got else 0):
        c = got * Fraction(k, 200)
        assert sum(a * c**j for j, a in enumerate(coeffs)) >= 0


def test_certificate_stops_a_stuck_dgldpc_run_early():
    engine = ExitEngine(dgldpc_spec())
    (lo, hi), _ = engine.threshold()
    eps = 0.5 * (lo + hi) + 1e-4
    converged, _, outcome = engine.run(eps)
    oracle_converged, oracle_iters = stall_only_run(engine.step, 2, eps)
    assert not converged and not oracle_converged
    assert outcome.reason == "super-solution"
    assert outcome.iteration < oracle_iters
    # a recorded run never takes the certificate's exit
    _, trajectory, _ = engine.run(eps, record=True)
    assert len(trajectory) == oracle_iters + 1
