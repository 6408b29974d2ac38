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
)
from naive_oracles import (
    fraction_certified_bound,
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
        ExitEngine(spec)._vn.erasure_polynomials([1] * spec.n_edge_types, Fraction(1, 4))


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
        lambda e: e.threshold(tol_eps=0.0),
        lambda e: e.threshold(max_iters=float("nan")),
    ],
    ids=["step-nan", "step-high", "step-low", "step-state-high", "step-state-nan",
         "step-state-shape", "step-state-text", "step-state-str-number",
         "step-state-bytes", "step-state-bool", "step-state-scalar", "step-state-nested",
         "step-eps-bool", "step-eps-str", "run-eps-bool", "run-eps-str",
         "threshold-tol-eps-bool", "threshold-tol-eps-str", "run-max-iters-nan", "run-max-iters-float",
         "run-max-iters-bool", "run-max-iters-neg", "run-tol-zero", "run-tol-one", "run-tol-nan",
         "threshold-tol-eps-zero", "threshold-max-iters-nan"],
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
    assert engine.run(np.float64(0.3))[2] == engine.run(0.3)[2]
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
    probe = engine._run

    def recording_probe(eps, *args):
        outcome = probe(eps, *args)
        probes.append((eps, outcome))
        return outcome

    # threshold's probes, through the run that makes no array
    engine._run = recording_probe
    (lo, hi), counts = engine.threshold(tol_eps=1e-5, max_iters=max_iters)
    del engine._run
    assert lo < 0.5 < hi and hi - lo <= 2e-5
    assert counts["undecided"] == 0 and sum(counts.values()) == len(probes)
    grid = [float(e) for e in np.linspace(0.05, 0.95, 7)] + [0.499, 0.501]
    probes += [(eps, engine.run(eps, max_iters=max_iters)[2]) for eps in grid]
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
            _, prove = engine._basin(sm, float(eps), _verdict(sm, float(eps), solve=True)[1])
            lines = None if prove is None else prove()
            if lines is None or max(lines) == 2.0:
                continue
            built += 1
            x = np.array(lines)
            for _ in range(5000):
                x = engine.step(x, float(eps))
                if x.min() >= 1.0 - 1e-10:
                    break
            assert x.min() >= 1.0 - 1e-10, (spec, eps)
    assert built >= 50


def test_basin_vectors_satisfy_the_certificate_inequalities(monkeypatch):
    # the floats (v, w, r) that _basin hands to the exact test satisfy
    # C v < w, P(eps) w < r v and r < 1 in rationals, the conditions its
    # docstring derives them from
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
            prove = None if verdict != "stable" else engine._basin(sm, eps, v)[1]
            if prove is None:
                continue
            prove()
            v, w, r, _ = handed.pop()
            v, w, r = [Fraction(t) for t in v], [Fraction(t) for t in w], Fraction(r)
            p = [[sum(a * Fraction(eps) ** u for u, a in enumerate(cell)) for cell in row]
                 for row in sm.p_coeffs]
            assert r < 1 and min(v) > 0
            assert all(sum(map(mul, row, v)) < b for row, b in zip(sm.c, w)), (spec, eps)
            assert all(sum(map(mul, row, w)) < r * a for row, a in zip(p, v)), (spec, eps)
            checked += 1
    assert checked >= 300


def test_recorded_runs_take_no_early_exit():
    engine = ExitEngine(example1_spec(spc_gen(3), spc_gen(3)))
    assert engine.run(0.75)[2].reason == "unstable"
    _, trajectory, outcome = engine.run(0.75, record=True)
    assert outcome.reason == "stall" and len(trajectory) == outcome.iteration + 1
    assert engine.run(0.499, max_iters=100)[2].reason == "basin"
    _, trajectory, outcome = engine.run(0.499, max_iters=100, record=True)
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
    # stable by the exact verdict, yet LAPACK's sigma reads 1: the solution v
    # of (I - P(eps)C) v = 1 is so large that the basin's contraction factor
    # r = 1 - 7 / (16 max(v)) rounds to 1, so the run goes without a basin
    # (lines of 2.0 and nothing to prove) and ends at its cap
    sm = build_matrices(spec)
    assert stability_verdict(sm, eps) == "stable" and lapack_sigma(sm, eps) >= 1.0
    engine = ExitEngine(spec)
    no_basin = ((2.0,) * spec.n_edge_types, None)
    assert engine._basin(sm, eps, _verdict(sm, eps, solve=True)[1]) == no_basin
    start = time.perf_counter()
    assert engine.run(eps, max_iters=2000)[2].reason == "max_iters"
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
        generated = engine._vn_kernel.__code__.co_filename == "<exit kernel>"
        assert generated != numpy_side
        (lo, hi), _ = engine.threshold(tol_eps=1e-3, max_iters=400)
        near = 0.5 * (lo + hi)
        around = (near - 0.01, near - 1e-4, near + 1e-4, near + 0.01)
        for eps in (0.0, 0.2, *(e for e in around if 0.0 < e < 1.0), 0.7, 1.0):
            for record, max_iters in runs:
                got = engine.run(eps, max_iters=max_iters, record=record)
                want = stepwise_run(engine, eps, max_iters=max_iters, record=record)
                assert got[0] == want[0] and got[2] == want[2], (spec, eps, record)
                assert got[1].shape == want[1].shape
                assert got[1].tobytes() == want[1].tobytes(), (spec, eps, record)
                reasons.add(got[2].reason)
    assert reasons == set(_OUTCOME_OF)


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
    for spec in specs:
        ExitEngine(spec).threshold(tol_eps=1e-4, max_iters=2000)
    assert len(proofs) >= 30 and all(proofs)


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


def test_compiled_halves_match_the_numpy_contraction():
    from metdg.exitchart import _KERNEL_MAX_ENTRIES

    rng = np.random.default_rng(29)
    specs = [random_eligible_spec(rng, n_edge_types=n) for n in (1, 2, 3) for _ in range(4)]
    below, above = _spc_spec(12, 4), _spc_spec(16, 4)
    specs += [fig1_spec(), below, above]
    sizes = {}
    for spec in specs:
        engine = ExitEngine(spec)
        for half, kernel, eps in ((engine._cn, engine._cn_kernel, None), (engine._vn, engine._vn_kernel, 0.0)):
            generated = kernel.__code__.co_filename == "<exit kernel>"
            assert generated == (_entries(half) <= _KERNEL_MAX_ENTRIES)
            sizes[generated] = max(sizes.get(generated, 0), _entries(half))
            for _ in range(20):
                x = rng.random(spec.n_edge_types)
                if eps is not None:
                    eps = float(rng.random())
                got = kernel(tuple(x.tolist()), eps)
                assert type(got) is tuple and all(type(v) is float for v in got)
                assert np.max(np.abs(np.array(got) - half.contraction()(x, eps))) <= 1e-15, spec
    # the SPC(12) CN over 4 edge types is generated, the SPC(16) one is not
    assert _entries(ExitEngine(below)._cn) <= _KERNEL_MAX_ENTRIES < _entries(ExitEngine(above)._cn)
    assert sizes[True] > 700 and sizes[False] > _KERNEL_MAX_ENTRIES


@pytest.mark.parametrize("numpy_side", [False, True], ids=["generated", "numpy"])
def test_corrupted_coefficient_still_raises(numpy_side, monkeypatch):
    # a coefficient tripled pushes the CN output of the all-unknown state
    # to 1 - 3 = -2, far outside [0, 1]
    if numpy_side:
        monkeypatch.setattr("metdg.exitchart._KERNEL_MAX_ENTRIES", -1)
    engine = ExitEngine(ldpc_spec(3, 6))
    assert engine._cn.kernel()((0.0,), None) == (0.0,)
    arr = engine._cn.parts[0][0][3]
    arr[:] = [3 * c for c in arr]
    with pytest.raises(InternalError, match="left \\[0,1\\]"):
        engine._cn.kernel()((0.0,), None)


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
    assert ExitEngine(renamed).run(0.6)[2] == ExitEngine(two).run(0.6)[2]


def _probe_log(engine, certified):
    """The threshold search's probes, each with the number of exact basin
    proofs its run made (the length of certified grows by one per proof)."""
    log = []
    probe = engine._run

    def recording_probe(eps, *args):
        before = len(certified)
        outcome = probe(eps, *args)
        log.append((outcome, len(certified) - before))
        return outcome

    engine._run = recording_probe
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
        lines, prove = basin(self, *args)
        return (lines if prove is None else prove()), None

    monkeypatch.setattr(ExitEngine, "_basin", eager_basin)
    eager = _probe_log(ExitEngine(spec), certified)
    assert [probe for probe, _ in lazy] == [probe for probe, _ in eager]
    assert all(n == 1 for _, n in eager)
    stuck = [n for probe, n in lazy if probe.outcome == "stuck"]
    assert len(stuck) >= 5 and not any(stuck)
    assert all(n == 1 for probe, n in lazy if probe.reason == "basin")
