import numpy as np
import pytest

from metdg import (
    CnType,
    ExitEngine,
    GF2Matrix,
    VnType,
    cn_exit,
    cn_exit_via_punctured_vn,
    numerical_jacobian,
    run_to_fixed_point,
    threshold,
    vn_exit,
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
    random_eligible_spec,
    rep_gen,
    spc_gen,
)
from naive_oracles import (
    scalar_de_converges,
    scalar_de_threshold,
    semantic_extrinsic_known_probability,
    stall_only_run,
    stall_only_threshold,
    tensordot_step,
)


def test_repetition_vn_closed_form():
    for q in (2, 3, 4):
        vn = VnType("rep", rep_gen(q), (1,), (1,) * q, 1)
        for i_a in np.linspace(0, 1, 7):
            for eps in np.linspace(0, 1, 7):
                got = vn_exit(vn, 1, [i_a], eps, 1)
                want = 1 - eps * (1 - i_a) ** (q - 1)
                assert abs(got - want) < 1e-13


def test_vn_exit_all_ones_input_gives_one():
    rng = np.random.default_rng(2)
    for _ in range(10):
        spec = random_eligible_spec(rng)
        ones = np.ones(spec.n_edge_types)
        for i, vn in enumerate(spec.vn_types):
            for l0 in range(spec.n_edge_types):
                if spec.vn_socket_counts[i][l0] == 0:
                    continue
                for eps in (0.1, 0.6, 0.95):
                    assert vn_exit(vn, spec.n_edge_types, ones, eps, l0 + 1) == 1.0


def test_vn_exit_perfect_channel():
    vn = VnType("rep2", rep_gen(2), (1,), (1, 1), 1)
    assert vn_exit(vn, 1, [0.0], 0.0, 1) == 1.0


def test_spc_cn_closed_form():
    for s in (3, 4, 5, 6):
        cn = CnType("spc", spc_gen(s), (1,) * s, 1)
        for i_a in np.linspace(0, 1, 9):
            got = cn_exit(cn, 1, [i_a], 1)
            assert abs(got - i_a ** (s - 1)) < 1e-13


def test_cn_exit_all_ones_gives_one():
    cn = CnType("pair", pair_code_gen(), (1, 2, 2, 1), 1)
    assert cn_exit(cn, 2, [1.0, 1.0], 1) == 1.0
    assert cn_exit(cn, 2, [1.0, 1.0], 2) == 1.0


def test_mixed_type_spc_closed_form():
    cn = CnType("spc32", GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]]), (1, 2, 2), 1)
    for a in np.linspace(0, 1, 5):
        for b in np.linspace(0, 1, 5):
            assert abs(cn_exit(cn, 2, [a, b], 1) - b * b) < 1e-14
            assert abs(cn_exit(cn, 2, [a, b], 2) - a * b) < 1e-14


def test_vn_exit_matches_operational_definition():
    # probability-weighted subset scan with explicit rank tests: ties the
    # closed-form machinery to what the decoder actually measures
    rng = np.random.default_rng(71)
    from conftest import random_component_code

    for _ in range(6):
        g = random_component_code(rng, max_sockets=5)
        st = tuple(int(t) for t in rng.integers(1, 3, size=g.n_cols))
        punct = tuple(int(b) for b in rng.integers(0, 2, size=g.n_rows))
        vn = VnType("v", g, punct, st, 1)
        i_av = rng.random(2)
        eps = float(rng.random())
        for e in sorted(set(st)):
            got = vn_exit(vn, 2, i_av, eps, e)
            want = semantic_extrinsic_known_probability(
                g.to_rows(), list(st), i_av, e, eps=eps, puncture=list(punct)
            )
            assert abs(got - want) < 1e-12


def test_cn_exit_matches_operational_definition():
    rng = np.random.default_rng(72)
    from conftest import random_component_code

    for _ in range(6):
        g = random_component_code(rng, max_sockets=5)
        st = tuple(int(t) for t in rng.integers(1, 3, size=g.n_cols))
        cn = CnType("c", g, st, 1)
        i_ac = rng.random(2)
        for e in sorted(set(st)):
            got = cn_exit(cn, 2, i_ac, e)
            want = semantic_extrinsic_known_probability(g.to_rows(), list(st), i_ac, e)
            assert abs(got - want) < 1e-12


def test_cn_exit_both_paths_agree():
    rng = np.random.default_rng(8)
    for _ in range(10):
        spec = random_eligible_spec(rng)
        i_ac = rng.random(spec.n_edge_types)
        for i, cn in enumerate(spec.cn_types):
            for l0 in range(spec.n_edge_types):
                if spec.cn_socket_counts[i][l0] == 0:
                    continue
                direct = cn_exit(cn, spec.n_edge_types, i_ac, l0 + 1)
                via_vn = cn_exit_via_punctured_vn(cn, spec.n_edge_types, i_ac, l0 + 1)
                assert abs(direct - via_vn) < 1e-12


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
    spec = ldpc_spec(3, 6)
    conv, traj = run_to_fixed_point(spec, 0.0)
    assert conv
    assert traj[0].i_ev[0] == 1.0


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
    spec = ldpc_spec(3, 6)
    conv_below, _ = run_to_fixed_point(spec, 0.30)
    conv_above, traj = run_to_fixed_point(spec, 0.50)
    assert conv_below
    assert not conv_above
    # the recorded trajectory climbs monotonically toward its stuck point
    vals = [st.i_ev[0] for st in traj]
    assert len(vals) >= 2
    assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 0.9


def test_threshold_matches_scalar_oracle(ldpc36):
    got = threshold(ldpc36)
    want = scalar_de_threshold(3, 6)
    assert abs(got - want) <= 1e-4
    assert abs(got - 0.4294) < 1e-3


def test_threshold_of_heavily_redundant_spec_is_near_one():
    # every VN bit is protected by many repetition sockets and tiny SPCs
    vn = VnType("rep6", rep_gen(6), (1,), (1,) * 6, 2)
    cn = CnType("spc3", spc_gen(3), (1, 1, 1), 4)
    spec = __import__("metdg").build_spec(1, [vn], [cn])
    assert threshold(spec, tol_eps=1e-4) > 0.9


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
    for eps in (0.2, 0.5, 0.9):
        jac = numerical_jacobian(spec, np.ones(2), eps)
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
    jac = numerical_jacobian(spec, np.ones(2), 0.5)
    assert np.abs(jac[:, 0]).max() < 1e-6
    assert jac[0, 1] > 0.1


def test_jacobian_interior_point_positive():
    spec = ldpc_spec(3, 6)
    engine = ExitEngine(spec)
    jac = engine.jacobian(np.array([0.5]), 0.3)
    assert jac[0, 0] > 0


def test_jacobian_rejects_bad_step():
    spec = ldpc_spec(3, 6)
    with pytest.raises(ValueError):
        numerical_jacobian(spec, np.ones(1), 0.3, step_size=0.0)


def test_threshold_never_exceeds_stability_bound():
    from metdg import stability_bound

    # local stability is necessary for convergence, so the bound caps the
    # threshold; for the distance-3 outer code the bound is vacuous while
    # the threshold stays well inside (0, 1)
    spec = example2_spec(rep_gen(3))
    th = threshold(spec, tol_eps=1e-3)
    assert stability_bound(spec) is None
    assert 0.3 < th < 1.0

    for spec in (example2_spec(rep_gen(2)), example1_spec(spc_gen(3), spc_gen(3))):
        th = threshold(spec, tol_eps=1e-3)
        bound = stability_bound(spec)
        assert th <= bound + 2e-3


def test_trajectory_indexing_and_initial_state():
    spec = ldpc_spec(3, 6)
    engine = ExitEngine(spec)
    eps = 0.3
    conv, traj, last = engine.run(eps, record=True)
    assert traj[0].iteration == 0
    # initial state is the VN update applied to an all-unknown prior
    assert abs(traj[0].i_ev[0] - (1 - eps)) < 1e-15
    assert [st.iteration for st in traj] == list(range(len(traj)))
    assert last.iteration == traj[-1].iteration


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


# ex1_spc3's threshold is stability-limited: probes just below it converge
# too slowly for any cap, so it runs with a small one.
_DE_SPECS = {
    "ldpc36": (lambda: ldpc_spec(3, 6), 20000),
    "ex1_spc3": (lambda: example1_spec(spc_gen(3), spc_gen(3)), 2000),
    "ex2_rep3": (lambda: example2_spec(rep_gen(3)), 20000),
    "dgldpc": (dgldpc_spec, 20000),
}


@pytest.mark.parametrize("name", sorted(_DE_SPECS))
def test_certificate_never_changes_a_probe_outcome(name):
    make, max_iters = _DE_SPECS[name]
    engine = ExitEngine(make())
    n_e = engine.n_edge_types
    th, probes = engine.threshold(tol_eps=1e-5, max_iters=max_iters)
    assert (th, probes) == stall_only_threshold(engine.step, n_e, tol_eps=1e-5, max_iters=max_iters)
    grid = [float(e) for e in np.linspace(0.05, 0.95, 7)]
    grid += [th + d for d in (-1e-5, -2e-6, 2e-6, 1e-5)]
    for eps in grid:
        converged, _, _ = engine.run(eps, max_iters=max_iters)
        assert converged == stall_only_run(engine.step, n_e, eps, max_iters=max_iters)[0], eps


def test_certificate_stops_a_stuck_dgldpc_run_early():
    engine = ExitEngine(dgldpc_spec())
    eps = engine.threshold()[0] + 1e-4
    converged, _, state = engine.run(eps)
    oracle_converged, oracle_iters = stall_only_run(engine.step, 2, eps)
    assert not converged and not oracle_converged
    assert state.iteration < oracle_iters
    # a recorded run never takes the certificate's exit
    _, trajectory, _ = engine.run(eps, record=True)
    assert len(trajectory) == oracle_iters + 1
