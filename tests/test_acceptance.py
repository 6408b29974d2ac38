"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every tolerance is fixed here, not computed.  Expected values come either
from closed forms checked by hand or from independent oracles implemented in
naive_oracles.py.
"""

import math
import time

import numpy as np
import pytest

from metdg import (
    CnType,
    ExitEngine,
    GF2Matrix,
    VnType,
    build_matrices,
    cn_info_table,
    stability_bound,
    sweep,
    vn_info_table,
)

from conftest import (
    chain_code_gen,
    disjoint_support_spec,
    example1_spec,
    example2_spec,
    irregular_ldpc_spec,
    pair_code_gen,
    random_eligible_spec,
    rep_gen,
    spc_gen,
)
from naive_oracles import all_codewords, naive_info_table, scalar_de_threshold


@pytest.fixture()
def announce(capsys):
    def _announce(criterion: str, passed: bool, detail: str) -> None:
        with capsys.disabled():
            print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")

    return _announce


def test_criterion_1_fixed_point_at_all_known_state(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)
    worst = 0.0
    n_specs = 20
    for _ in range(n_specs):
        spec = random_eligible_spec(rng, max_sockets=8)
        engine = ExitEngine(spec)
        ones = np.ones(spec.n_edge_types)
        for eps in np.linspace(0.02, 0.98, 20):
            dev = float(np.max(np.abs(engine.step(ones, float(eps)) - 1.0)))
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-12 and elapsed < 60
    announce(
        "criterion 1 (all-known state is a fixed point)",
        ok,
        f"{n_specs} ensembles x 20 eps, max deviation {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst < 1e-12
    assert elapsed < 60


def test_criterion_2_jacobian_identity(announce):
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    specs = [
        example1_spec(spc_gen(3), spc_gen(3)),
        example1_spec(spc_gen(4), spc_gen(5)),
        example2_spec(rep_gen(2)),
        example2_spec(pair_code_gen()),
    ]
    specs += [random_eligible_spec(rng, max_sockets=8) for _ in range(20)]
    worst = 0.0
    for spec in specs:
        engine = ExitEngine(spec)
        sm = build_matrices(spec)
        ones = np.ones(spec.n_edge_types)
        for eps in np.arange(0.1, 0.95, 0.1):
            jac = engine.jacobian(ones, float(eps))
            dev = float(np.abs(jac - sm.product(float(eps))).max())
            worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 120
    announce(
        "criterion 2 (Jacobian equals stability product at the fixed point)",
        ok,
        f"{len(specs)} ensembles x 9 eps, max deviation {worst:.2e}, {elapsed:.1f}s",
    )
    assert worst <= 1e-6
    assert elapsed < 120


def _a2_by_exhaustive_scan(gen: GF2Matrix) -> int:
    return sum(1 for _, cw in all_codewords(gen.to_rows()) if int(cw.sum()) == 2)


def test_criterion_3_product_ensemble_closed_form(announce):
    worst = 0.0
    cases = 0
    for s1 in (3, 4, 5, 6):
        for s2 in (3, 4, 5, 6):
            spec = example1_spec(spc_gen(s1), spc_gen(s2))
            a1, a2 = math.comb(s1, 2), math.comb(s2, 2)
            want = 0.5 * math.sqrt(s1 * s2 / (a1 * a2))
            got = stability_bound(spec)
            worst = max(worst, abs(got - want))
            cases += 1
    for g1, g2 in ((pair_code_gen(), chain_code_gen()), (chain_code_gen(), chain_code_gen())):
        a1 = _a2_by_exhaustive_scan(g1)
        a2 = _a2_by_exhaustive_scan(g2)
        assert (a1, a2) != (0, 0)
        spec = example1_spec(g1, g2)
        want = 0.5 * math.sqrt(g1.n_cols * g2.n_cols / (a1 * a2))
        got = stability_bound(spec)
        worst = max(worst, abs(got - want))
        cases += 1
    ok = worst <= 1e-6
    announce(
        "criterion 3 (two-bank ensemble stability bound closed form)",
        ok,
        f"{cases} code pairs, max |bound error| {worst:.2e}",
    )
    assert worst <= 1e-6


def _ra_boundary_root(q: int, b_counts: dict[int, int]) -> float:
    # root of (4/q) sum_u B_u eps^(u+1) = 1 - eps on (0, 1), by bisection
    def g(eps: float) -> float:
        return (4.0 / q) * sum(b * eps ** (u + 1) for u, b in b_counts.items()) - (1.0 - eps)

    lo, hi = 0.0, 1.0
    assert g(lo) < 0 <= g(hi)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if g(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_4_accumulator_ensemble_closed_form(announce):
    details = []
    worst = 0.0
    for outer in (rep_gen(2), pair_code_gen()):
        q = outer.n_cols
        b_counts: dict[int, int] = {}
        for bits, cw in all_codewords(outer.to_rows()):
            if int(cw.sum()) == 2:
                u = sum(bits)
                b_counts[u] = b_counts.get(u, 0) + 1
        want = _ra_boundary_root(q, b_counts)
        got = stability_bound(example2_spec(outer))
        worst = max(worst, abs(got - want))
        details.append(f"q={q}: bound {got:.6f} vs root {want:.6f}")
    assert abs(_ra_boundary_root(2, {1: 1}) - 0.5) < 1e-12  # q=2 root is exactly 1/2
    unbounded = stability_bound(example2_spec(rep_gen(3))) is None
    details.append(f"q=3: {'unbounded' if unbounded else 'bounded'}")
    ok = worst <= 1e-6 and unbounded
    announce(
        "criterion 4 (accumulator ensemble stability boundary)",
        ok,
        f"max |bound error| {worst:.2e}; " + "; ".join(details),
    )
    assert worst <= 1e-6
    assert unbounded


def test_criterion_5_single_edge_type_reduction(announce):
    worst = 0.0
    for lam2 in (0.0, 0.2, 0.5):
        spec, l2, rho_prime = irregular_ldpc_spec(lam2)
        sm = build_matrices(spec)
        for eps in np.linspace(0.05, 0.95, 19):
            dev = abs(sm.sigma(float(eps)) - float(eps) * l2 * rho_prime)
            worst = max(worst, dev)
    ok = worst <= 1e-9
    announce(
        "criterion 5 (single-edge-type spectral radius reduction)",
        ok,
        f"lambda2 in {{0, 0.2, 0.5}}, max deviation {worst:.2e}",
    )
    assert worst <= 1e-9


def test_criterion_6_threshold_against_scalar_oracle(announce, ldpc36):
    t0 = time.perf_counter()
    engine = ExitEngine(ldpc36)
    (lo, hi), _ = engine.threshold(tol_eps=1e-6)
    got = 0.5 * (lo + hi)
    want = scalar_de_threshold(3, 6, tol_eps=1e-6)
    elapsed = time.perf_counter() - t0
    dev = abs(got - want)
    ok = dev <= 1e-4 and elapsed < 60
    announce(
        "criterion 6 (regular LDPC threshold vs scalar recursion oracle)",
        ok,
        f"engine {got:.6f} vs oracle {want:.6f}, |diff| {dev:.2e}, {elapsed:.1f}s",
    )
    assert dev <= 1e-4
    assert abs(got - 0.4294) < 1e-3
    assert elapsed < 60


def test_criterion_7_table_oracle_equivalence(announce):
    rng = np.random.default_rng(7007)
    sizes = [(12, 2), (10, 4), (6, 8)]
    while len(sizes) < 50:
        q = int(rng.integers(1, 13))
        k = int(rng.integers(1, min(8, max(1, 14 - q)) + 1))
        sizes.append((q, k))
    mismatches = 0
    for idx, (q, k) in enumerate(sizes):
        rows = rng.integers(0, 2, size=(k, q))
        rows[0, rng.integers(q)] = 1  # avoid the all-zero degenerate row
        g = GF2Matrix.from_rows(rows.tolist())
        n_e = int(rng.integers(1, 4))
        st = tuple(int(t) for t in rng.integers(1, n_e + 1, size=q))
        if idx % 2 == 0:
            cn = CnType("c", g, st, 1)
            mine = cn_info_table(cn, n_e)
            oracle = naive_info_table(g.to_rows(), list(st), n_e)
        else:
            punct = tuple(int(b) for b in rng.integers(0, 2, size=k))
            vn = VnType("v", g, punct, st, 1)
            mine = vn_info_table(vn, n_e)
            oracle = naive_info_table(g.to_rows(), list(st), n_e, puncture=list(punct))
        if not np.array_equal(mine, oracle):
            mismatches += 1
    ok = mismatches == 0
    announce(
        "criterion 7 (tables equal naive re-enumeration)",
        ok,
        f"{len(sizes)} random codes, {mismatches} mismatches",
    )
    assert mismatches == 0


def _returns_to_all_known(engine: ExitEngine, eps: float, rng) -> bool:
    v = rng.uniform(0.3, 1.0, engine.n_edge_types)
    x = 1.0 - 1e-6 * v
    for _ in range(30000):
        x = engine.step(x, eps)
        dist = float(np.max(1.0 - x))
        if dist < 1e-10:
            return True
        if dist > 1e-4:
            return False
    raise AssertionError(f"attraction undecided at eps={eps}")


def test_criterion_8_stability_iff_local_attraction(announce):
    rng = np.random.default_rng(8008)
    suite = [
        (example1_spec(spc_gen(3), spc_gen(3)), (0.3, 0.7)),
        (example1_spec(spc_gen(4), spc_gen(5)), (0.2, 0.4)),
        (example1_spec(pair_code_gen(), chain_code_gen()), (0.5, 0.95)),
        (example2_spec(rep_gen(2)), (0.35, 0.65)),
        (example2_spec(pair_code_gen()), (0.3, 0.7)),
        (example2_spec(rep_gen(3)), (0.5, 0.99)),
        (irregular_ldpc_spec(0.5)[0], (0.4, 0.75)),
        (irregular_ldpc_spec(0.2)[0], (0.5, 0.9)),
        (disjoint_support_spec(), (0.5, 0.95)),
    ]
    checked = 0
    disagreements = 0
    for spec, eps_points in suite:
        engine = ExitEngine(spec)
        sm = build_matrices(spec)
        for eps in eps_points:
            sigma = sm.sigma(eps)
            if abs(sigma - 1.0) < 1e-3:
                continue  # guard band
            returned = _returns_to_all_known(engine, eps, rng)
            if returned != (sigma < 1.0):
                disagreements += 1
            checked += 1
    both_sides = checked >= 10
    ok = disagreements == 0 and both_sides
    announce(
        "criterion 8 (spectral radius decides local attraction)",
        ok,
        f"{checked} (ensemble, eps) probes straddling the boundary, {disagreements} disagreements",
    )
    assert disagreements == 0
    assert both_sides


def test_criterion_9_finite_length_consistency(announce, ldpc36):
    t0 = time.perf_counter()
    scale = 1500  # 6000 transmitted bits
    trials = 500
    iters = 10
    result = sweep(
        ldpc36,
        scale=scale,
        eps_grid=[0.40, 0.46],
        trials=trials,
        seed=90210,
        record_exit_iters=iters,
    )
    bler_040 = result.rows[0]["bler"]
    bler_046 = result.rows[1]["bler"]

    engine = ExitEngine(ldpc36)
    worst_se_ratio = 0.0
    for eps in (0.40, 0.46):
        trajs = result.trajectories[eps]
        mean = trajs.mean(axis=0)
        se = trajs.std(axis=0, ddof=1) / math.sqrt(trajs.shape[0])
        _, de_traj, _ = engine.run(eps, max_iters=iters, record=True)
        for it in range(iters + 1):
            for l0 in range(ldpc36.n_edge_types):
                dev = abs(mean[it, l0] - float(de_traj[it, l0]))
                worst_se_ratio = max(worst_se_ratio, dev / max(se[it, l0], 1e-15))
    elapsed = time.perf_counter() - t0
    ok = bler_040 < 0.01 and bler_046 > 0.5 and worst_se_ratio <= 3.0 and elapsed < 600
    announce(
        "criterion 9 (finite-length simulation matches the analysis)",
        ok,
        f"bler(0.40)={bler_040:.4f}, bler(0.46)={bler_046:.4f}, "
        f"worst trajectory deviation {worst_se_ratio:.2f} SE, {elapsed:.0f}s",
    )
    assert bler_040 < 0.01
    assert bler_046 > 0.5
    assert worst_se_ratio <= 3.0
    assert elapsed < 600
