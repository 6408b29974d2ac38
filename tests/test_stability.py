import math
import operator
import time
from fractions import Fraction

import numpy as np
import pytest

from metdg import (
    AssumptionError,
    ExitEngine,
    StabilityMatrices,
    ValidationError,
    build_matrices,
    stability_bound,
    stability_verdict,
)
from metdg import stability
from metdg.ensemble import spec_from_dict
from metdg.gf2 import enumerate_weight2_pairs
from metdg.stability import _p_at, _verdict

from conftest import (
    _solve_rational,
    close_eigenvalues_doc,
    dgldpc_spec,
    disjoint_support_spec,
    exact_jacobian_product,
    exact_stability_product,
    example1_spec,
    example2_spec,
    fig1_spec,
    irregular_ldpc_spec,
    lapack_sigma,
    ldpc_spec,
    pair_code_gen,
    random_eligible_spec,
    rep_gen,
    spc_gen,
    wide_spec,
)
from naive_oracles import disjoint_support_by_pairs, principal_minor_verdict, weight_enumerator


def test_example1_matrices():
    spec = example1_spec(spc_gen(3), spc_gen(3))
    sm = build_matrices(spec)
    assert sm.p_coeffs[0][0] == (0, 0)
    assert sm.p_coeffs[0][1] == (0, 1)
    assert sm.p_coeffs[1][0] == (0, 1)
    assert sm.p_coeffs[1][1] == (0, 0)
    a2 = weight_enumerator(spc_gen(3))[2]
    assert sm.c[0][0] == Fraction(2 * a2, 3)
    assert sm.c[1][1] == Fraction(2 * a2, 3)
    assert sm.c[0][1] == 0 and sm.c[1][0] == 0
    assert _p_at(sm, Fraction(2, 5)) == [[0, Fraction(2, 5)], [Fraction(2, 5), 0]]


def test_example2_matrices():
    spec = example2_spec(pair_code_gen())
    sm = build_matrices(spec)
    # CN side: (3,2) SPC with sockets (1,2,2)
    assert sm.c == ((Fraction(0), Fraction(2)), (Fraction(1), Fraction(1)))
    # VN side: diagonal; entry (1,1) collects the outer code's weight-2 words
    counts = enumerate_weight2_pairs(pair_code_gen(), (1, 1, 1, 1), with_input_weight=True)
    q = 4
    for u in range(1, 3):
        want = Fraction(counts.get((1, 1, u), 0), q)
        assert sm.p_coeffs[0][0][u] == want
    assert all(c == 0 for c in sm.p_coeffs[0][1])
    assert all(c == 0 for c in sm.p_coeffs[1][0])
    assert sm.p_coeffs[1][1][1] == 1


def test_protograph_style_spec_has_zero_diagonals():
    # no two sockets of any node share an edge type
    from metdg import CnType, VnType, build_spec

    vn = VnType("v", rep_gen(2), (1,), (1, 2), 4)
    cn = CnType("c", spc_gen(2), (1, 2), 4)
    spec = build_spec(2, [vn], [cn])
    sm = build_matrices(spec)
    for l0 in range(2):
        assert sm.c[l0][l0] == 0
        assert all(c == 0 for c in sm.p_coeffs[l0][l0])


def test_spectral_radius_antidiagonal():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.random(2) * 3
        sm = _as_product([[Fraction(0), Fraction(a)], [Fraction(b), Fraction(0)]])
        assert abs(sm.sigma(1.0) - math.sqrt(a * b)) < 1e-10


def test_spectral_radius_edge_cases():
    assert _as_product([[Fraction(0)] * 3] * 3).sigma(1.0) == 0.0
    eye = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    assert abs(_as_product(eye).sigma(1.0) - 1.0) < 1e-12
    assert abs(_as_product(eye).sigma(0.25) - 0.25) < 1e-12
    for eps in (float("nan"), -0.1, 1.5):
        with pytest.raises(ValidationError):
            _as_product(eye).sigma(eps)


def test_spectral_radius_is_bounded_by_row_sums_on_random_nonnegative():
    rng = np.random.default_rng(7)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        a = rng.random((n, n)) * (rng.random((n, n)) < 0.7)
        sigma = _as_product([[Fraction(float(x)) for x in row] for row in a]).sigma(1.0)
        assert sigma >= 0
        # dominant eigenvalue bound checks
        assert sigma <= a.sum(axis=1).max() + 1e-12


def test_is_stable_example1():
    sm = build_matrices(example1_spec(spc_gen(3), spc_gen(3)))
    assert stability_verdict(sm, 0.49) == "stable"
    assert stability_verdict(sm, 0.51) != "stable"
    assert stability_verdict(sm, 0.2) == "stable"
    assert stability_verdict(sm, 0.9) == "unstable"


def test_is_stable_example2_q2():
    sm = build_matrices(example2_spec(rep_gen(2)))
    # boundary at the root of 2 eps^2 + eps - 1, i.e. 1/2
    assert stability_verdict(sm, 0.49) == "stable"
    assert stability_verdict(sm, 0.51) != "stable"


def test_example2_q3_stable_everywhere():
    sm = build_matrices(example2_spec(rep_gen(3)))
    for eps in np.linspace(0.05, 0.999, 12):
        assert stability_verdict(sm, float(eps)) == "stable"
    assert stability_bound(sm) is None


def test_stability_bound_example1_closed_form():
    for s1 in (3, 4, 5, 6):
        for s2 in (3, 4, 5, 6):
            spec = example1_spec(spc_gen(s1), spc_gen(s2))
            a1 = math.comb(s1, 2)
            a2 = math.comb(s2, 2)
            want = 0.5 * math.sqrt(s1 * s2 / (a1 * a2))
            got = stability_bound(build_matrices(spec))
            assert got is not None
            assert abs(got - want) <= 1e-6


def test_stability_bound_example2_root():
    got = stability_bound(build_matrices(example2_spec(rep_gen(2))))
    assert abs(got - 0.5) <= 1e-6


def test_stability_bound_scalar_irregular_ldpc():
    for lam2 in (0.2, 0.5):
        spec, l2, rho_prime = irregular_ldpc_spec(lam2)
        want = 1.0 / (l2 * rho_prime)
        got = stability_bound(build_matrices(spec))
        if want >= 1.0:
            assert got is None
        else:
            assert abs(got - want) <= 1e-6


def test_sigma_scalar_reduction():
    for lam2 in (0.0, 0.2, 0.5):
        spec, l2, rho_prime = irregular_ldpc_spec(lam2)
        sm = build_matrices(spec)
        for eps in np.linspace(0.1, 0.9, 9):
            assert abs(sm.sigma(float(eps)) - eps * l2 * rho_prime) < 1e-9


def test_disjoint_support_spec_is_stable_for_all_eps():
    spec = disjoint_support_spec()
    sm = build_matrices(spec)
    assert sm.vanishes()
    assert stability_bound(sm) is None
    for eps in (0.2, 0.7, 0.99):
        assert sm.sigma(eps) == 0.0


def test_disjoint_support_false_for_example2():
    assert not build_matrices(example2_spec(rep_gen(2))).vanishes()


def test_disjoint_support_vacuous_when_no_weight2_words():
    spec = example1_spec(rep_gen(3), rep_gen(3))  # distance-3 CN banks
    # VN side still has a weight-2 type, but the CN side touches nothing
    assert build_matrices(spec).vanishes()
    # and with distance >= 3 on both sides there is nothing to touch at all
    from metdg import CnType, VnType, build_spec

    vn = VnType("rep3", rep_gen(3), (1,), (1, 1, 1), 2)
    cn = CnType("rep3c", rep_gen(3), (1, 1, 1), 2)
    empty_spec = build_spec(1, [vn], [cn])
    assert empty_spec.vn_dist2_indices == () and empty_spec.cn_dist2_indices == ()
    assert build_matrices(empty_spec).vanishes()


def test_disjoint_support_check_matches_weight2_pairs():
    # the check reads the touched types off the matrices; the oracle
    # enumerates each type's weight-2 codewords
    from metdg import CnType, VnType, build_spec

    rep3_only = build_spec(
        1, [VnType("rep3", rep_gen(3), (1,), (1, 1, 1), 2)], [CnType("rep3c", rep_gen(3), (1, 1, 1), 2)]
    )
    specs = [
        disjoint_support_spec(),
        example2_spec(rep_gen(2)),
        example1_spec(rep_gen(3), rep_gen(3)),
        example1_spec(spc_gen(3), spc_gen(3)),
        rep3_only,
    ]
    rng = np.random.default_rng(37)
    specs += [random_eligible_spec(rng, n_edge_types=int(rng.integers(2, 4))) for _ in range(40)]
    verdicts = [build_matrices(spec).vanishes() for spec in specs]
    assert verdicts == [disjoint_support_by_pairs(spec) for spec in specs]
    assert True in verdicts[5:] and False in verdicts[5:]


def test_xi_chi_symmetry_on_random_specs():
    rng = np.random.default_rng(19)
    for _ in range(10):
        spec = random_eligible_spec(rng)
        for i in spec.cn_dist2_indices:
            cn = spec.cn_types[i]
            pairs = enumerate_weight2_pairs(cn.generator, cn.socket_types)
            for (l, m), c in pairs.items():
                assert pairs[(m, l)] == c
        for i in spec.vn_dist2_indices:
            vn = spec.vn_types[i]
            pairs = enumerate_weight2_pairs(vn.generator, vn.socket_types, with_input_weight=True)
            for (l, m, u), c in pairs.items():
                assert pairs[(m, l, u)] == c


def test_refusal_on_punctured_spec():
    with pytest.raises(AssumptionError) as exc:
        build_matrices(fig1_spec())
    assert "punctur" in str(exc.value)


def test_refusal_on_distance1_spec():
    from metdg import CnType, GF2Matrix, VnType, build_spec

    vn = VnType("v", GF2Matrix.from_rows([[1, 1, 0], [0, 0, 1]]), (1, 1), (1, 1, 1), 2)
    cn = CnType("c", spc_gen(6), (1,) * 6, 1)
    spec = build_spec(1, [vn], [cn])
    with pytest.raises(AssumptionError) as exc:
        build_matrices(spec)
    assert "distance" in str(exc.value)


def test_jacobian_identity_on_random_eligible_specs():
    # criterion 2's exact identity on more specs: the D-GLDPC one, whose
    # distance-3 codes make both sides vanish, CI's wide spec, an 18-socket
    # CN over six edge types, and random ones
    rng = np.random.default_rng(77)
    specs = [dgldpc_spec(), wide_spec()] + [random_eligible_spec(rng) for _ in range(5)]
    for spec in specs:
        sm = build_matrices(spec)
        engine = ExitEngine(spec)
        for eps in (0.15, 0.55, 0.85):
            assert exact_jacobian_product(engine, eps) == exact_stability_product(sm, eps)


def test_sigma_monotone_and_bound_is_unique_crossing():
    spec = example2_spec(pair_code_gen())
    sm = build_matrices(spec)
    grid = np.linspace(0.01, 1.0, 200)
    sigmas = [sm.sigma(float(e)) for e in grid]
    assert all(b >= a - 1e-12 for a, b in zip(sigmas, sigmas[1:]))
    bound = stability_bound(sm)
    crossings = sum(
        1 for a, b in zip(sigmas, sigmas[1:]) if (a - 1.0) < 0 <= (b - 1.0)
    )
    assert crossings == 1
    assert sm.sigma(bound - 1e-4) < 1.0 < sm.sigma(bound + 1e-4)


def test_reversed_product_has_same_spectral_radius():
    rng = np.random.default_rng(91)
    for _ in range(10):
        spec = random_eligible_spec(rng)
        sm = build_matrices(spec)
        for eps in (0.3, 0.8):
            c, p = ([[float(x) for x in row] for row in m] for m in (sm.c, _p_at(sm, Fraction(eps))))
            reversed_product = np.array(c) @ np.array(p)
            assert abs(sm.sigma(eps) - np.abs(np.linalg.eigvals(reversed_product)).max()) < 1e-9


def _as_product(m) -> StabilityMatrices:
    """Stability matrices with P(eps) = eps I and C = m, so P(1)C = m."""
    n = len(m)
    p = tuple(tuple((Fraction(0), Fraction(int(l0 == m0))) for m0 in range(n)) for l0 in range(n))
    return StabilityMatrices(n, tuple(tuple(row) for row in m), p)


def _random_rational_matrix(rng, n):
    """A sparse nonnegative rational n x n matrix; half are block upper
    triangular, and a random share of the rows is scaled to sum to 1, so
    that spectral radius one is common."""
    m = [
        [Fraction(int(rng.integers(1, 5)), int(rng.integers(1, 5))) if rng.random() < 0.5 else Fraction(0)
         for _ in range(n)]
        for _ in range(n)
    ]
    if n > 1 and rng.random() < 0.5:
        cut = int(rng.integers(1, n))
        for row in m[cut:]:
            row[:cut] = [Fraction(0)] * cut
    share = rng.random()
    for row in m:
        if any(row) and rng.random() < share:
            total = sum(row)
            row[:] = [x / total for x in row]
    return m


def test_verdict_matches_principal_minors_on_random_rational_matrices():
    rng = np.random.default_rng(2024)
    counts = dict.fromkeys(("stable", "marginal", "unstable"), 0)
    for _ in range(2400):
        m = _random_rational_matrix(rng, int(rng.integers(1, 6)))
        want = principal_minor_verdict(m)
        assert _verdict(_as_product(m), 1.0)[0] == want, m
        counts[want] += 1
    assert min(counts.values()) >= 400, counts


def _checked_solve(sm, eps) -> str:
    """The verdict at eps, checked against the system (I - P(eps)C) v = 1
    solved by plain Gaussian elimination in Fractions: for the Z-matrix
    I - P(eps)C, a positive solution exists exactly when rho(P(eps)C) < 1
    (Berman & Plemmons, ch. 6), and then the verdict's solve returns it."""
    verdict, v = _verdict(sm, eps, solve=True)
    n, product = sm.n_edge_types, exact_stability_product(sm, eps)
    a = [[(l0 == m0) - product[l0][m0] for m0 in range(n)] for l0 in range(n)]
    want = _solve_rational(a, [1] * n)
    positive = want is not None and min(want) > 0
    assert (verdict == "stable") == positive, (verdict, want)
    if positive:
        assert min(v) > 0 and [sum(map(operator.mul, row, v)) for row in a] == [1] * n
        assert v == want
    else:
        assert v is None
    return verdict


def test_stable_verdict_iff_positive_exact_solution():
    rng = np.random.default_rng(88)
    counts = dict.fromkeys(("stable", "marginal", "unstable"), 0)
    for _ in range(600):
        m = _random_rational_matrix(rng, int(rng.integers(1, 6)))
        counts[_checked_solve(_as_product(m), 1.0)] += 1
    for _ in range(12):
        sm = build_matrices(random_eligible_spec(rng))
        for eps in np.linspace(0.05, 1.0, 20):
            counts[_checked_solve(sm, float(eps))] += 1
    assert counts["stable"] >= 200 and counts["unstable"] >= 100 and counts["marginal"] >= 50, counts


def test_verdict_agrees_with_float_sigma_away_from_one():
    rng = np.random.default_rng(61)
    seen = set()
    for _ in range(12):
        spec = random_eligible_spec(rng)
        sm = build_matrices(spec)
        for eps in np.linspace(0.05, 1.0, 20):
            sigma = lapack_sigma(sm, float(eps))
            if abs(sigma - 1.0) > 1e-9:
                want = "stable" if sigma < 1.0 else "unstable"
                assert stability_verdict(sm, float(eps)) == want
                seen.add(want)
    assert seen == {"stable", "unstable"}


def _dense_40_type_product() -> StabilityMatrices:
    """A dense 40 x 40 product, scaled to LAPACK's sigma 0.95 at eps = 0.3,
    so that the elimination runs through all 40 pivots."""
    rng = np.random.default_rng(5)
    n = 40
    c = [[Fraction(int(rng.integers(0, 9)), int(rng.integers(1, 9))) for _ in range(n)] for _ in range(n)]
    p = tuple(
        tuple((Fraction(0), Fraction(int(rng.integers(0, 3)), 7), Fraction(int(rng.integers(0, 3)), 5))
              for _ in range(n))
        for _ in range(n)
    )
    sigma = lapack_sigma(StabilityMatrices(n, tuple(map(tuple, c)), p), 0.3)
    scale = Fraction(0.95 / sigma).limit_denominator(1000)
    sm = StabilityMatrices(n, tuple(tuple(x * scale for x in row) for row in c), p)
    assert abs(lapack_sigma(sm, 0.3) - 0.95) < 1e-3
    return sm


def test_verdict_on_40_edge_types_is_fast():
    sm = _dense_40_type_product()
    start = time.perf_counter()
    assert _verdict(sm, 0.3)[0] == "stable"
    assert time.perf_counter() - start < 1.0


def test_sigma_on_40_edge_types_is_fast():
    # an estimate within an ulp needs at most the two verdicts that certify it
    sm = _dense_40_type_product()
    start = time.perf_counter()
    sigma = sm.sigma(0.3)
    assert time.perf_counter() - start < 1.0
    assert sigma < 1.0 and math.isclose(sigma, lapack_sigma(sm, 0.3), rel_tol=1e-12)


def _assert_within_one_ulp(sm, eps, sigma):
    """The exact spectral radius of P(eps)C lies in [sigma - 1 ulp,
    sigma + 1 ulp), by the principal-minor oracle on P(eps)C / t."""
    product = exact_stability_product(sm, eps)

    def verdict_at(t):
        return principal_minor_verdict([[x / Fraction(t) for x in row] for row in product])

    assert verdict_at(math.nextafter(sigma, math.inf)) == "stable", (eps, sigma)
    if sigma > 0.0:
        assert verdict_at(math.nextafter(sigma, 0.0)) != "stable", (eps, sigma)


def test_sigma_is_certified_on_random_specs():
    # within 1 ulp of the exact spectral radius, on the verdict's side of 1,
    # and within 1e-12 of LAPACK's value wherever that is clear of 1
    rng = np.random.default_rng(61)
    sides = {"stable": operator.lt, "marginal": operator.eq, "unstable": operator.gt}
    compared = 0
    for _ in range(12):
        sm = build_matrices(random_eligible_spec(rng))
        for eps in np.linspace(0.05, 1.0, 20):
            eps = float(eps)
            sigma, oracle = sm.sigma(eps), lapack_sigma(sm, eps)
            assert sides[stability_verdict(sm, eps)](sigma, 1.0), (eps, sigma)
            _assert_within_one_ulp(sm, eps, sigma)
            if abs(oracle - 1.0) > 1e-9:
                assert math.isclose(sigma, oracle, rel_tol=1e-12), (eps, sigma, oracle)
                compared += 1
    assert compared >= 200


def test_sigma_takes_the_verdicts_side_where_lapack_does_not():
    # LAPACK read 1.0 for the first, 2.0000000000000004 for the exact 2 and
    # 5.099999999999997 below the wide spec's exact bracket
    ex1 = build_matrices(example1_spec(spc_gen(3), spc_gen(3)))
    below_half = 0.49999999999999994
    assert stability_verdict(ex1, below_half) == "stable" and ex1.sigma(below_half) < 1.0
    assert ex1.sigma(1.0) == 2.0
    assert stability_verdict(ex1, 0.5) == "marginal" and ex1.sigma(0.5) == 1.0
    wide = build_matrices(wide_spec())
    assert 5.1 <= wide.sigma(0.3) <= 5.1000000000000005
    for sm, eps in ((ex1, below_half), (ex1, 1.0), (wide, 0.3)):
        _assert_within_one_ulp(sm, eps, sm.sigma(eps))


def test_vanishing_product_reports_zero_without_a_verdict(monkeypatch):
    def no_verdict(*args, **kwargs):
        raise AssertionError("a vanishing product needs no verdict")

    monkeypatch.setattr(stability, "_verdict", no_verdict)
    for spec in (disjoint_support_spec(), dgldpc_spec(), ldpc_spec(3, 6)):
        sm = build_matrices(spec)
        assert sm.vanishes() and [sm.sigma(eps) for eps in (0.0, 0.3, 1.0)] == [0.0] * 3


def test_stability_matrices_are_an_immutable_value():
    spec = example2_spec(rep_gen(2))
    sm = build_matrices(spec)
    assert StabilityMatrices._fields == ("n_edge_types", "c", "p_coeffs")
    assert sm == StabilityMatrices(*sm) == StabilityMatrices(n_edge_types=sm.n_edge_types, c=sm.c,
                                                             p_coeffs=sm.p_coeffs)
    assert sm is not build_matrices(spec) and hash(sm) == hash(build_matrices(spec))
    assert not sm.vanishes() and sm.sigma(0.3) == StabilityMatrices(*sm).sigma(0.3)
    for attr in ("c", "extra"):
        with pytest.raises(AttributeError):
            setattr(sm, attr, ())


def test_close_eigenvalues_are_decided():
    # two close leading eigenvalues kept a power iteration from converging,
    # which once turned a correct sigma into an internal error
    spec = spec_from_dict(close_eigenvalues_doc())
    sm = build_matrices(spec)
    for eps in np.linspace(0.01, 1.0, 40):
        verdict = stability_verdict(sm, float(eps))
        assert verdict == ("stable" if lapack_sigma(sm, float(eps)) < 1.0 else "unstable")
