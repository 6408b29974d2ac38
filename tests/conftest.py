"""Shared ensemble builders for the test suite."""

import math
from fractions import Fraction
from functools import reduce

import numpy as np
import pytest

from metdg import CnType, EnsembleSpec, GF2Matrix, VnType, build_spec


def rep_gen(q: int) -> GF2Matrix:
    return GF2Matrix.from_rows([[1] * q])


def spc_gen(s: int) -> GF2Matrix:
    """(s, s-1) single parity check: identity plus an overall parity column."""
    return GF2Matrix.from_rows(
        [[1 if (j == i or j == s - 1) else 0 for j in range(s)] for i in range(s - 1)]
    )


def pair_code_gen() -> GF2Matrix:
    """(4,2) code with two disjoint weight-2 generator rows; distance 2, A2 = 2."""
    return GF2Matrix.from_rows([[1, 1, 0, 0], [0, 0, 1, 1]])


def chain_code_gen() -> GF2Matrix:
    """(5,3) code with distance 2 and A2 = 4 (counted exhaustively in tests)."""
    return GF2Matrix.from_rows([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]])


def ldpc_spec(dv: int = 3, dc: int = 6, vn_count: int = 4) -> EnsembleSpec:
    """(dv, dc)-regular LDPC as a single-edge-type ensemble."""
    total_edges = vn_count * dv
    assert total_edges % dc == 0
    vn = VnType("rep", rep_gen(dv), (1,), (1,) * dv, vn_count)
    cn = CnType("spc", spc_gen(dc), (1,) * dc, total_edges // dc)
    return build_spec(1, [vn], [cn])


def example1_spec(cn1_gen: GF2Matrix, cn2_gen: GF2Matrix) -> EnsembleSpec:
    """Two edge types; every VN a length-2 repetition bridging the two CN banks."""
    s1, s2 = cn1_gen.n_cols, cn2_gen.n_cols
    n = np.lcm(s1, s2)
    vn = VnType("bridge", rep_gen(2), (1,), (1, 2), int(n))
    cn1 = CnType("bank1", cn1_gen, (1,) * s1, int(n // s1))
    cn2 = CnType("bank2", cn2_gen, (2,) * s2, int(n // s2))
    return build_spec(2, [vn], [cn1, cn2])


def example2_spec(outer_gen: GF2Matrix, m: int = 1) -> EnsembleSpec:
    """Generalized repeat-accumulate shape: outer code into an accumulator
    through (3,2) SPCs with one type-1 and two type-2 sockets."""
    q = outer_gen.n_cols
    g1 = VnType("outer", outer_gen, (1,) * outer_gen.n_rows, (1,) * q, m)
    g2 = VnType("acc", rep_gen(2), (1,), (2, 2), q * m)
    d = CnType("inner", spc_gen(3), (1, 2, 2), q * m)
    return build_spec(2, [g1, g2], [d])


def fig1_spec() -> EnsembleSpec:
    """Three edge types, a punctured (1,1) VN type, and a parity-check-given CN type."""
    g1 = VnType("state", GF2Matrix.from_rows([[1]]), (0,), (1,), 4)
    g2 = VnType("deg2", rep_gen(2), (1,), (2, 2), 12)
    g3 = VnType("spc32", GF2Matrix.from_rows([[1, 0, 1], [0, 1, 1]]), (1, 1), (3, 3, 3), 8)
    d1_h = GF2Matrix.from_rows([[1, 1, 1, 0], [0, 1, 1, 1]])
    from metdg import generator_from_parity

    d1 = CnType("dual", generator_from_parity(d1_h), (2, 2, 3, 3), 10)
    d2 = CnType("single", spc_gen(3), (1, 2, 3), 4)
    return build_spec(3, [g1, g2, g3], [d1, d2])


def fig1_doc() -> dict:
    """The same ensemble in file form, with the CN given as a parity check."""
    return {
        "edge_types": 3,
        "vn_types": [
            {"name": "state", "generator": [[1]], "puncture": [0], "socket_types": [1], "count": 4},
            {"name": "deg2", "generator": [[1, 1]], "socket_types": [2, 2], "count": 12},
            {
                "name": "spc32",
                "generator": [[1, 0, 1], [0, 1, 1]],
                "socket_types": [3, 3, 3],
                "count": 8,
            },
        ],
        "cn_types": [
            {
                "name": "dual",
                "parity_check": [[1, 1, 1, 0], [0, 1, 1, 1]],
                "socket_types": [2, 2, 3, 3],
                "count": 10,
            },
            {"name": "single", "generator": spc_gen(3).to_rows(), "socket_types": [1, 2, 3], "count": 4},
        ],
    }


def ones_doc() -> dict:
    """A small valid document in which every count, edge type, socket type
    and puncture bit is 1: one repetition-2 VN and one repetition-2 CN."""
    node = {"generator": [[1, 1]], "socket_types": [1, 1], "count": 1}
    return {
        "edge_types": 1,
        "vn_types": [{"name": "v", "puncture": [1], **node}],
        "cn_types": [{"name": "c", **node}],
    }


def set_at(doc: dict, path: tuple, value) -> dict:
    """doc with the value at path (keys and list indices) replaced."""
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def dgldpc_spec() -> EnsembleSpec:
    """The benchmark's D-GLDPC ensemble: Hamming(7,4) and rep3 VNs, and a
    Hamming(15,11) CN given by its parity check (column c is c in binary)."""
    from metdg import generator_from_parity

    ham74 = GF2Matrix.from_rows(
        [[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1], [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]
    )
    vn1 = VnType("ham74", ham74, (1,) * 4, (1,) * 7, 30)
    vn2 = VnType("rep3", rep_gen(3), (1,), (2, 2, 2), 35)
    h = GF2Matrix.from_rows([[(c >> r) & 1 for c in range(1, 16)] for r in range(4)])
    cn = CnType("ham15", generator_from_parity(h), (1,) * 10 + (2,) * 5, 21)
    return build_spec(2, [vn1, vn2], [cn])


def irregular_ldpc_spec(lambda2: float) -> tuple[EnsembleSpec, Fraction, Fraction]:
    """Single-edge-type irregular LDPC with the requested degree-2 edge fraction.

    Returns (spec, lambda2, rho'(1)), the last two exact rationals computed
    classically from the degree counts rather than through the package.
    """
    if lambda2 == 0.0:
        a, b = 0, 4
        cns = [("spc6", spc_gen(6), 1), ("spc3", spc_gen(3), 2)]
    elif lambda2 == 0.2:
        a, b = 3, 8
        cns = [("spc6", spc_gen(6), 3), ("spc4", spc_gen(4), 3)]
    elif lambda2 == 0.5:
        a, b = 3, 2
        cns = [("spc6", spc_gen(6), 1), ("spc3", spc_gen(3), 2)]
    else:
        raise ValueError(lambda2)
    vns = []
    if a:
        vns.append(VnType("rep2", rep_gen(2), (1,), (1, 1), a))
    vns.append(VnType("rep3", rep_gen(3), (1,), (1, 1, 1), b))
    cn_types = [CnType(name, gen, (1,) * gen.n_cols, count) for name, gen, count in cns]
    spec = build_spec(1, vns, cn_types)

    edges = 2 * a + 3 * b
    lam2 = Fraction(2 * a, edges)
    assert abs(lam2 - lambda2) < 1e-12
    rho_prime = Fraction(sum(count * gen.n_cols * (gen.n_cols - 1) for _, gen, count in cns), edges)
    return spec, lam2, rho_prime


def wide_spec() -> EnsembleSpec:
    """CI's spec above the kernel cut-off: an 18-socket SPC CN spread over 6
    edge types, 3 sockets each, and a repetition-2 VN per edge type.  Its CN
    half holds 18,432 coefficient entries, so it keeps the numpy contraction."""
    n_e, per = 6, 3
    vns = [VnType(f"rep{l}", rep_gen(2), (1,), (l, l), per) for l in range(1, n_e + 1)]
    sockets = tuple(l for l in range(1, n_e + 1) for _ in range(per))
    return build_spec(n_e, vns, [CnType("spc18", spc_gen(18), sockets, 2)])


def exact_jacobian_product(engine, epsilon) -> list[list[Fraction]]:
    """J_V(epsilon) J_C, the Jacobian of the engine's step at the all-known
    state in erasure coordinates, in rationals.

    Column m of a half's Jacobian is the linear part of its exact erasure
    polynomials along the unit vector e_m: entry l is p[0] / q of output
    type l's polynomial.  epsilon is taken exactly, float or Fraction."""
    n_e = engine.n_edge_types
    units = [[int(l == m) for l in range(n_e)] for m in range(n_e)]

    def jacobian(half, eps):
        columns = [[Fraction(p[0], q) for p, q in half.erasure_polynomials(u, eps)] for u in units]
        return [list(row) for row in zip(*columns)]

    return _matmul(jacobian(engine._vn, Fraction(epsilon)), jacobian(engine._cn, None))


def exact_stability_product(sm, epsilon) -> list[list[Fraction]]:
    """P(epsilon) C in rationals, from the stability matrices' exact
    coefficients; epsilon is taken exactly, float or Fraction."""
    eps = Fraction(epsilon)
    p = [[sum(a * eps**u for u, a in enumerate(coeffs)) for coeffs in row] for row in sm.p_coeffs]
    return _matmul(p, sm.c)


def lapack_sigma(sm, epsilon) -> float:
    """LAPACK's spectral radius of P(epsilon) C, in floats with P(epsilon) by
    Horner's rule: an oracle for the exact verdict that shares none of its
    arithmetic."""
    p = [[reduce(lambda acc, a: acc * epsilon + a, reversed(cell), 0.0) for cell in row]
         for row in sm.p_coeffs]
    c = [[float(x) for x in row] for row in sm.c]
    return float(np.max(np.abs(np.linalg.eigvals(np.array(p) @ np.array(c)))))


def _matmul(a, b) -> list[list[Fraction]]:
    return [[sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in zip(*b)] for row in a]


def disjoint_support_spec() -> EnsembleSpec:
    """Weight-2 supports touch type 1 on the VN side and type 2 on the CN side."""
    vn_a = VnType("pair", rep_gen(2), (1,), (1, 1), 3)
    vn_b = VnType("triple", rep_gen(3), (1,), (2, 2, 2), 2)
    cn = CnType(
        "split", GF2Matrix.from_rows([[1, 1, 1, 0], [0, 0, 1, 1]]), (1, 1, 2, 2), 3
    )
    return build_spec(2, [vn_a, vn_b], [cn])


def close_eigenvalues_doc() -> dict:
    """An eligible three-type ensemble whose P(eps)C has two close leading
    eigenvalues, 2.21e-4 and 1.95e-4 at eps = 0.01: an identity-shifted
    power iteration contracts there by only 1 - 2.6e-5 per step."""

    def node(name, gen, sockets, count, **extra):
        return {"name": name, "generator": gen, "socket_types": sockets, "count": count, **extra}

    pairs = [[1, 1, 0, 0], [0, 0, 1, 1]]
    return {
        "edge_types": 3,
        "vn_types": [
            node("v0", [[1, 1, 1, 1]], [2, 1, 3, 1], 48, puncture=[1]),
            node("v1", [[1, 1, 1, 1]], [2, 2, 2, 3], 48, puncture=[1]),
            node("v2", [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 0, 1, 1]], [3, 1, 2, 1, 3], 12,
                 puncture=[1, 1, 1]),
        ],
        "cn_types": [
            node("c0", [[1, 1, 1]], [3, 1, 1], 40),
            node("c1", pairs, [2, 2, 2, 2], 41),
            node("c2", pairs, [2, 1, 3, 3], 40),
        ],
    }


_CODE_POOL = None


def _code_pool():
    global _CODE_POOL
    if _CODE_POOL is None:
        _CODE_POOL = [
            rep_gen(2),
            rep_gen(3),
            rep_gen(4),
            spc_gen(3),
            spc_gen(4),
            spc_gen(5),
            pair_code_gen(),
            chain_code_gen(),
        ]
    return _CODE_POOL


def random_component_code(rng, max_sockets=8, max_k=3) -> GF2Matrix:
    """A random full-rank code with no idle bit and minimum distance >= 2."""
    from metdg import min_distance

    while True:
        if rng.random() < 0.5:
            g = _code_pool()[rng.integers(len(_code_pool()))]
            if g.n_cols <= max_sockets:
                return g
            continue
        q = int(rng.integers(2, max_sockets + 1))
        k = int(rng.integers(1, min(max_k, q - 1) + 1))
        g = GF2Matrix.from_rows(rng.integers(0, 2, size=(k, q)).tolist())
        if g.rank() != k or g.has_zero_column():
            continue
        if min_distance(g) < 2:
            continue
        return g


def _solve_rational(matrix, rhs):
    """Solve a square rational system; None when singular."""
    n = len(rhs)
    a = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(rhs[i])] for i in range(n)]
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return None
        a[col], a[piv] = a[piv], a[col]
        inv = a[col][col]
        a[col] = [x / inv for x in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return [a[r][n] for r in range(n)]


def random_code(rng, n: int, k: int) -> GF2Matrix:
    """A random full-rank (n, k) generator with no all-zero column."""
    while True:
        rows = rng.integers(0, 2, size=(k, n))
        # an all-zero column gets one bit in a random row
        zero = np.flatnonzero(~rows.any(axis=0))
        rows[rng.integers(0, k, size=len(zero)), zero] = 1
        g = GF2Matrix.from_rows(rows.tolist())
        if g.rank() == k:
            return g


def spec_around(node, n_edge_types: int) -> EnsembleSpec:
    """A valid spec holding node (count 2), closed on every edge type l by a
    VN and a CN repetition code of two type-l sockets."""
    sockets = [node.sockets_of_type(l) for l in range(1, n_edge_types + 1)]
    own = [1] * n_edge_types
    other = [s + 1 for s in sockets]
    if isinstance(node, CnType):
        own, other = other, own
    vns = [VnType(f"v{l}", rep_gen(2), (1,), (l, l), own[l - 1]) for l in range(1, n_edge_types + 1)]
    cns = [CnType(f"c{l}", rep_gen(2), (l, l), other[l - 1]) for l in range(1, n_edge_types + 1)]
    if isinstance(node, CnType):
        cns.append(CnType(node.name, node.generator, node.socket_types, 2))
    else:
        vns.append(VnType(node.name, node.generator, node.puncture, node.socket_types, 2))
    return build_spec(n_edge_types, vns, cns)


def random_eligible_spec(rng, n_edge_types=None, max_sockets=8) -> EnsembleSpec:
    """A random balanced, unpunctured ensemble whose codes all have distance >= 2.

    VN types and counts are drawn first; CN counts then solve the per-type
    socket balance exactly (scaling everything to integers), so the result
    always validates.
    """
    for _ in range(500):
        n_e = int(n_edge_types or rng.integers(1, 4))
        n_vt = int(rng.integers(1, 4))
        vns = []
        for i in range(n_vt):
            g = random_component_code(rng, max_sockets=max_sockets)
            st = tuple(int(rng.integers(1, n_e + 1)) for _ in range(g.n_cols))
            vns.append(
                VnType(f"v{i}", g, (1,) * g.n_rows, st, int(rng.integers(1, 5)))
            )
        edge_counts = [0] * n_e
        for vn in vns:
            for l in vn.socket_types:
                edge_counts[l - 1] += vn.count
        if any(e == 0 for e in edge_counts):
            continue

        cn_gens = [random_component_code(rng, max_sockets=max_sockets) for _ in range(n_e)]
        patterns = []
        for j, g in enumerate(cn_gens):
            st = tuple(
                j + 1 if rng.random() < 0.7 else int(rng.integers(1, n_e + 1))
                for _ in range(g.n_cols)
            )
            patterns.append(st)
        s_mat = [
            [sum(1 for t in patterns[j] if t == l + 1) for j in range(n_e)]
            for l in range(n_e)
        ]
        counts = _solve_rational(s_mat, edge_counts)
        if counts is None or any(c <= 0 for c in counts):
            continue
        mult = 1
        for c in counts:
            mult = mult * c.denominator // math.gcd(mult, c.denominator)
        counts = [int(c * mult) for c in counts]
        if any(c > 20000 for c in counts):
            continue
        cns = [
            CnType(f"c{j}", cn_gens[j], patterns[j], counts[j])
            for j in range(n_e)
        ]
        vns = [
            VnType(vn.name, vn.generator, vn.puncture, vn.socket_types, vn.count * mult)
            for vn in vns
        ]
        try:
            spec = build_spec(n_e, vns, cns)
        except Exception:
            continue
        if spec.min_distance_at_least_2 and spec.unpunctured:
            return spec
    raise RuntimeError("could not sample an eligible ensemble")


@pytest.fixture(scope="session")
def ldpc36():
    return ldpc_spec(3, 6)
