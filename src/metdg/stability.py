"""Local stability of the all-known state of the EXIT recursion.

Near the erasure-free fixed point only weight-2 local codewords matter.  The
analysis collects them into an n_e x n_e constant matrix (CN side) and a
matching matrix of polynomials in the erasure probability (VN side, one
power per input weight); the fixed point attracts if and only if the
spectral radius of their product is below one.

Everything here requires an unpunctured ensemble whose component codes all
have minimum distance at least 2; anything else is refused, not
approximated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ensemble import EnsembleSpec
from .errors import AssumptionError, InternalError
from .exitchart import check_epsilon, check_tol_eps
from .gf2 import enumerate_weight2_pairs

_MARGIN = 1e-12


@dataclass(frozen=True)
class StabilityMatrices:
    """Constant matrix, polynomial matrix, and their product's spectral radius.

    c[l][m] and p_coeffs[l][m] are exact rationals; p_coeffs[l][m][u] is the
    coefficient of x^u (index 0 is always zero: weight-2 codewords need a
    nonzero input).  No symmetry holds in general, in either factor.
    """

    n_edge_types: int
    c: tuple[tuple[Fraction, ...], ...]
    p_coeffs: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def c_matrix(self) -> np.ndarray:
        return np.array([[float(v) for v in row] for row in self.c])

    def p_matrix(self, epsilon: float) -> np.ndarray:
        out = np.zeros((self.n_edge_types, self.n_edge_types))
        for l0 in range(self.n_edge_types):
            for m0 in range(self.n_edge_types):
                acc = 0.0
                for coeff in reversed(self.p_coeffs[l0][m0]):
                    acc = acc * epsilon + coeff
                out[l0, m0] = acc
        return out

    def product(self, epsilon: float) -> np.ndarray:
        return self.p_matrix(epsilon) @ self.c_matrix()

    def sigma(self, epsilon: float) -> float:
        check_epsilon(epsilon)
        return spectral_radius(self.product(epsilon))


def _require_eligible(spec: EnsembleSpec, what: str) -> None:
    for vn in spec.vn_types:
        if any(b == 0 for b in vn.puncture):
            raise AssumptionError(
                f"{what} assumes no punctured bits, but VN type {vn.name!r} punctures some"
            )
    for vn, d in zip(spec.vn_types, spec.vn_min_distance):
        if d < 2:
            raise AssumptionError(
                f"{what} assumes local minimum distance >= 2, but VN type {vn.name!r} has distance {d}"
            )
    for cn, d in zip(spec.cn_types, spec.cn_min_distance):
        if d < 2:
            raise AssumptionError(
                f"{what} assumes local minimum distance >= 2, but CN type {cn.name!r} has distance {d}"
            )


def build_matrices(spec: EnsembleSpec) -> StabilityMatrices:
    """Assemble both stability matrices from weight-2 ordered-pair counts."""
    _require_eligible(spec, "the stability analysis")
    n_e = spec.n_edge_types

    c = [[Fraction(0) for _ in range(n_e)] for _ in range(n_e)]
    for ci in spec.cn_dist2_indices:
        cn = spec.cn_types[ci]
        pairs = enumerate_weight2_pairs(cn.generator, cn.socket_types, with_input_weight=False)
        for (l, m), count in pairs.items():
            s_l = spec.cn_socket_counts[ci][l - 1]
            rho_l = spec.cn_edge_fractions[ci][l - 1]
            c[l - 1][m - 1] += rho_l / s_l * count

    max_u = max((vn.n_info_bits for vn in spec.vn_types), default=0)
    p = [[[Fraction(0)] * (max_u + 1) for _ in range(n_e)] for _ in range(n_e)]
    for vi in spec.vn_dist2_indices:
        vn = spec.vn_types[vi]
        pairs = enumerate_weight2_pairs(vn.generator, vn.socket_types, with_input_weight=True)
        for (l, m, u), count in pairs.items():
            q_l = spec.vn_socket_counts[vi][l - 1]
            lam_l = spec.vn_edge_fractions[vi][l - 1]
            p[l - 1][m - 1][u] += lam_l / q_l * count

    return StabilityMatrices(
        n_edge_types=n_e,
        c=tuple(tuple(row) for row in c),
        p_coeffs=tuple(tuple(tuple(cell) for cell in row) for row in p),
    )


def _is_irreducible(a: np.ndarray) -> bool:
    n = a.shape[0]
    adj = a > 0
    for start in range(n):
        seen = {start}
        stack = [start]
        while stack:
            u = stack.pop()
            for v in range(n):
                if adj[u, v] and v not in seen:
                    seen.add(v)
                    stack.append(v)
        if len(seen) != n:
            return False
    return True


def _power_radius(a: np.ndarray, tol: float) -> float:
    # Shift by the identity: irreducible nonnegative + positive diagonal is
    # primitive, so Collatz-Wielandt ratios converge from any positive start.
    n = a.shape[0]
    b = a + np.eye(n)
    x = np.ones(n)
    hi = lo = 0.0
    for _ in range(100000):
        y = b @ x
        ratios = y / x
        hi, lo = ratios.max(), ratios.min()
        if hi - lo < tol:
            break
        x = y / y.max()
    return 0.5 * (hi + lo) - 1.0


def spectral_radius(matrix, tol: float = 1e-10) -> float:
    """Largest eigenvalue magnitude of a square nonnegative matrix."""
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError("spectral radius needs a square matrix")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if a.shape[0] == 0:
        return 0.0
    sigma = float(np.max(np.abs(np.linalg.eigvals(a))))
    if _is_irreducible(a):
        check = _power_radius(a, tol)
        if abs(check - sigma) > max(1e-8, 1e-8 * sigma):
            raise InternalError(
                f"eigenvalue and power-iteration radii disagree: {sigma} vs {check}"
            )
    return sigma


def stability_verdict(spec: EnsembleSpec, epsilon: float) -> str:
    sigma = build_matrices(spec).sigma(epsilon)
    if sigma < 1.0 - _MARGIN:
        return "stable"
    if sigma <= 1.0 + _MARGIN:
        return "marginal"
    return "unstable"


def stability_bound(
    spec: EnsembleSpec, tol_eps: float = 1e-6
) -> float | None:
    """Largest erasure probability with spectral radius below one.

    Returns None when the condition holds across the whole open unit
    interval.  Bisection is valid because every matrix entry, hence the
    spectral radius, is nondecreasing in the erasure probability.
    """
    check_tol_eps(tol_eps)
    sm = build_matrices(spec)
    if sm.sigma(1.0) <= 1.0 + _MARGIN:
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > 2.0 * tol_eps:
        mid = 0.5 * (lo + hi)
        if sm.sigma(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def disjoint_support_check(spec: EnsembleSpec) -> bool:
    """Sufficient condition: weight-2 supports on the VN and CN sides touch
    disjoint edge-type sets, which forces the product matrix to vanish."""
    _require_eligible(spec, "the stability analysis")
    vn_touched: set[int] = set()
    for vi in spec.vn_dist2_indices:
        vn = spec.vn_types[vi]
        for (l, m, _u) in enumerate_weight2_pairs(
            vn.generator, vn.socket_types, with_input_weight=True
        ):
            vn_touched.update((l, m))
    cn_touched: set[int] = set()
    for ci in spec.cn_dist2_indices:
        cn = spec.cn_types[ci]
        for (l, m) in enumerate_weight2_pairs(cn.generator, cn.socket_types):
            cn_touched.update((l, m))
    disjoint = not (vn_touched & cn_touched)
    if disjoint:
        sm = build_matrices(spec)
        n_e = spec.n_edge_types
        p_at_1 = [
            [sum(sm.p_coeffs[l0][m0], Fraction(0)) for m0 in range(n_e)] for l0 in range(n_e)
        ]
        for l0 in range(n_e):
            for m0 in range(n_e):
                entry = sum(p_at_1[l0][e0] * sm.c[e0][m0] for e0 in range(n_e))
                if entry != 0:
                    raise InternalError("disjoint weight-2 supports but nonzero product matrix")
    return disjoint
