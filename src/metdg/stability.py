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
from itertools import product

import numpy as np

from .ensemble import EnsembleSpec
from .errors import AssumptionError, InternalError, check_epsilon, check_tol_eps
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

    def perron(self, epsilon: float, shift: float, tol: float) -> tuple[float, np.ndarray]:
        """(rho, v) with (P(eps)C + shift J) v <= rho v componentwise, J the
        all-ones matrix: rho bounds the Perron root from above, within tol
        of it once the power iteration converges, and v > 0 approximates
        the Perron vector, scaled to max 1.  shift > 0 makes the matrix
        positive, so that v is positive even when P(eps)C is reducible."""
        _, rho, v = _power_iteration(self.product(epsilon) + shift, tol)
        return rho, v / v.max()

    def vanishes(self) -> bool:
        """Whether P(eps)C is the zero matrix at every eps.  Every term of
        an entry is a nonnegative coefficient times a power of eps, so this
        holds exactly when no nonzero P coefficient meets a nonzero C entry."""
        n = self.n_edge_types
        return not any(
            any(self.p_coeffs[l0][e0]) and self.c[e0][m0]
            for l0, e0, m0 in product(range(n), repeat=3)
        )


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


def _power_iteration(a: np.ndarray, tol: float) -> tuple[float, float, np.ndarray]:
    """Collatz-Wielandt bounds lo <= rho(a) <= hi and the positive vector x
    they were read from, with a x <= hi x componentwise, once hi - lo < tol
    or after 100000 steps.  a is irreducible and nonnegative."""
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
    return lo - 1.0, hi - 1.0, x


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
        lo, hi, _ = _power_iteration(a, tol)
        check = 0.5 * (lo + hi)
        if abs(check - sigma) > max(1e-8, 1e-8 * sigma):
            raise InternalError(
                f"eigenvalue and power-iteration radii disagree: {sigma} vs {check}"
            )
    return sigma


def _matrices(spec: EnsembleSpec, matrices: StabilityMatrices | None) -> StabilityMatrices:
    return build_matrices(spec) if matrices is None else matrices


def stability_verdict(
    spec: EnsembleSpec, epsilon: float, matrices: StabilityMatrices | None = None
) -> str:
    """"stable", "marginal" or "unstable": sigma against 1 -/+ _MARGIN, a
    band that covers the rounding error of the float sigma.  matrices, when
    given, are spec's, already built."""
    sigma = _matrices(spec, matrices).sigma(epsilon)
    if sigma < 1.0 - _MARGIN:
        return "stable"
    if sigma <= 1.0 + _MARGIN:
        return "marginal"
    return "unstable"


def stability_bound(
    spec: EnsembleSpec, tol_eps: float = 1e-6, matrices: StabilityMatrices | None = None
) -> float | None:
    """Largest erasure probability with spectral radius below one.

    Returns None when the condition holds across the whole open unit
    interval.  Bisection is valid because every matrix entry, hence the
    spectral radius, is nondecreasing in the erasure probability.
    matrices, when given, are spec's, already built.
    """
    check_tol_eps(tol_eps)
    sm = _matrices(spec, matrices)
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


def disjoint_support_check(spec: EnsembleSpec, matrices: StabilityMatrices | None = None) -> bool:
    """Sufficient condition: weight-2 supports on the VN and CN sides touch
    disjoint edge-type sets, which forces the product matrix to vanish.
    matrices, when given, are spec's, already built.

    A side touches type l exactly when row l of its matrix (P or C) is
    nonzero: a weight-2 codeword on sockets of types l and m adds a positive
    count to entries (l, m) and (m, l).
    """
    sm = _matrices(spec, matrices)
    vn_touched = {l0 for l0, row in enumerate(sm.p_coeffs) if any(any(cell) for cell in row)}
    cn_touched = {l0 for l0, row in enumerate(sm.c) if any(row)}
    return not (vn_touched & cn_touched)
