"""Local stability of the all-known state of the EXIT recursion.

Near the erasure-free fixed point only weight-2 local codewords matter.  The
analysis collects them into an n_e x n_e constant matrix (CN side) and a
matching matrix of polynomials in the erasure probability (VN side, one
power per input weight); the fixed point attracts if and only if the
spectral radius of their product is below one.  That condition is decided
exactly, in rationals, and a "stable" verdict can also give the positive
vector v with P(eps)C v = v - 1 that the EXIT engine builds its basin
certificate from; the float spectral radius, `StabilityMatrices.sigma`, is
only reported.  The verdict and the bound take the matrices that
`build_matrices` assembles once per spec.

Everything here requires an unpunctured ensemble whose component codes all
have minimum distance at least 2; anything else is refused, not
approximated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import reduce
from typing import NamedTuple

from .ensemble import EnsembleSpec
from .errors import AssumptionError, check_epsilon, check_tol_eps
from .gf2 import enumerate_weight2_pairs


class StabilityMatrices(NamedTuple):
    """Constant matrix, polynomial matrix, and their product's spectral radius.

    c[l][m] and p_coeffs[l][m] are exact rationals; p_coeffs[l][m][u] is the
    coefficient of x^u (index 0 is always zero: weight-2 codewords need a
    nonzero input).  No symmetry holds in general, in either factor.  Only
    the reported float spectral radius needs numpy, imported when first
    asked for; the exact verdict, its solution v and the bound need none.
    """

    n_edge_types: int
    c: tuple[tuple[Fraction, ...], ...]
    p_coeffs: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def sigma(self, epsilon: float) -> float:
        """Spectral radius of P(eps)C, in floats, P(eps) by Horner's rule."""
        import numpy as np

        check_epsilon(epsilon)
        p = [[reduce(lambda acc, a: acc * epsilon + a, reversed(cell), 0.0) for cell in row]
             for row in self.p_coeffs]
        c = [[float(x) for x in row] for row in self.c]
        return float(np.max(np.abs(np.linalg.eigvals(np.array(p) @ np.array(c)))))

    def vanishes(self) -> bool:
        """Whether P(eps)C is the zero matrix at every eps.  Its entries are
        sums of nonnegative terms, so this holds exactly when no edge type
        has both a nonzero column in P and a nonzero row in C."""
        p_touched = [any(map(any, col)) for col in zip(*self.p_coeffs)]
        return not any(t and any(row) for t, row in zip(p_touched, self.c))


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


def _p_at(sm: StabilityMatrices, eps: Fraction) -> list[list[Fraction]]:
    """P(eps) in rationals."""
    return [[sum(x * eps**u for u, x in enumerate(cell) if x) for cell in row] for row in sm.p_coeffs]


def _verdict(
    sm: StabilityMatrices, epsilon: float, solve: bool = False
) -> tuple[str, list[Fraction] | None]:
    """(verdict, v): the verdict is "stable", "marginal" or "unstable" as
    rho(P(eps)C) is <, = or > 1, decided exactly on the Z-matrix
    A = I - P(eps)C, eps taken as the dyadic rational it is.  rho < 1
    exactly when A is a nonsingular M-matrix, and rho <= 1 exactly when A is
    an M-matrix (Berman & Plemmons, Nonnegative Matrices in the Mathematical
    Sciences, ch. 6).  Eliminating an index with a positive diagonal entry
    keeps both properties, and leaves a Z-matrix.  A rest with no positive
    diagonal entry is an M-matrix only when it is nilpotent: its digraph has
    no cycle and no loop.

    With solve, a "stable" verdict also gives v = A^-1 1 in rationals,
    otherwise v is None.  The inverse of a nonsingular M-matrix is
    nonnegative with no zero row, so v > 0 and P(eps)C v = v - 1.

    A is scaled to integers, and the elimination is Bareiss's: an entry is
    its Schur complement entry times the last pivot, which is positive.
    With solve it also carries the right-hand side, and back-substitutes
    fraction-free: the last pivot is the determinant D of the scaled A, and
    D v is integral (Cramer's rule), so every division is exact."""
    n, eps = sm.n_edge_types, Fraction(float(epsilon))
    p = _p_at(sm, eps)
    d_p, d_c = (math.lcm(*(x.denominator for row in m for x in row)) for m in (p, sm.c))
    p, c = [[int(d_p * x) for x in row] for row in p], [[int(d_c * x) for x in row] for row in sm.c]
    d = d_p * d_c
    # column n holds the right-hand side of the scaled system d A v = d 1
    a = [[d * (l0 == m0) - sum(p[l0][e0] * c[e0][m0] for e0 in range(n)) for m0 in range(n)] + [d]
         for l0 in range(n)]
    live, order, last = list(range(n)), [], 1
    while pivots := [i for i in live if a[i][i] > 0]:
        i = pivots[0]
        live.remove(i)
        order.append(i)
        columns = live + [n] * solve
        for j in live:
            for k in columns:
                a[j][k] = (a[i][i] * a[j][k] - a[j][i] * a[i][k]) // last
        last = a[i][i]
    if live:
        while sinks := [i for i in live if not any(a[i][k] for k in live)]:
            live = [i for i in live if i not in sinks]
        return "unstable" if live else "marginal", None
    if not solve:
        return "stable", None
    x = [0] * n
    for k in reversed(range(n)):
        i = order[k]
        x[i] = (last * a[i][n] - sum(a[i][j] * x[j] for j in order[k + 1 :])) // a[i][i]
    return "stable", [Fraction(t, last) for t in x]


def stability_verdict(sm: StabilityMatrices, epsilon: float) -> str:
    """"stable", "marginal" or "unstable" as the spectral radius of P(eps)C
    is below, at or above one, decided exactly."""
    check_epsilon(epsilon)
    return _verdict(sm, epsilon)[0]


def stability_bound(sm: StabilityMatrices, tol_eps: float = 1e-6) -> float | None:
    """The erasure probability where the spectral radius reaches one, within
    tol_eps: the midpoint of a bisection bracket whose upper end the exact
    verdict calls not stable and whose lower end it calls stable (or is 0).
    None unless the verdict at 1 is "unstable".  Bisection is valid because
    every matrix entry, hence the spectral radius, is nondecreasing in the
    erasure probability.
    """
    check_tol_eps(tol_eps)
    if _verdict(sm, 1.0)[0] != "unstable":
        return None
    lo, hi = 0.0, 1.0
    while hi - lo > 2.0 * tol_eps:
        mid = 0.5 * (lo + hi)
        if _verdict(sm, mid)[0] == "stable":
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
