"""Local stability of the all-known state of the EXIT recursion.

Near the erasure-free fixed point only weight-2 local codewords matter.  The
analysis collects them into an n_e x n_e constant matrix (CN side) and a
matching matrix of polynomials in the erasure probability (VN side, one
power per input weight); the fixed point attracts if and only if the
spectral radius of their product is below one.  That condition is decided
exactly, in rationals, and a "stable" verdict can also give the positive
vector v with P(eps)C v = v - 1 that the EXIT engine builds its basin
certificate from.  The reported spectral radius, `StabilityMatrices.sigma`,
is a float that the same exact test places within 1 ulp.  The verdict, the
bound and sigma take the matrices that `build_matrices` assembles once per
spec; none of them needs numpy.

Everything here requires an unpunctured ensemble whose component codes all
have minimum distance at least 2; anything else is refused, not
approximated.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .ensemble import EnsembleSpec
from .errors import AssumptionError, check_epsilon, check_tol_eps
from .gf2 import enumerate_weight2_pairs

# _estimate's cap on its rounds of n_e power steps.  A round costs a small
# fraction of a verdict, and the estimates of the test specs settle within
# 200 rounds; past the cap the verdicts take over.
_ESTIMATE_ROUNDS = 200


class StabilityMatrices(NamedTuple):
    """Constant matrix, polynomial matrix, and their product's spectral radius.

    c[l][m] and p_coeffs[l][m] are exact rationals; p_coeffs[l][m][u] is the
    coefficient of x^u (index 0 is always zero: weight-2 codewords need a
    nonzero input).  No symmetry holds in general, in either factor.
    """

    n_edge_types: int
    c: tuple[tuple[Fraction, ...], ...]
    p_coeffs: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def sigma(self, epsilon: float) -> float:
        """Spectral radius of P(eps)C, as a float within 1 ulp of it on the
        side of 1 that the exact verdict takes (1.0 when "marginal").

        The exact verdict places a float estimate: the spectral radius is
        homogeneous, so it is below t exactly when P(eps)C / t is "stable".
        From the double above the estimate, `_float_bracket` finds the
        adjacent doubles lo <= sigma < hi; lo is reported, or hi where lo is
        1 and sigma above it.  A "stable" verdict also solves
        (I - P(eps)C / t) v = 1 with v > 0, so P(eps)C v = t (v - 1) >=
        t (1 - 1 / min v) v, and sigma is at least that (Collatz-Wielandt):
        often enough to settle the double below without a second verdict.
        A product whose digraph has no cycle and no loop is nilpotent, a
        vanishing one included, and reports 0.0 without a verdict.  Its
        entries are sums of nonnegative terms, so l -> m is an arc where
        some e has P(eps)[l][e] > 0 and C[e][m] > 0."""
        check_epsilon(epsilon)
        n = self.n_edge_types
        p = [[epsilon > 0 and any(cell) for cell in row] for row in self.p_coeffs]
        if _acyclic(range(n), lambda l, m: any(p[l][e] and self.c[e][m] for e in range(n))):
            return 0.0
        floor = Fraction(0)

        def at_most(t: float) -> bool:
            nonlocal floor
            if t <= floor:
                return True
            verdict, v = _verdict(self, epsilon, solve=True, divisor=t)
            if verdict == "stable":
                floor = max(floor, Fraction(t) * (1 - 1 / min(v)))
            return verdict != "stable"

        lo, hi = _float_bracket(at_most, math.nextafter(_estimate(self, epsilon), math.inf))
        return hi if lo == 1.0 and _verdict(self, epsilon)[0] == "unstable" else lo

    def vanishes(self) -> bool:
        """Whether P(eps)C is the zero matrix at every eps.  Its entries are
        sums of nonnegative terms, so this holds exactly when no edge type
        has both a nonzero column in P and a nonzero row in C."""
        p_touched = [any(map(any, col)) for col in zip(*self.p_coeffs)]
        return not any(t and any(row) for t, row in zip(p_touched, self.c))


def _require_eligible(spec: EnsembleSpec) -> None:
    for vn in spec.vn_types:
        if any(b == 0 for b in vn.puncture):
            raise AssumptionError(
                f"the stability analysis assumes no punctured bits, but VN type {vn.name!r} punctures some"
            )
    nodes = [("VN", vn, d) for vn, d in zip(spec.vn_types, spec.vn_min_distance)]
    nodes += [("CN", cn, d) for cn, d in zip(spec.cn_types, spec.cn_min_distance)]
    for kind, node, d in nodes:
        if d < 2:
            raise AssumptionError(
                "the stability analysis assumes local minimum distance >= 2, "
                f"but {kind} type {node.name!r} has distance {d}"
            )


def build_matrices(spec: EnsembleSpec) -> StabilityMatrices:
    """Assemble both stability matrices from weight-2 ordered-pair counts."""
    _require_eligible(spec)
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


def _estimate(sm: StabilityMatrices, epsilon: float) -> float:
    """A float estimate of rho(P(eps)C): sum(Ax) / sum(x), a weighted mean of
    the ratios (Ax)_i / x_i, whose least and largest bracket rho for any
    positive x (Collatz-Wielandt), along a power iteration on A + rI, for
    A = P(eps)C in floats.  The shift r makes periodic products converge.
    It is A's largest row sum for the first round of n_e steps and the
    estimate after that, so that a step contracts the error by about
    |lambda_2 + rho| / (2 rho) whatever the row sums: on a product whose
    two leading eigenvalues lie close together, a shift far above rho
    contracts it by almost nothing.  Where A is reducible, the ratios of
    the components that fade out stall below rho, and so does their weight.
    The iteration stops when the estimate no longer moves or reaches 0 (a
    nilpotent A), when two rounds in a row fail to change it by less than
    the smallest change so far (rounding noise), or after _ESTIMATE_ROUNDS
    rounds; from there each verdict halves the distance."""
    p = [[float(x) for x in row] for row in _p_at(sm, Fraction(epsilon))]
    cols = [[float(x) for x in col] for col in zip(*sm.c)]
    a = [[math.fsum(map(mul, row, col)) for col in cols] for row in p]
    x, ax = [1.0] * sm.n_edge_types, list(map(math.fsum, a))
    r, estimate = max(ax), math.fsum(ax) / len(x)
    least, stale = math.inf, 0
    for _ in range(_ESTIMATE_ROUNDS if r else 0):
        last = estimate
        for _ in a:
            # (A / r + I) x, scaled so that its largest entry lies in [1/2, 1]
            top = max(ax) / r + max(x)
            x = [(s / r + t) / top for s, t in zip(ax, x)]
            ax = [math.fsum(map(mul, row, x)) for row in a]
        estimate = math.fsum(ax) / math.fsum(x)
        change = abs(estimate - last)
        least, stale = (change, 0) if change < least else (least, stale + 1)
        if change == 0.0 or estimate == 0.0 or stale == 2:
            break
        r = estimate
    return estimate


def _float_bracket(at_most, guess: float) -> tuple[float, float]:
    """Adjacent doubles lo < hi with at_most(lo) and not at_most(hi), for a
    predicate on doubles >= 0 that holds up to some point and fails above
    it, and that holds at 0 unasked.  The search gallops from guess in
    steps of 1, 2, 4, ... ulps, then bisects, both on the doubles' bit
    patterns, which order the nonnegative doubles as integers."""
    key = lambda x: struct.unpack("<q", struct.pack("<d", x))[0]
    double = lambda k: struct.unpack("<d", struct.pack("<q", k))[0]
    holds = lambda k: k == 0 or at_most(double(k))
    lo = hi = key(guess)
    step = 1
    if holds(lo):
        while holds(hi := lo + step):
            lo, step = hi, 2 * step
    else:
        while not holds(lo := max(hi - step, 0)):
            hi, step = lo, 2 * step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return double(lo), double(hi)


def _verdict(
    sm: StabilityMatrices, epsilon: float, solve: bool = False, divisor: float = 1.0
) -> tuple[str, list[Fraction] | None]:
    """(verdict, v): the verdict is "stable", "marginal" or "unstable" as
    rho(P(eps)C / t) is <, = or > 1, decided exactly on the Z-matrix
    A = I - P(eps)C / t, eps and the divisor t > 0 taken as the dyadic
    rationals they are.  rho < 1 exactly when A is a nonsingular M-matrix,
    and rho <= 1 exactly when A is an M-matrix (Berman & Plemmons,
    Nonnegative Matrices in the Mathematical Sciences, ch. 6).  Eliminating
    an index with a positive diagonal entry keeps both properties, and
    leaves a Z-matrix.  A rest with no positive diagonal entry is an
    M-matrix only when it is nilpotent: its digraph has no cycle and no
    loop.

    With solve, a "stable" verdict also gives v = A^-1 1 in rationals,
    otherwise v is None.  The inverse of a nonsingular M-matrix is
    nonnegative with no zero row, so v > 0 and P(eps)C v = t (v - 1).

    A is scaled to integers, and the elimination is Bareiss's: an entry is
    its Schur complement entry times the last pivot, which is positive.
    With solve it also carries the right-hand side, and back-substitutes
    fraction-free: the last pivot is the determinant D of the scaled A, and
    D v is integral (Cramer's rule), so every division is exact."""
    n, eps, t = sm.n_edge_types, Fraction(float(epsilon)), Fraction(float(divisor))
    p = _p_at(sm, eps)
    d_p, d_c = (math.lcm(*(x.denominator for row in m for x in row)) for m in (p, sm.c))
    p, c = [[int(d_p * x) for x in row] for row in p], [[int(d_c * x) for x in row] for row in sm.c]
    # d A = d I - w p c in integers, for t = t_n / t_d, g = gcd(d_p d_c, t_d),
    # d = d_p d_c t_n / g and w = t_d / g
    g = math.gcd(d_p * d_c, t.denominator)
    d, w = d_p * d_c * t.numerator // g, t.denominator // g
    # column n holds the right-hand side of the scaled system d A v = d 1
    a = [[d * (l0 == m0) - w * sum(p[l0][e0] * c[e0][m0] for e0 in range(n)) for m0 in range(n)] + [d]
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
        return "marginal" if _acyclic(live, lambda i, k: a[i][k]) else "unstable", None
    if not solve:
        return "stable", None
    x = [0] * n
    for k in reversed(range(n)):
        i = order[k]
        x[i] = (last * a[i][n] - sum(a[i][j] * x[j] for j in order[k + 1 :])) // a[i][i]
    return "stable", [Fraction(t, last) for t in x]


def _acyclic(nodes, arc) -> bool:
    """Whether the digraph on nodes with an arc i -> k wherever arc(i, k)
    is true has no cycle and no loop: stripping its sinks, again and again,
    leaves no node."""
    nodes = list(nodes)
    while sinks := [i for i in nodes if not any(arc(i, k) for k in nodes)]:
        nodes = [i for i in nodes if i not in sinks]
    return not nodes


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
