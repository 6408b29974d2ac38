"""EXIT density evolution over the binary erasure channel.

The decoder average is tracked as one extrinsic known-bit probability per
edge type, i.e. an n_e-dimensional discrete dynamical system.  One step is a
CN update followed by a VN update; the channel enters only the VN side.

Every node type contributes through a precomputed coefficient array built
from its information-function table.  Evaluating an extrinsic function is
then a contraction of that array against per-axis weight vectors, so a step
costs a handful of small vector-matrix products regardless of how often the
threshold search calls it.

Runs that do not record may end early on three sound decisions: a
super-solution shows a run can never converge, a probe whose all-known state
is locally unstable (the paper's condition) is stuck without a step, and a
run whose state enters a certified basin of the all-known state converges.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb

import numpy as np

from . import stability
from .ensemble import EnsembleSpec
from .errors import InternalError, ValidationError, check_epsilon, check_tol_eps
from .infofuncs import cn_info_table, vn_info_table

_BOUNDS_SLACK = 1e-9
_STALL_TOL = 1e-15
# Non-convergence certificate (see ExitEngine.run): first check after
# _CERT_FIRST steps, then every max(_CERT_FIRST, steps // _CERT_SPACING) steps.
# _CERT_SLACK bounds twice the rounding error of one computed step, and
# _CERT_PAD lifts the extrapolated bound clear of that rounding.
_CERT_FIRST = 8
_CERT_SPACING = 16
_CERT_SLACK = 1e-13
_CERT_PAD = 1e-12
# Basin certificate (see ExitEngine._basin): the Bernstein test may halve the
# interval [0, c_max] up to _BASIN_DEPTH times before it gives up.
_BASIN_DEPTH = 30

OUTCOMES = ("converged", "stuck", "undecided")


# Why a run stopped -> its outcome.
_OUTCOME_OF = {
    "tol": "converged",  # every component reached 1 - tol
    "basin": "converged",  # the state entered a certified basin of the all-known state
    "stall": "stuck",
    "super-solution": "stuck",
    "unstable": "stuck",  # the all-known state is locally unstable; no step taken
    "max_iters": "undecided",
}


@dataclass(frozen=True)
class ProbeOutcome:
    """How a DE run ended: why it stopped, and after how many steps after
    the first (the index of the last trajectory row of a recorded run)."""

    epsilon: float
    reason: str
    iteration: int

    @property
    def outcome(self) -> str:
        """One of OUTCOMES."""
        return _OUTCOME_OF[self.reason]


def _exit_coefficients(table: np.ndarray, axis: int, n_axis: int) -> np.ndarray:
    """Coefficient array for one (node type, edge type) pair.

    Index t along `axis` runs over 0..n_axis-1 (one socket of that type is
    excluded as the output); the remaining axes keep the table layout but
    reversed, so that position t reads table entry (dim - t).
    """
    rev = table[tuple(slice(None, None, -1) for _ in table.shape)]
    sl1 = [slice(None)] * rev.ndim
    sl1[axis] = slice(0, n_axis)
    sl2 = [slice(None)] * rev.ndim
    sl2[axis] = slice(1, n_axis + 1)
    shape = [1] * rev.ndim
    shape[axis] = n_axis
    dec = np.arange(n_axis, 0, -1, dtype=np.int64).reshape(shape)
    inc = np.arange(1, n_axis + 1, dtype=np.int64).reshape(shape)
    coeff = dec * rev[tuple(sl1)] - inc * rev[tuple(sl2)]
    if coeff.min() < 0:
        raise InternalError("negative extrinsic coefficient; table construction is broken")
    if coeff.max() > 2**53:
        raise InternalError("extrinsic coefficient exceeds exact float64 range")
    return coeff.astype(np.float64)


class _Mixture:
    """The CN or the VN half of a step: per edge type, the edge-fraction
    mixture of the extrinsic functions of the node types carrying it.

    A part (one node type, one output edge type) is its coefficient array
    contracted against one weight vector per axis: (1-x_l)^t x_l^(n-t),
    t = 0..n, for an axis of n sockets of edge type l, and eps^z
    (1-eps)^(b-z), z = 0..b, for the b transmitted bits of a VN.  Axes of
    length one carry the weight 1 and are dropped when the part is built.
    One evaluation computes every distinct weight vector in a single
    vectorised power expression over exponents fixed at construction, then
    contracts each part by a chain of 2-D vector-matrix products.  The
    Jacobian contracts the same parts once per state axis, with that axis's
    weight vector replaced by its derivative in x_l.
    """

    def __init__(self, n_edge_types: int, terms):
        """terms: (info table, per-edge-type socket counts, transmitted bits
        or None for a CN, output edge type e0, exact mixture weight) per
        part."""
        self.n_edge_types = n_edge_types
        self.parts: list[list] = [[] for _ in range(n_edge_types)]
        # (value index, n) -> position in the list of weight vectors; value
        # index n_edge_types stands for the channel.
        keys: dict[tuple[int, int], int] = {}
        for table, counts, n_transmitted, e0, weight in terms:
            arr = _exit_coefficients(table, e0, counts[e0])
            axes = [(l0, counts[l0] - (1 if l0 == e0 else 0)) for l0 in range(n_edge_types)]
            if n_transmitted is not None:
                axes.append((n_edge_types, n_transmitted))
            kept = tuple(keys.setdefault(ax, len(keys)) for ax in axes if ax[1] > 0)
            self.parts[e0].append((float(weight), weight, counts[e0], arr.reshape(-1), kept))
        order = sorted(keys, key=keys.get)
        self._axes = order
        self._source = np.array([src for src, n in order for _ in range(n + 1)], dtype=np.intp)
        self._up = np.array([t for _, n in order for t in range(n + 1)], dtype=np.int64)
        self._down = np.array([n - t for _, n in order for t in range(n + 1)], dtype=np.int64)
        ends = np.cumsum([n + 1 for _, n in order]).tolist()
        self._slices = [slice(e - n - 1, e) for (_, n), e in zip(order, ends)]

    def _bases(self, x: np.ndarray, epsilon: float | None):
        up, down = 1.0 - x, x
        if epsilon is not None:
            up = np.append(up, epsilon)
            down = np.append(down, 1.0 - epsilon)
        return up[self._source], down[self._source]

    def _split(self, flat: np.ndarray) -> list[np.ndarray]:
        return [flat[sl] for sl in self._slices]

    def __call__(self, x: np.ndarray, epsilon: float | None = None) -> np.ndarray:
        up, down = self._bases(x, epsilon)
        vectors = self._split(up**self._up * down**self._down)
        out = np.empty(self.n_edge_types)
        for e0, parts in enumerate(self.parts):
            total = 0.0
            for weight, _, n_sockets, arr, kept in parts:
                value = 1.0 - _contract(arr, kept, vectors) / n_sockets
                total += weight * _checked(value, "exit value")
            out[e0] = total
        return out

    def jacobian(self, x: np.ndarray, epsilon: float | None = None) -> np.ndarray:
        """d out[e0] / d x[m], exact.  The derivative of (1-x)^t x^(n-t) is
        (n-t)(1-x)^t x^(n-t-1) - t(1-x)^(t-1) x^(n-t); exponents are clamped
        at 0, where their coefficient vanishes, so x in {0, 1} stays finite."""
        up, down = self._bases(x, epsilon)
        vectors = self._split(up**self._up * down**self._down)
        slopes = self._split(
            self._down * up**self._up * down ** np.maximum(self._down - 1, 0)
            - self._up * up ** np.maximum(self._up - 1, 0) * down**self._down
        )
        jac = np.zeros((self.n_edge_types, self.n_edge_types))
        for e0, parts in enumerate(self.parts):
            for weight, _, n_sockets, arr, kept in parts:
                for k in kept:
                    m = self._axes[k][0]
                    if m == self.n_edge_types:
                        continue
                    swapped = vectors[:k] + [slopes[k]] + vectors[k + 1 :]
                    jac[e0, m] -= weight * _contract(arr, kept, swapped) / n_sockets
        return jac

    def erasure_polynomials(self, scales, epsilon: Fraction | None = None) -> list[list[Fraction]]:
        """Exact power-basis coefficients in c of (1 - self(1 - c*scales))_e0 / c,
        per output edge type e0, from the integer coefficient arrays and the
        exact mixture weights; scales and epsilon are rationals.

        In erasure coordinates y = 1 - x an axis's weight vector reads
        y^t (1-y)^(n-t), so at y = c*a entry t is a polynomial of degree n
        in c; contracting the parts axis by axis keeps the degree at the
        part's socket count.  The constant term vanishes on the types the
        stability analysis accepts, since the all-known state is fixed."""
        vectors = []
        for src, n in self._axes:
            if src == self.n_edge_types:
                vec = [[epsilon**z * (1 - epsilon) ** (n - z)] for z in range(n + 1)]
            else:
                a = scales[src]
                vec = [[0] * (n + 1) for _ in range(n + 1)]
                for t in range(n + 1):
                    for j in range(n - t + 1):
                        vec[t][t + j] = comb(n - t, j) * (-a) ** j * a**t
            vectors.append(np.array(vec, dtype=object))
        polys = []
        for parts in self.parts:
            total = [Fraction(0)]
            for _, weight, n_sockets, arr, kept in parts:
                acc = np.array([int(v) for v in arr], dtype=object).reshape(-1, 1)
                for k in kept:
                    acc = _poly_dot(vectors[k], acc)
                total = _poly_add(total, (weight / n_sockets * acc[0]).tolist())
            if total[0] != 0:
                raise InternalError("the all-known state is not a fixed point of an eligible spec")
            polys.append(total[1:] or [Fraction(0)])
        return polys


def _poly_add(a: list, b: list) -> list:
    if len(a) < len(b):
        a, b = b, a
    return [x + y for x, y in zip(a, b)] + a[len(b) :]


def _poly_dot(vec: np.ndarray, acc: np.ndarray) -> np.ndarray:
    """Contract the leading axis of acc, a flattened array of polynomials
    (coefficients along its last axis), against vec, one polynomial per
    index of that axis."""
    m, d_v = vec.shape
    rows = acc.reshape(m, -1, acc.shape[-1])
    d_a = rows.shape[-1]
    out = np.zeros((rows.shape[1], d_a + d_v - 1), dtype=object)
    for t in range(m):
        for j in range(d_v):
            if vec[t, j]:
                out[:, j : j + d_a] += vec[t, j] * rows[t]
    return out


def _contract(arr: np.ndarray, kept, vectors) -> float:
    acc = arr
    for k in kept:
        v = vectors[k]
        acc = np.dot(v, acc.reshape(v.shape[0], -1))
    return acc.item()


def _checked(value: float, what: str) -> float:
    if value < -_BOUNDS_SLACK or value > 1.0 + _BOUNDS_SLACK:
        raise InternalError(f"{what} left [0,1] by more than {_BOUNDS_SLACK}: {value!r}")
    return min(1.0, max(0.0, value))


def _check_run_limits(max_iters: int, tol: float) -> None:
    if max_iters < 0:
        raise ValidationError(f"max_iters must be >= 0, got {max_iters!r}")
    if not 0.0 < tol < 1.0:
        raise ValidationError(f"convergence tolerance must lie in (0, 1), got {tol!r}")


class ExitEngine:
    """Precomputed evaluator of the EXIT recursion for one validated spec."""

    def __init__(self, spec: EnsembleSpec):
        self.spec = spec
        self.n_edge_types = n_e = spec.n_edge_types
        cn_terms, vn_terms = [], []
        # VN tables first: only a VN walk can exceed the walk budget on a
        # valid spec, and it then fails before any table is built.
        for vi, vn in enumerate(spec.vn_types):
            table, counts = vn_info_table(vn, n_e), spec.vn_socket_counts[vi]
            vn_terms += [
                (table, counts, vn.n_transmitted, e0, spec.vn_edge_fractions[vi][e0])
                for e0 in range(n_e)
                if counts[e0] > 0
            ]
        for ci, cn in enumerate(spec.cn_types):
            table, counts = cn_info_table(cn, n_e), spec.cn_socket_counts[ci]
            cn_terms += [
                (table, counts, None, e0, spec.cn_edge_fractions[ci][e0])
                for e0 in range(n_e)
                if counts[e0] > 0
            ]
        self._cn = _Mixture(n_e, cn_terms)
        self._vn = _Mixture(n_e, vn_terms)

    def step(self, i_ev, epsilon: float, *, _trusted: bool = False) -> np.ndarray:
        """One application of the recursion: CN pass, then VN pass.

        run passes _trusted for the states it computed itself, which skips
        the input checks."""
        if _trusted:
            return self._vn(self._cn(i_ev), epsilon)
        check_epsilon(epsilon)
        return self._vn(self._cn(self._state(i_ev)), epsilon)

    def _state(self, i_ev) -> np.ndarray:
        """A caller's state as a float vector, or ValidationError."""
        try:
            x = np.asarray(i_ev, dtype=float)
        except (TypeError, ValueError):
            raise ValidationError(f"a state must be a vector of numbers, got {i_ev!r}") from None
        if x.shape != (self.n_edge_types,):
            raise ValidationError(
                f"a state has one component per edge type ({self.n_edge_types}), "
                f"got shape {x.shape}"
            )
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValidationError(f"state components must lie in [0, 1], got {x.tolist()!r}")
        return x

    def run(
        self,
        epsilon: float,
        max_iters: int = 20000,
        tol: float = 1e-10,
        record: bool = False,
    ) -> tuple[bool, np.ndarray, ProbeOutcome]:
        """Iterate from the all-unknown prior to the all-known fixed point.

        Returns (converged, trajectory, outcome); the trajectory is a
        (T, n_e) array whose row i is the state after iteration i, with no
        rows unless record is set.  Non-convergence is a result, not an
        error.  A run converges once every component reaches 1 - tol, is
        stuck when it stalls (no component moves by _STALL_TOL in one
        step), and is undecided once it has taken max_iters steps.  Runs
        that do not record also take three early decisions:

        - stuck, "unstable", without a step: the spec is eligible for the
          stability analysis and its exact verdict at epsilon is
          "unstable" (sigma > 1).  For the Perron vector v of P(eps)C,
          g(c v) / c tends to sigma v > v as c falls to 0, where g is the
          step in erasure coordinates y = 1 - x.  So g(c v) >= c v for every
          small c > 0: c v is a sub-solution, the nondecreasing step keeps
          every iterate from the all-unknown y = 1 at or above it, and the
          iterates never reach the all-known state.
        - converged, "basin": the verdict is "stable" and the state enters
          the basin that _basin certifies.
        - stuck, "super-solution": every so often the run guesses a bound y
          on its stuck point by geometric extrapolation of the last two
          increments, y = min(1, x + 2 d / (1 - r) + _CERT_PAD), where x is
          the current state, d the last increment and r the ratio of the
          largest components of the last two increments.  The run stops if
          x <= y, step(y) <= y - _CERT_SLACK componentwise, and
          min(y) < 1 - tol.  The step is nondecreasing in the state, so
          x <= y gives step(x) <= step(y) <= y, and by induction every
          later iterate stays at or below y, whose smallest component never
          meets the convergence test.  _CERT_SLACK exceeds twice the
          rounding error of a computed step, so the induction also holds
          for the computed iterates.  It is checked after _CERT_FIRST steps
          and then at gaps growing with the step count, so a run that is
          never certified spends a few percent of its steps on it.

        The first two decide the recursion itself rather than its
        floating-point iterates.  They can differ from a run without them
        only where no iteration cap decides: just above the stability bound
        the stuck point can lie within tol of the all-known state (on the
        two-bank (3,2)-SPC ensemble, within 2.5e-11 of the bound), and just
        below it the iterates contract so slowly that they stall in their
        last bits before reaching tol.  Specs the stability analysis
        refuses, and specs whose P(eps)C vanishes, take only the
        super-solution test.
        """
        check_epsilon(epsilon)
        _check_run_limits(max_iters, tol)
        n_e = self.n_edge_types
        basin = None
        sm = None if record else self._stability
        if sm is not None:
            verdict = stability.stability_verdict(self.spec, epsilon, matrices=sm)
            if verdict == "unstable":
                return False, np.empty((0, n_e)), ProbeOutcome(epsilon, "unstable", 0)
            if verdict == "stable":
                basin = self._basin(sm, epsilon)
        x = self.step(np.zeros(n_e), epsilon, _trusted=True)
        trajectory = [x]
        next_check = max_iters + 1 if record else _CERT_FIRST
        rise = None
        it = 0
        reason = _settled(x, tol, basin)
        while reason is None and it < max_iters:
            x_next = self.step(x, epsilon, _trusted=True)
            it += 1
            if record:
                trajectory.append(x_next)
            prev_rise, rise = rise, x_next - x
            x = x_next
            reason = _settled(x, tol, basin)
            if reason is None and np.max(np.abs(rise)) < _STALL_TOL:
                reason = "stall"
            if reason is None and it >= next_check:
                next_check = it + max(_CERT_FIRST, it // _CERT_SPACING)
                if self._never_converges(x, rise, prev_rise, epsilon, tol):
                    reason = "super-solution"
        reason = reason or "max_iters"
        rows = np.array(trajectory) if record else np.empty((0, n_e))
        outcome = ProbeOutcome(epsilon, reason, it)
        return outcome.outcome == "converged", rows, outcome

    @cached_property
    def _stability(self) -> stability.StabilityMatrices | None:
        """The spec's stability matrices, or None where the early decisions
        from them cannot pay: specs the analysis refuses, and specs whose
        P(eps)C vanishes at every eps, whose runs converge superlinearly
        near the all-known state anyway."""
        if not self.spec.stability_eligible:
            return None
        sm = stability.build_matrices(self.spec)
        return None if sm.vanishes() else sm

    def _basin(self, sm: stability.StabilityMatrices, epsilon: float) -> _Basin | None:
        """A certified basin {y <= c0 v} of the all-known state at a stable
        epsilon, or None when the float sigma is not below 1 or the test
        below fails.

        In erasure coordinates y = 1 - x the step is g = h_V . h_C, its CN
        and VN halves, both nondecreasing with h(0) = 0 and with Jacobians
        C and P(eps) at 0.  v is the Perron vector of P(eps)C + tau J (J all
        ones, tau small), so v > 0 even when P(eps)C is reducible; r lies
        halfway between a bound on its Perron root and 1, and w = C v + eta
        with eta > 0 small enough that P(eps) w < r v.  The test proves

            h_C(c v) <= c w   and   h_V(c w) <= r c v   for c in (0, c0]

        in exact rationals, from the integer information tables, the exact
        edge fractions and the exact epsilon: every component of
        (c w - h_C(c v)) / c and of (r c v - h_V(c w)) / c is a polynomial
        in c whose Bernstein coefficients on [0, c0] are nonnegative, after
        at most _BASIN_DEPTH halvings of the interval (Garloff 1986).
        Splitting at the halves keeps each degree at one half's socket
        count.  With c0 w <= 1, h_V is monotone on the states involved, so
        g(c v) <= h_V(c w) <= r c v.  A state y <= c v with c <= c0 then has
        g(y) <= g(c v) <= r c v, and by induction the iterates fall below
        r^k c v: the recursion converges.  The basin is shrunk by
        _CERT_SLACK, so it also holds every state within twice the rounding
        error of one computed step of the one tested.
        """
        gap = 1.0 - sm.sigma(epsilon)
        if gap <= 0.0:
            return None
        rho, v = sm.perron(epsilon, gap / (8 * self.n_edge_types), gap / 8)
        if not (rho < 1.0 and v.min() > 0.0):
            return None
        r = 0.5 * (1.0 + rho)
        spread = float(sm.p_matrix(epsilon).sum(axis=1).max())
        eta = 0.5 * (r - rho) * v.min() / spread if spread > 0.0 else 1.0
        w = sm.c_matrix() @ v + eta
        v_q = [Fraction(t) for t in v.tolist()]
        w_q = [Fraction(t) for t in w.tolist()]
        tops = w_q + [Fraction(r) * t for t in v_q]
        halves = self._cn.erasure_polynomials(v_q)
        halves += self._vn.erasure_polynomials(w_q, Fraction(float(epsilon)))
        c_max = min(Fraction(1), 1 / max(w_q))
        share = min(
            _nonnegative_share(_bernstein([top - h[0]] + [-a for a in h[1:]], c_max), _BASIN_DEPTH)
            for top, h in zip(tops, halves)
        )
        bound = [share * c_max * t - Fraction(_CERT_SLACK) for t in v_q]
        return _Basin(bound) if min(bound) > 0 else None

    def _never_converges(self, x, rise, prev_rise, epsilon: float, tol: float) -> bool:
        """The super-solution test described in run."""
        top, prev_top = rise.max(), prev_rise.max()
        if not 0.0 < top < prev_top:
            return False
        y = np.minimum(1.0, x + 2.0 * rise / (1.0 - top / prev_top) + _CERT_PAD)
        if y.min() >= 1.0 - tol or np.any(x > y):
            return False
        return bool(np.all(self.step(y, epsilon, _trusted=True) <= y - _CERT_SLACK))

    def threshold(
        self,
        tol_eps: float = 1e-6,
        max_iters: int = 20000,
        tol_fp: float = 1e-10,
    ) -> tuple[tuple[float, float], dict[str, int]]:
        """Bisection for the largest erasure probability that still converges.

        Returns the final bracket (lo, hi), at most 2 tol_eps wide, and the
        number of probes per outcome (a dict keyed by OUTCOMES).  A
        converged probe raises lo; a stuck or undecided one lowers hi, so
        the bracket holds the threshold whenever no probe was undecided.

        Where run's stability cap applies and the spec has a stability
        bound, the search starts from hi = bound + tol_eps, at which the
        verdict must read "unstable": local stability is necessary for
        convergence, so the threshold lies below, and no probe lands on the
        marginal point itself, where the run converges too slowly for any
        cap.
        """
        check_tol_eps(tol_eps)
        _check_run_limits(max_iters, tol_fp)
        lo, hi = 0.0, self._unstable_start(tol_eps)
        counts = dict.fromkeys(OUTCOMES, 0)
        while hi - lo > 2.0 * tol_eps:
            mid = 0.5 * (lo + hi)
            converged, _, probe = self.run(mid, max_iters=max_iters, tol=tol_fp)
            counts[probe.outcome] += 1
            if converged:
                lo = mid
            else:
                hi = mid
        return (lo, hi), counts

    def _unstable_start(self, tol_eps: float) -> float:
        sm = self._stability
        if sm is None:
            return 1.0
        bound = stability.stability_bound(self.spec, tol_eps, matrices=sm)
        if bound is None:
            return 1.0
        start = min(1.0, bound + tol_eps)
        unstable = stability.stability_verdict(self.spec, start, matrices=sm) == "unstable"
        return start if unstable else 1.0

    def jacobian(self, at, epsilon: float) -> np.ndarray:
        """Exact Jacobian of the one-step map at a state: the VN half's
        Jacobian at the CN output times the CN half's Jacobian."""
        check_epsilon(epsilon)
        x = self._state(at)
        return self._vn.jacobian(self._cn(x), epsilon) @ self._cn.jacobian(x)


def _settled(x: np.ndarray, tol: float, basin: _Basin | None) -> str | None:
    if x.min() >= 1.0 - tol:
        return "tol"
    if basin is not None and basin.contains(x):
        return "basin"
    return None


class _Basin:
    """The states with 1 - x <= bound componentwise, bound exact."""

    def __init__(self, bound: list[Fraction]):
        self._bound = bound
        self._rough = [float(b) for b in bound]

    def contains(self, x: np.ndarray) -> bool:
        xs = x.tolist()
        # The float comparison only screens; the exact one decides.
        return all(1.0 - a <= b for a, b in zip(xs, self._rough)) and all(
            1 - Fraction(a) <= b for a, b in zip(xs, self._bound)
        )


def _bernstein(coeffs: list[Fraction], width: Fraction) -> list[Fraction]:
    """Bernstein coefficients on [0, width] of the polynomial with these
    power-basis coefficients."""
    d = len(coeffs) - 1
    scaled = [a * width**j for j, a in enumerate(coeffs)]
    return [
        sum(Fraction(comb(i, j), comb(d, j)) * scaled[j] for j in range(i + 1))
        for i in range(d + 1)
    ]


def _nonnegative_share(b: list[Fraction], depth: int) -> Fraction:
    """The largest dyadic share s of the interval such that the polynomial
    with Bernstein coefficients b is nonnegative on its first s, found by
    de Casteljau halving at most depth levels deep; 0 if none.

    Nonnegative coefficients prove the polynomial nonnegative on the
    interval, and a negative first one is its value at the left end."""
    if min(b) >= 0:
        return Fraction(1)
    if b[0] < 0 or depth == 0:
        return Fraction(0)
    left, right = [b[0]], [b[-1]]
    while len(b) > 1:
        b = [(u + t) / 2 for u, t in zip(b, b[1:])]
        left.append(b[0])
        right.append(b[-1])
    share = _nonnegative_share(left, depth - 1) / 2
    if share < Fraction(1, 2):
        return share
    return share + _nonnegative_share(right[::-1], depth - 1) / 2
