"""EXIT density evolution over the binary erasure channel.

The decoder average is tracked as one extrinsic known-bit probability per
edge type, i.e. an n_e-dimensional discrete dynamical system.  One step is a
CN update followed by a VN update; the channel enters only the VN side.

Every node type contributes through a precomputed coefficient array built
from its information-function table.  Evaluating an extrinsic function is
then a contraction of that array against per-axis weight vectors, so a step
costs a handful of small vector-matrix products regardless of how often the
threshold search calls it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ensemble import EnsembleSpec
from .errors import InternalError, ValidationError
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


@dataclass
class ExitState:
    """Tracked vector of per-edge-type extrinsic known probabilities."""

    i_ev: np.ndarray
    iteration: int
    epsilon: float


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
        or None for a CN, output edge type e0, mixture weight) per part."""
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
            self.parts[e0].append((weight, counts[e0], arr.reshape(-1), kept))
        order = sorted(keys, key=keys.get)
        self._axis_source = [src for src, _ in order]
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
            for weight, n_sockets, arr, kept in parts:
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
            for weight, n_sockets, arr, kept in parts:
                for k in kept:
                    m = self._axis_source[k]
                    if m == self.n_edge_types:
                        continue
                    swapped = vectors[:k] + [slopes[k]] + vectors[k + 1 :]
                    jac[e0, m] -= weight * _contract(arr, kept, swapped) / n_sockets
        return jac


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


def check_epsilon(epsilon: float) -> None:
    """Reject an erasure probability outside [0, 1], NaN included."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValidationError(f"erasure probability must lie in [0, 1], got {epsilon!r}")


def check_tol_eps(tol_eps: float) -> None:
    """Reject a bisection half-width the search cannot reach.

    Below the double-precision epsilon the bracket can shrink to two
    adjacent doubles, whose midpoint is one of them, and the search would
    never end.
    """
    if not np.finfo(float).eps <= tol_eps < np.inf:
        raise ValidationError(f"tol_eps must be a finite number >= 2**-52, got {tol_eps!r}")


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
        for ci, cn in enumerate(spec.cn_types):
            table, counts = cn_info_table(cn, n_e), spec.cn_socket_counts[ci]
            cn_terms += [
                (table, counts, None, e0, float(spec.cn_edge_fractions[ci][e0]))
                for e0 in range(n_e)
                if counts[e0] > 0
            ]
        for vi, vn in enumerate(spec.vn_types):
            table, counts = vn_info_table(vn, n_e), spec.vn_socket_counts[vi]
            vn_terms += [
                (table, counts, vn.n_transmitted, e0, float(spec.vn_edge_fractions[vi][e0]))
                for e0 in range(n_e)
                if counts[e0] > 0
            ]
        self._cn = _Mixture(n_e, cn_terms)
        self._vn = _Mixture(n_e, vn_terms)

    def step(self, i_ev, epsilon: float) -> np.ndarray:
        """One application of the recursion: CN pass, then VN pass."""
        check_epsilon(epsilon)
        return self._vn(self._cn(np.asarray(i_ev, dtype=float)), epsilon)

    def run(
        self,
        epsilon: float,
        max_iters: int = 20000,
        tol: float = 1e-10,
        record: bool = False,
    ) -> tuple[bool, np.ndarray, ExitState]:
        """Iterate from the all-unknown prior to the all-known fixed point.

        Returns (converged, trajectory, final state); the trajectory is a
        (T, n_e) array whose row i is the state after iteration i, with no
        rows unless record is set.  Non-convergence is a result, not an
        error.  A run stops as converged once every component reaches
        1 - tol, and as not converged when it stalls (no component moves by
        _STALL_TOL in one step), when it has taken max_iters steps, or, on
        runs that do not record, when a super-solution certifies that it
        can never converge.

        The certificate: every so often the run guesses a bound y on its
        stuck point by geometric extrapolation of the last two increments,
        y = min(1, x + 2 d / (1 - r) + _CERT_PAD), where x is the current
        state, d the last increment and r the ratio of the largest
        components of the last two increments.  The run stops if x <= y,
        step(y) <= y - _CERT_SLACK componentwise, and min(y) < 1 - tol.
        The step is nondecreasing in the state, so x <= y gives
        step(x) <= step(y) <= y, and by induction every later iterate stays
        at or below y, whose smallest component never meets the
        convergence test.  _CERT_SLACK exceeds twice the rounding error of
        a computed step, so the induction also holds for the computed
        iterates.  The certificate therefore never changes whether a run
        converges, only how soon a run that cannot converge returns.  It is
        checked after _CERT_FIRST steps and then at gaps growing with the
        step count, so a run that is never certified spends a few percent
        of its steps on it.  Every evaluation goes through step.
        """
        check_epsilon(epsilon)
        _check_run_limits(max_iters, tol)
        x = self.step(np.zeros(self.n_edge_types), epsilon)
        trajectory = [x]
        converged = bool(x.min() >= 1.0 - tol)
        next_check = max_iters + 1 if record else _CERT_FIRST
        rise = None
        it = 0
        while not converged and it < max_iters:
            x_next = self.step(x, epsilon)
            it += 1
            if record:
                trajectory.append(x_next)
            converged = bool(x_next.min() >= 1.0 - tol)
            prev_rise, rise = rise, x_next - x
            x = x_next
            if converged or np.max(np.abs(rise)) < _STALL_TOL:
                break
            if it >= next_check:
                next_check = it + max(_CERT_FIRST, it // _CERT_SPACING)
                if self._never_converges(x, rise, prev_rise, epsilon, tol):
                    break
        rows = np.array(trajectory) if record else np.empty((0, self.n_edge_types))
        return converged, rows, ExitState(x, it, epsilon)

    def _never_converges(self, x, rise, prev_rise, epsilon: float, tol: float) -> bool:
        """The super-solution test described in run."""
        top, prev_top = rise.max(), prev_rise.max()
        if not 0.0 < top < prev_top:
            return False
        y = np.minimum(1.0, x + 2.0 * rise / (1.0 - top / prev_top) + _CERT_PAD)
        if y.min() >= 1.0 - tol or np.any(x > y):
            return False
        return bool(np.all(self.step(y, epsilon) <= y - _CERT_SLACK))

    def threshold(
        self,
        tol_eps: float = 1e-6,
        max_iters: int = 20000,
        tol_fp: float = 1e-10,
    ) -> tuple[float, int]:
        """Bisection for the largest erasure probability that still converges.

        Returns (midpoint of the final bracket, number of probes).
        """
        check_tol_eps(tol_eps)
        _check_run_limits(max_iters, tol_fp)
        lo, hi = 0.0, 1.0
        probes = 0
        while hi - lo > 2.0 * tol_eps:
            mid = 0.5 * (lo + hi)
            converged, _, _ = self.run(mid, max_iters=max_iters, tol=tol_fp)
            probes += 1
            if converged:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi), probes

    def jacobian(self, at, epsilon: float) -> np.ndarray:
        """Exact Jacobian of the one-step map at a state: the VN half's
        Jacobian at the CN output times the CN half's Jacobian."""
        check_epsilon(epsilon)
        x = np.asarray(at, dtype=float)
        if not np.all((x >= 0.0) & (x <= 1.0)):
            raise ValidationError(f"state components must lie in [0, 1], got {x.tolist()!r}")
        return self._vn.jacobian(self._cn(x), epsilon) @ self._cn.jacobian(x)
