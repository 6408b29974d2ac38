"""EXIT density evolution over the binary erasure channel.

The decoder average is tracked as one extrinsic known-bit probability per
edge type, i.e. an n_e-dimensional discrete dynamical system.  One step is a
CN update followed by a VN update; the channel enters only the VN side.

Every node type contributes through a precomputed coefficient array built
from its information-function table.  Evaluating an extrinsic function is
then a contraction of that array against per-axis weight vectors.  Each
engine compiles one generated function, on its first step: the loop of a
run, which takes every stop decision of the run with its comparisons
unrolled over the edge types, and writes both halves of the step inline
as straight-line code on float locals with every coefficient in place, so
a step of a small spec costs about a microsecond instead of numpy's
per-call overhead.  Its statements that read only the erasure probability
run once, before the loop.  A half with more coefficient entries keeps the
numpy contraction, which the loop calls.  A single step is the same loop,
capped after one step.

Runs that do not record may end early on three sound decisions: a
super-solution shows a run can never converge, a probe whose all-known state
is locally unstable (the paper's condition) is stuck without a step, and a
run whose state enters a certified basin of the all-known state converges.
The basin is proven exactly on Python ints: every polynomial of the proof is
an integer one times a positive rational, which changes no sign the proof
reads.
"""

from __future__ import annotations

from collections.abc import Callable
from fractions import Fraction
from functools import cached_property
from math import comb, factorial, inf, lcm, nextafter, prod
from operator import mul, sub
from typing import NamedTuple

from . import stability
from .ensemble import EnsembleSpec
from .errors import InternalError, ValidationError, check_epsilon, check_run_limits, check_tol_eps, is_real
from .infofuncs import cn_table, vn_table

_BOUNDS_SLACK = 1e-9
# A half whose parts hold more coefficient entries than this keeps the numpy
# contraction.  Generated code costs about 0.03 us per entry and step and
# 10 us per entry to compile, while numpy's step grows with the number of
# parts rather than entries; past a few thousand entries numpy is faster.
_KERNEL_MAX_ENTRIES = 1500
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
# interval [0, 1] up to _BASIN_DEPTH times before it gives up.
_BASIN_DEPTH = 30
# Rows per chunk that a recorded run hands to its record callable.
_FLUSH_ROWS = 1000

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


class ProbeOutcome(NamedTuple):
    """How a DE run ended: why it stopped, and after how many steps after
    the first (the index of the last trajectory row of a recorded run)."""

    epsilon: float
    reason: str
    iteration: int

    @property
    def outcome(self) -> str:
        """One of OUTCOMES."""
        return _OUTCOME_OF[self.reason]


def _exit_coefficients(table: list[int], shape: tuple[int, ...], axis: int) -> list[int]:
    """Coefficient array for one (node type, edge type) pair, flat in C
    order, from an information table given flat in C order with its shape.

    Index t along `axis` runs over 0..n-1 for the n = shape[axis] - 1
    sockets of that type (one socket is excluded as the output); the
    remaining axes keep the table layout but reversed, so that position t
    reads table entry (dim - t).  Reversing every axis of a C-order array
    reverses its flat list.
    """
    rev = table[::-1]
    n = shape[axis] - 1
    step = prod(shape[axis + 1 :])
    coeff = []
    for start in range(0, len(rev), (n + 1) * step):
        for t in range(n):
            at = start + t * step
            pairs = zip(rev[at : at + step], rev[at + step : at + 2 * step])
            coeff += [(n - t) * a - (t + 1) * b for a, b in pairs]
    if min(coeff) < 0:
        raise InternalError("negative extrinsic coefficient; table construction is broken")
    if max(coeff) > 2**53:
        raise InternalError("extrinsic coefficient exceeds exact float64 range")
    return coeff


class _Mixture:
    """The CN or the VN half of a step: per edge type, the edge-fraction
    mixture of the extrinsic functions of the node types carrying it.

    A part (one node type, one output edge type) is its coefficient array
    contracted against one weight vector per axis: (1-x_l)^t x_l^(n-t),
    t = 0..n, for an axis of n sockets of edge type l, and eps^z
    (1-eps)^(b-z), z = 0..b, for the b bits the node transmits, none for a
    CN.  Axes of length one carry the weight 1 and are dropped when the
    part is built.
    The coefficient arrays are flat lists of ints, which the generated
    code inlines and the exact polynomials read as they are; only the
    numpy contraction of a wide half turns them into float arrays.
    """

    def __init__(self, n_edge_types: int, terms):
        """terms: (info table flat in C order, its shape, per-edge-type
        socket counts, transmitted bits, output edge type e0, exact mixture
        weight) per part."""
        self.n_edge_types = n_edge_types
        self.parts: list[list] = [[] for _ in range(n_edge_types)]
        # (value index, n) -> position in the list of weight vectors; value
        # index n_edge_types stands for the channel.
        keys: dict[tuple[int, int], int] = {}
        for table, shape, counts, n_transmitted, e0, weight in terms:
            arr = _exit_coefficients(table, shape, e0)
            axes = [(l0, counts[l0] - (1 if l0 == e0 else 0)) for l0 in range(n_edge_types)]
            axes.append((n_edge_types, n_transmitted))
            kept = tuple(keys.setdefault(ax, len(keys)) for ax in axes if ax[1] > 0)
            self.parts[e0].append((float(weight), weight, counts[e0], arr, kept))
        self._axes = sorted(keys, key=keys.get)

    def generated(self) -> bool:
        """Whether this half is written as straight-line code: its parts
        hold at most _KERNEL_MAX_ENTRIES coefficient entries."""
        return sum(len(arr) for parts in self.parts for *_, arr, _ in parts) <= _KERNEL_MAX_ENTRIES

    def _kernel_source(self, x: str, out: str, tag: str) -> tuple[list[str], list[str]]:
        """Python statements that compute what contraction does, in the same
        order, from the floats x0, x1, ... and eps into out0, out1, ...: the
        weights (1-x)^t x^(n-t) by pow, each part contracted axis by axis in
        kept order with zero coefficients skipped, then checked and clamped
        by _checked.  Returned as (the statements that read only eps, the
        rest); the names they set besides the outputs start with tag.  They
        hold numbers only.  They and contraction can differ in the last bit,
        as numpy's SIMD power and BLAS's fused multiply-adds round
        differently from libm's pow and one rounding per operation."""
        n_e = self.n_edge_types
        used: set[tuple[int, int]] = set()

        def weight(k: int, t: int) -> str:
            used.add((k, t))
            return f"{tag}w{k}_{t}"

        body, outputs = [], []
        for e0, parts in enumerate(self.parts):
            terms = []
            for i, (weight_f, _, n_sockets, arr, kept) in enumerate(parts):
                # One expression (None where every coefficient is zero) per
                # entry of what is left after contracting the leading axes,
                # as contraction's chain of vector-matrix products does.
                exprs = [repr(float(c)) if c else None for c in arr]
                for k in kept:
                    rest = len(exprs) // (self._axes[k][1] + 1)
                    exprs = [
                        " + ".join(
                            _times(weight(k, t), e) for t, e in enumerate(exprs[j::rest]) if e
                        )
                        or None
                        for j in range(rest)
                    ]
                # _checked leaves a value in [0, 1] as it is (1.0 - c never
                # rounds to -0.0), so only the others need the call.
                value = f"{tag}v{e0}_{i}"
                body += [
                    f"{value} = 1.0 - ({exprs[0] or 0.0}) / {float(n_sockets)!r}",
                    f"if not 0.0 <= {value} <= 1.0:",
                    f"    {value} = _checked({value})",
                ]
                terms.append(_times(repr(weight_f), value))
            outputs.append(" + ".join(terms) or "0.0")
        # u_l = 1 - x_l for a state axis, u_n_e = 1 - eps for the channel,
        # whose statements are the ones that read only eps.
        setup, head = [], []
        for src in sorted({src for k, t in used for src, n in [self._axes[k]] if (n - t if src == n_e else t)}):
            if src == n_e:
                setup.append(f"{tag}u{src} = 1.0 - eps")
            else:
                head.append(f"{tag}u{src} = 1.0 - {x}{src}")
        for k, (src, n) in enumerate(self._axes):
            channel = src == n_e
            up, down = ("eps", f"{tag}u{src}") if channel else (f"{tag}u{src}", f"{x}{src}")
            (setup if channel else head).extend(
                f"{tag}w{k}_{t} = {_times(_power(up, t), _power(down, n - t))}"
                for t in range(n + 1)
                if (k, t) in used
            )
        return setup, head + body + [f"{out}{e0} = {expr}" for e0, expr in enumerate(outputs)]

    def contraction(self) -> Callable[[tuple, float | None], tuple]:
        """This half in numpy, as a function of (state tuple, epsilon or
        None) that returns a tuple of floats: how the DE loop evaluates a
        half that is not generated.  One evaluation computes every distinct
        weight vector in a single vectorised power expression over
        exponents fixed here, then contracts each part by a chain of 2-D
        vector-matrix products."""
        import numpy as np

        order = self._axes
        source = np.array([src for src, n in order for _ in range(n + 1)], dtype=np.intp)
        ups = np.array([t for _, n in order for t in range(n + 1)], dtype=np.int64)
        downs = np.array([n - t for _, n in order for t in range(n + 1)], dtype=np.int64)
        ends = np.cumsum([n + 1 for _, n in order]).tolist()
        slices = [slice(e - n - 1, e) for (_, n), e in zip(order, ends)]
        halves = [
            [(weight, n_sockets, np.array(arr, dtype=np.float64), kept) for weight, _, n_sockets, arr, kept in p]
            for p in self.parts
        ]

        def contract(x: tuple, epsilon: float | None = None) -> tuple:
            x = np.array(x, dtype=np.float64)
            up, down = 1.0 - x, x
            if epsilon is not None:
                up = np.append(up, epsilon)
                down = np.append(down, 1.0 - epsilon)
            flat = up[source] ** ups * down[source] ** downs
            vectors = [flat[sl] for sl in slices]
            out = []
            for parts in halves:
                total = 0.0
                for weight, n_sockets, acc, kept in parts:
                    for k in kept:
                        v = vectors[k]
                        acc = np.dot(v, acc.reshape(v.shape[0], -1))
                    total += weight * _checked(1.0 - acc.item() / n_sockets)
                out.append(total)
            return tuple(out)

        return contract

    def erasure_polynomials(
        self, inputs: list[list[int]], den: int, epsilon: Fraction | None = None
    ) -> list[tuple[list[int], int]]:
        """Exact power-basis coefficients in u of (1 - h(1 - y(u)))_e0 / u
        for this half h, per output edge type e0, as integers p over one
        positive integer q: the polynomial is sum_k p[k] u^k / q.  Input
        edge type l has erasure probability y_l(u) = inputs[l](u) / den, an
        integer polynomial with no constant term over a positive den, and
        epsilon is a rational; each part is brought onto q by one integer.

        In erasure coordinates an axis's weight vector reads y^t (1-y)^(n-t),
        so for y = P / D entry t is P^t (D - P)^(n-t) / D^n, the channel
        being P = e over D = m for epsilon = e / m.  The contraction runs on
        packed polynomials (_pack), in a width that bounds every coefficient
        of the sum, and each entry is a product of two packed powers.  The
        constant term vanishes on the types the stability analysis accepts,
        since the all-known state is fixed."""
        axes, dens = [], []
        for src, n in self._axes:
            if src == self.n_edge_types:
                poly, d = [epsilon.numerator], epsilon.denominator
            else:
                poly, d = inputs[src], den
            axes.append((poly, [d - poly[0], *(-a for a in poly[1:])], n))
            dens.append(d**n)
        # Contracting an axis multiplies the sum of the absolute values of
        # the coefficients by at most its largest such sum among its
        # entries, which is at most |P|^t |D - P|^(n-t) for entry t.
        norms = [max(sum(map(abs, poly)), sum(map(abs, other))) ** n for poly, other, n in axes]
        degrees = [n * (len(poly) - 1) for poly, _, n in axes]
        polys = []
        for parts in self.parts:
            terms = []
            for _, weight, n_sockets, arr, kept in parts:
                mix = weight / n_sockets
                under = mix.denominator * prod(dens[k] for k in kept)
                terms.append((arr, kept, mix.numerator, under))
            q = lcm(*(under for *_, under in terms))
            scaled = [(arr, kept, num * (q // under)) for arr, kept, num, under in terms]
            bound = sum(f * sum(arr) * prod(norms[k] for k in kept) for arr, kept, f in scaled)
            width = bound.bit_length() + 1
            packed = []
            for poly, other, n in axes:
                y, z = _pack(poly, width), _pack(other, width)
                packed.append([y**t * z ** (n - t) for t in range(n + 1)])
            total = 0
            for arr, kept, f in scaled:
                acc = arr
                for k in kept:
                    rest = len(acc) // len(packed[k])
                    acc = [sum(map(mul, packed[k], acc[r::rest])) for r in range(rest)]
                total += f * acc[0]
            length = max(1 + sum(degrees[k] for k in kept) for _, kept, _ in scaled)
            coeffs = _unpack(total, width, length)
            if coeffs[0] != 0:
                raise InternalError("the all-known state is not a fixed point of an eligible spec")
            polys.append((coeffs[1:] or [0], q))
        return polys


def _pack(coeffs: list[int], width: int) -> int:
    """The polynomial with these coefficients at 2**width (Kronecker
    substitution): sums and products of packed polynomials are the packed
    sums and products, and _unpack reads the coefficients back while each
    lies in (-2**(width-1), 2**(width-1))."""
    return sum(c << (i * width) for i, c in enumerate(coeffs))


def _unpack(packed: int, width: int, length: int) -> list[int]:
    """The first `length` coefficients of a packed polynomial, as signed
    digits in base 2**width."""
    half, mask = 1 << (width - 1), (1 << width) - 1
    coeffs = []
    for _ in range(length):
        c = ((packed + half) & mask) - half
        coeffs.append(c)
        packed = (packed - c) >> width
    if packed:
        raise InternalError("a packed polynomial has more coefficients than its degree allows")
    return coeffs


def _power(base: str, exponent: int) -> str | None:
    """base**exponent as source, None for the factor 1.0; x**1 is x exactly."""
    return None if exponent == 0 else base if exponent == 1 else f"{base}**{exponent}"


def _times(a: str | None, b: str | None) -> str:
    """The product a*b as source, a factor None or "1.0" being 1.0 (exact).
    A compound b is bracketed, so that it is rounded before it is multiplied."""
    a, b = (None if f == "1.0" else f for f in (a, b))
    if a is None or b is None:
        return a or b or "1.0"
    return f"{a}*({b})" if "*" in b or " " in b else f"{a}*{b}"


def _checked(value: float) -> float:
    if value < -_BOUNDS_SLACK or value > 1.0 + _BOUNDS_SLACK:
        raise InternalError(f"exit value left [0,1] by more than {_BOUNDS_SLACK}: {value!r}")
    return min(1.0, max(0.0, value))


def _line(b: Fraction) -> float:
    """The smallest double >= 1 - b, so that a float x passes x >= _line(b)
    exactly when 1 - x <= b."""
    line = float(1 - b)
    return line if line >= 1 - b else nextafter(line, inf)


class ExitEngine:
    """Precomputed evaluator of the EXIT recursion for one validated spec."""

    def __init__(self, spec: EnsembleSpec):
        self.spec = spec
        self.n_edge_types = n_e = spec.n_edge_types
        halves = []
        # The VN half first: only a VN walk can exceed the walk budget on a
        # valid spec, and it then fails before any table is built.
        for table, nodes, socket_counts, edge_fractions in (
            (vn_table, spec.vn_types, spec.vn_socket_counts, spec.vn_edge_fractions),
            (cn_table, spec.cn_types, spec.cn_socket_counts, spec.cn_edge_fractions),
        ):
            terms = []
            for node, counts, fractions in zip(nodes, socket_counts, edge_fractions):
                values, shape = table(node, n_e)
                terms += [
                    (values, shape, counts, node.n_transmitted, e0, fractions[e0])
                    for e0 in range(n_e)
                    if counts[e0] > 0
                ]
            halves.append(_Mixture(n_e, terms))
        self._vn, self._cn = halves

    def step(self, i_ev, epsilon: float) -> tuple[float, ...]:
        """One application of the recursion: CN pass, then VN pass, as a
        tuple of floats."""
        check_epsilon(epsilon)
        return self._step(self._state(i_ev), epsilon)

    def _step(self, x: tuple, epsilon: float) -> tuple:
        """step on a state tuple of floats, without the input checks: the
        generated loop from x, recording one step and capped there.  No
        test can stop it before that step, as no state reaches lines of
        2.0 and no super-solution check falls due."""
        rows: list[tuple] = []
        self._advance(x, epsilon, 1, 2.0, (2.0,) * self.n_edge_types, None, 2, rows, None)
        return rows[0]

    def _state(self, i_ev) -> tuple:
        """A caller's state, n_e numbers in [0, 1], as a tuple of floats, or
        ValidationError: bools and strings are not numbers."""
        try:
            x = tuple(i_ev)
        except TypeError:
            raise ValidationError(f"a state must be a vector of numbers, got {i_ev!r}") from None
        if len(x) != self.n_edge_types or not all(is_real(a) and 0.0 <= a <= 1.0 for a in x):
            raise ValidationError(f"a state is {self.n_edge_types} numbers in [0, 1], got {i_ev!r}")
        return tuple(map(float, x))

    def run(
        self,
        epsilon: float,
        max_iters: int = 20000,
        tol: float = 1e-10,
        record: Callable[[list[tuple[float, ...]]], object] | None = None,
    ) -> ProbeOutcome:
        """Iterate from the all-unknown prior to the all-known fixed point.

        Returns how the run ended.  Unless record is None, the run records
        its trajectory: record, a callable such as list.extend or a
        writer, takes the states in order as tuples of floats, row i being
        the state after iteration i, in chunks of up to _FLUSH_ROWS rows,
        each a list that record may read but not keep.  Non-convergence
        is a result, not an error.  A run converges once every component
        reaches 1 - tol, is stuck when it stalls (no component moves by
        _STALL_TOL in one step), and is undecided once it has taken
        max_iters steps, an int.  Runs that do not record also take three
        early decisions:

        - stuck, "unstable", without a step: the spec is eligible for the
          stability analysis and its exact verdict at epsilon is
          "unstable" (sigma > 1).  For the Perron vector v of P(eps)C,
          g(c v) / c tends to sigma v > v as c falls to 0, where g is the
          step in erasure coordinates y = 1 - x.  So g(c v) >= c v for every
          small c > 0: c v is a sub-solution, the nondecreasing step keeps
          every iterate from the all-unknown y = 1 at or above it, and the
          iterates never reach the all-known state.
        - converged, "basin": the verdict is "stable" and the state enters
          the basin that _basin certifies, tested on floats against lines
          that accept exactly the basin's states.
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

        Each state meets the tests in this order: tol, basin, stall,
        super-solution when it is due, then the cap.
        """
        check_epsilon(epsilon)
        check_run_limits(max_iters, tol)
        if record is not None and not callable(record):
            raise ValidationError(f"record must be None or a callable that takes rows, got {record!r}")
        # no state reaches a line of 2.0
        lines, prove = (2.0,) * self.n_edge_types, None
        sm = self._stability if record is None else None
        if sm is not None:
            verdict, v = stability._verdict(sm, epsilon, solve=True)
            if verdict == "unstable":
                return ProbeOutcome(epsilon, "unstable", 0)
            if verdict == "stable":
                lines, prove = self._basin(epsilon, v)
        # The run keeps the exact verdict, the basin's lines and the first
        # step; _advance takes every later decision, the one basin proof
        # included.  States are tuples of floats, and the comparisons in
        # _advance are the same IEEE operations an array would take.
        x = self._step((0.0,) * self.n_edge_types, epsilon)
        rows = None if record is None else [x]
        check = _CERT_FIRST if record is None else max_iters + 1
        steps, reason = self._advance(
            x, epsilon, max_iters, 1.0 - tol, lines, prove, check, rows, record
        )
        if rows:
            record(rows)
        return ProbeOutcome(epsilon, reason or "max_iters", steps)

    @cached_property
    def _advance(self) -> Callable:
        """The stepping loop of run, compiled from _advance_source on the
        engine's first step and kept for its later ones: the engine's one
        unit of generated code.  A half that is not generated is called as
        its numpy contraction, bound as cn or vn."""
        namespace = {"_checked": _checked, "never": self._never_converges}
        for name, half in (("cn", self._cn), ("vn", self._vn)):
            if not half.generated():
                namespace[name] = half.contraction()
        source = _advance_source(self.n_edge_types, self._cn, self._vn)
        exec(compile(source, "<exit loop>", "exec"), namespace)
        return namespace["advance"]

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

    def _basin(
        self, epsilon: float, v: list[Fraction]
    ) -> tuple[tuple[float, ...], Callable[[], tuple[float, ...]]]:
        """A basin {y <= c0 v^} of the all-known state at a stable epsilon,
        as (lines, prove): float lines that every state of the basin
        reaches, and a one-shot prove() that runs the test below and
        returns the basin's own lines (see _line), or lines of 2.0, which
        no state reaches, when it fails.

        In erasure coordinates y = 1 - x the step is g = h_V . h_C, both
        halves nondecreasing with h(0) = 0, and its Jacobian at 0 is
        P(eps)C.  The exact verdict's v > 0 solves (I - P(eps)C) v = 1, so
        the linear step maps the ray c v^, v^ = v / max(v) rounded to
        floats, below itself.  The test proves exactly (see
        _certified_bound), from the integer information tables, the exact
        edge fractions and the exact epsilon, that each polynomial
        (c v^_l - g_l(c v^)) / c is positive on [0, s): on each piece of
        [0, s] left after at most _BASIN_DEPTH halvings of [0, 1], its
        first Bernstein coefficient is positive and the others nonnegative
        (Garloff 1986).  Then phi(c) = max_l g_l(c v^) / v^_l < c on
        (0, s), and a state y <= c v^ with c < s has g(y) <= g(c v^) <=
        phi(c) v^: the iterates fall below c_k v^ for decreasing c_k, whose
        limit, a fixed point of phi below s, is 0.

        The basin is c0 v^ = s v^ - _CERT_SLACK.  As v^ <= 1, its states
        lie at c <= s - _CERT_SLACK, and every state within _CERT_SLACK / 2
        of one, such as a computed step off by its rounding, at c < s.

        Only v^ and the lines of {y <= v^}, which holds every basin the
        test can prove, are computed here.  The exact test runs when a
        state first reaches those lines, so a probe that never does spends
        nothing on it.
        """
        top = max(v)
        v = [float(t / top) for t in v]

        def prove() -> tuple[float, ...]:
            bound = self._certified_bound(v, epsilon)
            return (2.0,) * len(v) if bound is None else tuple(map(_line, bound))

        return tuple(_line(Fraction(t)) for t in v), prove

    def _certified_bound(self, v: list[float], epsilon: float) -> list[Fraction] | None:
        """The exact part of _basin: s v - _CERT_SLACK, or None when that
        is not positive.

        It runs on integers.  The floats v are S / d for integers S and one
        d, so c v = u S for u = c / d in [0, 1 / d].  The CN half takes the
        inputs S_l u over 1 and gives u h_l(u) / q_l; brought onto
        L = lcm(q_l), those are the VN half's inputs, which gives
        g_l(u S) = u H_l(u) / Q_l.  The tested (c v_l - g_l(c v)) / c is
        then (S_l Q_l - H_l(u)) / (Q_l d), and its positive factor changes
        no sign of a Bernstein coefficient."""
        v_q = [Fraction(t) for t in v]
        d = lcm(*(t.denominator for t in v_q))
        scales = [int(t * d) for t in v_q]
        cn = self._cn.erasure_polynomials([[0, a] for a in scales], 1)
        den = lcm(*(q for _, q in cn))
        inputs = [[0, *(a * (den // q) for a in h)] for h, q in cn]
        vn = self._vn.erasure_polynomials(inputs, den, Fraction(float(epsilon)))
        share = Fraction(1)
        for a, (h, q) in zip(scales, vn):
            g = [a * q - h[0], *(-b for b in h[1:])]
            share = min(share, _positive_share(_bernstein(g, Fraction(1, d)), _BASIN_DEPTH))
        bound = [share * t - Fraction(_CERT_SLACK) for t in v_q]
        return bound if min(bound) > 0 else None

    def _never_converges(self, x, x_prev, x_prev2, epsilon: float, line: float) -> bool:
        """The super-solution test described in run, on the last three
        states, for the convergence line 1 - tol."""
        rise = tuple(map(sub, x, x_prev))
        top, prev_top = max(rise), max(map(sub, x_prev, x_prev2))
        if not 0.0 < top < prev_top:
            return False
        ratio = 1.0 - top / prev_top
        y = tuple(min(1.0, a + 2.0 * d / ratio + _CERT_PAD) for a, d in zip(x, rise))
        if min(y) >= line or any(a > b for a, b in zip(x, y)):
            return False
        return all(a <= b - _CERT_SLACK for a, b in zip(self._step(y, epsilon), y))

    def threshold(
        self,
        tol_eps: float = 1e-6,
        max_iters: int = 20000,
        tol_fp: float = 1e-10,
    ) -> tuple[tuple[float, float], dict[str, int]]:
        """Bisection for the largest erasure probability that still converges.

        Returns the final bracket (lo, hi), at most 2 tol_eps wide, and the
        outcome of each bisection step, counted per outcome (a dict keyed
        by OUTCOMES).  A converged step raises lo; a stuck or undecided one
        lowers hi, so the bracket holds the threshold whenever no step was
        undecided.

        Where run's stability cap applies and the spec has a stability
        bound, the search starts from hi = bound + tol_eps, at which the
        verdict must read "unstable": local stability is necessary for
        convergence, so the threshold lies below, and no probe lands on the
        marginal point itself, where the run converges too slowly for any
        cap.

        A step runs DE only where no earlier run of the call decides it:
        convergence is monotone in eps, so a midpoint at or below a
        converged eps converges and one at or above a stuck eps is stuck.
        So steps and counts are those of a bisection that runs every step.
        First the last two midpoints of the all-converged path run, highest
        first, until one is not stuck: the two top final cells they start
        cover [hi - 2 tol_eps, hi], which holds the stability bound when the
        search starts from it, so a threshold at the bound, or at 1, takes
        one or two runs.
        """
        check_tol_eps(tol_eps)
        check_run_limits(max_iters, tol_fp)
        lo, hi = 0.0, self._unstable_start(tol_eps)
        seen: dict[float, str] = {}  # eps -> outcome of each run made
        path, top = [], lo
        while hi - top > 2.0 * tol_eps:
            top = 0.5 * (top + hi)
            path.append(top)
        for eps in reversed(path[-2:]):
            if self._decided(seen, eps, max_iters, tol_fp) != "stuck":
                break
        counts = dict.fromkeys(OUTCOMES, 0)
        while hi - lo > 2.0 * tol_eps:
            mid = 0.5 * (lo + hi)
            outcome = self._decided(seen, mid, max_iters, tol_fp)
            counts[outcome] += 1
            if outcome == "converged":
                lo = mid
            else:
                hi = mid
        return (lo, hi), counts

    def _decided(self, seen: dict[float, str], eps: float, max_iters: int, tol: float) -> str:
        """threshold's outcome at eps: that of a run in seen at eps, above
        eps that converged, or below eps that is stuck; else that of a new
        run, which seen keeps."""
        for e, o in seen.items():
            if e == eps or (o == "converged" and eps < e) or (o == "stuck" and eps > e):
                return o
        o = seen[eps] = self.run(eps, max_iters, tol).outcome
        return o

    def _unstable_start(self, tol_eps: float) -> float:
        sm = self._stability
        if sm is None:
            return 1.0
        bound = stability.stability_bound(sm, tol_eps)
        if bound is None:
            return 1.0
        start = min(1.0, bound + tol_eps)
        unstable = stability.stability_verdict(sm, start) == "unstable"
        return start if unstable else 1.0


def _advance_source(n_e: int, cn: _Mixture, vn: _Mixture) -> str:
    """Python source of advance(x, eps, stop, line, lines, prove, check,
    rows, flush), run's loop from its first state: it tests each state,
    then steps it, and returns (steps, reason), reason None after stop
    steps.

    The tests, in run's order: "tol" when every component reaches line;
    "basin" when each component x_l reaches lines[l] and prove is None
    (the first state to reach them while prove is set swaps them for
    prove(), drops prove and is tested again); "stall" when no component
    moved by _STALL_TOL (the previous state starts at -1.0, so the first
    never stalls); "super-solution" once the step count reaches check and
    never(x, x_prev, x_prev2, eps, line), check then moving on as run
    describes; then the cap.  The comparisons are run's on tuples, unrolled
    over the n_e components; the lines hold floats only, so the basin test
    is exact.

    A step is the CN half then the VN half, each written out inline from
    _kernel_source, or a call of the numpy contraction bound as cn or vn
    for a half that is not generated.  The state and the two before it
    live in float locals x, p and q, the CN half's output in c; the
    statements that read only eps run once, before the loop.  A tuple is
    built only for a call: of never, of a contraction, and of rows.append,
    made with each new state unless rows is None, and flush(rows) at
    _FLUSH_ROWS rows unless flush is None (run passes its record there).
    """

    def names(prefix: str) -> str:
        return _names(prefix, n_e)

    def every(test: str) -> str:
        return " and ".join(test.format(l=l) for l in range(n_e))

    setup, step = [], []
    for name, half, x, out, eps in (("cn", cn, "x", "c", "None"), ("vn", vn, "c", "x", "eps")):
        if half.generated():
            before, body = half._kernel_source(x, out, f"{name}_")
            setup += before
            step += body
        else:
            step.append(f"{names(out)}= {name}(({names(x)}), {eps})")
    return "\n".join([
        "def advance(x, eps, stop, line, lines, prove, check, rows, flush):",
        f"    {names('b')}= lines",
        f"    {names('x')}= x",
        f"    {names('p')}{names('q')}= {'-1.0, ' * 2 * n_e}",
        "    it = 0",
        *(f"    {line}" for line in setup),
        "    while True:",
        f"        if {every('x{l} >= line')}:",
        "            return it, 'tol'",
        f"        if {every('x{l} >= b{l}')}:",
        "            if prove is None:",
        "                return it, 'basin'",
        f"            {names('b')}= prove()",
        "            prove = None",
        "            continue",
        f"        if {every(f'{-_STALL_TOL!r} < x{{l}} - p{{l}} < {_STALL_TOL!r}')}:",
        "            return it, 'stall'",
        "        if it >= check:",
        f"            if never(({names('x')}), ({names('p')}), ({names('q')}), eps, line):",
        "                return it, 'super-solution'",
        f"            check = it + max({_CERT_FIRST}, it // {_CERT_SPACING})",
        "        if it >= stop:",
        "            return it, None",
        *(f"        q{l} = p{l}" for l in range(n_e)),
        *(f"        p{l} = x{l}" for l in range(n_e)),
        *(f"        {line}" for line in step),
        "        it += 1",
        "        if rows is not None:",
        f"            rows.append(({names('x')}))",
        f"            if len(rows) >= {_FLUSH_ROWS} and flush is not None:",
        "                flush(rows)",
        "                rows.clear()",
        "",
    ])


def _names(prefix: str, n: int) -> str:
    """The names prefix0, ..., prefix{n-1} as source, each followed by a
    comma: a tuple display, or the targets of an unpacking."""
    return "".join(f"{prefix}{l}, " for l in range(n))


def _bernstein(coeffs: list, width: Fraction) -> list:
    """Bernstein coefficients on [0, width] of the polynomial with these
    power-basis coefficients, times the positive d! q^d for degree d and
    width = p / q.  Entry i is sum_j C(i, j) j! (d-j)! p^j q^(d-j) a_j, so
    integer coefficients give integers."""
    d = len(coeffs) - 1
    p, q = width.numerator, width.denominator
    scaled = [
        a * factorial(j) * factorial(d - j) * p**j * q ** (d - j) for j, a in enumerate(coeffs)
    ]
    return [sum(comb(i, j) * scaled[j] for j in range(i + 1)) for i in range(d + 1)]


def _positive_share(b: list, depth: int) -> Fraction:
    """The largest dyadic share s of the interval such that the polynomial
    with Bernstein coefficients b (any positive multiple of them) is
    positive on its first s, right end excluded, found by de Casteljau
    halving at most depth levels deep; 0 if none.

    The first coefficient is the value at the left end; positive, with
    nonnegative others, it proves the polynomial positive up to the right
    end.  The halving takes sums instead of means: level k of the triangle
    is then 2^k times the means, and entry k of each half is scaled by
    2^(d-k), so that every coefficient of a half carries the same factor
    2^d."""
    if b[0] <= 0:
        return Fraction(0)
    if min(b) >= 0:
        return Fraction(1)
    if depth == 0:
        return Fraction(0)
    d = len(b) - 1
    left, right = [b[0] * 2**d], [b[-1] * 2**d]
    for k in range(d - 1, -1, -1):
        b = [u + t for u, t in zip(b, b[1:])]
        left.append(b[0] * 2**k)
        right.append(b[-1] * 2**k)
    share = _positive_share(left, depth - 1) / 2
    if share < Fraction(1, 2):
        return share
    return share + _positive_share(right[::-1], depth - 1) / 2
