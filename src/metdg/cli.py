"""Command-line interface: one executable, one subcommand per analysis.

Exit codes: 0 success, 1 validation error, 2 capacity error, 3 refusal
because an analysis assumption does not hold.  Diagnostics go to stderr;
data goes to stdout or --out.  Every emitted document embeds the SHA-256 of
the canonicalized spec so results stay traceable to their input.  Only
`simulate` imports the simulator, `metdg.peeling`, and with it numpy; the
other subcommands import numpy only where they need floats in arrays: a
table that walks, or a step half too wide for generated code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import count
from operator import itemgetter

from . import __version__, exitchart, stability
from .ensemble import EnsembleSpec, VnType, load_spec
from .errors import (
    AssumptionError,
    CapacityError,
    MetdgError,
    ValidationError,
    check_epsilon,
    check_run_limits,
    check_tol_eps,
)
from .infofuncs import cn_table, vn_table


def _digest(spec: EnsembleSpec) -> str:
    return hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()


def _frac_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _report(subcommand: str, digest: str, parameters: dict, results: dict, t0: float) -> dict:
    return {
        "tool": "metdg",
        "version": __version__,
        "subcommand": subcommand,
        "spec_sha256": digest,
        "parameters": parameters,
        "results": results,
        "duration_s": time.perf_counter() - t0,
    }


@contextmanager
def _output(out_path: str | None):
    """The write method of the output, the file out_path or stdout; an
    OSError while it is open is a validation error."""
    try:
        if out_path:
            with open(out_path, "w", encoding="utf-8") as fh:
                yield fh.write
        else:
            yield sys.stdout.write
    except OSError as e:
        raise ValidationError(f"cannot write the output: {e}") from None


def _emit_json(report: dict, out_path: str | None) -> None:
    with _output(out_path) as write:
        write(json.dumps(report, sort_keys=True, indent=2) + "\n")


def _csv_head(subcommand: str, digest: str, parameters: dict, columns) -> str:
    """A commented header and the column line of a CSV document, whose rows
    then follow as _csv_line writes them."""
    params = " ".join(f"{k}={v}" for k, v in sorted(parameters.items()))
    head = [
        f"# tool=metdg version={__version__} subcommand={subcommand}",
        f"# spec_sha256={digest}",
        f"# {params}" if params else "#",
        ",".join(columns),
    ]
    return "\n".join(head) + "\n"


def _csv_line(n_columns: int) -> str:
    """The %-format of a CSV row: each value written as its repr (%r is
    repr for ints and floats alike)."""
    return ",".join(["%r"] * n_columns) + "\n"


def _cmd_validate(spec: EnsembleSpec, args, digest: str, t0: float) -> int:
    results = {
        "codeword_length": spec.codeword_length,
        "dimension": spec.dimension,
        "rate": {"value": float(spec.rate), "ratio": _frac_str(spec.rate)},
        "edge_counts": list(spec.edge_counts),
        "lambda": {
            vn.name: [float(f) for f in spec.vn_edge_fractions[i]]
            for i, vn in enumerate(spec.vn_types)
        },
        "lambda_exact": {
            vn.name: [_frac_str(f) for f in spec.vn_edge_fractions[i]]
            for i, vn in enumerate(spec.vn_types)
        },
        "rho": {
            cn.name: [float(f) for f in spec.cn_edge_fractions[i]]
            for i, cn in enumerate(spec.cn_types)
        },
        "rho_exact": {
            cn.name: [_frac_str(f) for f in spec.cn_edge_fractions[i]]
            for i, cn in enumerate(spec.cn_types)
        },
        "vn_min_distance": {vn.name: d for vn, d in zip(spec.vn_types, spec.vn_min_distance)},
        "cn_min_distance": {cn.name: d for cn, d in zip(spec.cn_types, spec.cn_min_distance)},
        "flags": {
            "unpunctured": spec.unpunctured,
            "min_distance_at_least_2": spec.min_distance_at_least_2,
            "stability_eligible": spec.stability_eligible,
        },
    }
    _emit_json(_report("validate", digest, {}, results, t0), args.out)
    return 0


def _cmd_inffunc(spec: EnsembleSpec, args, digest: str, t0: float) -> int:
    name = args.type
    node = {t.name: t for t in spec.vn_types + spec.cn_types}.get(name)
    if node is None:
        raise ValidationError(f"no VN or CN type named {name!r}")
    axes = [f"edge_type_{l}" for l in range(1, spec.n_edge_types + 1)]
    if isinstance(node, VnType):
        (values, shape), kind, axes = vn_table(node, spec.n_edge_types), "vn", axes + ["info_bits"]
    else:
        (values, shape), kind = cn_table(node, spec.n_edge_types), "cn"
    results = {"name": name, "kind": kind, "axes": axes, "shape": list(shape), "values": values}
    _emit_json(_report("inffunc", digest, {"type": name}, results, t0), args.out)
    return 0


def _cmd_exit_chart(spec: EnsembleSpec, args, digest: str, t0: float) -> int:
    """The rows of ExitEngine.run's trajectory.  The JSON form collects them
    as tuples of floats; the CSV form writes each chunk of rows the run
    hands over as it makes them, so that its memory does not grow with
    --max-iters.  Rejected run parameters write nothing."""
    engine = exitchart.ExitEngine(spec)
    check_epsilon(args.epsilon)
    check_run_limits(args.max_iters, args.tol)
    params = {"epsilon": args.epsilon, "max_iters": args.max_iters, "tol": args.tol}
    if args.format == "json":
        trajectory: list[tuple[float, ...]] = []
        outcome = engine.run(args.epsilon, args.max_iters, args.tol, trajectory.extend)
        results = {
            "converged": outcome.outcome == "converged",
            "trajectory": trajectory,
        }
        _emit_json(_report("exit-chart", digest, params, results, t0), args.out)
        return 0
    columns = ["iter"] + [f"I_EV_{l}" for l in range(1, spec.n_edge_types + 1)]
    line, number = _csv_line(len(columns)), count()
    with _output(args.out) as write:
        write(_csv_head("exit-chart", digest, params, columns))

        def write_rows(rows: list[tuple[float, ...]]) -> None:
            # zip takes no number once the rows run out
            write("".join([line % (i, *row) for row, i in zip(rows, number)]))

        engine.run(args.epsilon, args.max_iters, args.tol, write_rows)
    return 0


def _cmd_threshold(spec: EnsembleSpec, args, digest: str, t0: float) -> int:
    engine = exitchart.ExitEngine(spec)
    (lo, hi), steps = engine.threshold(
        tol_eps=args.tol_eps, max_iters=args.max_iters, tol_fp=args.tol_fp
    )
    params = {"tol_eps": args.tol_eps, "max_iters": args.max_iters, "tol_fp": args.tol_fp}
    # tol bounds the error of the midpoint whenever no step was undecided.
    results = {
        "threshold": 0.5 * (lo + hi),
        "tol": args.tol_eps,
        "iterations": sum(steps.values()),
        "bracket": [lo, hi],
        "undecided": steps["undecided"],
    }
    _emit_json(_report("threshold", digest, params, results, t0), args.out)
    return 0


def _cmd_stability(spec: EnsembleSpec, args, digest: str, t0: float) -> int:
    # --tol-eps is checked whether or not --bound uses it
    check_tol_eps(args.tol_eps)
    sm = stability.build_matrices(spec)
    results: dict = {
        "c": [[float(v) for v in row] for row in sm.c],
        "c_exact": [[_frac_str(v) for v in row] for row in sm.c],
        "p_coeffs": [[[float(v) for v in cell] for cell in row] for row in sm.p_coeffs],
        "p_coeffs_exact": [[[_frac_str(v) for v in cell] for cell in row] for row in sm.p_coeffs],
        "always_stable_by_disjoint_supports": sm.vanishes(),
    }
    params: dict = {}
    if args.epsilon is not None:
        params["epsilon"] = args.epsilon
        results["epsilon"] = args.epsilon
        # sigma lies on the side of 1 that the exact verdict takes, and is
        # 1.0 when "marginal" (a vanishing product's 0.0 is "stable")
        sigma = results["sigma"] = sm.sigma(args.epsilon)
        results["verdict"] = "stable" if sigma < 1.0 else "unstable" if sigma > 1.0 else "marginal"
    if args.bound:
        bound = stability.stability_bound(sm, tol_eps=args.tol_eps)
        params["tol_eps"] = args.tol_eps
        results["bound"] = "unbounded" if bound is None else bound
    _emit_json(_report("stability", digest, params, results, t0), args.out)
    return 0


def _parse_eps_grid(text: str, max_points: int) -> list[float]:
    is_range = ":" in text
    parts = text.split(":" if is_range else ",")
    if is_range and len(parts) != 3:
        raise ValidationError("eps range must look like a:b:step")
    try:
        values = [float(p) for p in parts]
    except ValueError:
        raise ValidationError(f"eps must be numbers, got {text!r}") from None
    if not is_range:
        return values
    a, b, step = values
    if not (math.isfinite(a) and math.isfinite(b) and a <= b):
        raise ValidationError(f"eps range a:b:step needs finite a <= b, got {text!r}")
    if not 0.0 < step < math.inf:
        raise ValidationError("eps step must be positive")
    grid = []
    v = a
    # One point past the limit is enough for sweep to reject the grid.
    while v <= b + 1e-12 and len(grid) <= max_points:
        grid.append(round(v, 12))
        if v + step == v:  # the range ends here, as a:a:step does, or never reaches b
            if v < b:
                raise ValidationError(f"eps step {step!r} is too small to move {v!r} towards {b!r}")
            break
        v += step
    return grid


def _cmd_simulate(spec: EnsembleSpec, args, digest: str, t0: float) -> int:
    from . import peeling

    grid = _parse_eps_grid(args.eps, peeling.MAX_GRID_POINTS)
    result = peeling.sweep(
        spec,
        scale=args.scale,
        eps_grid=grid,
        trials=args.trials,
        seed=args.seed,
        jobs=peeling.usable_cpus() if args.jobs is None else args.jobs,
    )
    params = {
        "scale": args.scale,
        "eps": args.eps,
        "trials": args.trials,
        "seed": args.seed,
        "rng": result.rng_name,
        "stability_prediction": "yes" if result.stability_prediction else "no",
    }
    if args.format == "json":
        _emit_json(_report("simulate", digest, params, {"rows": result.rows}, t0), args.out)
        return 0
    columns = ("eps", "ber", "bler", "ci_lo", "ci_hi", "trials")
    line = _csv_line(len(columns))
    body = "".join([line % row for row in map(itemgetter(*columns), result.rows)])
    with _output(args.out) as write:
        write(_csv_head("simulate", digest, params, columns) + body)
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error (exit 1); argparse's own exit
    code 2 is the CLI's code for a capacity error."""

    def error(self, message: str):
        raise ValidationError(message)


# Each subcommand's arguments after the spec and --out, as (flag, keywords).
# Only exit-chart and simulate have a CSV form; it is their default.
_FORMAT = ("--format", {"choices": ("json", "csv"), "default": "csv"})
_ARGUMENTS = {
    "validate": [],
    "inffunc": [("--type", {"required": True, "help": "VN or CN type name to dump"})],
    "exit-chart": [
        _FORMAT,
        ("--epsilon", {"type": float, "required": True}),
        ("--max-iters", {"type": int, "default": 20000}),
        ("--tol", {"type": float, "default": 1e-10}),
    ],
    "threshold": [
        ("--tol-eps", {"type": float, "default": 1e-6}),
        ("--max-iters", {"type": int, "default": 20000}),
        ("--tol-fp", {"type": float, "default": 1e-10}),
    ],
    "stability": [
        ("--epsilon", {"type": float, "default": None}),
        ("--bound", {"action": "store_true"}),
        ("--tol-eps", {"type": float, "default": 1e-6}),
    ],
    "simulate": [
        _FORMAT,
        ("--scale", {"type": int, "required": True}),
        ("--eps", {"required": True, "help": "grid as a:b:step or comma-separated values"}),
        ("--trials", {"type": int, "required": True}),
        ("--seed", {"type": int, "default": 0}),
        # default: every CPU this process may use, counted when a simulation starts
        ("--jobs", {"type": int, "default": None}),
    ],
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of argv.  Every subcommand is a choice, but only the one
    that argv names (its first word that is not an option) gets its
    arguments and -h: the others are never parsed, and building them bare
    halves the cost of a parse."""
    parser = _Parser(prog="metdg", description=__doc__)
    parser.add_argument("--version", action="version", version=f"metdg {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    named = next((a for a in argv if not a.startswith("-")), None)
    for name, arguments in _ARGUMENTS.items():
        p = sub.add_parser(name, add_help=name == named)
        if name == named:
            p.add_argument("spec", help="path to the ensemble spec JSON file")
            p.add_argument("--out", default=None, help="write output to a file instead of stdout")
            for flag, keywords in arguments:
                p.add_argument(flag, **keywords)
    return parser


_HANDLERS = {
    "validate": _cmd_validate,
    "inffunc": _cmd_inffunc,
    "exit-chart": _cmd_exit_chart,
    "threshold": _cmd_threshold,
    "stability": _cmd_stability,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = _build_parser(argv).parse_args(argv)
        t0 = time.perf_counter()
        spec = load_spec(args.spec)
        digest = _digest(spec)
        return _HANDLERS[args.command](spec, args, digest, t0)
    except ValidationError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except CapacityError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except AssumptionError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 3
    except MetdgError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
