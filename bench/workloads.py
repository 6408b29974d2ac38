"""Workloads of the metdg benchmark and the checks on their outputs.

A workload is a fixed list of `metdg` CLI calls ("operations") on the spec
files in bench/specs.  Every operation is checked after it returns; a
nonzero exit code, an exception or a failed check makes it a failed
operation.  Threshold results are also compared with references computed
without metdg; a miss is reported, not failed, so known defects stay
visible in the numbers.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPECS = BENCH / "specs"

MANIFEST = json.loads((BENCH / "manifest.json").read_text(encoding="utf-8"))
SPEC_SHA256 = {name: entry["sha256"] for name, entry in MANIFEST["specs"].items()}
WORKLOADS = ("de-threshold", "sim-ldpc", "dgldpc")
# Specs whose threshold some workload computes.  ex2_rep3's threshold search
# (10-17 s) is left out to keep runs short; its stability analysis stays in.
THRESHOLD_SPECS = ("ldpc36", "ex1_spc3", "dgldpc")


def ldpc36_reference() -> float:
    """BEC threshold of the (3,6)-regular ensemble: min over x of
    x / (1 - (1 - x)^5)^2, found by golden-section search (the function is
    unimodal on (0, 1])."""

    def f(x: float) -> float:
        return x / (1.0 - (1.0 - x) ** 5) ** 2

    lo, hi = 0.05, 1.0
    g = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = hi - g * (hi - lo), lo + g * (hi - lo)
    for _ in range(200):
        if f(a) < f(b):
            hi, b = b, a
            a = hi - g * (hi - lo)
        else:
            lo, a = a, b
            b = lo + g * (hi - lo)
    return f(0.5 * (lo + hi))


# Independent threshold references.  ex1_spc3 is a (2,3) cycle-code
# ensemble, whose threshold is 1/(d_c - 1) = 1/2.
THRESHOLD_REFERENCES = {"ldpc36": ldpc36_reference(), "ex1_spc3": 0.5}

Check = Callable[[str], tuple[dict, list[str]]]


@dataclass
class Op:
    """One CLI call: `metdg <subcommand> <spec file> <args> --out FILE`."""

    label: str
    subcommand: str
    spec: str
    args: list[str]
    check: Check
    trials: int = 0  # simulation trials the call runs, over all grid points

    def argv(self, out: Path) -> list[str]:
        return [self.subcommand, str(SPECS / f"{self.spec}.json"), *self.args, "--out", str(out)]


def _load_json(text: str, spec: str, errors: list[str]) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        errors.append(f"output is not JSON: {e}")
        return {}
    if doc.get("spec_sha256") != SPEC_SHA256[spec]:
        errors.append(f"spec_sha256 {doc.get('spec_sha256')!r} is not the pinned digest of {spec}")
    return doc.get("results", {})


def _csv_body(text: str, spec: str, errors: list[str]) -> list[str]:
    lines = text.splitlines()
    header = [ln for ln in lines if ln.startswith("#")]
    if f"# spec_sha256={SPEC_SHA256[spec]}" not in header:
        errors.append(f"CSV header lacks the pinned digest of {spec}")
    return [ln for ln in lines if not ln.startswith("#")]


def check_validate(spec: str, rate: str, length: int) -> Check:
    def check(text: str) -> tuple[dict, list[str]]:
        errors: list[str] = []
        res = _load_json(text, spec, errors)
        if res.get("rate", {}).get("ratio") != rate:
            errors.append(f"rate {res.get('rate')} is not {rate}")
        if res.get("codeword_length") != length:
            errors.append(f"codeword length {res.get('codeword_length')} is not {length}")
        return {}, errors

    return check


def check_threshold(spec: str) -> Check:
    def check(text: str) -> tuple[dict, list[str]]:
        errors: list[str] = []
        res = _load_json(text, spec, errors)
        value, tol = res.get("threshold"), res.get("tol")
        if not isinstance(value, float) or not 0.0 < value < 1.0:
            errors.append(f"threshold {value!r} is not in (0, 1)")
        if not isinstance(tol, float) or tol <= 0.0:
            errors.append(f"reported tol {tol!r} is not a positive number")
        if errors:
            return {}, errors
        facts = {"threshold": value, "tol": tol}
        ref = THRESHOLD_REFERENCES.get(spec)
        if ref is not None:
            facts["reference"] = ref
            facts["tol_miss"] = abs(value - ref) > tol
        return facts, errors

    return check


def check_stability(spec: str, bound_ref: float | None, tol_eps: float) -> Check:
    def check(text: str) -> tuple[dict, list[str]]:
        errors: list[str] = []
        res = _load_json(text, spec, errors)
        if res.get("verdict") not in ("stable", "marginal", "unstable"):
            errors.append(f"verdict {res.get('verdict')!r} is missing or unknown")
        bound = res.get("bound")
        if bound is None:
            errors.append("no stability bound reported")
        if bound_ref is not None and (
            not isinstance(bound, float) or abs(bound - bound_ref) > tol_eps
        ):
            errors.append(f"stability bound {bound!r} is not within {tol_eps} of {bound_ref}")
        return {"bound": bound}, errors

    return check


def check_exit_chart(spec: str, tol_fp: float) -> Check:
    def check(text: str) -> tuple[dict, list[str]]:
        errors: list[str] = []
        body = _csv_body(text, spec, errors)
        if not body or not body[0].startswith("iter,I_EV_1"):
            errors.append("exit-chart CSV has no column header")
            return {}, errors
        rows = [ln.split(",") for ln in body[1:]]
        if [r[0] for r in rows] != [str(i) for i in range(len(rows))]:
            errors.append("iteration column is not 0, 1, 2, ...")
        if not rows or min(float(v) for v in rows[-1][1:]) < 1.0 - tol_fp:
            errors.append("trajectory below the threshold did not reach the all-known state")
        return {"rows": len(rows)}, errors

    return check


def check_simulate(spec: str, grid: list[float], trials: int) -> Check:
    """Rows, trial counts and sane rates.  The CSV body's digest is returned
    as a fact: run.py requires it to be the same in every pass of a run,
    since every pass uses the same seed."""

    def check(text: str) -> tuple[dict, list[str]]:
        errors: list[str] = []
        body = _csv_body(text, spec, errors)
        if not body or body[0] != "eps,ber,bler,ci_lo,ci_hi,trials":
            errors.append("simulate CSV has no column header")
            return {}, errors
        rows = body[1:]
        if len(rows) != len(grid):
            errors.append(f"{len(rows)} rows for {len(grid)} grid points")
        for row, eps in zip(rows, grid):
            try:
                e, ber, bler, lo, hi, n = (float(v) for v in row.split(","))
            except ValueError:
                errors.append(f"malformed row {row!r}")
                continue
            if abs(e - eps) > 1e-9 or n != trials:
                errors.append(f"row {row!r} is not eps={eps} with {trials} trials")
            # The Wilson bounds are computed in floating point: at bler 1.0
            # the upper bound reads 0.9999999999999999.
            slack = 1e-12
            in_unit = all(0.0 <= v <= 1.0 for v in (ber, bler, lo, hi))
            if not (in_unit and lo - slack <= bler <= hi + slack):
                errors.append(f"row {row!r} has rates outside [0, 1] or outside its interval")
        digest = hashlib.sha256("\n".join(body).encode("utf-8")).hexdigest()
        return {"rows": len(rows), "body_sha256": digest}, errors

    return check


def _grid(a: float, step: float, n: int) -> list[float]:
    return [round(a + i * step, 12) for i in range(n)]


def build_ops(workload: str, seed: int, jobs: int, smoke: bool = False) -> list[Op]:
    """The operations of one pass of a workload.

    smoke shrinks every call (coarser tolerances, smaller codes, fewer
    trials) so the benchmark's own tests run each workload in seconds.
    """
    tol_eps = 1e-3 if smoke else 1e-6  # 1e-6 is the CLI default
    thr_args = ["--tol-eps", str(tol_eps), "--max-iters", "500"] if smoke else []
    stab_args = ["--epsilon", "0.3", "--bound"] + (["--tol-eps", str(tol_eps)] if smoke else [])

    def threshold(spec: str) -> Op:
        args = thr_args
        if spec == "ex1_spc3" and not smoke:
            # Probes near 1/2 converge at a rate that tends to 1, so they run
            # to any iteration cap; 2000 instead of the default 20000 keeps a
            # pass near 5 s and still shows the capped probes and the tol miss.
            args = ["--max-iters", "2000"]
        return Op(f"threshold.{spec}", "threshold", spec, args, check_threshold(spec))

    def stability(spec: str) -> Op:
        # ex1_spc3's bound is 1/(d_c - 1) = 1/2, as its threshold.
        ref = 0.5 if spec == "ex1_spc3" else None
        return Op(f"stability.{spec}", "stability", spec, stab_args, check_stability(spec, ref, tol_eps))

    def simulate(spec: str, scale: int, eps: str, grid: list[float], trials: int) -> Op:
        args = ["--scale", str(scale), "--eps", eps, "--trials", str(trials), "--seed", str(seed),
                "--jobs", str(jobs)]
        return Op(f"simulate.{spec}", "simulate", spec, args, check_simulate(spec, grid, trials),
                  trials=trials * len(grid))

    if workload == "de-threshold":
        ops: list[Op] = []
        for spec in ("ldpc36", "ex2_rep3", "ex1_spc3"):
            if spec in THRESHOLD_SPECS:
                ops.append(threshold(spec))
            ops.append(stability(spec))
        eps = "0.4" if smoke else "0.499"
        ops.append(Op("exit-chart.ex1_spc3", "exit-chart", "ex1_spc3", ["--epsilon", eps],
                      check_exit_chart("ex1_spc3", 1e-10)))
        return ops
    if workload == "sim-ldpc":
        scale, trials = (50, 4) if smoke else (5000, 60)
        return [simulate("ldpc36", scale, "0.40:0.46:0.02", _grid(0.40, 0.02, 4), trials)]
    if workload == "dgldpc":
        # 20 trials per point (not 40) keep a pass near 14 s, so that two
        # passes fit in one run.
        scale, trials = (2, 2) if smoke else (20, 20)
        return [
            Op("validate.dgldpc", "validate", "dgldpc", [], check_validate("dgldpc", "71/155", 155)),
            threshold("dgldpc"),
            stability("dgldpc"),
            simulate("dgldpc", scale, "0.34:0.41:0.01", _grid(0.34, 0.01, 8), trials),
        ]
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
