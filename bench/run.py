"""metdg benchmark: end-to-end and per-layer timings of the `metdg` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Workloads (see workloads.py and manifest.json for why each was chosen):
  de-threshold  threshold of ldpc36 and ex1_spc3, stability of those and
                ex2_rep3, and an ex1_spc3 exit chart: DE stepping and bisection
  sim-ldpc      a 20,000-bit ldpc36 simulation: sampling and peeling
  dgldpc        a doubly-generalized ensemble end to end: info tables,
                DE, and a short-block simulation with large local maps

The load is closed-loop from a single client: each CLI call starts when the
previous one has returned.  Every measurement runs in a fresh interpreter
(bench/child.py), so metdg's process-global caches start cold as in a real
CLI invocation; simulations use --jobs min(2, CPUs).

--trace 0 repeats passes over the workload's calls while the next pass
still fits in --seconds (at least two), with a batch of set-up probes
before the first pass and after every pass, so that set-up time sees the
same machine drift as the passes; it reports the median set-up time and
the end-to-end metrics (medians over passes).  Every pass uses the same
seed, so each simulate call's CSV body must be the same in every pass.
Times are reported in reference seconds (see REF_KERNEL_S below); the raw
times are in the record line.
--trace 1 makes one traced pass instead and reports the per-layer metrics.
Either way the last stdout line is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it is a
self-describing record (machine, versions, seed, digests, and the wider
metric set, including metrics that only some workloads have).

--smoke shrinks every call so the benchmark's own tests run in seconds.
The benchmark writes only under .bench_out/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
# Times are reported in reference seconds: measured seconds scaled by
# REF_KERNEL_S / the calibration kernel's time measured alongside (child.py).
# This machine's speed drifts by up to 2x over seconds to minutes, and the
# kernel slows down with it; the raw times go into the record line.
REF_KERNEL_S = 0.005
SETUP_BATCH = 4  # set-up probes before the first pass and after every pass
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # every run must end well within 180 s


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _child(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{' '.join(args[:2])} did not finish within the run limit") from None
    if done.returncode != 0:
        raise BenchError(f"child {' '.join(args[:2])} failed:\n{done.stderr[-4000:]}")
    try:
        return json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise BenchError(f"child {' '.join(args[:2])} printed no result:\n{done.stderr[-4000:]}") from None


def _summarize(calls: list[dict]) -> dict[str, tuple[float, str]]:
    """The wider end-to-end metric set of one pass, as name -> (value, unit)."""
    ref = {c["label"]: c["wall_s"] * REF_KERNEL_S / c["cal_s"] for c in calls}
    m: dict[str, tuple[float, str]] = {
        "wall_s": (sum(ref.values()), "s"),
        "wall_raw_s": (sum(c["wall_s"] for c in calls), "s"),
        "speed": (REF_KERNEL_S / statistics.median(c["cal_s"] for c in calls), "x"),
    }
    for c in calls:
        if c["subcommand"] == "threshold":
            m[f"threshold_s.{c['spec']}"] = (ref[c["label"]], "s")
    checked = [c for c in calls if "tol_miss" in c["facts"]]
    if checked:
        m["threshold_tol_misses"] = (float(sum(c["facts"]["tol_miss"] for c in checked)), "count")
        m["threshold_tol_checked"] = (float(len(checked)), "count")
    stab = [ref[c["label"]] for c in calls if c["subcommand"] == "stability"]
    if stab:
        m["stability_s"] = (sum(stab), "s")
    for c in calls:
        if c["subcommand"] == "exit-chart":
            m["exit_chart_s"] = (ref[c["label"]], "s")
        if c["subcommand"] == "simulate":
            m["sim_trials_per_s"] = (c["trials"] / ref[c["label"]], "trials/s")
    failed = sum(1 for c in calls if c["problems"])
    m["failed_ops_frac"] = (failed / len(calls), "fraction")
    m["attempted_ops"] = (float(len(calls)), "count")
    return m


def _median_metrics(per_pass: list[dict]) -> dict[str, tuple[float, str]]:
    out = {}
    for name, (_, unit) in per_pass[0].items():
        out[name] = (statistics.median(p[name][0] for p in per_pass), unit)
    return out


def _compare_passes(passes: list[dict]) -> None:
    """Mark a call failed when its simulate CSV body differs from the first
    pass's: the passes of a run share their seed."""
    for p in passes[1:]:
        for first, call in zip(passes[0]["calls"], p["calls"]):
            want = first["facts"].get("body_sha256")
            if want is not None and call["facts"].get("body_sha256") != want:
                call["problems"].append("CSV body differs from the first pass with the same seed")


def run(args) -> tuple[dict, dict]:
    if not (ROOT / "src" / "metdg" / "__init__.py").is_file():
        raise BenchError(f"no metdg package under {ROOT / 'src'}; run from a full checkout")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = declared["per_layer" if args.trace else "end_to_end"]
    deadline = monotonic() + RUN_LIMIT_S
    jobs = min(2, _nproc())
    smoke = ["--smoke"] if args.smoke else []

    OUT.mkdir(exist_ok=True)
    run_dir = OUT / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        pass_args = ["pass", args.workload, "--seed", str(args.seed), "--jobs", str(jobs),
                     "--out-dir", str(run_dir), *smoke]
        if args.trace:
            trace_file = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
            passes = [_child(pass_args + ["--trace", str(trace_file)], deadline)]
            metrics = {k: tuple(v) for k, v in passes[0]["layers"].items()}
            setup = []
        else:
            def setup_batch() -> list[dict]:
                return [_child(["setup", args.workload, *smoke], deadline)
                        for _ in range(SETUP_BATCH)]

            start = monotonic()
            setup = setup_batch()
            passes = []
            while True:
                t0 = monotonic()
                passes.append(_child(pass_args, deadline))
                setup += setup_batch()
                cycle = monotonic() - t0
                if len(passes) >= MIN_PASSES and monotonic() - start + cycle > args.seconds:
                    break
            _compare_passes(passes)
            metrics = _median_metrics([_summarize(p["calls"]) for p in passes])
            metrics["setup_s"] = (
                statistics.median(p["setup_s"] * REF_KERNEL_S / p["cal_s"] for p in setup), "s")
            metrics["setup_raw_s"] = (statistics.median(p["setup_s"] for p in setup), "s")
            metrics["peak_rss_mb"] = (max(p["peak_rss_mb"] for p in passes), "MiB")
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    missing = [m["name"] for m in wanted
               if m["name"] not in metrics or metrics[m["name"]][1] != m["unit"]]
    if missing:
        raise BenchError(f"metrics not measured with their declared unit: {missing}")
    calls = [c for p in passes for c in p["calls"]]
    failed = sum(1 for c in calls if c["problems"])
    result = {
        "correct": failed == 0,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]} for m in wanted},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": bool(args.smoke),
        "jobs": jobs,
        "nproc": _nproc(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": passes[0]["numpy"],
        "metdg": passes[0]["metdg"],
        "git_commit": _git_commit(),
        "spec_sha256": workloads.SPEC_SHA256,
        "passes": len(passes),
        "ref_kernel_s": REF_KERNEL_S,
        "setup_samples": [[p["setup_s"], p["cal_s"]] for p in setup],
        "pass_calls": [[[c["wall_s"], c["cal_s"]] for c in p["calls"]] for p in passes],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())},
        "problems": {c["label"]: c["problems"] for c in calls if c["problems"]},
    }
    return result, record


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args()
    try:
        result, record = run(args)
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    print(f"# metdg benchmark  workload={record['workload']} seed={record['seed']} "
          f"jobs={record['jobs']} nproc={record['nproc']} passes={record['passes']} "
          f"attempted={result['attempted']} failed={result['failed']}")
    for name, m in record["metrics"].items():
        print(f"{name:42s} {m['value']:.6g} {m['unit']}")
    for label, problems in record["problems"].items():
        print(f"FAILED {label}: {problems}")
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
