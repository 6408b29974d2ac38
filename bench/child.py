"""One measurement in a fresh interpreter, started by run.py.

    python3 bench/child.py setup WORKLOAD [--smoke]
    python3 bench/child.py pass WORKLOAD --seed N --jobs J --out-dir DIR
                           [--smoke] [--trace FILE]

`setup` times `import metdg`, loading every spec of the workload and
building their information tables and ExitEngine.  `pass` runs the
workload's CLI calls in-process through `metdg.cli.main`, timing and
checking each; with --trace it wraps metdg's public functions in spans,
writes them to FILE as JSONL and adds the per-layer metrics.  Either mode
prints one JSON object on its last stdout line.

Next to every measurement the child times a fixed calibration kernel
(`cal_s`): after the set-up, and before the first call and after every
call of a pass.  run.py divides by it to take the machine's speed drift
out of the reported times.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

import workloads


def _kernel() -> float:
    """Fixed CPU work of the kind DE stepping does: interpreter loops and
    numpy calls on small arrays."""
    import numpy as np

    x = 0
    for i in range(40_000):
        x += i * i % 7
    a = np.arange(64.0)
    for _ in range(1_000):
        a = np.sqrt(a * a + 1.0)
    return x + float(a[0])


def calibration_s() -> float:
    """Fastest of three timings of the calibration kernel, in seconds."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        _kernel()
        best = min(best, perf_counter() - t0)
    return best


def _setup(workload: str, smoke: bool) -> dict:
    specs = sorted({op.spec for op in workloads.build_ops(workload, 0, 1, smoke)})
    t0 = perf_counter()
    sys.path.insert(0, str(workloads.ROOT / "src"))
    import metdg

    for spec in specs:
        metdg.ExitEngine(metdg.load_spec(workloads.SPECS / f"{spec}.json"))
    setup = perf_counter() - t0
    return {"setup_s": setup, "cal_s": calibration_s()}


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux; RUSAGE_CHILDREN covers the pool workers
    # this process has waited for.
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _pass(workload: str, seed: int, jobs: int, out_dir: Path, smoke: bool, trace: Path | None) -> dict:
    sys.path.insert(0, str(workloads.ROOT / "src"))
    import numpy
    import metdg
    from metdg import cli

    tracer = None
    if trace is not None:
        import tracing

        tracer = tracing.Tracer(f"{workload}-{seed}", out_dir)
        tracer.install()

    ops = workloads.build_ops(workload, seed, jobs, smoke)
    calls = []
    cal_before = calibration_s()
    for i, op in enumerate(ops):
        out = out_dir / f"{i}-{op.label}.out"
        error = None
        span = None
        if tracer:
            tracer.call = i
            span = tracer.open(f"cli.{op.subcommand}", spec=op.spec)
        t0 = perf_counter()
        try:
            rc = cli.main(op.argv(out))
        except SystemExit as e:  # argparse rejects arguments this way
            rc, error = e.code, f"SystemExit({e.code!r})"
        except Exception:
            rc, error = None, traceback.format_exc(limit=5)
        wall = perf_counter() - t0
        if span:
            tracer.close(span)
            tracer.call = None
        cal_after = calibration_s()
        text = out.read_text(encoding="utf-8") if out.exists() else ""
        facts, problems = op.check(text) if rc == 0 else ({}, [])
        if rc != 0:
            problems.append(error or f"exit code {rc}")
        calls.append({
            "label": op.label, "subcommand": op.subcommand, "spec": op.spec, "trials": op.trials,
            "wall_s": wall, "cal_s": 0.5 * (cal_before + cal_after),
            "exit_code": rc, "facts": facts, "problems": problems,
        })
        cal_before = cal_after

    result = {
        "calls": calls,
        "peak_rss_mb": _peak_rss_mb(),
        "numpy": numpy.__version__,
        "metdg": metdg.__version__,
    }
    if tracer:
        tracer.collect_spills()
        tracer.write_jsonl(trace)
        layers = tracing.layer_metrics(tracer, calls, workloads.THRESHOLD_SPECS, tuple(workloads.SPEC_SHA256))
        layers["trace.wall_s"] = (sum(c["wall_s"] for c in calls), "s")
        result["layers"] = layers
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("mode", choices=("setup", "pass"))
    p.add_argument("workload", choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out-dir", type=Path)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--trace", type=Path, default=None)
    args = p.parse_args()
    if args.mode == "setup":
        result = _setup(args.workload, args.smoke)
    else:
        result = _pass(args.workload, args.seed, args.jobs, args.out_dir, args.smoke, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
