"""Record one point of the BENCH trajectory: repeated benchmark runs.

    python3 bench/trajectory.py [--out bench/BENCH_<n>.json]

Runs bench/run.py once per seed 1-10 and workload, interleaving the
workloads so that machine drift spreads over all of them, then one traced
run per workload with seed 1.  For every end-to-end metric it prints the median, the
quartiles and the spread (q3 - q1) / median next to the metric's bound in
BENCHMARK.json; a spread at or above a third of the bound is flagged.
--out writes the summary, with every run's end-to-end values, as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEEDS = range(1, 11)
TRACE_SEED = 1


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return {"record": json.loads(lines[-2])["record"], "result": json.loads(lines[-1])}


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()
    workloads = [w["name"] for w in declared["workloads"]]
    seconds = declared["run_seconds"]

    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in SEEDS:
        for w in workloads:
            runs[w].append(_run(w, seed, seconds, 0))
            print(f"{w} seed={seed} done", file=sys.stderr, flush=True)

    summary: dict = {}
    ok = True
    for w in workloads:
        results = [r["result"] for r in runs[w]]
        e2e = {}
        for m in declared["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            q1, med, q3 = _quartiles(values)
            spread = (q3 - q1) / med
            steady = spread < m["bound"] / 3
            ok &= steady and all(r["correct"] for r in results)
            e2e[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                              "bound": m["bound"], "unit": m["unit"], "values": values}
            print(f"{w:14s} {m['name']:12s} median={med:.6g} {m['unit']:4s} spread={spread:.4f} "
                  f"bound={m['bound']}{'' if steady else '  <-- not below bound/3'}")
        wider = {}
        for name, meta in runs[w][0]["record"]["metrics"].items():
            values = [r["record"]["metrics"][name]["value"] for r in runs[w]]
            q1, med, q3 = _quartiles(values)
            wider[name] = {"median": med, "q1": q1, "q3": q3, "unit": meta["unit"]}
        entry = {
            "end_to_end": e2e,
            "record_metrics": wider,
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "seeds": [r["record"]["seed"] for r in runs[w]],
        }
        traced = _run(w, TRACE_SEED, seconds, 1)
        entry["per_layer"] = {"seed": TRACE_SEED, **traced["record"]["metrics"]}
        summary[w] = entry

    if args.out:
        first = runs[workloads[0]][0]["record"]
        machine = {k: first[k] for k in ("nproc", "cpu_model", "python", "numpy", "git_commit", "jobs")}
        doc = {"machine": machine, "run_seconds": seconds, "spec_sha256": first["spec_sha256"],
               "workloads": summary}
        args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
