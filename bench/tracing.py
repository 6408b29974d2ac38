"""Spans around metdg's public functions, for the traced benchmark pass.

The tracer replaces module and class attributes of an imported metdg with
wrappers that record a span per call: name, start, end, parent span, run id,
process id and the index of the CLI call it belongs to.  Spans stay in
memory and are written out as JSONL when the pass ends.  `ExitEngine.step`
runs hundreds of thousands of times per pass, so it is recorded as a
duration per call in a flat array instead of as spans.

Simulation trials run in forked worker processes, which inherit the
wrappers; a worker appends each finished span to its own spill file, read
back after the call.  A missing attribute is skipped, so the layer metrics
that depend on it read 0.

A span's self time is its duration minus the time of its direct children.
Children in other processes are not subtracted, so the self times of one
process partition that process's wall time.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import statistics
from array import array
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "ensemble", "gf2", "infofuncs", "exitchart", "stability", "peeling")


class Tracer:
    def __init__(self, run_id: str, spill_dir: Path):
        self.run_id = run_id
        self.spill_dir = spill_dir
        self.owner = os.getpid()
        self.spans: list[dict] = []
        self.steps: dict[int | None, array] = {}
        self.call: int | None = None
        self._stack: list[dict] = []
        self._next_id = 0
        self._spill = None
        self._seen_tables: set = set()
        self._decoded_in: set[int] = set()

    # -- recording -----------------------------------------------------------

    def open(self, name: str, **attrs) -> dict:
        self._next_id += 1
        pid = os.getpid()
        span = {
            "id": f"{pid}:{self._next_id}",
            "name": name,
            "run": self.run_id,
            "pid": pid,
            "call": self.call,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": perf_counter(),
            "end": None,
            "child_s": 0.0,
            "attrs": attrs,
        }
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = perf_counter()
        self._stack.pop()
        if self._stack:
            self._stack[-1]["child_s"] += span["end"] - span["start"]
        if os.getpid() == self.owner:
            self.spans.append(span)
        else:
            self._spill_write(span)

    def _spill_write(self, span: dict) -> None:
        pid = os.getpid()
        if self._spill is None or self._spill[0] != pid:
            # Line buffering: pool workers leave through os._exit, which
            # flushes nothing.
            fh = open(self.spill_dir / f"spans-{pid}.jsonl", "a", buffering=1, encoding="utf-8")
            self._spill = (pid, fh)
        self._spill[1].write(json.dumps(span) + "\n")

    def _step_done(self, dur: float) -> None:
        arr = self.steps.get(self.call)
        if arr is None:
            arr = self.steps[self.call] = array("d")
        arr.append(dur)
        if self._stack:
            self._stack[-1]["child_s"] += dur

    # -- wrappers ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, on_result=None) -> None:
        """Record a span around every call of owner.attr.

        on_result(arguments, result) returns attributes for the span, where
        arguments maps parameter names to the values bound for the call.
        """
        orig = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if orig is None:
            return
        sig = inspect.signature(orig) if on_result else None
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
                if on_result:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span["attrs"].update(on_result(bound.arguments, result))
                return result
            finally:
                tracer.close(span)

        setattr(owner, attr, wrapper)

    def wrap_step(self, engine_cls) -> None:
        orig = engine_cls.__dict__.get("step")
        if orig is None:
            return
        done = self._step_done

        @functools.wraps(orig)
        def step(*args, **kwargs):
            t0 = perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                done(perf_counter() - t0)

        engine_cls.step = step

    def install(self) -> None:
        """Wrap the public functions of every metdg module at their call sites."""
        from metdg import cli, ensemble, exitchart, gf2, infofuncs, peeling, stability

        def table_attrs(kind):
            def attrs(arguments, result):
                node = arguments.get("vn" if kind == "vn" else "cn")
                key = (kind, node, arguments.get("n_edge_types"))
                cold = key not in self._seen_tables
                self._seen_tables.add(key)
                return {"cold": cold, "entries": int(getattr(result, "size", 0))}

            return attrs

        def run_attrs(arguments, result):
            converged, _trajectory, state = result
            return {
                "epsilon": float(arguments.get("epsilon", 0.0)),
                "converged": bool(converged),
                "iterations": int(getattr(state, "iteration", 0)),
                "max_iters": int(arguments.get("max_iters", 0)),
                "record": bool(arguments.get("record", False)),
            }

        def sweep_attrs(arguments, result):
            return {
                "points": len(list(arguments.get("eps_grid", ()))),
                "trials": int(arguments.get("trials", 0)),
                "jobs": int(arguments.get("jobs", 1)),
            }

        def decode_attrs(arguments, result):
            pid = os.getpid()
            first = pid not in self._decoded_in
            self._decoded_in.add(pid)
            return {"iterations": int(getattr(result, "iterations", 0)), "first": first}

        for owner in (cli, ensemble):
            self.wrap(owner, "load_spec", "ensemble.load_spec")
        self.wrap(gf2, "min_distance", "gf2.min_distance")
        for owner in (gf2, stability):
            self.wrap(owner, "enumerate_weight2_pairs", "gf2.weight2_pairs")
        for owner in (infofuncs, exitchart, cli):
            self.wrap(owner, "vn_info_table", "infofuncs.vn_info_table", table_attrs("vn"))
            self.wrap(owner, "cn_info_table", "infofuncs.cn_info_table", table_attrs("cn"))
        engine = exitchart.ExitEngine
        self.wrap(engine, "__init__", "exitchart.engine_build")
        self.wrap(engine, "threshold", "exitchart.threshold")
        self.wrap(engine, "run", "exitchart.run", run_attrs)
        self.wrap_step(engine)
        self.wrap(stability, "build_matrices", "stability.build_matrices")
        self.wrap(stability, "stability_bound", "stability.bound")
        self.wrap(stability, "stability_verdict", "stability.verdict")
        self.wrap(stability, "disjoint_support_check", "stability.support_check")
        self.wrap(stability.StabilityMatrices, "sigma", "stability.sigma")
        self.wrap(peeling, "sweep", "peeling.sweep", sweep_attrs)
        # sweep's workers sample through the private helper; the public
        # sample_code is a thin wrapper over it.
        self.wrap(peeling, "_sample_code", "peeling.sample_code")
        self.wrap(peeling, "decode", "peeling.decode", decode_attrs)

    # -- output --------------------------------------------------------------

    def collect_spills(self) -> None:
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, encoding="utf-8") as fh:
                self.spans.extend(json.loads(line) for line in fh if line.strip())
            path.unlink()

    def write_jsonl(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for call, arr in sorted(self.steps.items(), key=lambda kv: (kv[0] is None, kv[0] or 0)):
                fh.write(json.dumps({
                    "run": self.run_id, "name": "exitchart.step", "call": call,
                    "count": len(arr), "total_s": sum(arr), "median_s": statistics.median(arr),
                }) + "\n")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(
    tracer: Tracer, calls: list[dict], threshold_specs: tuple[str, ...], specs: tuple[str, ...]
) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as name -> (value, unit).

    calls: one entry per CLI call with its "subcommand", "spec", "wall_s"
    and the checker's "facts".  A metric whose layer the pass does not
    exercise reads 0.
    """
    spans = tracer.spans
    main = [s for s in spans if s["pid"] == tracer.owner]
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)
    children: dict[str, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def named(name: str, call: int | None = None) -> list[dict]:
        return [s for s in by_name.get(name, ()) if call is None or s["call"] == call]

    def inside(span: dict, name: str) -> list[dict]:
        out, todo = [], list(children.get(span["id"], ()))
        while todo:
            s = todo.pop()
            if s["name"] == name:
                out.append(s)
            todo.extend(children.get(s["id"], ()))
        return out

    m: dict[str, tuple[float, str]] = {}
    loads = named("ensemble.load_spec")
    m["ensemble.load_spec_ms"] = (1e3 * _median(_dur(s) for s in loads), "ms")
    m["gf2.min_distance_ms"] = (
        1e3 * _median(sum(_dur(c) for c in inside(s, "gf2.min_distance")) for s in loads), "ms")

    stab_calls = [i for i, c in enumerate(calls) if c["subcommand"] == "stability"]
    m["gf2.weight2_pairs_ms"] = (
        1e3 * _median(sum(_dur(s) for s in named("gf2.weight2_pairs", i)) for i in stab_calls), "ms")

    tables = named("infofuncs.vn_info_table") + named("infofuncs.cn_info_table")
    cold = [s for s in tables if s["attrs"].get("cold")]
    m["infofuncs.table_build_ms"] = (1e3 * sum(_dur(s) for s in cold), "ms")
    m["infofuncs.table_entries"] = (float(sum(s["attrs"]["entries"] for s in cold)), "count")

    m["exitchart.engine_build_ms"] = (
        1e3 * _median(_dur(s) - s["child_s"] for s in named("exitchart.engine_build")), "ms")
    for spec in threshold_specs:
        idx = [i for i, c in enumerate(calls) if c["subcommand"] == "threshold" and c["spec"] == spec]
        steps = [d for i in idx for d in tracer.steps.get(i, ())]
        runs = [s for i in idx for s in named("exitchart.run", i)]
        m[f"exitchart.step_us.{spec}"] = (1e6 * _median(steps), "us")
        m[f"exitchart.threshold_steps.{spec}"] = (float(len(steps)), "count")
        m[f"exitchart.threshold_probes.{spec}"] = (float(len(runs)), "count")
        m[f"exitchart.probes_at_cap.{spec}"] = (float(sum(
            1 for s in runs
            if not s["attrs"]["converged"] and s["attrs"]["iterations"] >= s["attrs"]["max_iters"]
        )), "count")
    recorded = [s for s in named("exitchart.run") if s["attrs"].get("record")]
    m["exitchart.run_record_ms"] = (1e3 * sum(_dur(s) for s in recorded), "ms")

    charts = [i for i, c in enumerate(calls) if c["subcommand"] == "exit-chart"]
    m["cli.format_ms"] = (1e3 * sum(
        calls[i]["wall_s"]
        - sum(_dur(s) for s in named("ensemble.load_spec", i))
        - sum(_dur(s) for s in recorded if s["call"] == i)
        for i in charts
    ), "ms")

    for spec in specs:
        idx = [i for i in stab_calls if calls[i]["spec"] == spec]
        builds = [s for i in idx for s in named("stability.build_matrices", i)]
        bounds = [s for i in idx for s in named("stability.bound", i)]
        m[f"stability.build_matrices_ms.{spec}"] = (1e3 * _median(_dur(s) for s in builds), "ms")
        m[f"stability.bound_ms.{spec}"] = (1e3 * _median(_dur(s) for s in bounds), "ms")
        m[f"stability.bound_sigma_evals.{spec}"] = (
            _median(len(inside(s, "stability.sigma")) for s in bounds), "count")
    m["stability.build_matrices_calls"] = (
        _mean(len(named("stability.build_matrices", i)) for i in stab_calls), "count")

    samples = named("peeling.sample_code")
    decodes = named("peeling.decode")
    warm = [s for s in decodes if not s["attrs"]["first"]]
    first = [s for s in decodes if s["attrs"]["first"]]
    sweeps = [s for s in named("peeling.sweep") if s["pid"] == tracer.owner]
    mean_passes = _mean(s["attrs"]["iterations"] for s in decodes)
    m["peeling.sample_code_ms"] = (1e3 * _median(_dur(s) for s in samples), "ms")
    m["peeling.decode_ms"] = (1e3 * _median(_dur(s) for s in warm), "ms")
    m["peeling.decode_cold_ms"] = (1e3 * _median(_dur(s) for s in first), "ms")
    m["peeling.decode_passes"] = (mean_passes, "count")
    # Derived: mean warm decode time per decoder iteration.
    m["peeling.pass_ms"] = (
        1e3 * _mean(_dur(s) for s in warm) / mean_passes if mean_passes else 0.0, "ms")
    points = sum(s["attrs"]["points"] for s in sweeps)
    sweep_wall = sum(_dur(s) for s in sweeps)
    m["peeling.sweep_point_s"] = (sweep_wall / points if points else 0.0, "s")
    # Derived: 1 - (trials x warm trial time) / (jobs x sweep wall), the
    # share of worker capacity not spent in warm sampling and decoding.
    trials = sum(s["attrs"]["points"] * s["attrs"]["trials"] for s in sweeps)
    jobs = max((s["attrs"]["jobs"] for s in sweeps), default=1)
    trial_s = _mean(_dur(s) for s in samples) + _mean(_dur(s) for s in warm)
    m["peeling.sweep_overhead_frac"] = (
        1.0 - trials * trial_s / (jobs * sweep_wall) if sweep_wall else 0.0, "fraction")

    self_s = dict.fromkeys(LAYERS, 0.0)
    for s in main:
        layer = s["name"].split(".")[0]
        if layer in self_s:
            self_s[layer] += _dur(s) - s["child_s"]
    self_s["exitchart"] += sum(sum(arr) for arr in tracer.steps.values())
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = (1e3 * self_s[layer], "ms")
    m["trace.spans"] = (float(len(spans)), "count")
    return m
