"""Self-tests of the benchmark, outside the tier-1 suite (pytest's testpaths
is tests/).  Run with:

    PYTHONPATH=src python -m pytest -q bench/test_bench.py

The smoke runs use run.py --smoke, which shrinks every workload to seconds.
"""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src"), str(ROOT / "tests")]

import workloads  # noqa: E402
from metdg import load_spec  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _canonical_sha(name: str) -> str:
    spec = load_spec(workloads.SPECS / f"{name}.json")
    return hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()


def test_spec_files_equal_test_builders():
    import conftest as builders

    expected = {
        "ldpc36": builders.ldpc_spec(3, 6),
        "ex2_rep3": builders.example2_spec(builders.rep_gen(3)),
        "ex1_spc3": builders.example1_spec(builders.spc_gen(3), builders.spc_gen(3)),
    }
    for name, spec in expected.items():
        assert load_spec(workloads.SPECS / f"{name}.json").to_json() == spec.to_json()


def test_spec_digests_are_pinned():
    assert sorted(workloads.SPEC_SHA256) == sorted(p.stem for p in workloads.SPECS.glob("*.json"))
    for name, digest in workloads.SPEC_SHA256.items():
        assert _canonical_sha(name) == digest


def test_dgldpc_is_the_described_ensemble():
    spec = load_spec(workloads.SPECS / "dgldpc.json")
    assert str(spec.rate) == "71/155"
    assert [t.count for t in spec.vn_types + spec.cn_types] == [30, 35, 21]


def test_ldpc36_reference():
    assert abs(workloads.ldpc36_reference() - 0.4294398144) < 1e-9


def test_benchmark_json_contract():
    assert set(DECLARED) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in DECLARED["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in DECLARED["workloads"])
    names = [m["name"] for m in DECLARED["end_to_end"] + DECLARED["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in DECLARED["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in DECLARED["end_to_end"])


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
           "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in declared}
    record = json.loads(lines[-2])["record"]
    assert record["spec_sha256"] == workloads.SPEC_SHA256
    if not trace:
        wider = {"wall_s", "wall_raw_s", "speed", "setup_s", "setup_raw_s", "peak_rss_mb",
                 "failed_ops_frac", "attempted_ops"}
        wider |= {
            "de-threshold": {"threshold_s.ldpc36", "threshold_s.ex1_spc3",
                             "threshold_tol_misses", "threshold_tol_checked", "stability_s", "exit_chart_s"},
            "sim-ldpc": {"sim_trials_per_s"},
            "dgldpc": {"threshold_s.dgldpc", "stability_s", "sim_trials_per_s"},
        }[workload]
        assert set(record["metrics"]) == wider
        for name in wider:
            assert f"{name} " in done.stdout


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("sim-ldpc", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_simulate_body_must_repeat_across_passes():
    import run

    def pass_with(digest):
        return {"calls": [{"facts": {"body_sha256": digest}, "problems": []},
                          {"facts": {"threshold": 0.4}, "problems": []}]}

    passes = [pass_with("a"), pass_with("a"), pass_with("b")]
    run._compare_passes(passes)
    assert [[c["problems"] for c in p["calls"]] for p in passes[:2]] == [[[], []], [[], []]]
    assert passes[2]["calls"][0]["problems"] and not passes[2]["calls"][1]["problems"]
