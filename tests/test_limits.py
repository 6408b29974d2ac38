"""Time and memory bounds at the edges of the code paths, and the CLI as a
process: threshold searches and exit charts that run to the DE cap, a long
streamed chart, tables at the full walk budget, a spec above the kernel
cut-off, wide SPC CNs, simulations whose CSV body must not depend on --jobs,
an interrupted simulation, forked workers, and malformed specs.

A bound on a CLI call is a timeout on its process; checks of process-wide
state (imported modules, page faults, peak RSS) run in a fresh interpreter.
The timings quoted are for a 2-core machine."""

import contextlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from metdg import WALK_BUDGET, CnType, GF2Matrix, VnType, cn_info_table, vn_info_table
from metdg.peeling import usable_cpus

from conftest import deadline, fresh, fresh_env, ldpc_spec, ones_doc, random_eligible_spec, set_at, wide_spec
from test_cli import _GOLDEN_THRESHOLD

ROOT = Path(__file__).resolve().parents[1]
SPECS = ROOT / "bench" / "specs"


def _cli(*args, timeout: float) -> str:
    """The stdout of `python -m metdg.cli args`, which must exit 0 within
    timeout seconds."""
    run = fresh("-m", "metdg.cli", *map(str, args), timeout=timeout, check=False, text=True)
    assert run.returncode == 0, run.stderr
    return run.stdout


def _write(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc))
    return path


def _rows(csv: str) -> int:
    """The number of data rows of a CSV document."""
    return sum(line[:1].isdigit() for line in csv.splitlines())


@pytest.mark.parametrize("spec", sorted(_GOLDEN_THRESHOLD))
def test_exit_charts_beside_the_threshold_bracket_finish(spec):
    # A recorded exit chart takes none of the early stops, so the charts 1e-4
    # either side of the bracket run DE up to its 20,000-step cap (ex1_spc3
    # runs all of it on both sides).
    lo, hi, _ = _GOLDEN_THRESHOLD[spec]
    for eps in (lo - 1e-4, hi + 1e-4):
        rows = _rows(_cli("exit-chart", SPECS / f"{spec}.json", "--epsilon", repr(eps), timeout=60))
        assert 1 <= rows <= 20001, (eps, rows)


# Runs the command in argv[1:], killed after 60 s, and prints its exit code
# and its peak RSS in KiB (Linux units).  A child's peak counts the pages its
# parent had when it started the child, so the parent is this small script,
# not the test process.
_PEAK_RSS = (
    "import os, signal, subprocess, sys\n"
    "child = subprocess.Popen(sys.argv[1:])\n"
    "signal.signal(signal.SIGALRM, lambda *_: child.kill())\n"
    "signal.alarm(60)\n"
    "_, status, usage = os.wait4(child.pid, 0)\n"
    "print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)\n"
)


def test_a_long_exit_chart_streams_in_constant_memory(tmp_path):
    # A CSV chart is written row by row as the run makes it, so its memory
    # does not grow with --max-iters.  ex1_spc3 at 0.4999999 runs to any cap;
    # its 200,000-row chart peaks at about 20 MiB RSS, and at 74 MiB when the
    # rows were kept for one write.
    out = tmp_path / "long-chart.csv"
    argv = [sys.executable, "-m", "metdg.cli", "exit-chart", str(SPECS / "ex1_spc3.json"),
            "--epsilon", "0.4999999", "--max-iters", "200000", "--out", str(out)]
    code, peak_kib = map(int, fresh("-c", _PEAK_RSS, *argv, text=True).stdout.split())
    assert code == 0
    assert peak_kib / 1024 < 40, f"child peak RSS {peak_kib / 1024:.1f} MiB"
    assert _rows(out.read_text()) == 200001


def test_tables_at_the_full_walk_budget_finish():
    # A 24-socket SPC CN has a dual of rank 1, so the rank programme builds
    # its table in about a millisecond.  A (12,12) VN with every bit
    # transmitted has rank 12 over 24 columns, but only 12 distinct ones, so
    # the programme builds its table too (about 0.2 s).  A [24,12] CN with 24
    # distinct columns is left to the 2**24-subset walk (about 1.6 s).
    n = WALK_BUDGET
    k = n // 2
    with deadline(60):
        g = GF2Matrix(n - 1, n, [1 << i | 1 << (n - 1) for i in range(n - 1)])
        assert cn_info_table(CnType("spc", g, (1,) * n, 1), 1).shape == (n + 1,)
        vn = VnType("id", GF2Matrix.identity(k), (1,) * k, (1,) * k, 1)
        assert vn_info_table(vn, 1).shape == (k + 1, k + 1)
        # [identity | all-ones minus identity]: rank 12, 24 distinct columns
        g = GF2Matrix(k, n, [1 << i | ((1 << k) - 1 ^ 1 << i) << k for i in range(k)])
        assert cn_info_table(CnType("half", g, (1,) * n, 1), 1).shape == (n + 1,)


def test_a_spec_above_the_kernel_cut_off_finishes(tmp_path):
    # wide_spec's CN half keeps the numpy contraction.  Its threshold sits in
    # the search's top cell, so one DE run with one exact ray proof decides
    # every step (about 0.3 s).  The chart at 0.0589 records 14,702 rows
    # through the numpy half (0.8 s in-process, against 5.9 s with that half
    # inlined as generated code).
    path = _write(tmp_path / "wide.json", wide_spec().to_dict())
    _cli("threshold", path, "--tol-eps", "1e-4", timeout=3)
    _cli("exit-chart", path, "--epsilon", "0.05", timeout=60)
    _cli("exit-chart", path, "--epsilon", "0.0589", timeout=5)
    r = json.loads(_cli("stability", path, "--epsilon", "0.3", "--bound", timeout=3))["results"]
    assert 5.1 <= r["sigma"] <= 5.1000000000000005 and r["verdict"] == "unstable", r


def test_a_threshold_in_the_top_cell_takes_one_run(tmp_path):
    # rng3c, the third draw of random_eligible_spec(default_rng(3),
    # max_sockets=12), converges on all of (0, 1), so its search ends in the
    # top cell [1 - 2e-6, 1].  One run at that cell's lower end decides all
    # 19 bisection steps: about 0.8 s, and 11 s when every step runs DE.
    rng = np.random.default_rng(3)
    for _ in range(3):
        spec = random_eligible_spec(rng, max_sockets=12)
    path = _write(tmp_path / "rng3c.json", spec.to_dict())
    r = json.loads(_cli("threshold", path, timeout=5))["results"]
    assert r["undecided"] == 0 and r["bracket"][1] == 1.0, r


def test_a_24_socket_spc_spec_validates_and_analyses_quickly(tmp_path):
    # Minimum distance and weight-2 pairs come from one elimination, not a
    # walk over the 2**k inputs.
    path = _write(tmp_path / "spc24.json", ldpc_spec(2, 24, vn_count=12).to_dict())
    _cli("validate", path, timeout=10)
    _cli("stability", path, "--epsilon", "0.3", "--bound", timeout=10)


# name -> (spec, simulate arguments, --jobs values); a spec of None is the
# bench's ldpc36.  sweep starts at most as many workers as there are CPUs,
# whatever --jobs asks for.
_SIMULATIONS = {
    # trials decode in blocks of up to 2**16 edges: the largest blocks,
    # thousands of 12-edge graphs each
    "tiny": (None, ["--scale", "1", "--eps", "0.3:0.5:0.1", "--trials", "5000"], ["1", "2", "64"]),
    # a 200,000-bit trial is a block of one: the one-message-per-edge
    # decoder at full size (about 1 s per process)
    "200000-bit": (None, ["--scale", "50000", "--eps", "0.40:0.44:0.04", "--trials", "2"], ["1", "2"]),
    # a 22-socket SPC CN is wider than the array-backed local maps
    # (_ARRAY_MAX_WIDTH = 20 key bits), so a dict memo serves its keys
    "dict-backed": (ldpc_spec(2, 22, vn_count=11),
                    ["--scale", "20", "--eps", "0.02:0.1:0.02", "--trials", "20"], ["1", "2"]),
}


@pytest.mark.parametrize("name", list(_SIMULATIONS))
def test_a_simulation_finishes_and_agrees_across_jobs(name, tmp_path):
    spec, args, jobs = _SIMULATIONS[name]
    path = SPECS / "ldpc36.json" if spec is None else _write(tmp_path / "spec.json", spec.to_dict())
    bodies = [
        [line for line in _cli("simulate", path, *args, "--seed", "3", "--jobs", j, timeout=60).splitlines()
         if not line.startswith("#")]
        for j in jobs
    ]
    assert all(body == bodies[0] for body in bodies[1:])


# Restores Python's SIGINT handler before the CLI runs: a launcher that
# ignores SIGINT (as a shell does for a background job) passes that on.
_MAIN_WITH_SIGINT = (
    "import signal, sys\n"
    "signal.signal(signal.SIGINT, signal.default_int_handler)\n"
    "from metdg.cli import main\n"
    "sys.exit(main(sys.argv[1:]))\n"
)


def test_an_interrupted_simulation_leaves_no_process_behind():
    # Workers are children forked by sweep; SIGINT to the parent alone must
    # end the run and leave no worker behind.  The CLI leads a new process
    # group, which its workers join, and the run takes several seconds, so
    # the signal lands mid-sweep.
    argv = [sys.executable, "-c", _MAIN_WITH_SIGINT, "simulate", str(SPECS / "ldpc36.json"),
            "--scale", "5000", "--eps", "0.3:0.5:0.01", "--trials", "60", "--seed", "3", "--jobs", "2"]
    child = subprocess.Popen(argv, env=fresh_env(), start_new_session=True, stdout=subprocess.DEVNULL)
    try:
        time.sleep(1)
        child.send_signal(signal.SIGINT)
        assert child.wait(timeout=10) == -signal.SIGINT
        with pytest.raises(ProcessLookupError):
            os.killpg(child.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)
        child.wait()


def test_a_two_job_sweep_imports_no_multiprocessing():
    # Forked workers need neither multiprocessing nor concurrent.futures,
    # which cost about 14 ms to import.
    script = (
        "import sys\n"
        "from metdg import load_spec, sweep\n"
        f"spec = load_spec({str(SPECS / 'ldpc36.json')!r})\n"
        "kwargs = dict(scale=20, eps_grid=[0.3, 0.45], trials=8, seed=7)\n"
        "assert sweep(spec, jobs=2, **kwargs).rows == sweep(spec, jobs=1, **kwargs).rows\n"
        "print(sorted({'multiprocessing', 'concurrent'} & set(sys.modules)))\n"
    )
    assert fresh("-c", script, timeout=60, text=True).stdout.strip() == "[]"


@pytest.mark.skipif(usable_cpus() < 2, reason="fewer than 2 usable CPUs, so no worker is forked")
def test_sweep_workers_reuse_their_heap_across_blocks():
    # A forked worker keeps the heap it frees, so its blocks reuse their
    # pages: the minor faults the workers take per extra 20,000-bit ldpc36
    # trial (25 against 5 trials at each of 4 grid points) read about 3, and
    # about 270 when every block gives its arrays back to the kernel.
    script = (
        "import resource\n"
        "from metdg import load_spec, sweep\n"
        f"spec = load_spec({str(SPECS / 'ldpc36.json')!r})\n"
        "def faults(trials):\n"
        "    before = resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt\n"
        "    sweep(spec, scale=5000, eps_grid=[0.40, 0.42, 0.44, 0.46], trials=trials, seed=1, jobs=2)\n"
        "    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_minflt - before\n"
        "few = faults(5)\n"
        "print((faults(25) - few) / 80)\n"
    )
    per_trial = float(fresh("-c", script, timeout=60, text=True).stdout)
    assert per_trial <= 50, f"{per_trial:.1f} minor faults per extra trial in the workers"


@pytest.mark.parametrize("name", ["float-entry", "true-count", "src"])
def test_a_malformed_spec_or_an_unreadable_path_exits_1(name, tmp_path):
    if name == "src":
        path = ROOT / "src"
    else:
        field, value = ("generator", [[1, 1.0]]) if name == "float-entry" else ("count", True)
        path = _write(tmp_path / f"{name}.json", set_at(ones_doc(), ("vn_types", 0, field), value))
    run = fresh("-m", "metdg.cli", "validate", str(path), check=False, text=True)
    assert run.returncode == 1, run.stderr
    assert any(line.startswith("error: ") for line in run.stderr.splitlines()), run.stderr
    assert "Traceback" not in run.stderr
