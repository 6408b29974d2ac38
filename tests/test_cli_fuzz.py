"""Random eligible specs and erasure probabilities through the CLI: every
call ends with a documented exit code, in bounded time, and never with an
internal error."""

import contextlib
import io
import json
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from metdg.cli import main

from conftest import random_eligible_spec

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


_SETTINGS = hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
_EPS = st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True))


def _run(args: list[str], out: Path) -> int:
    """One CLI call: a documented exit code, in bounded time, and no
    internal error."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err):
        code = main(args + ["--out", str(out)])
    assert time.perf_counter() - start < 5.0, args
    assert code in (0, 1, 2, 3), (args, err.getvalue())
    assert "internal error" not in err.getvalue(), (args, err.getvalue())
    return code


@_SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1), eps=_EPS)
def test_stability_and_threshold_on_random_specs(seed, eps):
    spec = random_eligible_spec(np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        out = Path(tmp) / "report.json"
        _run(["stability", str(path), f"--epsilon={eps!r}", "--bound"], out)
        _run(["threshold", str(path), "--max-iters", "200"], out)


@_SETTINGS
@hypothesis.given(seed=st.integers(0, 2**32 - 1), eps=_EPS, pick=st.integers(0, 2**16))
def test_exit_chart_and_inffunc_on_random_specs(seed, eps, pick):
    spec = random_eligible_spec(np.random.default_rng(seed))
    # a VN or CN type of the spec, or a name it does not have
    names = [t.name for t in spec.vn_types + spec.cn_types] + ["no such type"]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        out = Path(tmp) / "report.out"
        args = ["exit-chart", str(path), f"--epsilon={eps!r}", "--max-iters", "200"]
        if _run(args, out) == 0:
            _check_trajectory_csv(out.read_text(), spec.n_edge_types)
        name = names[pick % len(names)]
        assert _run(["inffunc", str(path), "--type", name], out) == (1 if name == names[-1] else 0)


def _check_trajectory_csv(text: str, n_edge_types: int) -> None:
    """Rows numbered 0..T-1, one value in [0, 1] per edge type."""
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    assert lines[0] == "iter," + ",".join(f"I_EV_{l}" for l in range(1, n_edge_types + 1))
    rows = [line.split(",") for line in lines[1:]]
    assert rows, text
    for i, row in enumerate(rows):
        assert row[0] == str(i) and len(row) == n_edge_types + 1, row
        assert all(0.0 <= float(v) <= 1.0 for v in row[1:]), row


@_SETTINGS
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    scale=st.integers(-1, 3),
    grid=st.lists(_EPS, min_size=1, max_size=3),
    trials=st.integers(1, 3),
)
def test_simulate_on_random_specs(seed, scale, grid, trials):
    spec = random_eligible_spec(np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        args = ["simulate", str(path), f"--scale={scale}", "--eps=" + ",".join(map(repr, grid)),
                f"--trials={trials}", "--jobs=1"]
        valid = scale >= 1 and all(0.0 <= eps <= 1.0 for eps in grid)
        assert _run(args, Path(tmp) / "rows.csv") == (0 if valid else 1)
