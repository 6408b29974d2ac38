"""Random eligible specs, malformed spec files and erasure probabilities
through the CLI: every call ends with a documented exit code, in bounded
time, and never with an exception or an internal error."""

import contextlib
import io
import json
import signal
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

from metdg import CnType, VnType
from metdg.cli import main
from metdg.gf2 import WALK_BUDGET

from conftest import fig1_doc, random_code, random_eligible_spec, spec_around

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies


_SETTINGS = hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
_EPS = st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True))


@contextlib.contextmanager
def _deadline(seconds: float):
    """Raise TimeoutError in a call still running after `seconds`, so that a
    hang fails the test instead of blocking the suite."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _run(args: list[str], out: Path) -> int:
    """One CLI call: a documented exit code, in bounded time, and no
    internal error."""
    err = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stderr(err), _deadline(10.0):
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


@_SETTINGS
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    near=st.sampled_from(["budget", "crossover"]),
    role=st.sampled_from(["cn", "vn"]),
)
def test_components_near_the_walk_budget_and_the_crossover(seed, near, role):
    """A component of WALK_BUDGET - 1 to WALK_BUDGET + 1 sockets, of rank
    or co-rank 1 or 2 (the rank programme builds its table), or of 8 to 14
    sockets and any rank (either way may), in a spec closed by repetition
    codes: validate, inffunc and threshold accept it, or refuse it with
    exit 2 when the component or its table is wider than the budget."""
    rng = np.random.default_rng(seed)
    if near == "budget":
        n = int(rng.integers(WALK_BUDGET - 1, WALK_BUDGET + 2))
        k = int(rng.choice([1, 2, n - 2, n - 1]))
        w = int(rng.integers(0, 3))
    else:
        n = int(rng.integers(8, 15))
        k = int(rng.integers(1, n))
        # at most 16 table columns, so a walk stays quick
        w = int(rng.integers(0, min(k, 16 - n) + 1))
    n_e = int(rng.integers(1, 3))
    st_ = tuple(int(t) for t in rng.integers(1, n_e + 1, size=n))
    g = random_code(rng, n, k)
    if role == "cn":
        node, width = CnType("wide", g, st_, 2), n
    else:
        tx = rng.permutation(k)[:w]
        node = VnType("wide", g, tuple(int(i in tx) for i in range(k)), st_, 2)
        width = n + node.n_transmitted
    # spec_around validates; a component over the budget is built unchecked
    with pytest.MonkeyPatch.context() as m:
        m.setattr("metdg.ensemble.gf2.check_walk", lambda *args, **kwargs: None)
        doc = spec_around(node, n_e).to_dict()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(doc))
        out = Path(tmp) / "report.json"
        loads = 2 if n > WALK_BUDGET else 0
        assert _run(["validate", str(path)], out) == loads
        table = loads or (2 if width > WALK_BUDGET else 0)
        assert _run(["inffunc", str(path), "--type", "wide"], out) == table
        assert _run(["threshold", str(path), "--max-iters", "200"], out) == table


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


def _paths(node, path=()):
    """The path (keys and list indices) of every value below node."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, child in items:
        yield path + (key,)
        if isinstance(child, (dict, list)):
            yield from _paths(child, path + (key,))


def _mutate(doc: dict, kind: str, pick: int, value) -> bytes:
    """doc with one leaf replaced, one key dropped or added, its JSON text
    truncated, or a byte that is not UTF-8 written into it."""
    text = json.dumps(doc)
    if kind == "truncate":
        return text[: pick % len(text)].encode()
    if kind == "bytes":
        at = pick % (len(text) + 1)
        return text[:at].encode() + b"\xff" + text[at:].encode()
    paths = list(_paths(doc))
    if kind == "leaf":
        paths = [p for p in paths if not isinstance(_get(doc, p), (dict, list))]
    elif kind == "drop":
        paths = [p for p in paths if isinstance(_get(doc, p[:-1]), dict)]
    else:
        paths = [()] + [p for p in paths if isinstance(_get(doc, p), dict)]
    path = paths[pick % len(paths)]
    if kind == "add":
        _get(doc, path)["extra"] = value
    else:
        parent = _get(doc, path[:-1])
        if kind == "drop":
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return json.dumps(doc).encode()


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@hypothesis.settings(_SETTINGS, max_examples=80)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(["leaf", "drop", "add", "truncate", "bytes"]),
    pick=st.integers(0, 2**16),
    value=st.sampled_from([0.5, 1.0, True, False, "x", [1], [], None, 10**20]),
)
def test_malformed_spec_files(seed, kind, pick, value):
    """A valid document, the punctured fig1 one or a random eligible one,
    with one mutation: every subcommand accepts it or rejects it with a
    documented exit code."""
    rng = np.random.default_rng(seed)
    doc = fig1_doc() if seed % 2 else random_eligible_spec(rng).to_dict()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_bytes(_mutate(doc, kind, pick, value))
        out = Path(tmp) / "report.json"
        _run(["validate", str(path)], out)
        _run(["threshold", str(path), "--max-iters", "200"], out)
        _run(["stability", str(path), "--epsilon", "0.3", "--bound"], out)
        _run(["exit-chart", str(path), "--epsilon", "0.3", "--max-iters", "200"], out)
        # a VN type of the document, whose name the mutation may have changed
        _run(["inffunc", str(path), "--type", "deg2" if seed % 2 else "v0"], out)
        _run(["simulate", str(path), "--eps", "0.3", "--scale", "1", "--trials", "1", "--jobs", "1"], out)
