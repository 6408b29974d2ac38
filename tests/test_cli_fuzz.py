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


@hypothesis.settings(max_examples=20, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    seed=st.integers(0, 2**32 - 1),
    eps=st.one_of(st.floats(0.0, 1.0), st.floats(allow_nan=True, allow_infinity=True)),
)
def test_stability_and_threshold_on_random_specs(seed, eps):
    spec = random_eligible_spec(np.random.default_rng(seed))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.json"
        path.write_text(json.dumps(spec.to_dict()))
        out = str(Path(tmp) / "report.json")
        for args in (
            ["stability", str(path), f"--epsilon={eps!r}", "--bound"],
            ["threshold", str(path), "--max-iters", "200"],
        ):
            err = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stderr(err):
                code = main(args + ["--out", out])
            assert time.perf_counter() - start < 5.0, args
            assert code in (0, 1, 2, 3), (args, err.getvalue())
            assert "internal error" not in err.getvalue(), (args, err.getvalue())
