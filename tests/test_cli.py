import hashlib
import json
import time
from pathlib import Path

import pytest

from metdg import ExitEngine
from metdg.cli import main

from conftest import close_eigenvalues_doc, example1_spec, fig1_doc, ldpc_spec, ones_doc, set_at, spc_gen


@pytest.fixture()
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(fig1_doc()))
    return str(path)


@pytest.fixture()
def ex1_path(tmp_path):
    spec = example1_spec(spc_gen(3), spc_gen(3))
    path = tmp_path / "ex1.json"
    path.write_text(json.dumps(spec.to_dict()))
    return str(path)


@pytest.fixture()
def ldpc_path(tmp_path):
    path = tmp_path / "ldpc.json"
    path.write_text(json.dumps(ldpc_spec(3, 6).to_dict()))
    return str(path)


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def test_validate_fig1(fig1_path, tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["validate", fig1_path, "--out", str(out)]) == 0
    report = _read_json(out)
    assert report["subcommand"] == "validate"
    assert len(report["spec_sha256"]) == 64
    res = report["results"]
    assert res["codeword_length"] == 28
    assert res["dimension"] == 8
    assert res["rate"]["ratio"] == "2/7"
    assert not res["flags"]["stability_eligible"]


def test_validate_prints_to_stdout(fig1_path, capsys):
    assert main(["validate", fig1_path]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["results"]["codeword_length"] == 28


def test_stability_bound_example1(ex1_path, tmp_path):
    out = tmp_path / "stab.json"
    assert main(["stability", ex1_path, "--bound", "--out", str(out)]) == 0
    report = _read_json(out)
    assert abs(report["results"]["bound"] - 0.5) <= 1e-6
    assert report["results"]["c_exact"][0][0] == "2/1"
    assert report["results"]["always_stable_by_disjoint_supports"] is False


def test_stability_with_epsilon(ex1_path, tmp_path):
    out = tmp_path / "stab.json"
    assert main(["stability", ex1_path, "--epsilon", "0.3", "--out", str(out)]) == 0
    res = _read_json(out)["results"]
    assert abs(res["sigma"] - 0.6) < 1e-9
    assert res["verdict"] == "stable"


def test_stability_decides_close_leading_eigenvalues(tmp_path, capsys):
    # this spec once exited 1 with "internal error: eigenvalue and
    # power-iteration radii disagree"
    path = tmp_path / "close.json"
    path.write_text(json.dumps(close_eigenvalues_doc()))
    assert main(["stability", str(path), "--epsilon", "0.01"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["verdict"] == "stable"


def test_stability_refuses_punctured_spec(fig1_path, capsys):
    assert main(["stability", fig1_path]) == 3
    err = capsys.readouterr().err
    assert "punctur" in err


def test_capacity_error_exit_code(tmp_path, capsys):
    doc = {
        "edge_types": 1,
        "vn_types": [
            {
                "name": "wide",
                "generator": [[1] * 30],
                "socket_types": [1] * 30,
                "count": 1,
            }
        ],
        "cn_types": [
            {"name": "c", "generator": [[1] * 30], "socket_types": [1] * 30, "count": 1}
        ],
    }
    path = tmp_path / "big.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 2
    assert "limit" in capsys.readouterr().err


def test_walk_over_the_budget_exits_2_before_walking(tmp_path, capsys):
    # a (24,12) VN with every bit transmitted: its table walks 36 columns, yet
    # sockets and input bits are each within the budget, so the spec is valid
    doc = {
        "edge_types": 1,
        "vn_types": [
            {
                "name": "wide",
                "generator": [[int(j % 12 == i) for j in range(24)] for i in range(12)],
                "socket_types": [1] * 24,
                "count": 1,
            }
        ],
        "cn_types": [
            {"name": "c", "generator": spc_gen(4).to_rows(), "socket_types": [1] * 4, "count": 6}
        ],
    }
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", str(path)]) == 0
    capsys.readouterr()
    for args in (["inffunc", str(path), "--type", "wide"], ["threshold", str(path)]):
        t0 = time.perf_counter()
        assert main(args) == 2
        assert time.perf_counter() - t0 < 1.0
        err = capsys.readouterr().err
        assert "WALK_BUDGET=24" in err and "36 columns" in err


def test_24_socket_spc_validates_and_analyses_quickly(tmp_path, capsys):
    # minimum distance and weight-2 pairs of a (24,23) SPC, with no walk over
    # its 2**23 inputs
    doc = {
        "edge_types": 1,
        "vn_types": [{"name": "rep2", "generator": [[1, 1]], "socket_types": [1, 1], "count": 12}],
        "cn_types": [
            {"name": "spc24", "generator": spc_gen(24).to_rows(), "socket_types": [1] * 24, "count": 1}
        ],
    }
    path = tmp_path / "spc24.json"
    path.write_text(json.dumps(doc))
    for args in (["validate"], ["stability", "--epsilon", "0.3", "--bound"]):
        t0 = time.perf_counter()
        assert main([args[0], str(path), *args[1:]]) == 0
        assert time.perf_counter() - t0 < 1.0
        report = json.loads(capsys.readouterr().out)
    assert report["results"]["verdict"] == "unstable"
    # sigma(eps) = eps * 1 * 23: the bound is 1/23
    assert abs(report["results"]["bound"] - 1 / 23) < 1e-6


def test_validation_error_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{\"edge_types\": 1}")
    assert main(["validate", str(path)]) == 1


def test_missing_file_exit_code(capsys):
    assert main(["validate", "/nonexistent/spec.json"]) == 1


def _one_error_line(err: str) -> bool:
    return err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "path, value",
    [
        (("vn_types", 0, "puncture"), [1.0]),
        (("vn_types", 0, "generator", 0, 0), 1.0),
        (("vn_types", 0, "name"), ["x"]),
        (("edge_types",), True),
        (("vn_types", 0, "count"), True),
        (("cn_types", 0, "socket_types", 0), True),
    ],
    ids=["puncture-float", "generator-float", "name-list", "edge-types-bool", "count-bool",
         "socket-bool"],
)
@pytest.mark.parametrize("command", ["validate", "threshold", "simulate"])
def test_values_of_the_wrong_type_exit_1(path, value, command, tmp_path, capsys):
    # in ones_doc, a bool or float read as 1 would make a valid spec
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(set_at(ones_doc(), path, value)))
    extra = ["--scale", "1", "--eps", "0.3", "--trials", "1"] if command == "simulate" else []
    assert main([command, str(spec), *extra]) == 1
    assert _one_error_line(capsys.readouterr().err)


def test_unreadable_paths_exit_1(ex1_path, tmp_path, capsys):
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(json.dumps(fig1_doc()).replace('"deg2"', '"d\u00e9g2"').encode("latin-1"))
    for args in (["validate", str(tmp_path)], ["validate", str(latin1)],
                 ["validate", ex1_path, "--out", str(tmp_path)]):
        assert main(args) == 1
        assert _one_error_line(capsys.readouterr().err)


def test_simulate_refuses_a_trial_numpy_cannot_index(tmp_path, capsys):
    # valid, but one trial at scale 1 has 6 * 10**20 edges
    path = tmp_path / "huge.json"
    path.write_text(ldpc_spec(3, 6, 2 * 10**20).to_json())
    assert main(["validate", str(path), "--out", str(tmp_path / "v.json")]) == 0
    assert main(["simulate", str(path), "--scale", "1", "--eps", "0.3", "--trials", "1"]) == 1
    assert _one_error_line(capsys.readouterr().err)


def test_threshold_json_schema(ldpc_path, tmp_path):
    out = tmp_path / "th.json"
    assert main(["threshold", ldpc_path, "--tol-eps", "1e-4", "--out", str(out)]) == 0
    res = _read_json(out)["results"]
    assert set(res) == {"threshold", "tol", "iterations", "bracket", "undecided"}
    assert abs(res["threshold"] - 0.4294) < 5e-3
    assert res["tol"] == 1e-4


def test_stability_limited_threshold_at_the_defaults(ex1_path, tmp_path):
    # ex1_spc3's threshold is its stability bound, 1/2
    out = tmp_path / "th.json"
    assert main(["threshold", ex1_path, "--out", str(out)]) == 0
    doc = _read_json(out)
    res = doc["results"]
    lo, hi = res["bracket"]
    assert lo < 0.5 < hi and hi - lo <= 2e-6
    assert res["undecided"] == 0
    assert abs(res["threshold"] - 0.5) <= res["tol"]
    assert doc["parameters"]["max_iters"] == 20000
    assert doc["duration_s"] < 1.0


def test_exit_chart_csv(ldpc_path, tmp_path):
    out = tmp_path / "chart.csv"
    assert main(["exit-chart", ldpc_path, "--epsilon", "0.3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# tool=metdg")
    assert lines[1].startswith("# spec_sha256=")
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "iter,I_EV_1"
    first = lines[header_idx + 1].split(",")
    assert first[0] == "0"
    assert abs(float(first[1]) - 0.7) < 1e-12


def test_exit_chart_json(ldpc_path, tmp_path):
    out = tmp_path / "chart.json"
    assert (
        main(["exit-chart", ldpc_path, "--epsilon", "0.3", "--format", "json", "--out", str(out)])
        == 0
    )
    res = _read_json(out)["results"]
    assert res["converged"] is True
    assert res["trajectory"][0] == [0.7]


@pytest.mark.parametrize(
    "spec, eps",
    [(ldpc_spec(3, 6), 0.3), (example1_spec(spc_gen(3), spc_gen(3)), 0.45)],
    ids=["ldpc36", "ex1_spc3"],
)
def test_exit_chart_bodies_hold_every_engine_row(spec, eps, tmp_path):
    path, out = tmp_path / "spec.json", tmp_path / "chart"
    path.write_text(json.dumps(spec.to_dict()))
    converged, trajectory, _ = ExitEngine(spec).run(eps, record=True)
    rows = trajectory.tolist()
    assert len(rows) > 1

    assert main(["exit-chart", str(path), "--epsilon", str(eps), "--out", str(out)]) == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == ",".join(["iter"] + [f"I_EV_{l}" for l in range(1, spec.n_edge_types + 1)])
    assert body[1:] == [",".join([str(it)] + [repr(v) for v in row]) for it, row in enumerate(rows)]

    args = ["exit-chart", str(path), "--epsilon", str(eps), "--format", "json", "--out", str(out)]
    assert main(args) == 0
    res = _read_json(out)["results"]
    assert res["converged"] is converged
    assert res["trajectory"] == rows


def test_inffunc_dump(ex1_path, tmp_path):
    out = tmp_path / "table.json"
    assert main(["inffunc", ex1_path, "--type", "bank1", "--out", str(out)]) == 0
    res = _read_json(out)["results"]
    assert res["kind"] == "cn"
    assert res["shape"] == [4, 1]
    assert res["values"][0] == 0
    assert main(["inffunc", ex1_path, "--type", "nope"]) == 1


def test_simulate_csv_and_determinism(ldpc_path, tmp_path):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = [
        "simulate",
        ldpc_path,
        "--scale",
        "10",
        "--eps",
        "0.2:0.4:0.2",
        "--trials",
        "5",
        "--seed",
        "9",
        "--jobs",
        "1",
    ]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    lines = out1.read_text().splitlines()
    assert "rng=philox" in lines[2] and "seed=9" in lines[2]
    header_idx = next(i for i, ln in enumerate(lines) if not ln.startswith("#"))
    assert lines[header_idx] == "eps,ber,bler,ci_lo,ci_hi,trials"
    assert len(lines) == header_idx + 3


# SHA-256 of the non-comment lines of `metdg simulate` CSV output, joined by
# newlines, pinned before the frontier decoder replaced the full-pass one.
_GOLDEN_SIMULATE = {
    "ldpc36": (
        ["--scale", "200", "--eps", "0.40:0.46:0.02", "--trials", "20", "--seed", "7"],
        "6a93934694aba2da3f8bd682e73b6b0180fc065c31620083127d0524cdf27773",
    ),
    "dgldpc": (
        ["--scale", "2", "--eps", "0.34:0.41:0.01", "--trials", "6", "--seed", "7"],
        "57e5beae3deda78694b42c1d7a4ed716f3877f119b5827ae2c7c42b179f2a1bf",
    ),
}


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("spec", sorted(_GOLDEN_SIMULATE))
def test_simulate_golden_digests(spec, jobs, tmp_path):
    args, digest = _GOLDEN_SIMULATE[spec]
    path = Path(__file__).resolve().parents[1] / "bench" / "specs" / f"{spec}.json"
    out = tmp_path / "sim.csv"
    assert main(["simulate", str(path), *args, "--jobs", jobs, "--out", str(out)]) == 0
    body = "\n".join(ln for ln in out.read_text().splitlines() if not ln.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == digest


def test_json_reports_identical_modulo_duration(ex1_path, tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["stability", ex1_path, "--bound", "--out", str(out1)]) == 0
    assert main(["stability", ex1_path, "--bound", "--out", str(out2)]) == 0
    a = _read_json(out1)
    b = _read_json(out2)
    a.pop("duration_s")
    b.pop("duration_s")
    assert a == b


def test_csv_rejected_for_json_only_commands(ex1_path, capsys):
    assert main(["validate", ex1_path, "--format", "csv"]) == 1


@pytest.mark.parametrize(
    "bad",
    [
        ["--jobs", "0"],
        ["--eps", "1.7"],
        ["--eps", "nan"],
        ["--eps", "-0.2"],
        ["--eps", "0.3,,0.4"],
        ["--eps", "0.3,x"],
        ["--eps", "0.5:0.1:0.1"],
        ["--seed", "-1"],
        ["--seed", str(1 << 64)],
        # more grid points or trials than the stream derivation can key:
        # rejected before any grid is completed or any task list is built
        ["--eps", "0:1:1e-300"],
        ["--eps", "0.5:0.5:1e-300"],
        ["--eps", ",".join(["0.5"] * ((1 << 16) + 1))],
        ["--trials", str((1 << 32) + 1)],
        ["--scale", "0"],
        ["--scale", "-2"],
    ],
)
def test_simulate_rejects_bad_inputs(ldpc_path, bad, capsys):
    args = ["simulate", ldpc_path, "--scale", "2", "--eps", "0.3", "--trials", "2", "--jobs", "1"]
    t0 = time.perf_counter()
    assert main(args + bad) == 1
    assert time.perf_counter() - t0 < 1.0
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        ["threshold", "--tol-eps", "-1"],
        ["threshold", "--tol-eps", "0"],
        ["stability", "--bound", "--tol-eps", "0"],
        ["exit-chart", "--epsilon", "nan"],
        ["exit-chart", "--epsilon", "1.5"],
        ["threshold", "--max-iters", "-5"],
    ],
)
def test_analysis_rejects_bad_inputs(ex1_path, args, capsys):
    assert main(args[:1] + [ex1_path] + args[1:]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "args",
    [
        # argparse takes "-1e-05" for an option, not a number
        ["stability", "SPEC", "--epsilon", "-1e-05"],
        ["stability", "SPEC", "--bogus"],
        ["exit-chart", "SPEC"],
        ["threshold"],
        # --jobs belongs to simulate only
        ["threshold", "SPEC", "--jobs", "2"],
    ],
    ids=["negative-epsilon", "unknown-flag", "missing-option", "missing-spec", "jobs-outside-simulate"],
)
def test_usage_errors_exit_1(ex1_path, args, capsys):
    assert main([ex1_path if a == "SPEC" else a for a in args]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "usage:" not in err


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["threshold", "--help"]])
def test_help_and_version_exit_0(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out
