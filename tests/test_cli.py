import hashlib
import json
import time
import tracemalloc
from pathlib import Path

import pytest

from metdg import ExitEngine, build_matrices, load_spec, stability_verdict
from metdg import stability
from metdg.cli import _parse_eps_grid, main

from conftest import (
    close_eigenvalues_doc,
    deadline,
    example1_spec,
    fig1_doc,
    fig1_spec,
    ldpc_spec,
    ones_doc,
    set_at,
    spc_gen,
    wide_spec,
)

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"


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


@pytest.mark.parametrize("name", ["ldpc36", "ex1_spc3", "ex2_rep3", "dgldpc", "wide", "close"])
def test_stability_verdict_is_the_side_of_one_sigma_lies_on(name, tmp_path, capsys):
    # the report takes its verdict from sigma, which lies on the exact
    # verdict's side of 1 and is 1.0 when "marginal" (ex1_spc3 at 0.5)
    path = SPECS / f"{name}.json"
    if name in ("wide", "close"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(wide_spec().to_dict() if name == "wide" else close_eigenvalues_doc()))
    sm = build_matrices(load_spec(path))
    grid = [0.0, 0.01, 0.1, 0.3, 0.45, 0.499, 0.5 - 2**-53, 0.5, 0.5 + 2**-53, 0.7, 1.0]
    verdicts = set()
    for eps in grid:
        assert main(["stability", str(path), "--epsilon", repr(eps)]) == 0
        verdict = json.loads(capsys.readouterr().out)["results"]["verdict"]
        assert verdict == stability_verdict(sm, eps), eps
        verdicts.add(verdict)
    if name == "ex1_spc3":
        assert verdicts == {"stable", "marginal", "unstable"}


def test_stability_at_an_epsilon_takes_one_verdict(monkeypatch, tmp_path):
    calls = []
    verdict = stability._verdict

    def counting(*args, **kwargs):
        calls.append(args)
        return verdict(*args, **kwargs)

    monkeypatch.setattr(stability, "_verdict", counting)
    out = tmp_path / "stab.json"
    assert main(["stability", str(SPECS / "ex1_spc3.json"), "--epsilon", "0.3", "--out", str(out)]) == 0
    assert _read_json(out)["results"]["verdict"] == "stable"
    assert len(calls) == 1


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


def _chart_peak_bytes(max_iters: int, out) -> int:
    """The peak traced memory of the ex1_spc3 CSV chart at 0.4999999, which
    runs to any step cap."""
    args = ["exit-chart", str(SPECS / "ex1_spc3.json"), "--epsilon", "0.4999999"]
    tracemalloc.start()
    try:
        assert main(args + ["--max-iters", str(max_iters), "--out", str(out)]) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_csv_exit_chart_streams_its_rows(tmp_path):
    # the CSV sink writes the rows as the run makes them, a bounded chunk
    # at a time, so the chart's memory does not grow with its length
    short, long = tmp_path / "short.csv", tmp_path / "long.csv"
    short_peak, long_peak = _chart_peak_bytes(1000, short), _chart_peak_bytes(50000, long)
    assert abs(long_peak - short_peak) <= 1 << 20, (short_peak, long_peak)
    rows = [ln for ln in long.read_text().splitlines() if ln[:1].isdigit()]
    assert len(rows) == 50001 and rows[-1].startswith("50000,")


@pytest.mark.parametrize(
    "bad", [["--epsilon", "1.5"], ["--epsilon", "nan"], ["--max-iters", "-1"], ["--tol", "0"], ["--tol", "2"]]
)
def test_rejected_exit_chart_writes_nothing(bad, ex1_path, tmp_path, capsys):
    out = tmp_path / "chart.csv"
    args = ["exit-chart", ex1_path, "--epsilon", "0.3", *bad]
    assert main(args + ["--out", str(out)]) == 1
    assert not out.exists()
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


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
    [
        (ldpc_spec(3, 6), 0.3),
        (example1_spec(spc_gen(3), spc_gen(3)), 0.45),
        # 8,737 rows: the CSV writes them in chunks, the JSON keeps them all
        (example1_spec(spc_gen(3), spc_gen(3)), 0.499),
    ],
    ids=["ldpc36", "ex1_spc3", "ex1_spc3-long"],
)
def test_exit_chart_bodies_hold_every_engine_row(spec, eps, tmp_path):
    path, out = tmp_path / "spec.json", tmp_path / "chart"
    path.write_text(json.dumps(spec.to_dict()))
    rows = []
    converged = ExitEngine(spec).run(eps, record=rows.extend).outcome == "converged"
    assert len(rows) > 1

    assert main(["exit-chart", str(path), "--epsilon", str(eps), "--out", str(out)]) == 0
    body = [ln for ln in out.read_text().splitlines() if not ln.startswith("#")]
    assert body[0] == ",".join(["iter"] + [f"I_EV_{l}" for l in range(1, spec.n_edge_types + 1)])
    assert body[1:] == [",".join([str(it)] + [repr(v) for v in row]) for it, row in enumerate(rows)]

    args = ["exit-chart", str(path), "--epsilon", str(eps), "--format", "json", "--out", str(out)]
    assert main(args) == 0
    res = _read_json(out)["results"]
    assert res["converged"] is converged
    assert res["trajectory"] == [list(row) for row in rows]


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
    path = SPECS / f"{spec}.json"
    out = tmp_path / "sim.csv"
    assert main(["simulate", str(path), *args, "--jobs", jobs, "--out", str(out)]) == 0
    body = "\n".join(ln for ln in out.read_text().splitlines() if not ln.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == digest


# `metdg threshold` results at the CLI defaults, and the SHA-256 of the
# non-comment lines of `metdg exit-chart` CSV output joined by newlines,
# pinned before the DE loop took the basin as float lines.  These specs step
# with generated kernels, so no numpy rounding enters.
_GOLDEN_THRESHOLD = {
    "ldpc36": [0.4294395446777344, 0.4294414520263672, 19],
    "ex1_spc3": [0.49999813897687406, 0.5000000463256836, 18],
    "ex2_rep3": [0.6980457305908203, 0.6980476379394531, 19],
    "dgldpc": [0.39752197265625, 0.3975238800048828, 19],
}
_GOLDEN_EXIT_CHART = {
    ("ex1_spc3", "0.499"): "c0fee77515f597b361f956ddc1d4825e99dfc71a12b64f1caf84014b12827c1d",
    ("ldpc36", "0.42"): "61dedb83da3aa5956f3791cba5de73f5a5dd1704ee303099db6120df4d41ccbd",
}


def test_threshold_golden_results_cover_every_bench_spec():
    assert sorted(_GOLDEN_THRESHOLD) == sorted(path.stem for path in SPECS.glob("*.json"))


@pytest.mark.parametrize("spec", sorted(_GOLDEN_THRESHOLD))
def test_threshold_golden_results(spec, tmp_path):
    # the one search at the CLI defaults per bench spec: it finishes in
    # bounded time and decides every probe
    lo, hi, probes = _GOLDEN_THRESHOLD[spec]
    out = tmp_path / "threshold.json"
    with deadline(120):
        assert main(["threshold", str(SPECS / f"{spec}.json"), "--out", str(out)]) == 0
    assert _read_json(out)["results"] == {
        "bracket": [lo, hi],
        "iterations": probes,
        "threshold": 0.5 * (lo + hi),
        "tol": 1e-06,
        "undecided": 0,
    }


@pytest.mark.parametrize("spec, eps", sorted(_GOLDEN_EXIT_CHART))
def test_exit_chart_golden_digests(spec, eps, tmp_path):
    path = SPECS / f"{spec}.json"
    out = tmp_path / "chart.csv"
    assert main(["exit-chart", str(path), "--epsilon", eps, "--out", str(out)]) == 0
    body = "\n".join(ln for ln in out.read_text().splitlines() if not ln.startswith("#"))
    assert hashlib.sha256(body.encode()).hexdigest() == _GOLDEN_EXIT_CHART[spec, eps]


# SHA-256 of the `metdg validate`, `stability --epsilon 0.3 --bound` and
# `inffunc --type T` reports, less their "duration_s" line, for every bench
# spec and fig1_spec() and every type in them, pinned before CN types carried
# their empty channel and the reports took one exact-number writer.  fig1
# punctures a bit, so its stability report is a refusal, pinned below.
_GOLDEN_REPORTS = {
    ("dgldpc", "inffunc --type ham15"): "24adc15462b22e642933789a955b5b3eec4efd0b80740d8c9b992f9b3e870b80",
    ("dgldpc", "inffunc --type ham74"): "311848c34f9e1d022fedbd2ef986dbacb989a937b8561cf49a7cec6d8e462d95",
    ("dgldpc", "inffunc --type rep3"): "7d5032001fb23de3017963b96f1c58f96a31b565364689c415c1994bd48ebace",
    ("dgldpc", "stability --epsilon 0.3 --bound"): "399f20b6fbee72c6340aafa02c42c29f41acb9c8db8d9fa4102c59aba965e4bb",
    ("dgldpc", "validate"): "0d2ae69238217b19315971b67d4adbbee7241927efaca0f9193a4b409d9c2dc9",
    ("ex1_spc3", "inffunc --type bank1"): "cf672e7fcbcef765ce7be1234ba6d4586fd6170b6b4fab57d44c5ca1cb2d70a3",
    ("ex1_spc3", "inffunc --type bank2"): "1e867b8cd8ce9097f70f0e7f8728b00dd482fe185628409f14fa7d75ce52f0f9",
    ("ex1_spc3", "inffunc --type bridge"): "49f838055e1d414c4c64902f86d9ced06faa72ec529931b862bd0991aec441b3",
    ("ex1_spc3", "stability --epsilon 0.3 --bound"): "42568ce6041d1f73c678d7fddf7daadcced64a3b4f16b4393863a56667777b1d",
    ("ex1_spc3", "validate"): "68cf931be509010afc06053687eb051a948fdf9f314d72dfd94a5567da0bd40d",
    ("ex2_rep3", "inffunc --type acc"): "e57f7a4deaf32f3d2f9682714d7e596b76c2934a213303920c8aee86a9bf9c3a",
    ("ex2_rep3", "inffunc --type inner"): "c0a2cfbb56219eea10a0d366784883eb8ae3bac045e7e2996f2d9cf2301ed22c",
    ("ex2_rep3", "inffunc --type outer"): "ec03447dd580f0a50df8e5cbbf9c5bf282892e5c41ebf7ae2183bcaa9d708eaf",
    ("ex2_rep3", "stability --epsilon 0.3 --bound"): "e322eddc23979c77ec89fefc74dddc3abd815b78aff58ac717f5972516ae98da",
    ("ex2_rep3", "validate"): "89a0f81f2ec59b569d3ee2a91f1932560f6cd522afd7462a50ef1218afc88196",
    ("fig1", "inffunc --type deg2"): "08c9dbfb5c33aae01b7850fc023251159fb8b0a67788380222a8fbb86ec9babb",
    ("fig1", "inffunc --type dual"): "13773e3da04ec88f7150ed606c5d833c9e9d7d30eb1f4bcc2e3ffc36c875a270",
    ("fig1", "inffunc --type single"): "b4f2319ab5d4ebc69a5041483662f7bf3cf5b370ac028c50da1eae6ad087a26a",
    ("fig1", "inffunc --type spc32"): "bcb02ea2f98024e72494e9ac79e879e1a8cc26af4713126d927168e7e79942da",
    ("fig1", "inffunc --type state"): "7eaf449b124805fba7bbb6e9385aa22748d1f90a67bea2a0d9dd50fde7cb11bf",
    ("fig1", "validate"): "e62e9f606eef78c0ecd1929f1b3396c3fca0dc1540a14800f4d192b3c3b2bc5f",
    ("ldpc36", "inffunc --type rep"): "033764e213a97b0c9792424d540216f89f23324e7c83ed97416a3690bc5fd2a7",
    ("ldpc36", "inffunc --type spc"): "d601ccf60c9e8581362bad7da292710a6e9ad5ac217b879fcbce6659f1f13c14",
    ("ldpc36", "stability --epsilon 0.3 --bound"): "4ffacf8c5d8e7d15b3bd7151627979d1527b296f7c9cfcad9ef5cad55dae9b62",
    ("ldpc36", "validate"): "3d8f126158cb4b64f4927820ca735534abd6223f8bcfdd843cf0105d9493aa50",
}
_REPORT_SPECS = [*sorted(path.stem for path in SPECS.glob("*.json")), "fig1"]


def _report_spec_path(name, tmp_path):
    if name != "fig1":
        return str(SPECS / f"{name}.json")
    path = tmp_path / "fig1.json"
    path.write_text(json.dumps(fig1_spec().to_dict()))
    return str(path)


def test_report_goldens_cover_every_spec_and_type(tmp_path):
    want = set()
    for name in _REPORT_SPECS:
        spec = load_spec(_report_spec_path(name, tmp_path))
        want |= {(name, "validate"), (name, "stability --epsilon 0.3 --bound")}
        want |= {(name, f"inffunc --type {t.name}") for t in spec.vn_types + spec.cn_types}
    assert set(_GOLDEN_REPORTS) == want - {("fig1", "stability --epsilon 0.3 --bound")}


@pytest.mark.parametrize("spec, args", sorted(_GOLDEN_REPORTS))
def test_report_golden_digests(spec, args, tmp_path):
    command, *rest = args.split()
    out = tmp_path / "report.json"
    assert main([command, _report_spec_path(spec, tmp_path), *rest, "--out", str(out)]) == 0
    lines = out.read_text().splitlines(keepends=True)
    body = "".join(ln for ln in lines if not ln.lstrip().startswith('"duration_s"'))
    assert hashlib.sha256(body.encode()).hexdigest() == _GOLDEN_REPORTS[spec, args]


def test_fig1_stability_report_is_one_refusal(tmp_path, capsys):
    path = _report_spec_path("fig1", tmp_path)
    assert main(["stability", path, "--epsilon", "0.3", "--bound"]) == 3
    assert capsys.readouterr() == (
        "",
        "refused: the stability analysis assumes no punctured bits, "
        "but VN type 'state' punctures some\n",
    )


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
        # more grid points or trials than the stream derivation can key, or a
        # step too small to move eps towards b: rejected before any grid is
        # completed or any task list is built
        ["--eps", "0:1:1e-300"],
        ["--eps", "0.5:0.6:1e-300"],
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
    "eps, grid",
    [
        ("0.1:0.1:1e-300", [0.1]),
        ("0.5:0.5:0.1", [0.5]),
        ("0.2:0.4:0.2", [0.2, 0.4]),
        ("0.3,0.1", [0.3, 0.1]),
    ],
)
def test_eps_grid_forms(eps, grid):
    # a step too small to move eps still gives the one point of an a:a:step range
    assert _parse_eps_grid(eps, 1 << 16) == grid


def test_eps_step_that_cannot_move_eps(ldpc_path, capsys):
    args = ["simulate", ldpc_path, "--scale", "2", "--trials", "2", "--jobs", "1", "--eps"]
    assert main(args + ["0.1:0.1:1e-300"]) == 0
    assert capsys.readouterr().out.splitlines()[-2:] == [
        "eps,ber,bler,ci_lo,ci_hi,trials", "0.1,0.0,0.0,0.0,0.6576280471103807,2"
    ]
    assert main(args + ["0.1:0.2:1e-300"]) == 1
    assert capsys.readouterr().err == "error: eps step 1e-300 is too small to move 0.1 towards 0.2\n"


@pytest.mark.parametrize(
    "args",
    [
        ["threshold", "--tol-eps", "-1"],
        ["threshold", "--tol-eps", "0"],
        ["stability", "--bound", "--tol-eps", "0"],
        ["exit-chart", "--epsilon", "nan"],
        ["exit-chart", "--epsilon", "1.5"],
        ["threshold", "--max-iters", "-5"],
        # checked whether or not --bound uses it
        ["stability", "--tol-eps", "nan"],
        ["stability", "--tol-eps", "-1"],
        ["stability", "--tol-eps", "0"],
        ["stability", "--epsilon", "0.3", "--tol-eps", "nan"],
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


# What argparse writes for these argument lists, 80 columns wide, pinned when
# every subparser still had its arguments: a parser that builds only the
# named subcommand's arguments must write the same.
_PARSER_TEXTS = {
    "top-help": (["-h"], 0, (
        "usage: metdg [-h] [--version]\n"
        "             {validate,inffunc,exit-chart,threshold,stability,simulate} ...\n"
        "\n"
        "Command-line interface: one executable, one subcommand per analysis. Exit\n"
        "codes: 0 success, 1 validation error, 2 capacity error, 3 refusal because an\n"
        "analysis assumption does not hold. Diagnostics go to stderr; data goes to\n"
        "stdout or --out. Every emitted document embeds the SHA-256 of the\n"
        "canonicalized spec so results stay traceable to their input. Only `simulate`\n"
        "imports the simulator, `metdg.peeling`, and with it numpy; the other\n"
        "subcommands import numpy only where they need floats in arrays: a table that\n"
        "walks, or a step half too wide for generated code.\n"
        "\n"
        "positional arguments:\n"
        "  {validate,inffunc,exit-chart,threshold,stability,simulate}\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --version             show program's version number and exit\n"
    ), ""),
    "threshold-help": (["threshold", "-h"], 0, (
        "usage: metdg threshold [-h] [--out OUT] [--tol-eps TOL_EPS]\n"
        "                       [--max-iters MAX_ITERS] [--tol-fp TOL_FP]\n"
        "                       spec\n"
        "\n"
        "positional arguments:\n"
        "  spec                  path to the ensemble spec JSON file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --out OUT             write output to a file instead of stdout\n"
        "  --tol-eps TOL_EPS\n"
        "  --max-iters MAX_ITERS\n"
        "  --tol-fp TOL_FP\n"
    ), ""),
    "validate-help": (["validate", "-h"], 0, (
        "usage: metdg validate [-h] [--out OUT] spec\n"
        "\n"
        "positional arguments:\n"
        "  spec        path to the ensemble spec JSON file\n"
        "\n"
        "options:\n"
        "  -h, --help  show this help message and exit\n"
        "  --out OUT   write output to a file instead of stdout\n"
    ), ""),
    "inffunc-help": (["inffunc", "-h"], 0, (
        "usage: metdg inffunc [-h] [--out OUT] --type TYPE spec\n"
        "\n"
        "positional arguments:\n"
        "  spec         path to the ensemble spec JSON file\n"
        "\n"
        "options:\n"
        "  -h, --help   show this help message and exit\n"
        "  --out OUT    write output to a file instead of stdout\n"
        "  --type TYPE  VN or CN type name to dump\n"
    ), ""),
    "exit-chart-help": (["exit-chart", "-h"], 0, (
        "usage: metdg exit-chart [-h] [--out OUT] [--format {json,csv}] --epsilon\n"
        "                        EPSILON [--max-iters MAX_ITERS] [--tol TOL]\n"
        "                        spec\n"
        "\n"
        "positional arguments:\n"
        "  spec                  path to the ensemble spec JSON file\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --out OUT             write output to a file instead of stdout\n"
        "  --format {json,csv}\n"
        "  --epsilon EPSILON\n"
        "  --max-iters MAX_ITERS\n"
        "  --tol TOL\n"
    ), ""),
    "stability-help": (["stability", "-h"], 0, (
        "usage: metdg stability [-h] [--out OUT] [--epsilon EPSILON] [--bound]\n"
        "                       [--tol-eps TOL_EPS]\n"
        "                       spec\n"
        "\n"
        "positional arguments:\n"
        "  spec               path to the ensemble spec JSON file\n"
        "\n"
        "options:\n"
        "  -h, --help         show this help message and exit\n"
        "  --out OUT          write output to a file instead of stdout\n"
        "  --epsilon EPSILON\n"
        "  --bound\n"
        "  --tol-eps TOL_EPS\n"
    ), ""),
    "simulate-help": (["simulate", "-h"], 0, (
        "usage: metdg simulate [-h] [--out OUT] [--format {json,csv}] --scale SCALE\n"
        "                      --eps EPS --trials TRIALS [--seed SEED] [--jobs JOBS]\n"
        "                      spec\n"
        "\n"
        "positional arguments:\n"
        "  spec                 path to the ensemble spec JSON file\n"
        "\n"
        "options:\n"
        "  -h, --help           show this help message and exit\n"
        "  --out OUT            write output to a file instead of stdout\n"
        "  --format {json,csv}\n"
        "  --scale SCALE\n"
        "  --eps EPS            grid as a:b:step or comma-separated values\n"
        "  --trials TRIALS\n"
        "  --seed SEED\n"
        "  --jobs JOBS\n"
    ), ""),
    "invalid-subcommand": (["bogus", "x.json"], 1, "", (
        "error: argument command: invalid choice: 'bogus' (choose from 'validate', 'inffunc', "
        "'exit-chart', 'threshold', 'stability', 'simulate')\n"
    )),
    "missing-argument": (["exit-chart", "x.json"], 1, "", "error: the following arguments are required: --epsilon\n"),
}


@pytest.mark.parametrize("case", sorted(_PARSER_TEXTS))
def test_parser_texts_are_unchanged(case, monkeypatch, capsys):
    argv, code, out, err = _PARSER_TEXTS[case]
    monkeypatch.setenv("COLUMNS", "80")
    try:
        got = main(argv)
    except SystemExit as e:
        got = e.code
    assert got == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("args", [["--help"], ["--version"], ["threshold", "--help"]])
def test_help_and_version_exit_0(args, capsys):
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 0
    assert capsys.readouterr().out
