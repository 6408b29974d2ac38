"""The analyses need neither numpy nor the simulator: importing metdg,
building the EXIT engines of the benchmark specs, running and stepping
them, and the analysis subcommands below leave both out of sys.modules,
while `from metdg import sweep` still reaches the simulator.  Nor do they
load `dataclasses` or the `inspect` it imports: the record types are
NamedTuples."""

from pathlib import Path

import pytest

from conftest import fresh

SPECS = Path(__file__).resolve().parents[1] / "bench" / "specs"


_CLI = [
    ["validate", "dgldpc.json"],
    ["threshold", "ldpc36.json"],
    ["threshold", "dgldpc.json"],
    ["threshold", "ex1_spc3.json"],
    ["threshold", "ex2_rep3.json"],
    ["stability", "ex1_spc3.json", "--bound"],
    ["stability", "ldpc36.json", "--epsilon", "0.3"],
    ["stability", "ex1_spc3.json", "--epsilon", "0.3", "--bound"],
    ["exit-chart", "ldpc36.json", "--epsilon", "0.42"],
]


@pytest.mark.parametrize(
    "call",
    ["import", "engines"] + [" ".join(args) for args in _CLI],
)
def test_analysis_calls_import_no_numpy(call, tmp_path):
    if call == "import":
        script = "import metdg\n"
    elif call == "engines":
        # a probe, a recorded run and a single step on each engine
        script = (
            "from metdg import ExitEngine, load_spec\n"
            "for name in ('ldpc36', 'ex1_spc3', 'ex2_rep3', 'dgldpc'):\n"
            f"    engine = ExitEngine(load_spec({str(SPECS)!r} + '/' + name + '.json'))\n"
            "    engine.run(0.3)\n"
            "    rows = []\n"
            "    engine.run(0.3, record=rows.extend)\n"
            "    assert rows and len(rows[0]) == engine.n_edge_types\n"
            "    engine.step((0.5,) * engine.n_edge_types, 0.3)\n"
        )
    else:
        subcommand, spec, *rest = call.split()
        args = [subcommand, str(SPECS / spec), *rest, "--out", str(tmp_path / "report.json")]
        script = f"from metdg.cli import main\nassert main({args!r}) == 0\n"
    unwanted = {"numpy", "metdg.peeling", "dataclasses", "inspect"}
    script += f"import sys\nprint(sorted({unwanted!r} & set(sys.modules)))\n"
    assert fresh("-c", script, text=True).stdout.strip() == "[]"


def test_peeling_names_load_on_first_use():
    script = (
        "import sys, metdg\n"
        "before = 'metdg.peeling' in sys.modules\n"
        "from metdg import sweep\n"
        "print(before, sweep is sys.modules['metdg.peeling'].sweep, 'numpy' in sys.modules)\n"
    )
    assert fresh("-c", script, text=True).stdout.split() == ["False", "True", "True"]
