"""No module of metdg keeps state that grows with use: every derived table
and map belongs to the object or call that built it."""

import sys

import numpy as np

from metdg import ExitEngine, cn_info_table, decode, peeling, sample_code, sweep, vn_info_table

from conftest import random_eligible_spec


def _container_sizes() -> dict[str, int]:
    sizes = {}
    for name, module in sorted(sys.modules.items()):
        if name == "metdg" or name.startswith("metdg."):
            for attr, value in vars(module).items():
                if not attr.startswith("__") and isinstance(value, (dict, list, set)):
                    sizes[f"{name}.{attr}"] = len(value)
    return sizes


def test_no_module_level_container_grows_with_use(monkeypatch):
    before = _container_sizes()
    # fresh random codes, so no earlier test can have built their tables or maps
    rng = np.random.default_rng(8128)
    specs = [random_eligible_spec(rng, n_edge_types=2), random_eligible_spec(rng, n_edge_types=1)]
    for spec in specs:
        ExitEngine(spec)
        for vn in spec.vn_types:
            vn_info_table(vn, spec.n_edge_types)
        for cn in spec.cn_types:
            cn_info_table(cn, spec.n_edge_types)
    ExitEngine(specs[0]).threshold(tol_eps=1e-2, max_iters=200)
    code = sample_code(specs[1], 3, seed=5)
    decode(code, rng.random(code.n_transmitted) < 0.4)
    sweep(specs[0], scale=2, eps_grid=[0.3, 0.5], trials=3, seed=4, jobs=1)
    # two forked workers, whatever the CPUs of the machine
    monkeypatch.setattr(peeling, "usable_cpus", lambda: 2)
    sweep(specs[0], scale=2, eps_grid=[0.3, 0.5], trials=3, seed=4, jobs=2)
    assert _container_sizes() == before
