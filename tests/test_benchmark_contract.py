"""The library names that ``perfbench/`` calls, patches and reads.

The benchmark times the layers by wrapping module attributes
(``solve.milp``, the four model builders, ``check_assignment`` ...) and
sizes every built model through ``model.rows`` and ``row.coeffs``;
``perfbench/one_pass.py`` calls the library directly (``validate``,
``build_spec_ranges``, ``solve(initial=)``, the plan diagnostics keys).
A change that removes one of them fails here, not only in a benchmark
run.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from stationopt import model as model_module
from stationopt import solve as solve_module
from stationopt.fixtures import mini_station
from stationopt.io import load_instance
from stationopt.model import ObjectiveWeights
from stationopt.ranges import build_spec_ranges

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_sizes_a_built_model(tracing):
    spec, scen = load_instance(mini_station())
    spec = build_spec_ranges(spec, count=2000)
    tracer = tracing.Tracer(0)
    tracer.install()
    try:
        inst = model_module.build_stationary_fixed(spec, scen, ObjectiveWeights(), "o_cp", 1)
        backend = tracer.backend(solve_module.InProcessBackend())
        res = solve_module.solve(inst, solve_module.default_settings_for("Psf"), backend=backend)
    finally:
        tracer.uninstall()
    assert res.ok
    assert tracer.counts["model.builds.Psf"] == 1
    assert tracer.counts["highs.calls"] >= 1
    assert tracer.counts["solve.checks"] == 1
    m = inst.model
    assert tracer.model_sizes() == {
        "model.rows": m.n_rows,
        "model.cols": m.n_vars,
        "model.nnz": len(m.arrays().vals),
    }
    # uninstall put the originals back
    assert not hasattr(model_module.build_stationary_fixed, "__wrapped__")
    assert not hasattr(solve_module.milp, "__wrapped__")


def run_pass(tmp_path, pass_id: int, trace: str) -> dict:
    """One ``one_pass.py`` pass over ``mini_station`` with its lower bound."""
    instance = tmp_path / "mini.json"
    instance.write_text(json.dumps(mini_station()))
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({
        "workload": "contract", "seed": 0, "h": 4, "lb_time_limit": 60.0,
        "operations": [{"label": "mini", "path": str(instance), "steps": None, "lower_bound": True}],
    }))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "one_pass.py"), str(manifest), str(pass_id), trace],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    (op,) = result["operations"]
    assert op["failure"] is None, op
    assert op["stage"] == "answer" and op["gap"] is not None
    return result


def test_one_untraced_pass_runs_clean(tmp_path):
    run_pass(tmp_path, 0, "0")


def test_two_traced_passes_repeat_their_counters(tmp_path, tracing):
    first, second = (run_pass(tmp_path, i, "1")["counts"] for i in range(2))
    for name in ("model.builds.Psf", "model.builds.Pf", "model.builds.P", "highs.calls", "solve.checks"):
        assert first.get(name, 0) > 0, name
    counters = tracing.DETERMINISTIC
    assert {n: first.get(n, 0) for n in counters} == {n: second.get(n, 0) for n in counters}
