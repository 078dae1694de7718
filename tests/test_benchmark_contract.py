"""The library names that ``perfbench/tracing.py`` patches and reads.

The benchmark times the layers by wrapping module attributes
(``solve.milp``, the four model builders, ``check_assignment`` ...) and
sizes every built model through ``model.rows`` and ``row.coeffs``.  A
change that removes one of them fails here, not only in a traced
benchmark run.
"""

import importlib.util
from pathlib import Path

import pytest

from stationopt import model as model_module
from stationopt import solve as solve_module
from stationopt.fixtures import mini_station
from stationopt.io import load_instance
from stationopt.model import ObjectiveWeights
from stationopt.ranges import build_spec_ranges

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
        inst = model_module.build_stationary_fixed(spec, scen, ObjectiveWeights(), "o_cp", 1, "o_cp")
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
