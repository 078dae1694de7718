"""Checks of the benchmark itself.

    python3 -m pytest -q perfbench

Two traced passes over the same inputs must give identical work counters
and plan objectives; these are the counts a later change may cite.
"""

from __future__ import annotations

import json
import sys

import pytest

import run
from tracing import DETERMINISTIC, layer_metrics
from workloads import FLEET_MIX, WORKLOADS, fleet_seeds, instance_class, write_documents

sys.path.insert(0, str(run.SRC))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)


@pytest.mark.parametrize("seed", [0, 7, 4321])
def test_fleet_draws_the_fixed_mix(seed):
    from collections import Counter

    from stationopt import fixtures

    seeds = fleet_seeds(seed)
    assert seeds == fleet_seeds(seed)
    assert Counter(instance_class(s, fixtures.seeded_instance(s)) for s in seeds) == Counter(FLEET_MIX)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_counters_repeat_across_passes(workload):
    manifest = write_documents(WORKLOADS[workload], 0, run.WORK / "test-docs" / workload)
    passes = [run.run_pass(manifest, i, True, 170.0) for i in range(2)]
    metrics = []
    for p in passes:
        m = layer_metrics(p["spans"], p["counts"], p["operations"])
        layers = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert layers + m["untraced_s"] == pytest.approx(m["pass_s"], rel=1e-12)
        assert all(s["pass"] == p["pass"] for s in p["spans"])
        metrics.append(m)
    for key in DETERMINISTIC:
        assert metrics[0][key] == metrics[1][key], key
    assert metrics[0]["highs.calls"] > 0 and metrics[0]["model.nnz"] > 0
    first, second = ([op["objective"] for op in p["operations"]] for p in passes)
    assert second == pytest.approx(first, rel=1e-9, abs=0.0)
