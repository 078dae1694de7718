"""A complete control run.

Loads the piped demo station, re-grids its scenario onto the 12-step
partition of the 12 h horizon, runs the three-stage procedure (greedy
initial sequence, phase-replacement improvement, rolling-horizon
smoothing), verifies the plan against the full model and reports the
optimality gap against a directly solved lower bound.

The command line offers the same flow:
  stationopt solve <instance> --steps 12 --lower-bound
"""

import tempfile
from pathlib import Path

from stationopt.algorithm import StationSolver
from stationopt.fixtures import mini_station_pipes
from stationopt.io import (
    load_instance,
    load_weights,
    regrid_instance,
    template_grid,
    write_plan,
)
from stationopt.ranges import build_spec_ranges

doc = mini_station_pipes()
spec, scen = load_instance(doc)
weights = load_weights(doc)
spec, scen = regrid_instance(spec, scen, template_grid("12"))
spec = build_spec_ranges(spec, count=10_000)

solver = StationSolver(spec, scen, weights)
plan = solver.solve_station(h=4)

print("== plan ==")
for t in range(scen.n_future + 1):
    tag = "initial" if t == 0 else f"t={t:<2d}"
    rg = plan.states[t].regulator_modes.get("RG1", "-")
    print(
        f"  {tag:8s} {scen.time_grid[t]/3600.0:5.2f} h   mode {plan.sequence.modes[t]:5s}"
        f"  direction {plan.sequence.directions[t] or '-':6s}  regulator {rg}"
    )

print("\n== accounting ==")
print(f"  objective {plan.objective:.2f}")
for category, value in sorted(plan.breakdown.items()):
    if abs(value) > 1e-9:
        print(f"    {category:<20s} {value:12.2f}")
print(f"  replay violation {plan.diagnostics['max_replay_violation']:.2e}")
print(f"  stationary solves {plan.diagnostics['solve_counts']}")
shares = plan.phase_shares
print("  phase shares " + ", ".join(f"{k} {v:.0%}" for k, v in shares.items()))

print("\n== lower bound from the full model ==")
bound, gap, res = solver.lower_bound(plan, 300.0)  # P solved from the plan's replay
print(f"  direct solve: {res.status}, bound {bound:.2f}")
print(f"  gap of the three-stage plan: {gap:.4f}")

with tempfile.TemporaryDirectory() as tmp:
    json_path, csv_path = write_plan(Path(tmp) / "demo", spec, scen, plan)
    print(f"\nplan document: {Path(json_path).name}, trajectories: {Path(csv_path).name}")
    print("  (written to a temp dir here; the CLI writes them next to the instance)")
