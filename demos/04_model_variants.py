"""The four model variants over one instance.

Builds the full transient model and its working variants for the bundled
two-node station, solves them, and shows the LP export used for external
diffing or out-of-process solvers.
"""

from importlib import resources

from stationopt.io import load_instance, load_weights
from stationopt.model import (
    build_fixed_transient,
    build_full,
    build_stationary,
    build_stationary_fixed,
)
from stationopt.ranges import build_spec_ranges
from stationopt.solve import default_settings_for, solve

with resources.as_file(resources.files("stationopt.data") / "mini_station.json") as path:
    spec, scen = load_instance(path)
    weights = load_weights(path)
spec = build_spec_ranges(spec, count=5000)

print("== variant sizes ==")
variants = {
    "P   (full transient)": build_full(spec, scen, weights),
    "Ps  (stationary, t=1)": build_stationary(spec, scen, weights, 1, "o_cp"),
    "Psf (fixed o_cp, t=1)": build_stationary_fixed(spec, scen, weights, "o_cp", 1),
    "Pf  (fixed window)": build_fixed_transient(
        spec, scen, weights, ["o_cp", "o_cp"], ["f_fwd", "f_fwd"], scen.initial_state
    ),
}
for label, inst in variants.items():
    m = inst.model
    print(f"  {label}: {m.n_vars:4d} vars ({sum(m.arrays().integer):3d} binary), {len(m.rows):4d} rows")

print("\n== solving each variant ==")
for label, inst in variants.items():
    settings = default_settings_for(inst.kind, 120.0 if inst.kind == "P" else None)
    res = solve(inst, settings)
    print(f"  {label}: {res.status}, objective {res.objective:10.2f}, {res.wall_time*1e3:6.1f} ms")

print("\n== LP export (first lines) ==")
text = variants["Psf (fixed o_cp, t=1)"].model.lp_text()
for line in text.splitlines()[:8]:
    print("  " + line)
print(f"  ... {len(text.splitlines())} lines total; byte-identical across runs")
