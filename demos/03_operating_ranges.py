"""From unit data to configuration operating ranges.

A compressor unit arrives as a 2-D polygon in (pressure ratio, volumetric
flow) plus a pressure-increase cap and a drive power limit.  This script
lifts the polygon into (inlet pressure, outlet pressure, mass flow), cuts
it with a fitted linear power bound, and composes units in parallel and
in series.
"""

import numpy as np

from stationopt.gas import GasConstants, compression_power
from stationopt.network import CompressorUnit
from stationopt.polytope import enumerate_vertices, sample_uniform
from stationopt.ranges import (
    configuration_polytope,
    lift_unit_range,
    linearize_power_bound,
    stage_polytope,
    unit_polytope,
)

constants = GasConstants(500.0, 283.15, 46.0, 190.0, 0.785)

unit = CompressorUnit(
    id="U1",
    operating_range_2d=(
        (1.0, 0.0, -1.0),  # ratio >= 1
        (-1.9, 0.05, 1.0),  # ratio <= 1.9 - 0.05 Q
        (2.0, -1.0, 0.0),  # Q >= 2 m^3/s
        (-9.0, 1.0, 0.0),  # Q <= 9 m^3/s
    ),
    max_delta_p=25e5,
    max_power=12e6,
    adiabatic_efficiency=0.85,
    inlet_z_factor=0.9,
)

print("== lifting the 2-D range into (pl, pr, q) ==")
lifted = lift_unit_range(unit, pl_lb=30e5, pr_ub=70e5, constants=constants)
lo, hi = lifted.bounding_box()
print(f"  inlet pressure  {lo[0]/1e5:6.1f} .. {hi[0]/1e5:6.1f} bar")
print(f"  outlet pressure {lo[1]/1e5:6.1f} .. {hi[1]/1e5:6.1f} bar")
print(f"  mass flow       {lo[2]:6.1f} .. {hi[2]:6.1f} kg/s")

print("\n== fitted power bound ==")
power_coeffs, power_offset = linearize_power_bound(lifted, unit, constants, count=20_000, seed=1)
pts = sample_uniform(enumerate_vertices(lifted), 2_000, seed=2)
pl, pr, q = pts.T
true_power = compression_power(q, pl, np.maximum(pr, pl), 0.9, 0.85, constants)
fitted = pts @ power_coeffs + power_offset + unit.max_power
err = np.sqrt(np.mean((true_power - fitted) ** 2))
print(f"  fit rms error {err/1e6:.3f} MW over a {true_power.max()/1e6:.1f} MW range")
print(f"  share of the lifted range cut off by the {unit.max_power/1e6:.0f} MW cap: "
      f"{np.mean(true_power > unit.max_power):.0%}")

print("\n== parallel and serial composition ==")
full = unit_polytope(unit, 30e5, 70e5, constants, count=20_000, seed=1)
twin_stage = stage_polytope([full, full])
lo2, hi2 = twin_stage.bounding_box()
print(f"  two units in parallel: flow range doubles to {lo2[2]:.1f} .. {hi2[2]:.1f} kg/s")

# raise the outlet ceiling so the cap does not mask multi-stage compression
roomy = unit_polytope(unit, 30e5, 140e5, constants, count=20_000, seed=1)
serial = configuration_polytope([roomy, roomy])
single_slice = roomy.fix_coordinate(0, 35e5)
serial_slice = serial.fix_coordinate(0, 35e5)
_, hi_single = single_slice.bounding_box()
_, hi_serial = serial_slice.bounding_box()
print(f"  from a 35 bar inlet, one stage reaches {hi_single[0]/1e5:5.1f} bar; "
      f"two in series reach {hi_serial[0]/1e5:5.1f} bar")
print(f"  final facet count of the serial configuration: {serial.n_rows}")
