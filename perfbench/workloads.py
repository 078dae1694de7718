"""The benchmark's workloads: which instance documents a pass solves, and why.

Each workload is a list of operations.  An operation is one instance
document, the grid it is solved on (a named template or the native grid)
and whether the full-model lower bound follows the plan.  All operations
use the CLI defaults: rolling horizon ``h = 4``, 50,000 range samples with
base seed 0, and a 600 s lower-bound time limit.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

H = 4
LB_TIME_LIMIT = 600.0

# The fleet's seeded instances, by class: (piped topology, unit outage,
# steady demand) -> how many.  seeded_instance alternates the topology with
# the seed's parity, takes the unit out with probability 0.4 and keeps the
# demand steady with probability 1/3 (otherwise a pressure reversal or a
# flow pulse).  The class sets much of an instance's plan and bound time (a
# piped instance with an outage takes about 2.4x a no-pipe one without, and
# a steady piped one about 0.6x a varying one), so a fixed mix near those
# odds keeps the fleet's total work from swinging with the seed; flows,
# lifts and mismatches still come from it.
FLEET_MIX = {
    (piped, outage, steady): count
    for piped in (False, True)
    for (outage, steady), count in {(False, False): 2, (False, True): 1, (True, False): 1, (True, True): 1}.items()
}
# seeds scanned per unit of --seed, so neighbouring seeds draw disjoint fleets
FLEET_SEED_STRIDE = 100


def instance_class(seed: int, doc: dict) -> tuple:
    """(piped topology, unit outage, steady demand) of ``seeded_instance(seed)``."""
    scenario = doc["scenario"]
    steady = all(len(set(series)) == 1 for key in ("flowDemand", "pressureDemand") for series in scenario[key].values())
    return seed % 2 == 1, bool(doc["unavailability"]), steady


def fleet_seeds(seed: int) -> list:
    """The seeded_instance seeds of the fleet for benchmark seed ``seed``:
    the first seeds from ``seed * FLEET_SEED_STRIDE`` upward that fill
    each class of FLEET_MIX, in seed order."""
    from stationopt import fixtures

    wanted = dict(FLEET_MIX)
    chosen = []
    s = seed * FLEET_SEED_STRIDE
    while any(wanted.values()):
        cls = instance_class(s, fixtures.seeded_instance(s))
        if wanted[cls]:
            wanted[cls] -= 1
            chosen.append(s)
        s += 1
    return chosen


@dataclass(frozen=True)
class Workload:
    name: str
    why: str

    def operations(self, seed: int) -> list:
        """(label, instance document, steps or None, lower bound?) per operation."""
        from stationopt import fixtures

        if self.name == "rolling96":
            return [("mini_station_pipes@96", fixtures.mini_station_pipes(), "96", False)]
        if self.name == "full24":
            return [("medium_station@24", fixtures.medium_station(), "24", True)]
        if self.name == "fleet":
            ops = [(f"seeded_instance({s})", fixtures.seeded_instance(s), None, True) for s in fleet_seeds(seed)]
            ops.append(("mini_station", fixtures.mini_station(), None, True))
            ops.append(("mini_station_pipes", fixtures.mini_station_pipes(), None, True))
            return ops
        raise KeyError(self.name)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "rolling96",
            "mini_station_pipes regridded to 96 steps, plan only: 96 Psf and 93 Pf small MIPs per pass, "
            "so per-solve overhead (model build, hand-off, checker) and the smoothing stage dominate; "
            "templates and warm starts must show here."
        ),
        Workload(
            "fleet",
            "10 seeded_instance draws from the seed (fixed mix of topology, outage and demand shape) plus mini_station and "
            "mini_station_pipes on native grids, each with "
            "plan and lower bound: many tiny models, range construction about half the pass, the only "
            "stationary Ps solves and improvement moves, and the known lower-bound defect on mini_station_pipes."
        ),
        Workload(
            "full24",
            "medium_station regridded to 24 steps with plan and lower bound: one full model of 1,968 columns, "
            "4,056 rows and 600 integers where HiGHS takes about 85% of the pass; the only workload with "
            "serial two-stage configurations, two flow directions and two regulators."
        ),
    )
}


def write_documents(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's instance documents and a manifest; returns the manifest path."""
    directory.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (label, doc, steps, lower_bound) in enumerate(workload.operations(seed)):
        path = directory / f"{i:02d}.json"
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        entries.append({"label": label, "path": str(path), "steps": steps, "lower_bound": lower_bound})
    manifest = directory / "manifest.json"
    manifest.write_text(json.dumps({
        "workload": workload.name, "seed": seed, "h": H, "lb_time_limit": LB_TIME_LIMIT, "operations": entries,
    }, indent=1))
    return manifest
