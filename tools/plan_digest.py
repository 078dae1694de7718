"""One digest line per plan of a fixed document set.

For the four fixtures, ``mini_station_pipes`` re-gridded to 96 steps and
``seeded_instance(0..39)`` (operating ranges from 2,000 samples, seed 0;
rolling horizon 4), it prints the label, the plan objective's ``repr`` and
a sha256 over the mode sequence, the states, the objective breakdown, the
replay violations, the solve counts, the memo hits and the bytes of the
replay assignment.  Two code versions plan alike when their outputs are
equal:

    PYTHONPATH=src python tools/plan_digest.py > after.txt

The package comes from ``PYTHONPATH``, so the same script digests any
checkout.  ``tools/plan_digest.txt`` holds the output of the verified
versions, and CI diffs each run against it.
"""

import functools
import hashlib

from stationopt.algorithm import StationSolver
from stationopt.fixtures import medium_station, mini_station, mini_station_pipes, seeded_instance, two_unit_station
from stationopt.io import load_instance, load_weights, regrid_instance, template_grid
from stationopt.ranges import build_spec_ranges

DOCUMENTS = [
    ("mini_station", mini_station, None),
    ("mini_station_pipes", mini_station_pipes, None),
    ("two_unit_station", two_unit_station, None),
    ("medium_station", medium_station, None),
    ("mini_station_pipes@96", mini_station_pipes, "96"),
] + [(f"seeded_instance({s})", functools.partial(seeded_instance, s), None) for s in range(40)]


def digest(make, steps) -> tuple:
    """(objective repr, sha256 hex) of the plan of one document."""
    doc = make()
    spec, scen = load_instance(doc)
    if steps is not None:
        spec, scen = regrid_instance(spec, scen, template_grid(steps))
    spec = build_spec_ranges(spec, count=2000)
    plan = StationSolver(spec, scen, load_weights(doc)).solve_station(h=4)
    d = plan.diagnostics
    h = hashlib.sha256()
    for part in (plan.sequence, plan.states, plan.breakdown, d["replay_violations"], d["solve_counts"], d["memo_hits"]):
        h.update(repr(part).encode())
    h.update(plan.replay[1].tobytes())
    return repr(plan.objective), h.hexdigest()


if __name__ == "__main__":
    for label, make, steps in DOCUMENTS:
        print(label, *digest(make, steps))
