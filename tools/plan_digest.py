"""Digest lines for the plans and lower bounds of a fixed document set.

For the four fixtures, ``mini_station_pipes`` re-gridded to 96 steps and
``seeded_instance(0..39)`` (operating ranges from 2,000 samples, seed 0;
rolling horizon 4), it prints the label, the plan objective's ``repr`` and
a sha256 over the mode sequence, the states, the objective breakdown, the
replay violations, the solve counts, the memo hits, the bytes of the
replay assignment and the LP text of the replayed full model.  For every
document but ``mini_station_pipes@96`` a second line digests the plan's
lower bound, ``StationSolver.lower_bound`` with a 600 s limit, as
``stationopt solve --lower-bound`` calls it; it reads the label,
``bound``, the status of the full model's solve, that solve's bound
``repr`` and a sha256 over the bytes of its assignment (``-`` without
one).  A last line, ``facets 50000 <sha256>``, digests the operating
ranges as ``stationopt`` builds them: it hashes the ``float.hex`` of
every facet of every document's stations, built at
``DEFAULT_SAMPLE_COUNT`` samples and seed 0, so a fit that moves by one
bit changes it.  Two code versions plan and bound alike when their
outputs are equal:

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
from stationopt.ranges import DEFAULT_SAMPLE_COUNT, build_spec_ranges

DOCUMENTS = [
    ("mini_station", mini_station, None),
    ("mini_station_pipes", mini_station_pipes, None),
    ("two_unit_station", two_unit_station, None),
    ("medium_station", medium_station, None),
    ("mini_station_pipes@96", mini_station_pipes, "96"),
] + [(f"seeded_instance({s})", functools.partial(seeded_instance, s), None) for s in range(40)]
# on a 2-core VM its P solve takes about 16 s, the other 44 together about 0.5 s
UNBOUNDED = {"mini_station_pipes@96"}


def instance_of(make, steps):
    """(document, spec, scenario) of one document, re-gridded when asked."""
    doc = make()
    spec, scen = load_instance(doc)
    if steps is not None:
        spec, scen = regrid_instance(spec, scen, template_grid(steps))
    return doc, spec, scen


def plan_of(make, steps):
    """(solver, plan) of one document."""
    doc, spec, scen = instance_of(make, steps)
    spec = build_spec_ranges(spec, count=2000)
    solver = StationSolver(spec, scen, load_weights(doc))
    return solver, solver.solve_station(h=4)


def digest(plan) -> tuple:
    """(objective repr, sha256 hex) of a plan."""
    d = plan.diagnostics
    h = hashlib.sha256()
    for part in (plan.sequence, plan.states, plan.breakdown, d["replay_violations"], d["solve_counts"], d["memo_hits"]):
        h.update(repr(part).encode())
    h.update(plan.replay[1].tobytes())
    h.update(plan.replay[0].model.lp_text().encode())
    return repr(plan.objective), h.hexdigest()


def bound_digest(solver, plan) -> tuple:
    """(status, bound repr, sha256 hex or "-") of a plan's lower-bound solve."""
    _, _, res = solver.lower_bound(plan, 600.0)
    sha = "-" if res.assignment is None else hashlib.sha256(res.assignment.tobytes()).hexdigest()
    return res.status, repr(res.bound), sha


def facet_digest() -> str:
    """sha256 over the ``float.hex`` of every document's facets at ``DEFAULT_SAMPLE_COUNT``."""
    h = hashlib.sha256()
    for label, make, steps in DOCUMENTS:
        _, spec, _ = instance_of(make, steps)
        spec = build_spec_ranges(spec, count=DEFAULT_SAMPLE_COUNT)
        for sid, station in sorted(spec.stations.items()):
            for c in station.configurations:
                h.update(repr((label, sid, c.id, [[x.hex() for x in f] for f in c.facets])).encode())
    return h.hexdigest()


if __name__ == "__main__":
    for label, make, steps in DOCUMENTS:
        solver, plan = plan_of(make, steps)
        print(label, *digest(plan))
        if label not in UNBOUNDED:
            print(label, "bound", *bound_digest(solver, plan))
    print("facets", DEFAULT_SAMPLE_COUNT, facet_digest())
