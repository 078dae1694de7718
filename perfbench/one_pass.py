"""One benchmark pass, run in a fresh interpreter by ``run.py``.

Drives the library functions that ``stationopt solve --lower-bound``
calls, in the same order, for every operation in a manifest written by
``workloads.write_documents``:

    io.load_instance -> network.validate -> io.load_weights -> io.regrid_instance
    -> ranges.build_spec_ranges -> StationSolver.solve_station
    -> model.build_full + algorithm.complete_plan_assignment + solve.solve (P)

HiGHS writes native messages to file descriptor 1, so the pass points fd 1
at /dev/null and writes its one JSON result to a saved duplicate of the
original stdout.

An untraced pass times a fixed reference loop at every stage boundary,
outside the stages (see ``calibrate`` and ``Stopwatch``); each operation
records in ``cal_s`` the mean loop time around each of its stages, so
``run.py`` can scale its times to a reference machine.

Usage: python3 one_pass.py MANIFEST PASS_ID TRACE
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
import warnings
from statistics import median

import numpy

from stationopt import algorithm, io, model, network, ranges, solve
from tracing import Tracer


def calibration_round() -> float:
    """Seconds for a fixed mix of interpreted and numpy work, like the
    library's mix of Python model building and compiled solves."""
    started = time.perf_counter()
    x = 0
    for i in range(70_000):
        x += i * i % 7
    a = numpy.arange(20_000.0)
    for _ in range(70):
        a = numpy.sqrt(a * a + 1.0)
    return time.perf_counter() - started


def calibrate() -> float:
    """Median of three calibration rounds.

    A shared host runs for seconds to minutes at a time up to 40% slower;
    the reference loop slows by about the same factor, so scaling each
    operation by the loop times around it keeps passes and runs
    comparable.  Library code never runs while the loop does."""
    return median(calibration_round() for _ in range(3))


class Stopwatch:
    """Times the stages of the operations of a pass.  When calibrating, it
    also times the reference loop at every stage boundary, outside the
    stages, and gives each stage the mean of the loop times around it."""

    def __init__(self, calibrating: bool):
        self.calibrating = calibrating
        self.cal = calibrate() if calibrating else None
        self.started = time.perf_counter()

    def restart(self) -> None:
        self.started = time.perf_counter()

    def lap(self) -> tuple:
        """(seconds since the last lap or restart, mean loop time around them
        or None); the clock restarts after the loop."""
        elapsed = time.perf_counter() - self.started
        cal = None
        if self.calibrating:
            after = calibrate()
            cal = (self.cal + after) / 2
            self.cal = after
        self.started = time.perf_counter()
        return elapsed, cal


def run_operation(entry: dict, h: int, lb_time_limit: float, backend, watch: Stopwatch) -> dict:
    op = {"label": entry["label"], "setup_s": 0.0, "plan_s": 0.0, "lb_s": 0.0, "failure": None,
          "objective": None, "bound": None, "gap": None, "solve_counts": {},
          "window_wall_times": [], "retried_windows": 0, "stage": None, "cal_s": {}}
    watch.restart()
    try:
        spec, scen = io.load_instance(entry["path"])
        issues = network.validate(spec, scen)
        if issues:
            raise ValueError(f"{len(issues)} validation issue(s), first: {issues[0]}")
        weights = io.load_weights(entry["path"])
        if entry["steps"] is not None:
            spec, scen = io.regrid_instance(spec, scen, io.template_grid(entry["steps"]))
        spec = ranges.build_spec_ranges(spec, count=ranges.DEFAULT_SAMPLE_COUNT, base_seed=0)
        op["setup_s"], op["cal_s"]["setup_s"] = watch.lap()
        op["stage"] = "setup"

        plan = algorithm.StationSolver(spec, scen, weights, backend=backend).solve_station(h=h)
        op["plan_s"], op["cal_s"]["plan_s"] = watch.lap()
        op["stage"] = "plan"
        op["objective"] = plan.objective
        op["solve_counts"] = plan.diagnostics["solve_counts"]
        op["window_wall_times"] = plan.diagnostics["window_wall_times"]
        op["retried_windows"] = len(plan.diagnostics["retried_windows"])
        if plan.diagnostics["replay_violations"]:
            op["failure"] = f"plan replay violates {plan.diagnostics['replay_violations'][0]}"
            return op

        if entry["lower_bound"]:
            inst = model.build_full(spec, scen, weights)
            _, warm = algorithm.complete_plan_assignment(spec, scen, weights, plan)
            res = solve.solve(inst, solve.default_settings_for("P", lb_time_limit), initial=warm, backend=backend)
            op["lb_s"], op["cal_s"]["lb_s"] = watch.lap()
            if res.status == "error":
                op["failure"] = f"lower-bound solve failed: {res.message}"
                return op
            # the CLI's rule: zero bounds a nonnegative objective when HiGHS gives none
            bound = max(0.0, res.bound) if res.bound > -float("inf") else 0.0
            op["bound"] = bound
            op["stage"] = "answer"
            if bound - plan.objective > solve.CHECK_TOL * max(1.0, abs(plan.objective)):
                op["failure"] = f"bound {bound!r} exceeds the checked plan objective {plan.objective!r}"
                return op
            op["gap"] = algorithm.compute_gap(plan.objective, bound)
        else:
            op["stage"] = "answer"
    except Exception as exc:  # an operation that raises is a failed operation
        op["failure"] = f"raised {type(exc).__name__}: {exc}"
        op["traceback"] = traceback.format_exc(limit=4)
        watch.lap()  # close the stage that raised, so the next one calibrates afresh
    return op


def main(argv) -> int:
    manifest_path, pass_id, trace = argv[1], int(argv[2]), argv[3] == "1"
    result_fd = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, 1)
    os.close(devnull)

    warnings.simplefilter("ignore", solve.BackendCapabilityWarning)
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    h = manifest["h"]
    lb_time_limit = manifest["lb_time_limit"]

    tracer = None
    backend = None
    if trace:
        tracer = Tracer(pass_id)
        tracer.install()
        backend = tracer.backend(solve.InProcessBackend())
        root = tracer.enter("pass")
    # traced passes give per-layer times and are not scaled
    watch = Stopwatch(calibrating=not trace)
    ops = [run_operation(entry, h, lb_time_limit, backend, watch) for entry in manifest["operations"]]
    result = {"pass": pass_id, "trace": trace, "operations": ops}
    if tracer is not None:
        tracer.exit(root)
        tracer.uninstall()
        counts = dict(tracer.counts)
        counts.update(tracer.model_sizes())
        result["counts"] = counts
        result["spans"] = tracer.span_records()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with os.fdopen(result_fd, "w", encoding="utf-8") as out:
        json.dump(result, out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
