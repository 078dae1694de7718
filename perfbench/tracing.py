"""Spans and work counters recorded from outside the library.

The tracer installs wrappers on the module attributes through which one
layer calls the next (``stationopt.algorithm.solve``,
``stationopt.solve.milp``, ``scipy.optimize._milp._highs_wrapper`` ...)
and hands the solver a delegating backend.  Nothing under ``src/`` is
edited.  Spans are kept in memory and returned with the pass result.

A span is ``[name, start, end, parent]`` with times in seconds since the
pass origin and ``parent`` the index of the enclosing span (None for the
root).  The layer of a span is the part of its name before the first dot.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from collections import Counter

LAYERS = ("io", "network", "ranges", "polytope", "model", "solve", "highs", "algorithm")
VARIANTS = ("Psf", "Ps", "Pf", "P")
STATUSES = ("optimal", "feasible", "infeasible", "timeLimit", "error")

# counters that must repeat exactly between two passes over the same inputs
DETERMINISTIC = (
    ("model.rows", "model.cols", "model.nnz")
    + tuple(f"model.builds.{v}" for v in VARIANTS)
    + tuple(f"algorithm.solves.{v}" for v in VARIANTS[:3])
    + ("highs.calls", "highs.nodes", "highs.simplex_iters")
    + ("ranges.builds", "polytope.linprog_calls", "solve.checks", "solve.fallback_used", "algorithm.psf_lookups")
    + tuple(f"solve.status.{s}" for s in STATUSES)
)

_BUILDERS = {
    "build_full": "P",
    "build_stationary": "Ps",
    "build_stationary_fixed": "Psf",
    "build_fixed_transient": "Pf",
}
_POLYTOPE_CALLS = (
    "enumerate_vertices",
    "least_squares_hyperplane",
    "project_out",
    "remove_redundant",
    "sample_uniform",
)
_STAGES = {
    "solve_station": "algorithm.solve_station",
    "initial_solution": "algorithm.initial",
    "improvement_heuristic": "algorithm.improvement",
    "transient_smoothing": "algorithm.smoothing",
}


class Tracer:
    def __init__(self, pass_id: int):
        self.pass_id = pass_id
        self.origin = time.perf_counter()
        self.spans: list = []
        self.counts: Counter = Counter()
        self.models: list = []  # every built LinearModel, sized after the pass
        self._stack: list = []
        self._patched: list = []
        self._raw_status = None

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter() - self.origin, None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def exit(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter() - self.origin
        self._stack.pop()

    def wrap(self, fn, name: str, after=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(index)
            if after is not None:
                after(result)
            return result

        return traced

    def counted(self, fn, counter: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[counter] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        mod = {n: importlib.import_module(f"stationopt.{n}") for n in LAYERS if n != "highs"}
        milp_mod = importlib.import_module("scipy.optimize._milp")

        self._patch(mod["io"], "load_instance", self.wrap(mod["io"].load_instance, "io.load"))
        self._patch(mod["io"], "load_weights", self.wrap(mod["io"].load_weights, "io.load"))
        self._patch(mod["io"], "regrid_instance", self.wrap(mod["io"].regrid_instance, "io.regrid"))
        self._patch(mod["network"], "validate", self.wrap(mod["network"].validate, "network.validate"))

        ranges = mod["ranges"]
        self._patch(ranges, "build_spec_ranges", self.wrap(ranges.build_spec_ranges, "ranges.build"))
        self._patch(ranges, "build_station_ranges", self.counted(ranges.build_station_ranges, "ranges.builds"))
        for name in _POLYTOPE_CALLS:
            self._patch(ranges, name, self.wrap(getattr(ranges, name), f"polytope.{name}"))
        linprog = self.counted(mod["polytope"].linprog, "polytope.linprog_calls")
        self._patch(mod["polytope"], "linprog", self.wrap(linprog, "polytope.linprog"))

        for owner in (mod["model"], mod["algorithm"]):
            for fn_name, variant in _BUILDERS.items():
                self._patch(owner, fn_name, self._builder(getattr(owner, fn_name), variant))

        for owner in (mod["solve"], mod["algorithm"]):
            self._patch(owner, "solve", self.wrap(owner.solve, "solve.solve", self._on_result))
            check = self.counted(owner.check_assignment, "solve.checks")
            self._patch(owner, "check_assignment", self.wrap(check, "solve.check"))
        self._patch(mod["solve"], "milp", self.wrap(mod["solve"].milp, "solve.milp"))
        self._patch(milp_mod, "_highs_wrapper", self.wrap(milp_mod._highs_wrapper, "highs.run", self._on_highs))

        algorithm = mod["algorithm"]
        solver = algorithm.StationSolver
        for method, name in _STAGES.items():
            self._patch(solver, method, self.wrap(getattr(solver, method), name))
        self._patch(solver, "psf_value", self.counted(solver.psf_value, "algorithm.psf_lookups"))
        self._patch(
            algorithm,
            "complete_plan_assignment",
            self.wrap(algorithm.complete_plan_assignment, "algorithm.complete_plan"),
        )

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def backend(self, inner):
        """A backend that delegates to ``inner`` inside a ``solve.solve_raw`` span."""
        tracer = self

        class TracingBackend:
            def solve_raw(self, model, settings):
                index = tracer.enter("solve.solve_raw")
                try:
                    out = inner.solve_raw(model, settings)
                finally:
                    tracer.exit(index)
                tracer._raw_status = out[0]
                return out

        return TracingBackend()

    # -- callbacks -----------------------------------------------------------

    def _builder(self, fn, variant: str):
        counted = self.counted(fn, f"model.builds.{variant}")
        return self.wrap(counted, f"model.build.{variant}", lambda inst: self.models.append(inst.model))

    def _on_result(self, result) -> None:
        self.counts[f"solve.status.{result.status}"] += 1
        # solve() reports "feasible" only when it fell back to the caller's
        # initial assignment; the backend itself never says "feasible"
        if result.status == "feasible" and self._raw_status != "feasible":
            self.counts["solve.fallback_used"] += 1

    def _on_highs(self, res: dict) -> None:
        self.counts["highs.calls"] += 1
        self.counts["highs.nodes"] += int(res.get("mip_node_count") or 0)
        self.counts["highs.simplex_iters"] += int(res.get("simplex_nit") or 0)

    # -- output ----------------------------------------------------------------

    def span_records(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "pass": self.pass_id}
            for n, s, e, p in self.spans
        ]

    def model_sizes(self) -> dict:
        out = Counter()
        for model in self.models:
            out["model.rows"] += len(model.rows)
            out["model.cols"] += model.n_vars
            out["model.nnz"] += sum(len(row.coeffs) for row in model.rows)
        return dict(out)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list, counts: dict, ops: list) -> dict:
    """Per-layer metrics of one traced pass.

    ``spans`` must hold one root span (parent None) covering the pass;
    its self time is the ``untraced_s`` residual, so the layer self times
    and the residual add up to ``pass_s``.
    """
    own = self_times(spans)
    total: Counter = Counter()
    self_by_name: Counter = Counter()
    layer_self: Counter = Counter()
    root = [i for i, s in enumerate(spans) if s["parent"] is None]
    if len(root) != 1:
        raise ValueError(f"expected one root span, got {len(root)}")
    for i, s in enumerate(spans):
        if i == root[0]:
            continue
        total[s["name"]] += s["end"] - s["start"]
        self_by_name[s["name"]] += own[i]
        layer_self[s["name"].split(".", 1)[0]] += own[i]

    m: dict = {
        "io.load_s": total["io.load"],
        "io.regrid_s": total["io.regrid"],
        "network.validate_s": total["network.validate"],
        "ranges.build_s": total["ranges.build"],
        "ranges.builds": counts.get("ranges.builds", 0),
        "polytope.linprog_calls": counts.get("polytope.linprog_calls", 0),
    }
    for v in VARIANTS:
        m[f"model.build_s.{v}"] = total[f"model.build.{v}"]
        m[f"model.builds.{v}"] = counts.get(f"model.builds.{v}", 0)
    for key in ("model.rows", "model.cols", "model.nnz"):
        m[key] = counts.get(key, 0)
    m["solve.handoff_s"] = self_by_name["solve.solve_raw"]
    m["solve.milp_wrapper_s"] = self_by_name["solve.milp"]
    m["solve.check_s"] = total["solve.check"]
    m["solve.checks"] = counts.get("solve.checks", 0)
    for status in STATUSES:
        m[f"solve.status.{status}"] = counts.get(f"solve.status.{status}", 0)
    m["solve.fallback_used"] = counts.get("solve.fallback_used", 0)
    m["highs.s"] = total["highs.run"]
    for key in ("highs.calls", "highs.nodes", "highs.simplex_iters"):
        m[key] = counts.get(key, 0)

    stages = total["algorithm.initial"] + total["algorithm.improvement"] + total["algorithm.smoothing"]
    m["algorithm.initial_s"] = total["algorithm.initial"]
    m["algorithm.improvement_s"] = total["algorithm.improvement"]
    m["algorithm.smoothing_s"] = total["algorithm.smoothing"]
    m["algorithm.replay_s"] = total["algorithm.solve_station"] - stages
    for v in VARIANTS[:3]:
        m[f"algorithm.solves.{v}"] = sum(op["solve_counts"].get(v, 0) for op in ops)
    lookups = counts.get("algorithm.psf_lookups", 0)
    m["algorithm.psf_lookups"] = lookups
    m["algorithm.psf_cache_hit_ratio"] = (
        1.0 - counts.get("model.builds.Psf", 0) / lookups if lookups else 0.0
    )
    windows = [w for op in ops for w in op["window_wall_times"]]
    m["algorithm.window_s_p50"] = percentile(windows, 50) if windows else 0.0
    m["algorithm.window_s_p90"] = percentile(windows, 90) if windows else 0.0
    m["algorithm.retried_windows"] = sum(op["retried_windows"] for op in ops)

    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["untraced_s"] = own[root[0]]
    m["pass_s"] = spans[root[0]]["end"] - spans[root[0]]["start"]
    return m


def percentile(values: list, pct: int) -> float:
    """Linear-interpolation percentile (numpy's default rule)."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
