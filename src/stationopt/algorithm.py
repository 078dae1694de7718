"""The specialized three-stage solution procedure.

Stage one builds an initial mode sequence greedily (keep the previous
mode while it is cheap, otherwise pick the best stationary mode).  Stage
two sweeps the sequence backward and forward, replacing whole stable
phases by convex-combination neighbor modes when that strictly improves
the summed stationary objective.  Stage three solves the transient model
with everything fixed in a rolling-horizon fashion and stitches the
windows into one feasible control plan.

Transition-time bookkeeping lives here too: a mode switch occupies a
time interval centered on the switch instant and two such intervals must
never overlap.  The finished plan is priced by its replay into the full
model (:func:`~stationopt.model.complete_plan_assignment`, re-exported
here) and the row checker, and bounded by the full model solved from
that replay (:meth:`StationSolver.lower_bound`).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from .linmodel import BuildInfeasibleError
from .model import (  # noqa: F401  build_full and the replay are re-exported
    ObjectiveWeights,
    build_fixed_transient,
    build_full,
    build_stationary,
    build_stationary_fixed,
    complete_plan_assignment,
    instantiate_fixed_transient,
    step_bounds,
    step_inputs,
    switch_cost,
    window_pattern,
)
from .network import Scenario, StateSnapshot, StationSpec, mode_available
from .solve import CHECK_TOL, BackendError, check_assignment, default_settings_for, solve


class InitialSolutionAbort(RuntimeError):
    """The greedy construction found no usable mode for some time step.

    Not a proof of infeasibility; a feasible sequence may still exist.
    """


class SmoothingError(RuntimeError):
    def __init__(self, window_start: int, message: str):
        super().__init__(f"smoothing window starting at time step {window_start}: {message}")
        self.window_start = window_start


@dataclass(frozen=True)
class ModeSequence:
    """Operation mode and flow direction per time step; position 0 is the
    initial state (its direction is undefined)."""

    modes: tuple
    directions: tuple

    def __post_init__(self) -> None:
        if len(self.modes) != len(self.directions):
            raise ValueError("modes and directions must have equal length")


def switch_ready(spec: StationSpec, time_grid, ready: float, t: int, prev: str, new: str) -> float | None:
    """The earliest instant at which a switch after step t may start, or
    None when the step from ``prev`` to ``new`` at t does not fit.

    A switch occupies the interval of its transition time centred on
    ``time_grid[t]``; that interval must not start before ``ready``, the
    end of the previous switch interval (the grid origin for the first).
    Staying in a mode keeps ``ready``.
    """
    if new == prev:
        return ready
    half = spec.transition_time(prev, new) / 2.0
    if time_grid[t] - ready < half - 1e-9:
        return None
    return time_grid[t] + half


def transitions_work(spec: StationSpec, modes, time_grid) -> bool:
    """Whether the mode switches of a sequence fit their transition times
    (:func:`switch_ready` at every step).  The last switch interval may
    reach past the horizon."""
    ready = time_grid[0]
    for t in range(1, len(modes)):
        ready = switch_ready(spec, time_grid, ready, t, modes[t - 1], modes[t])
        if ready is None:
            return False
    return True


def not_soon_infeasible(
    spec: StationSpec, time_grid, t: int, new_mode: str, old_mode: str
) -> bool:
    """Guard against stepping into a mode that later traps the station.

    If the candidate mode becomes unavailable at some future step, there
    must be an escape: another mode, available at some step up to that
    one, whose switch fits after the one into the candidate at t.
    """
    k = len(time_grid) - 1
    blocked = [tp for tp in range(t + 1, k + 1) if not mode_available(spec, time_grid, new_mode, tp)]
    if not blocked:
        return True
    ready = time_grid[t] + spec.transition_time(old_mode, new_mode) / 2.0
    return any(
        m != new_mode
        and mode_available(spec, time_grid, m, t_out)
        and switch_ready(spec, time_grid, ready, t_out, new_mode, m) is not None
        for t_out in range(t + 1, blocked[0] + 1)
        for m in spec.operation_modes
    )


def convex_combination_cs(station, x: str, y: str) -> set:
    """Mode tokens "between" two station tokens: the originals plus every
    configuration whose unit set contains the intersection and stays
    inside the union of the two unit sets."""
    out = {x, y}
    ux, uy = station.token_units(x), station.token_units(y)
    for config in station.configurations:
        uc = config.units
        if (ux & uy) <= uc <= (ux | uy):
            out.add(config.id)
    return out


def convex_combination(spec: StationSpec, o1: str, o2: str) -> list:
    """Operation modes combining two given ones.

    Valve assignments must equal one of the originals exactly (a blended
    valve pattern opens unrelated paths); station tokens may come from the
    per-station convex combination.  Always contains the originals.
    """
    m1 = spec.operation_modes[o1]
    m2 = spec.operation_modes[o2]
    out = []
    for o, mode in spec.operation_modes.items():
        valves_like_1 = all(mode.assignment[a] == m1.assignment[a] for a in spec.valves)
        valves_like_2 = all(mode.assignment[a] == m2.assignment[a] for a in spec.valves)
        if not (valves_like_1 or valves_like_2):
            continue
        if all(
            mode.assignment[a]
            in convex_combination_cs(spec.stations[a], m1.assignment[a], m2.assignment[a])
            for a in spec.stations
        ):
            out.append(o)
    return sorted(out)


def compute_gap(plan_objective: float, lower_bound: float) -> float:
    """Relative distance (obj - lb) / obj, clamped to zero when both the
    objective and the bound are below 0.1.

    A bound above the objective by more than ``CHECK_TOL`` (relative) is
    not a bound, and raises ``ValueError``; one above it by less is
    roundoff, and gives a zero gap.
    """
    if plan_objective < 0.0:
        raise ValueError("plan objective must be nonnegative")
    if plan_objective < 0.1 and lower_bound < 0.1:
        return 0.0
    if plan_objective == 0.0:
        raise ValueError("zero objective with a positive lower bound")
    if lower_bound - plan_objective > CHECK_TOL * max(1.0, plan_objective):
        raise ValueError(f"lower bound {lower_bound!r} lies above the objective {plan_objective!r}")
    return max(0.0, (plan_objective - lower_bound) / plan_objective)


@dataclass
class ControlPlan:
    sequence: ModeSequence
    states: list  # per position 0..k; states[0] is the scenario's initial state
    objective: float
    breakdown: dict
    phase_seconds: dict
    diagnostics: dict = field(default_factory=dict)
    # (full model P, the plan's assignment of it) from the replay in
    # solve_station; the lower-bound solve reuses both
    replay: tuple | None = None

    @property
    def phase_shares(self) -> dict:
        total = sum(self.phase_seconds.values())
        if total <= 0.0:
            return {k: 0.0 for k in self.phase_seconds}
        return {k: v / total for k, v in self.phase_seconds.items()}


class StationSolver:
    """Shared state for one run: the solver backend and the memoized
    stationary evaluations that all three stages share.

    A sequence costs the stationary value of each step plus the switch
    cost of each mode change (:func:`~stationopt.model.switch_cost`).
    One memo, ``_values``, sits in front of the backend.  It maps what a
    stationary build reads to the decoded value, None where the model is
    infeasible: ``("Psf", mode, inputs)`` and ``("Ps", previous mode,
    candidates available at t, inputs)``, where ``inputs`` is the step's
    :func:`~stationopt.model.step_inputs`.  A step whose numbers repeat an
    earlier one is answered without a build.  A stationary solve that ends
    neither optimal nor infeasible (a time limit, a backend error) raises
    :class:`~stationopt.solve.BackendError`.  ``counters`` counts backend
    solves and ``memo_hits`` the stationary lookups the memo answered.

    Smoothing windows always solve, but windows that share a pattern are
    built once.  ``_templates`` maps a window's
    :func:`~stationopt.model.window_pattern` (what its build reads but for
    the start state's pressures and flows, the demands and the absolute
    steps) to the first build of that pattern; a later window of the
    pattern is that build patched
    (:func:`~stationopt.model.instantiate_fixed_transient`).  Both keys
    slice ``_bounds``, the run's :func:`~stationopt.model.step_bounds`.
    A window whose solve reaches its time limit with a checker-clean point
    takes that point, and the plan lists it in
    ``diagnostics["time_limited_windows"]``.
    """

    def __init__(
        self,
        spec: StationSpec,
        scen: Scenario,
        weights: ObjectiveWeights | None = None,
        backend=None,
    ):
        self.spec = spec
        self.scen = scen
        self.weights = weights or ObjectiveWeights()
        self.backend = backend
        self._bounds = step_bounds(spec, scen)
        self._inputs = [None] + [step_inputs(spec, scen, self._bounds, t) for t in range(1, scen.n_future + 1)]
        self._values: dict = {}
        self._templates: dict = {}
        self.counters = {"Psf": 0, "Ps": 0, "Pf": 0}
        self.memo_hits = {"Psf": 0, "Ps": 0}

    def _solve(self, inst, variant: str):
        """One solve of a model variant under its published settings."""
        res = solve(inst, default_settings_for(variant), backend=self.backend)
        self.counters[variant] += 1
        return res

    def _stationary(self, key: tuple, t: int, build, decode):
        """``decode(inst, result)`` of the stationary model ``build()``
        makes at step t, or None where that model is infeasible; built at
        most once per ``key`` (variant first)."""
        if key in self._values:
            self.memo_hits[key[0]] += 1
            return self._values[key]
        try:
            inst = build()
        except BuildInfeasibleError:
            # contradictory constant rows (e.g. a mode without a valid
            # flow direction) are plain infeasibility to the algorithm
            value = None
        else:
            res = self._solve(inst, key[0])
            if res.ok and res.status == "optimal":
                value = decode(inst, res)
            elif res.status == "infeasible":
                value = None
            else:
                raise BackendError(f"{key[0]} solve at time step {t} ended {res.status}: {res.message}")
        self._values[key] = value
        return value

    # -- stationary evaluations ------------------------------------------

    def psf_value(self, mode: str, t: int, prev_mode: str):
        """(cost, direction) of step t in ``mode`` after ``prev_mode``: the
        fixed stationary value plus the switch cost; None where infeasible."""
        value = self._stationary(
            ("Psf", mode, self._inputs[t]),
            t,
            lambda: build_stationary_fixed(self.spec, self.scen, self.weights, mode, t),
            lambda inst, res: (res.objective, inst.direction_at(res.assignment, t)),
        )
        if value is None:
            return None
        return value[0] + switch_cost(self.spec, self.weights, prev_mode, mode), value[1]

    def ps_best(self, t: int, valid_modes, prev_mode: str):
        """(objective, mode, direction) of the best mode of a candidate set
        at step t; None where none is feasible."""
        grid = self.scen.time_grid
        available = tuple(o for o in valid_modes if mode_available(self.spec, grid, o, t))
        return self._stationary(
            ("Ps", prev_mode, available, self._inputs[t]),
            t,
            lambda: build_stationary(self.spec, self.scen, self.weights, t, prev_mode, valid_modes),
            lambda inst, res: (
                res.objective, inst.mode_at(res.assignment, t), inst.direction_at(res.assignment, t)
            ),
        )

    def sequence_objective(self, modes) -> float:
        """Sum of the per-step fixed stationary optima; +inf when any step
        is infeasible or uses an unavailable mode (whose selection variable
        would be fixed to zero, contradicting the mode choice)."""
        steps = range(1, len(modes))
        if not all(mode_available(self.spec, self.scen.time_grid, modes[t], t) for t in steps):
            return math.inf
        total = 0.0
        for t in steps:
            value = self.psf_value(modes[t], t, modes[t - 1])
            if value is None:
                return math.inf
            total += value[0]
        return total

    # -- stage 1: initial sequence ----------------------------------------

    def initial_solution(self) -> ModeSequence:
        spec, scen = self.spec, self.scen
        grid = scen.time_grid
        modes = [scen.initial_state.operation_mode]
        directions: list = [None]
        ready = grid[0]
        for t in range(1, scen.n_future + 1):
            old = modes[-1]
            value = self.psf_value(old, t, old)
            if (
                value is not None
                and mode_available(spec, grid, old, t)
                and value[0] < self.weights.operation_mode_change
            ):
                modes.append(old)
                directions.append(value[1])
                continue
            valid = [
                o
                for o in sorted(spec.operation_modes)
                if mode_available(spec, grid, o, t)
                and switch_ready(spec, grid, ready, t, old, o) is not None
                and not_soon_infeasible(spec, grid, t, o, old)
            ]
            value = self.ps_best(t, valid, old) if valid else None
            if value is None:
                raise InitialSolutionAbort(f"no usable operation mode for time step {t}")
            _, best, best_dir = value
            ready = switch_ready(spec, grid, ready, t, old, best)
            modes.append(best)
            directions.append(best_dir)
        return ModeSequence(tuple(modes), tuple(directions))

    # -- stage 2: improvement heuristic -----------------------------------

    def improvement_heuristic(self, seq: ModeSequence) -> ModeSequence:
        spec, grid = self.spec, self.scen.time_grid
        modes = list(seq.modes)
        directions = list(seq.directions)
        backwards = True
        sweeps_without_improvement = 0
        while sweeps_without_improvement < 2:
            improved = False
            change_times = [t for t in range(1, len(modes)) if modes[t] != modes[t - 1]]
            if backwards:
                change_times.reverse()
            for t in change_times:
                if modes[t - 1] == modes[t]:
                    continue  # this change disappeared in an earlier replacement
                positions = self._phase_positions(modes, t, backwards)
                if not positions:
                    continue
                current = self.sequence_objective(modes)
                best_modes, best_improvement = None, 0.0
                for candidate in convex_combination(spec, modes[t - 1], modes[t]):
                    trial = list(modes)
                    for pos in positions:
                        trial[pos] = candidate
                    if not transitions_work(spec, trial, grid):
                        continue
                    improvement = current - self.sequence_objective(trial)
                    if improvement > best_improvement:
                        best_modes, best_improvement = trial, improvement
                if best_improvement > 0.0:
                    modes = best_modes
                    # the evaluating stationary solves now decide the flow
                    # directions of every replaced position
                    for pos in positions:
                        directions[pos] = self.psf_value(modes[pos], pos, modes[pos - 1])[1]
                    improved = True
            backwards = not backwards
            sweeps_without_improvement = 0 if improved else sweeps_without_improvement + 1
        return ModeSequence(tuple(modes), tuple(directions))

    @staticmethod
    def _phase_positions(modes, t: int, backwards: bool) -> list[int]:
        """Positions of the phase ending at t-1 (backwards) or starting at
        t (forwards); position 0 is the fixed initial state and is never
        replaced."""
        if backwards:
            start = t - 1
            while start > 0 and modes[start - 1] == modes[t - 1]:
                start -= 1
            return list(range(max(start, 1), t))
        end = t
        while end + 1 < len(modes) and modes[end + 1] == modes[t]:
            end += 1
        return list(range(t, end + 1))

    # -- stage 3: rolling-horizon smoothing --------------------------------

    def transient_smoothing(self, seq: ModeSequence, h: int) -> ControlPlan:
        if h < 2:
            raise ValueError("the rolling horizon must span at least 2 steps")
        k = self.scen.n_future
        states: list = [self.scen.initial_state]
        diagnostics: dict = {
            "smoothing_solves": 0, "retried_windows": [], "time_limited_windows": [], "window_wall_times": []
        }

        window_starts = [1] if h >= k else list(range(1, k - h + 2))
        for s in window_starts:
            last = s + h - 1 if h < k else k
            window_times = list(range(s, last + 1))
            inst, res = self._solve_window(seq, states[s - 1], window_times, diagnostics)
            keep = window_times if s == window_starts[-1] else [s]
            states += [inst.snapshot_at(res.assignment, t) for t in keep]
        return ControlPlan(
            sequence=seq,
            states=states,
            objective=math.nan,  # filled by the replay in solve_station
            breakdown={},
            phase_seconds={},
            diagnostics=diagnostics,
        )

    def _window_model(self, weights: ObjectiveWeights, modes: tuple, dirs: tuple, snapshot: StateSnapshot):
        """The fixed transient model of one window: the template of its
        pattern patched, or a fresh build kept as that template."""
        key = window_pattern(self.scen, self._bounds, weights, modes, dirs, snapshot)
        if key in self._templates:
            return instantiate_fixed_transient(self._templates[key], snapshot)
        inst = self._templates[key] = build_fixed_transient(self.spec, self.scen, weights, modes, dirs, snapshot)
        return inst

    def _solve_window(self, seq: ModeSequence, snapshot: StateSnapshot, times, diagnostics):
        modes = tuple(seq.modes[t] for t in times)
        dirs = tuple(seq.directions[t] for t in times)
        try:
            inst = self._window_model(self.weights, modes, dirs, snapshot)
        except BuildInfeasibleError as exc:
            raise SmoothingError(times[0], str(exc)) from exc
        res = self._solve(inst, "Pf")
        diagnostics["smoothing_solves"] += 1
        diagnostics["window_wall_times"].append(res.wall_time)
        if not res.ok:
            # one retry with the demand slacks made dominant, in case the
            # window is only numerically borderline
            inst = self._window_model(self.weights.scaled(10.0), modes, dirs, snapshot)
            res = self._solve(inst, "Pf")
            diagnostics["retried_windows"].append(times[0])
            if not res.ok:
                raise SmoothingError(times[0], res.message or res.status)
        if res.status == "timeLimit":
            # a checker-clean point is the window's answer, if not a proven optimum
            diagnostics["time_limited_windows"].append(times[0])
        return inst, res

    # -- the full procedure -------------------------------------------------

    def solve_station(self, h: int = 4) -> ControlPlan:
        started = time.perf_counter()
        seq = self.initial_solution()
        t_initial = time.perf_counter()
        seq = self.improvement_heuristic(seq)
        t_improve = time.perf_counter()
        plan = self.transient_smoothing(seq, h)
        t_smooth = time.perf_counter()
        plan.phase_seconds = {
            "initial": t_initial - started,
            "improvement": t_improve - t_initial,
            "smoothing": t_smooth - t_improve,
        }
        inst, x = plan.replay = complete_plan_assignment(self.spec, self.scen, self.weights, plan)
        violations = check_assignment(inst.model, x)
        plan.objective = inst.model.objective_value(x)
        plan.breakdown = inst.model.objective_breakdown(x)
        plan.diagnostics["replay_violations"] = [str(v) for v in violations]
        plan.diagnostics["max_replay_violation"] = max((v.amount for v in violations), default=0.0)
        plan.diagnostics["solve_counts"] = dict(self.counters)
        plan.diagnostics["memo_hits"] = dict(self.memo_hits)
        return plan

    def lower_bound(self, plan: ControlPlan, time_limit: float) -> tuple:
        """(bound, gap, result) of the full model ``P`` solved from a plan.

        Solves the model of ``plan.replay`` under ``P``'s published
        settings with the replayed assignment as ``initial``, so the result
        is never worse than the plan.  Zero is always a valid bound for the
        nonnegative objective, so a solve that ends without a dual bound
        (a time limit, or a backend error answered by the replay) still
        reports a gap <= 1.  A result with status ``error``, or a bound
        above the plan objective (:func:`compute_gap`), raises
        :class:`~stationopt.solve.BackendError`.
        """
        inst, warm = plan.replay
        res = solve(inst, default_settings_for("P", time_limit), initial=warm, backend=self.backend)
        if res.status == "error":
            raise BackendError(res.message)
        bound = max(0.0, res.bound)
        try:
            gap = compute_gap(plan.objective, bound)
        except ValueError as exc:
            raise BackendError(str(exc)) from exc
        return bound, gap, res
