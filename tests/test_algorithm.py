import dataclasses
import functools
import hashlib
import itertools
import json
import math
import re
import time

import numpy as np
import pytest

from stationopt import algorithm as algorithm_module
from stationopt.algorithm import (
    InitialSolutionAbort,
    ModeSequence,
    SmoothingError,
    StationSolver,
    complete_plan_assignment,
    compute_gap,
    convex_combination,
    convex_combination_cs,
    not_soon_infeasible,
    transitions_work,
)
from stationopt.fixtures import medium_station, mini_station, mini_station_pipes, seeded_instance, two_unit_station
from stationopt.io import load_instance, load_weights, regrid_instance, template_grid, write_plan
from stationopt.linmodel import BuildInfeasibleError
from stationopt.model import (
    ObjectiveWeights,
    build_fixed_transient,
    build_full,
    build_stationary,
    build_stationary_fixed,
    instantiate,
    step_bounds,
    step_inputs,
    switch_cost,
)
from stationopt.network import StationSpec, mode_available
from stationopt.ranges import build_spec_ranges
from stationopt.solve import (
    TEN_HOURS,
    BackendError,
    InProcessBackend,
    check_assignment,
    default_settings_for,
    solve,
)

from oracles import brute_transition_check, exact_stationary_sequence

WEIGHTS = ObjectiveWeights()

HOUR = 3600.0


def loaded(doc, count=2500):
    spec, scen = load_instance(doc)
    return build_spec_ranges(spec, count=count), scen


@pytest.fixture(scope="module")
def mini():
    return loaded(mini_station())


@pytest.fixture(scope="module")
def two_unit():
    return loaded(two_unit_station())


class _ThetaSpec:
    """Minimal stand-in exposing transition_time for pure sequence tests."""

    def __init__(self, theta):
        self.theta = theta

    def transition_time(self, a, b):
        if a == b:
            return 0.0
        return self.theta[(a, b)]


class TestTransitionsWork:
    def test_constant_sequence(self):
        spec = _ThetaSpec({})
        assert transitions_work(spec, ["A", "A", "A"], np.array([0.0, HOUR, 2 * HOUR]))

    def test_figure_style_conflict(self):
        # phases B(0-2h), C(2h-4h), D(4h-...): theta(B,C)=1h, theta(C,D)=5h
        # => phase C needs 0.5h + 2.5h = 3h but only has 2h
        theta = {("B", "C"): 1 * HOUR, ("C", "D"): 5 * HOUR}
        spec = _ThetaSpec(theta)
        grid = np.array([0.0, 2 * HOUR, 4 * HOUR, 6 * HOUR])
        assert not transitions_work(spec, ["B", "C", "D", "D"], grid)
        # with a short outgoing transition the same sequence is fine
        spec_ok = _ThetaSpec({("B", "C"): 1 * HOUR, ("C", "D"): 2 * HOUR})
        assert transitions_work(spec_ok, ["B", "C", "D", "D"], grid)

    def test_last_mode_exempt(self):
        # the transition into the final mode extends far past the horizon
        # end; the last phase itself is never checked, so this is fine as
        # long as the preceding phase covers the incoming half
        theta = {("A", "B"): 3 * HOUR}
        spec = _ThetaSpec(theta)
        grid = np.array([0.0, 2 * HOUR, 4 * HOUR])
        assert transitions_work(spec, ["A", "A", "B"], grid)
        # but the half reaching back into the preceding phase still counts
        tight = _ThetaSpec({("A", "B"): 10 * HOUR})
        assert not transitions_work(tight, ["A", "A", "B"], grid)

    def test_first_phase_outgoing_half_only(self):
        theta = {("A", "B"): 3 * HOUR, ("B", "A"): 0.0}
        spec = _ThetaSpec(theta)
        # change at 1h: first phase must cover 1.5h -> fails
        assert not transitions_work(spec, ["A", "B", "B", "B"], np.array([0.0, HOUR, 2 * HOUR, 3 * HOUR]))
        # change at 2h: 2h >= 1.5h -> fine
        assert transitions_work(spec, ["A", "A", "B", "B"], np.array([0.0, HOUR, 2 * HOUR, 3 * HOUR]))

    def test_missing_theta_entry(self):
        spec = _ThetaSpec({})
        with pytest.raises(KeyError):
            transitions_work(spec, ["A", "B"], np.array([0.0, HOUR]))

    @pytest.mark.parametrize("seed", range(40))
    def test_against_interval_simulator(self, seed):
        rng = np.random.default_rng(seed)
        modes = ["m0", "m1", "m2"]
        k = int(rng.integers(3, 8))
        grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.25, 2.0, size=k))]) * HOUR
        seq = [modes[i] for i in rng.integers(0, 3, size=k + 1)]
        theta = {
            (a, b): float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0])) * HOUR
            for a, b in itertools.permutations(modes, 2)
        }
        spec = _ThetaSpec(theta)
        assert transitions_work(spec, seq, grid) == brute_transition_check(seq, grid, theta)


class TestNotSoonInfeasible:
    def grid(self, k=4):
        return np.arange(k + 1, dtype=float) * HOUR

    def test_no_future_unavailability(self, mini):
        spec, scen = mini
        assert not_soon_infeasible(spec, scen.time_grid, 1, "o_cp", "o_cp")

    def test_trap_detected_by_slow_escapes(self):
        # o_cp dies at step 2; the only escape window is the 3 h up to
        # delta_2.  A 100 min escape transition fits, a 720 min one cannot.
        step = 3 * HOUR
        doc = mini_station(unavailability={"U1": [[2 * step + 1.0, 1e9]]})
        doc["transitionTimes"] = {"o_by": {"o_cp": 30.0}, "o_cp": {"o_by": 100.0}}
        spec, scen = load_instance(doc)
        assert not_soon_infeasible(spec, scen.time_grid, 1, "o_cp", "o_by")
        doc2 = mini_station(unavailability={"U1": [[2 * step + 1.0, 1e9]]})
        doc2["transitionTimes"] = {"o_by": {"o_cp": 30.0}, "o_cp": {"o_by": 720.0}}
        spec2, scen2 = load_instance(doc2)
        assert not not_soon_infeasible(spec2, scen2.time_grid, 1, "o_cp", "o_by")

    def test_zero_theta_sibling_rescues(self):
        step = 3 * HOUR
        doc = mini_station(unavailability={"U1": [[3 * step + 1.0, 1e9]]})
        doc["transitionTimes"] = {"o_by": {"o_cp": 30.0}, "o_cp": {"o_by": 0.0}}
        spec, scen = load_instance(doc)
        assert not_soon_infeasible(spec, scen.time_grid, 1, "o_cp", "o_by")

    def test_matches_bruteforce_reachability(self, request):
        # oracle: simulate all (escape step, escape mode) pairs explicitly
        step = 3 * HOUR
        for seed in range(25):
            rng = np.random.default_rng(1000 + seed)
            window = sorted(rng.uniform(0.0, 4 * step, size=2))
            theta_out = float(rng.choice([0.0, 30.0, 240.0, 420.0]))
            doc = mini_station(unavailability={"U1": [[window[0], window[1]]]})
            doc["transitionTimes"] = {"o_by": {"o_cp": 30.0}, "o_cp": {"o_by": theta_out}}
            spec, scen = load_instance(doc)
            grid = scen.time_grid
            t = 1
            got = not_soon_infeasible(spec, grid, t, "o_cp", "o_by")
            blocked = [
                tp for tp in range(t + 1, scen.n_future + 1)
                if not mode_available(spec, grid, "o_cp", tp)
            ]
            if not blocked:
                expect = True
            else:
                expect = False
                half_in = spec.transition_time("o_by", "o_cp") / 2.0
                for t_out in range(t + 1, blocked[0] + 1):
                    for m in spec.operation_modes:
                        if m == "o_cp" or not mode_available(spec, grid, m, t_out):
                            continue
                        if grid[t_out] - grid[t] >= half_in + spec.transition_time("o_cp", m) / 2.0:
                            expect = True
            assert got == expect, f"seed {seed}"

    @pytest.mark.parametrize("miss, fits", [(5e-10, True), (2e-9, False)])
    def test_escape_uses_the_switch_tolerance(self, miss, fits):
        # o_cp, entered at step 1 (30 min), dies at step 2, whose instant
        # lies ``miss`` s short of what the switch back to o_by (100 min)
        # needs; the rule forgives up to 1e-9 s
        grid = np.array([0.0, 3 * HOUR, 3 * HOUR + 3900.0 - miss, 7 * HOUR, 10 * HOUR])
        doc = mini_station(unavailability={"U1": [[float(grid[2]), 1e9]]})
        doc["transitionTimes"] = {"o_by": {"o_cp": 30.0}, "o_cp": {"o_by": 100.0}}
        spec, _ = load_instance(doc)
        assert transitions_work(spec, ["o_by", "o_cp", "o_by"], grid[:3]) is fits
        assert not_soon_infeasible(spec, grid, 1, "o_cp", "o_by") is fits


class TestConvexCombination:
    def test_station_tokens_bypass_pair(self, two_unit):
        spec, _ = two_unit
        st = spec.stations["CS1"]
        assert convex_combination_cs(st, "by", "by") == {"by"}

    def test_station_tokens_between_units(self, two_unit):
        spec, _ = two_unit
        st = spec.stations["CS1"]
        assert convex_combination_cs(st, "c1", "c2") == {"c1", "c2", "c12"}

    def test_station_tokens_bypass_and_config(self, two_unit):
        spec, _ = two_unit
        st = spec.stations["CS1"]
        assert convex_combination_cs(st, "by", "c1") == {"by", "c1"}

    def test_same_mode_contained(self, two_unit):
        spec, _ = two_unit
        assert "o_c1" in convex_combination(spec, "o_c1", "o_c1")

    def test_intermediate_config_modes_included(self, two_unit):
        spec, _ = two_unit
        assert convex_combination(spec, "o_c1", "o_c2") == ["o_c1", "o_c12", "o_c2"]

    def test_mixed_valve_patterns_excluded(self):
        doc = two_unit_station()
        # second valve makes blended valve patterns possible
        doc["arcs"].append(
            {"id": "V2", "kind": "valve", "from": "B1", "to": "B2", "flowLB": -2000.0, "flowUB": 2000.0}
        )
        doc["scenario"]["initialState"]["arcFlows"]["V2"] = 0.0
        for od in doc["operationModes"]:
            od["assignment"]["V2"] = "cl"
        doc["operationModes"] += [
            {"id": "o_vv", "assignment": {"V1": "op", "V2": "op", "CS1": "cl"}},
            {"id": "o_mix", "assignment": {"V1": "op", "V2": "cl", "CS1": "cl"}},
        ]
        doc["validPairs"] += [["o_vv", "f_fwd"], ["o_mix", "f_fwd"]]
        theta = {}
        ids = [od["id"] for od in doc["operationModes"]]
        for o1 in ids:
            theta[o1] = {o2: 30.0 for o2 in ids if o2 != o1}
        doc["transitionTimes"] = theta
        spec, _ = load_instance(doc)
        # o_by has (V1 op, V2 cl); o_vv has (V1 op, V2 op); combining the
        # all-closed o_c1 with o_vv must not invent the blended o_mix
        # pattern unless it matches one side exactly
        combo = convex_combination(spec, "o_c1", "o_vv")
        assert "o_mix" not in combo
        # o_by shares its valve pattern with neither original here
        assert "o_by" not in combo  # V1 op / V2 cl matches neither side

    def test_result_superset_of_inputs(self, two_unit):
        spec, _ = two_unit
        for o1, o2 in itertools.combinations(spec.operation_modes, 2):
            combo = convex_combination(spec, o1, o2)
            assert o1 in combo and o2 in combo


class TestInitialSolution:
    def test_stable_demands_keep_initial_mode(self):
        spec, scen = loaded(mini_station(mismatch=2.0))  # cheap: keep-branch fires
        solver = StationSolver(spec, scen, WEIGHTS)
        seq = solver.initial_solution()
        assert seq.modes == ("o_cp",) * 5
        assert solver.counters["Ps"] == 0  # the keep branch did all the work
        assert transitions_work(spec, seq.modes, scen.time_grid)

    def test_demand_reversal_causes_single_change(self):
        doc = mini_station(mismatch=2.0)
        # second half: the flow reverses; the one-directional compressor
        # cannot serve it, the bypass valve can
        doc["scenario"]["pressureDemand"]["B2"] = [62.0, 62.0, 50.0, 50.0]
        doc["scenario"]["flowDemand"]["g_in"] = [500.0, 500.0, -400.0, -400.0]
        doc["scenario"]["flowDemand"]["g_out"] = [-498.0, -498.0, 398.0, 398.0]
        doc["flowDirections"].append(
            {"id": "f_rev", "inflowNodes": ["B2"], "outflowNodes": ["B1"]}
        )
        doc["validPairs"].append(["o_by", "f_rev"])
        spec, scen = loaded(doc)
        solver = StationSolver(spec, scen, WEIGHTS)
        seq = solver.improvement_heuristic(solver.initial_solution())
        assert seq.modes == ("o_cp", "o_cp", "o_cp", "o_by", "o_by")
        # oracle: both plausible sequences, the chosen one is not worse
        alt = ("o_cp", "o_cp", "o_cp", "o_cp", "o_cp")
        assert solver.sequence_objective(seq.modes) <= solver.sequence_objective(alt) + 1e-6

    def test_abort_when_everything_unavailable(self):
        step = 3 * HOUR
        doc = mini_station(unavailability={"U1": [[step + 60.0, 2 * step - 60.0]]})
        doc["operationModes"] = [doc["operationModes"][1]]  # only o_cp exists
        doc["validPairs"] = [["o_cp", "f_fwd"]]
        spec, scen = loaded(doc)
        solver = StationSolver(spec, scen, WEIGHTS)
        with pytest.raises(InitialSolutionAbort):
            solver.initial_solution()

    def test_candidate_filter_does_not_rescan_the_prefix(self, monkeypatch):
        # U1 is out for most of every fourth step, so stage 1 switches
        # twice in every four steps of the 48
        step = 3 * HOUR
        windows = [[t * step + 300.0, (t + 1) * step - 300.0] for t in range(2, 48, 4)]
        spec, scen = loaded(mini_station(steps=48, lift=12.0, unavailability={"U1": windows}), count=2000)
        calls = []
        lookup = StationSpec.transition_time

        def counted(self, a, b):
            calls.append((a, b))
            return lookup(self, a, b)

        monkeypatch.setattr(StationSpec, "transition_time", counted)
        seq = StationSolver(spec, scen, WEIGHTS).initial_solution()
        assert seq.modes.count("o_by") == 12
        assert len(calls) <= 3 * scen.n_future

    def test_directions_recorded_from_deciding_solve(self, mini):
        spec, scen = mini
        solver = StationSolver(spec, scen, WEIGHTS)
        seq = solver.initial_solution()
        assert seq.directions[0] is None
        assert all(d == "f_fwd" for d in seq.directions[1:])


def merge_fixture(outage_step=3, max_delta_p=9.75):
    """Initial o_by; o_c1 is best but its unit dies at step ``outage_step``;
    o_c2 is slightly worse per step (U2's pressure cap ``max_delta_p`` bar
    is below the demanded 10 bar lift) but survives."""
    doc = two_unit_station()
    doc["scenario"]["initialState"]["operationMode"] = "o_by"
    doc["scenario"]["initialState"]["arcFlows"] = {"CS1": 0.0, "V1": 700.0}
    doc["units"][1]["maxDeltaP"] = max_delta_p
    step = 3 * HOUR
    doc["unavailability"] = {"U1": [[outage_step * step + 60.0, 1e9]]}
    doc["scenario"]["flowDemand"]["g_out"] = [-(700.0 - 8.0)] * 4
    return loaded(doc)


class TestImprovementHeuristic:
    def test_phase_merge_reduces_changes(self):
        spec, scen = merge_fixture()
        solver = StationSolver(spec, scen, WEIGHTS)
        initial = solver.initial_solution()
        # greedy picks the per-step best o_c1, then is forced off it
        assert initial.modes == ("o_by", "o_c1", "o_c1", "o_c2", "o_c2")
        improved = solver.improvement_heuristic(initial)
        assert improved.modes == ("o_by", "o_c2", "o_c2", "o_c2", "o_c2")
        assert solver.sequence_objective(improved.modes) < solver.sequence_objective(initial.modes)

    def test_matches_exhaustive_search_on_merge_fixture(self):
        spec, scen = merge_fixture()
        solver = StationSolver(spec, scen, WEIGHTS)
        improved = solver.improvement_heuristic(solver.initial_solution())
        got = solver.sequence_objective(improved.modes)
        best = math.inf
        mode_ids = sorted(spec.operation_modes)
        for combo in itertools.product(mode_ids, repeat=scen.n_future):
            modes = ("o_by",) + combo
            if not all(mode_available(spec, scen.time_grid, m, t) for t, m in enumerate(modes) if t):
                continue
            if not transitions_work(spec, modes, scen.time_grid):
                continue
            best = min(best, solver.sequence_objective(modes))
        assert got == pytest.approx(best, rel=1e-6)

    def test_constant_sequence_unchanged_after_two_sweeps(self, mini):
        spec, scen = mini
        solver = StationSolver(spec, scen, WEIGHTS)
        seq = ModeSequence(("o_cp",) * 5, (None,) + ("f_fwd",) * 4)
        out = solver.improvement_heuristic(seq)
        assert out.modes == seq.modes

    def test_objective_never_increases(self):
        spec, scen = merge_fixture()
        solver = StationSolver(spec, scen, WEIGHTS)
        initial = solver.initial_solution()
        improved = solver.improvement_heuristic(initial)
        assert solver.sequence_objective(improved.modes) <= solver.sequence_objective(initial.modes)
        assert all(mode_available(spec, scen.time_grid, m, t) for t, m in enumerate(improved.modes) if t)
        assert transitions_work(spec, improved.modes, scen.time_grid)


class TestSequenceObjective:
    def test_constant_sequence_is_slack_only(self, mini):
        spec, scen = mini
        solver = StationSolver(spec, scen, WEIGHTS)
        total = solver.sequence_objective(("o_cp",) * 5)
        # per-step slack cost of the built-in 20 (1000 m^3/h) mismatch over
        # 3 h at 100 per 1000 m^3: 20 * 3 * 100 = 6000 per step
        assert total == pytest.approx(4 * 6000.0, rel=1e-6)

    def test_change_adds_mode_and_start_costs(self, mini):
        spec, scen = mini
        solver = StationSolver(spec, scen, WEIGHTS)
        constant = solver.sequence_objective(("o_cp",) * 5)
        with_dip = solver.sequence_objective(("o_cp", "o_cp", "o_by", "o_cp", "o_cp"))
        extra = with_dip - constant
        # one change into bypass, one back with a unit restart, plus the
        # bypass step's worse slack
        assert extra > 2 * WEIGHTS.operation_mode_change + WEIGHTS.unit_start

    def test_unavailable_mode_is_infinite(self):
        step = 3 * HOUR
        doc = mini_station(unavailability={"U1": [[step + 60.0, 2 * step - 60.0]]})
        spec, scen = loaded(doc)
        solver = StationSolver(spec, scen, WEIGHTS)
        assert solver.sequence_objective(("o_cp",) * 5) == math.inf


class TestSmoothing:
    def seq_for(self, spec, scen):
        solver = StationSolver(spec, scen, WEIGHTS)
        return solver, solver.improvement_heuristic(solver.initial_solution())

    def test_horizon_covering_single_solve(self, mini):
        spec, scen = mini
        solver, seq = self.seq_for(spec, scen)
        plan = solver.transient_smoothing(seq, h=4)
        assert plan.diagnostics["smoothing_solves"] == 1

    def test_window_wall_time_covers_both_attempts(self):
        # a backend that pauses and fails the first attempt of every window:
        # each window's wall time is that of both its solves
        spec, scen = loaded(mini_station_pipes())
        solver, seq = self.seq_for(spec, scen)
        real = InProcessBackend()
        calls = {"n": 0}

        class FlakyBackend:
            def solve_raw(self, model, settings):
                calls["n"] += 1
                if calls["n"] % 2:
                    time.sleep(0.02)
                    return "infeasible", None, None, "spurious"
                return real.solve_raw(model, settings)

        solver.backend = FlakyBackend()
        walls = []
        solve_one = solver._solve

        def timed(inst):
            res = solve_one(inst)
            walls.append(res.wall_time)
            return res

        solver._solve = timed
        diagnostics = solver.transient_smoothing(seq, 4).diagnostics
        n = diagnostics["smoothing_solves"]
        assert n > 1 and diagnostics["retried_windows"] == list(range(1, n + 1)) and len(walls) == 2 * n
        assert diagnostics["window_wall_times"] == [walls[i] + walls[i + 1] for i in range(0, 2 * n, 2)]
        assert min(walls[::2]) >= 0.02

    def test_rolling_window_count(self):
        spec, scen = loaded(mini_station_pipes())
        spec12, scen12 = regrid_instance(spec, scen, template_grid("12"))
        solver = StationSolver(spec12, scen12, WEIGHTS)
        seq = solver.improvement_heuristic(solver.initial_solution())
        plan = solver.transient_smoothing(seq, h=4)
        assert plan.diagnostics["smoothing_solves"] == 12 - 4 + 1

    def test_h_below_two_rejected(self, mini):
        spec, scen = mini
        solver, seq = self.seq_for(spec, scen)
        with pytest.raises(ValueError):
            solver.transient_smoothing(seq, h=1)

    def test_infeasible_window_raises_after_retry(self, mini):
        spec, scen = mini

        class AlwaysInfeasible:
            def solve_raw(self, model, settings):
                return "infeasible", None, None, "nope"

        solver = StationSolver(spec, scen, WEIGHTS, backend=AlwaysInfeasible())
        seq = ModeSequence(("o_cp",) * 5, (None,) + ("f_fwd",) * 4)
        with pytest.raises(SmoothingError, match="time step 1"):
            solver.transient_smoothing(seq, h=4)

    def test_contradictory_window_names_its_start(self, mini, monkeypatch):
        spec, scen = mini

        def contradictory(*args):
            raise BuildInfeasibleError("constant row 'x' is violated: 0 <= -1")

        monkeypatch.setattr(algorithm_module, "build_fixed_transient", contradictory)
        solver = StationSolver(spec, scen, WEIGHTS)
        seq = ModeSequence(("o_cp",) * 5, (None,) + ("f_fwd",) * 4)
        with pytest.raises(SmoothingError, match="window starting at time step 1: constant row 'x'") as info:
            solver.transient_smoothing(seq, h=4)
        assert info.value.window_start == 1
        assert solver.counters["Pf"] == 0

    def test_retry_recorded(self, mini):
        spec, scen = mini
        from stationopt.solve import InProcessBackend

        real = InProcessBackend()
        calls = {"n": 0}

        class FlakyBackend:
            def solve_raw(self, model, settings):
                calls["n"] += 1
                if calls["n"] == 1:
                    return "infeasible", None, None, "spurious"
                return real.solve_raw(model, settings)

        solver = StationSolver(spec, scen, WEIGHTS, backend=FlakyBackend())
        seq = ModeSequence(("o_cp",) * 5, (None,) + ("f_fwd",) * 4)
        plan = solver.transient_smoothing(seq, h=4)
        assert plan.diagnostics["retried_windows"] == [1]
        assert solver.counters["Pf"] == 2

    def test_published_settings_reach_backend(self, mini):
        spec, scen = mini
        from stationopt.solve import InProcessBackend

        real = InProcessBackend()
        seen: dict = {}

        class RecordingBackend:
            def solve_raw(self, model, settings):
                seen.setdefault(model.name.split("_", 1)[0], set()).add(settings)
                return real.solve_raw(model, settings)

        solver = StationSolver(spec, scen, WEIGHTS, backend=RecordingBackend())
        solver.ps_best(1, sorted(spec.operation_modes), "o_cp")
        solver.solve_station(h=4)
        assert seen == {v: {default_settings_for(v)} for v in ("Psf", "Ps", "Pf")}


class TestSolveStation:
    def test_plan_feasible_and_accounted(self):
        spec, scen = loaded(mini_station_pipes())
        plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        assert plan.diagnostics["max_replay_violation"] <= 1e-6
        assert sum(plan.breakdown.values()) == pytest.approx(plan.objective, rel=1e-9)
        shares = plan.phase_shares
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-9)

    def test_states_cover_every_grid_instant(self):
        spec, scen = loaded(mini_station_pipes())
        plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        k = scen.n_future
        assert len(plan.states) == k + 1
        assert plan.states[0] is scen.initial_state
        assert [s.time_index for s in plan.states] == list(range(k + 1))
        assert set(scen.initial_state.inflows) == set(spec.boundary_nodes())

    def test_plan_objective_bounded_below_by_direct_model(self):
        spec, scen = loaded(mini_station_pipes())
        plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        inst = build_full(spec, scen, WEIGHTS)
        res = solve(inst, default_settings_for("P", 300.0))
        assert plan.objective >= res.bound - 1e-6
        assert compute_gap(plan.objective, res.bound) <= 1.0

    def test_deterministic(self, mini):
        spec, scen = mini
        p1 = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        p2 = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        assert p1.sequence.modes == p2.sequence.modes
        assert p1.objective == pytest.approx(p2.objective, rel=1e-9)

    def test_replay_checker_catches_tampering(self, mini):
        spec, scen = mini
        plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        # flow through a closed valve cannot be absorbed by any slack
        plan.states[1].arc_flows["V1"] = 55.0
        inst, x = complete_plan_assignment(spec, scen, WEIGHTS, plan)
        assert any("valve" in v.name or "balance" in v.name for v in check_assignment(inst.model, x))


@pytest.fixture(scope="module")
def bypass():
    """mini_station at zero lift whose mode o_by closes the valve and
    sends the flow through the compressor station in bypass."""
    doc = mini_station(lift=0.0)
    doc["operationModes"][0]["assignment"] = {"V1": "cl", "CS1": "by"}
    return loaded(doc)


class TestStationBypass:
    def test_plan_bypasses_the_station_at_every_step(self, bypass):
        spec, scen = bypass
        plan = StationSolver(spec, scen, WEIGHTS).solve_station()
        assert plan.sequence.modes[1:] == ("o_by",) * scen.n_future
        assert plan.diagnostics["replay_violations"] == []
        # only the 20 (1000 m^3/h) demand mismatch over 12 h is paid, at 100 per 1000 m^3
        assert plan.objective == pytest.approx(24000.0, rel=1e-9)
        assert all(state.arc_flows["CS1"] > 0.0 for state in plan.states[1:])

    def test_fixed_models_tie_the_station_end_pressures(self, bypass):
        spec, scen = bypass
        k = scen.n_future
        psf = [(build_stationary_fixed(spec, scen, WEIGHTS, "o_by", t), [t]) for t in range(1, k + 1)]
        pf = build_fixed_transient(spec, scen, WEIGHTS, ["o_by"] * k, ["f_fwd"] * k, scen.initial_state)
        for inst, times in [*psf, (pf, list(range(1, k + 1)))]:
            rows = [row for row in inst.model.rows if row.name.startswith("cs_")]
            assert [row.name for row in rows] == [f"cs_bypass(CS1,{t})" for t in times]
            for row, t in zip(rows, times):
                pl, pr = (inst.handles["p", v, t].index for v in ("B1", "B2"))
                assert (row.coeffs, row.sense, row.rhs) == ({pl: 1.0, pr: -1.0}, "==", 0.0)

    def test_replay_fills_the_bypass_copies_from_the_plan(self, bypass):
        spec, scen = bypass
        plan = StationSolver(spec, scen, WEIGHTS).solve_station()
        inst, x = plan.replay
        for t, state in enumerate(plan.states[1:], start=1):
            mid = 0.5 * (state.pressures["B1"] + state.pressures["B2"])
            assert inst.value(x, "p_by", "CS1", t) == pytest.approx(mid, rel=1e-12)
            assert inst.value(x, "q_by", "CS1", t) == pytest.approx(state.arc_flows["CS1"], rel=1e-12)


class TestComputeGap:
    def test_formula(self):
        assert compute_gap(100.0, 90.0) == pytest.approx(0.10)

    def test_equal_values(self):
        assert compute_gap(57.5, 57.5) == 0.0

    def test_clamp_below_threshold(self):
        assert compute_gap(0.05, 0.01) == 0.0

    def test_never_above_one(self):
        assert compute_gap(123.0, 0.0) == pytest.approx(1.0)

    def test_negative_bound_is_not_clamped(self):
        # StationSolver.lower_bound clamps bounds to 0 before calling compute_gap
        assert compute_gap(123.0, -5.0) == pytest.approx(128.0 / 123.0)

    def test_zero_objective_with_positive_bound(self):
        with pytest.raises(ValueError):
            compute_gap(0.0, 5.0)
        with pytest.raises(ValueError):
            compute_gap(-1.0, 0.0)

    def test_bound_above_objective_raises(self):
        with pytest.raises(ValueError, match="lies above"):
            compute_gap(18585.2395, 18586.0415)
        assert compute_gap(100.0, 100.0 + 1e-5) == 0.0


def altered_p(alter):
    """A backend whose ``P`` answers are HiGHS' own passed through
    ``alter(status, x, bound, message)``; the stage solves are HiGHS'."""
    real = InProcessBackend()

    class Altered:
        def solve_raw(self, model, settings):
            answer = real.solve_raw(model, settings)
            return alter(*answer) if model.name.startswith("P_") else answer

    return Altered()


class TestLowerBound:
    @pytest.fixture(scope="class")
    def mini2000(self):
        return loaded(mini_station(), count=2000)

    def bounded(self, mini2000, alter):
        solver = StationSolver(*mini2000, WEIGHTS, backend=altered_p(alter))
        plan = solver.solve_station(h=4)
        return plan, solver.lower_bound

    def test_highs_answer_closes_the_gap(self, mini2000):
        plan, lower_bound = self.bounded(mini2000, lambda *answer: answer)
        bound, gap, res = lower_bound(plan, 60.0)
        assert res.status == "optimal"
        assert bound == plan.objective
        assert gap == 0.0

    @pytest.mark.parametrize(
        "answer",
        [("timeLimit", None, None, "time limit reached"), ("error", None, None, "backend exploded")],
        ids=["timeLimit", "error"],
    )
    def test_no_bound_falls_back_to_the_replay(self, mini2000, answer):
        plan, lower_bound = self.bounded(mini2000, lambda *_: answer)
        bound, gap, res = lower_bound(plan, 60.0)
        # the replayed plan answers, and zero bounds the nonnegative objective
        assert res.status == "feasible"
        assert np.array_equal(res.assignment, plan.replay[1])
        assert (bound, gap) == (0.0, 1.0)

    def test_inflated_bound_raises(self, mini2000):
        plan, lower_bound = self.bounded(mini2000, lambda s, x, b, m: (s, x, b + 100.0, m))
        with pytest.raises(BackendError, match="lies above") as info:
            lower_bound(plan, 60.0)
        named = re.search(r"bound (\S+) lies above the objective (\S+) ", str(info.value))
        claimed, objective = map(float, named.groups())
        assert objective == plan.objective
        assert claimed > plan.objective + 99.0


class Uncut(InProcessBackend):
    """HiGHS without a cutoff, as the bound was solved before it had one."""

    def solve_raw(self, model, settings):
        return super().solve_raw(model, dataclasses.replace(settings, cutoff=math.inf))


class TestCutoffBound:
    """The plan's objective as HiGHS' cutoff keeps the bound: the cut-off
    solve ends as the uncut one, its bound lies at or below the plan, at
    or below the uncut solve's point to rounding (four orders of magnitude
    inside the cutoff's ``CHECK_TOL``), and at most the published ``P``
    gaps below the uncut bound."""

    @pytest.mark.parametrize(
        "doc, steps",
        [(mini_station, None), (mini_station_pipes, None), (two_unit_station, None), (medium_station, None)]
        + [(medium_station, "24")]
        + [(functools.partial(seeded_instance, s), None) for s in range(10)],
        ids=["mini_station", "mini_station_pipes", "two_unit_station", "medium_station", "medium_station@24"]
        + [f"seeded_instance({s})" for s in range(10)],
    )
    def test_cut_bound_against_the_uncut_one(self, doc, steps):
        doc = doc()
        spec, scen = load_instance(doc)
        if steps is not None:
            spec, scen = regrid_instance(spec, scen, template_grid(steps))
        solver = StationSolver(build_spec_ranges(spec, count=2000), scen, load_weights(doc))
        plan = solver.solve_station(h=4)
        _, _, cut = solver.lower_bound(plan, 600.0)
        inst, warm = plan.replay
        uncut = solve(inst, default_settings_for("P", 600.0), initial=warm, backend=Uncut())
        assert cut.status == uncut.status
        assert cut.bound <= plan.objective
        assert cut.bound <= uncut.objective * (1.0 + 1e-10)
        assert cut.bound >= uncut.bound - (1e-4 * abs(plan.objective) + 1e-2)


class TestSeededRegressions:
    """Instances whose pressures in Pa broke HiGHS before it saw them in bar:
    a fixed-transient window ended in "Status 4: Solve error"."""

    @pytest.mark.parametrize("seed", [115, 133])
    def test_plan_and_bound(self, seed):
        spec, scen = loaded(seeded_instance(seed))
        plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        assert plan.diagnostics["replay_violations"] == []
        res = solve(build_full(spec, scen, WEIGHTS), default_settings_for("P", 300.0))
        assert res.ok
        assert res.bound <= plan.objective + 1e-6


class TestPinnedPlanObjectives:
    """Plan objectives at 12 steps, 2,000-sample ranges and h=4, so that a
    change of solver options cannot move a plan unnoticed."""

    @pytest.mark.parametrize(
        "doc, objective",
        [(mini_station_pipes, 17563.98953880321), (medium_station, 12175.960177753204)],
        ids=["mini_station_pipes", "medium_station"],
    )
    def test_plan_objective(self, doc, objective):
        spec, scen = load_instance(doc())
        spec, scen = regrid_instance(spec, scen, template_grid("12"))
        spec = build_spec_ranges(spec, count=2000)
        plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        assert plan.objective == pytest.approx(objective, rel=1e-9)

    def test_seeded_instance_with_memo_hits(self):
        # its demand repeats, so every stationary model after step 1 equals
        # one already solved: three of four Psf and of four Ps solves go
        spec, scen = load_instance(seeded_instance(0))
        spec = build_spec_ranges(spec, count=2000)
        plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        assert plan.objective == pytest.approx(12396.663252684813, rel=1e-9)
        assert plan.diagnostics["solve_counts"] == {"Psf": 1, "Ps": 1, "Pf": 1}
        assert plan.diagnostics["memo_hits"] == {"Psf": 3, "Ps": 3}


class TestStationaryMemo:
    @staticmethod
    def counted_builds(monkeypatch):
        """Patch the two stationary builders the solver calls; the counts."""
        counts = {"Psf": 0, "Ps": 0}
        for name, variant in (("build_stationary_fixed", "Psf"), ("build_stationary", "Ps")):
            def counted(*args, _build=getattr(algorithm_module, name), _variant=variant, **kwargs):
                counts[_variant] += 1
                return _build(*args, **kwargs)

            monkeypatch.setattr(algorithm_module, name, counted)
        return counts

    def test_repeated_step_is_answered_without_a_build(self, monkeypatch):
        # seeded_instance(0) repeats its demand: steps 2-4 read the numbers
        # of step 1, so one Psf and one Ps model are built, and the memo
        # answers the three repeats of each
        spec, scen = load_instance(seeded_instance(0))
        spec = build_spec_ranges(spec, count=2000)
        builds = self.counted_builds(monkeypatch)
        solver = StationSolver(spec, scen, WEIGHTS)
        solver.initial_solution()
        bounds = step_bounds(spec, scen)
        assert len({step_inputs(spec, scen, bounds, t) for t in range(1, 5)}) == 1
        assert builds == {"Psf": 1, "Ps": 1}
        assert solver.counters == {"Psf": 1, "Ps": 1, "Pf": 0}
        assert solver.memo_hits == {"Psf": 3, "Ps": 3}
        # a second pass builds nothing: the memo answers all its lookups
        solver.initial_solution()
        assert builds == {"Psf": 1, "Ps": 1}
        assert solver.counters == {"Psf": 1, "Ps": 1, "Pf": 0}
        assert solver.memo_hits == {"Psf": 7, "Ps": 7}

    def test_availability_does_not_split_a_fixed_mode_step(self, monkeypatch):
        # seeded_instance(12) has U1 out over [11100, 21300) s and a steady
        # demand: Psf fixes its mode and reads no availability, so each
        # mode is built once, while Ps sees the outage in its candidates
        spec, scen = load_instance(seeded_instance(12))
        spec = build_spec_ranges(spec, count=2000)
        builds = self.counted_builds(monkeypatch)
        plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        assert builds == {"Psf": 2, "Ps": 3}
        assert plan.diagnostics["solve_counts"] == {"Psf": 2, "Ps": 3, "Pf": 1}

    def test_ps_key_holds_the_available_candidates(self, monkeypatch):
        # steps 1 and 2 of seeded_instance(12) read the same numbers, but
        # U1 blocks its modes at step 1 only: two Ps models, not one
        spec, scen = load_instance(seeded_instance(12))
        spec = build_spec_ranges(spec, count=2000)
        bounds = step_bounds(spec, scen)
        assert step_inputs(spec, scen, bounds, 1) == step_inputs(spec, scen, bounds, 2)
        grid = scen.time_grid
        assert not mode_available(spec, grid, "o_cp", 1) and mode_available(spec, grid, "o_cp", 2)
        builds = self.counted_builds(monkeypatch)
        solver = StationSolver(spec, scen, WEIGHTS)
        modes = sorted(spec.operation_modes)
        prev = scen.initial_state.operation_mode
        best = [solver.ps_best(t, modes, prev) for t in (1, 2)]
        assert builds == {"Psf": 0, "Ps": 2}
        assert best[0] != best[1]
        for t, value in zip((1, 2), best):
            inst = build_stationary(spec, scen, WEIGHTS, t, prev, modes)
            fresh = solve(inst, default_settings_for("Ps"))
            mode, direction = inst.mode_at(fresh.assignment, t), inst.direction_at(fresh.assignment, t)
            assert value == (fresh.objective, mode, direction)

    @pytest.mark.parametrize("seed, spanning", [(0, 0), (12, 2)])
    def test_memo_hit_equals_a_fresh_solve(self, seed, spanning):
        # every entry holds at each step its key stands for, also across
        # steps whose available modes differ (``spanning`` Psf entries)
        spec, scen = load_instance(seeded_instance(seed))
        spec = build_spec_ranges(spec, count=2000)
        solver = StationSolver(spec, scen, WEIGHTS)
        solver.initial_solution()
        grid, steps = scen.time_grid, range(1, scen.n_future + 1)
        bounds = step_bounds(spec, scen)

        def available(t, candidates):
            return tuple(o for o in candidates if mode_available(spec, grid, o, t))

        def key_at(key, t):
            """The key the solver forms at step t for the model ``key`` names."""
            if key[0] == "Psf":
                return "Psf", key[1], step_inputs(spec, scen, bounds, t)
            return "Ps", key[1], available(t, key[2]), step_inputs(spec, scen, bounds, t)

        def fresh(key, t):
            """A fresh build and solve at step t, decoded as the solver does."""
            if key[0] == "Psf":
                inst = build_stationary_fixed(spec, scen, WEIGHTS, key[1], t)
                res = solve(inst, default_settings_for("Psf"))
                assert res.ok
                return res.objective, inst.direction_at(res.assignment, t)
            inst = build_stationary(spec, scen, WEIGHTS, t, key[1], list(key[2]))
            res = solve(inst, default_settings_for("Ps"))
            assert res.ok
            return res.objective, inst.mode_at(res.assignment, t), inst.direction_at(res.assignment, t)

        spans = 0
        for key, value in solver._values.items():
            at = [t for t in steps if key_at(key, t) == key]
            assert at and all(value == fresh(key, t) for t in at), key
            if key[0] == "Psf":
                spans += len({available(t, spec.operation_modes) for t in at}) > 1
                for t, prev in itertools.product(at, spec.operation_modes):
                    cost = switch_cost(spec, WEIGHTS, prev, key[1])
                    assert solver.psf_value(key[1], t, prev) == (value[0] + cost, value[1])
        assert solver.counters["Psf"] == sum(key[0] == "Psf" for key in solver._values)
        assert spans == spanning

    def test_smoothing_windows_always_solve(self, mini):
        spec, scen = mini
        solver = StationSolver(spec, scen, WEIGHTS)
        seq = solver.initial_solution()
        solver.transient_smoothing(seq, 4)
        solver.transient_smoothing(seq, 4)
        assert solver.counters["Pf"] == 2 * (scen.n_future - 3)


class TestStationaryStatus:
    """A stationary solve that ends neither solved nor infeasible raises,
    naming its variant and step, instead of entering the memo as
    infeasible."""

    @pytest.mark.parametrize("variant", ["Psf", "Ps"])
    def test_time_limit_raises(self, mini, variant):
        real = InProcessBackend()

        class TimeLimited:
            """HiGHS' own answer, relabelled ``timeLimit`` for one variant."""

            def solve_raw(self, model, settings):
                status, x, bound, message = real.solve_raw(model, settings)
                if model.name.split("_", 1)[0] == variant:
                    status = "timeLimit"
                return status, x, bound, message

        solver = StationSolver(*mini, WEIGHTS, backend=TimeLimited())
        with pytest.raises(BackendError, match=f"^{variant} solve at time step 1 ended timeLimit"):
            solver.solve_station(h=4)
        assert solver.counters[variant] == 1
        assert not any(key[0] == variant for key in solver._values)


class TestTimeLimitedWindow:
    def test_clean_time_limited_point_is_the_windows_answer(self, tmp_path):
        spec, scen = loaded(mini_station_pipes())
        real = InProcessBackend()

        class TimeLimited:
            """HiGHS' own answer, relabelled ``timeLimit`` for every ``Pf`` window."""

            def solve_raw(self, model, settings):
                status, x, bound, message = real.solve_raw(model, settings)
                if model.name.split("_", 1)[0] == "Pf":
                    status = "timeLimit"
                return status, x, bound, message

        plan = StationSolver(spec, scen, WEIGHTS, backend=TimeLimited()).solve_station(h=4)
        # six steps at h = 4 make the windows starting at 1, 2 and 3
        assert plan.diagnostics["time_limited_windows"] == [1, 2, 3]
        assert plan.diagnostics["retried_windows"] == []
        assert plan.diagnostics["replay_violations"] == []
        reference = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        assert reference.diagnostics["time_limited_windows"] == []
        assert plan.objective == reference.objective
        assert repr(plan.states) == repr(reference.states)
        json_path, _ = write_plan(tmp_path / "plan", spec, scen, plan)
        with open(json_path, encoding="utf-8") as fh:
            assert json.load(fh)["diagnostics"]["time_limited_windows"] == [1, 2, 3]


class TestExactOracle:
    @pytest.mark.parametrize(
        "doc",
        [mini_station(), mini_station_pipes(), two_unit_station()] + [seeded_instance(s) for s in range(10)],
        ids=["mini_station", "mini_station_pipes", "two_unit_station"] + [f"seeded_{s}" for s in range(10)],
    )
    def test_stages_one_and_two_reach_the_optimum(self, doc):
        solver = StationSolver(*loaded(doc, count=2000), WEIGHTS)
        seq = solver.improvement_heuristic(solver.initial_solution())
        heuristic = solver.sequence_objective(seq.modes)
        best, modes = exact_stationary_sequence(solver)
        assert transitions_work(solver.spec, modes, solver.scen.time_grid)
        assert solver.sequence_objective(modes) == best
        assert best <= heuristic
        assert best == pytest.approx(heuristic, rel=1e-9)

    @pytest.mark.parametrize(
        "outage_step, max_delta_p, stage_one, optimum",
        [
            (2, 9.5, 18500.0, 17800.0),
            (2, 9.75, 16250.0, 14800.0),
            (2, 9.9, 14900.0, 13000.0),
            (3, 9.75, 15500.0, 14800.0),
            (3, 9.9, 14600.0, 13000.0),
        ],
    )
    def test_matches_exhaustive_search_where_stage_one_falls_short(
        self, outage_step, max_delta_p, stage_one, optimum
    ):
        # greedy stage 1 takes o_c1 until U1 dies; only stage 2's merge of
        # the o_c1 phase into o_c2 reaches the optimum
        spec, scen = merge_fixture(outage_step, max_delta_p)
        solver = StationSolver(spec, scen, WEIGHTS)
        best, modes = exact_stationary_sequence(solver)
        exhaustive = min(
            solver.sequence_objective(("o_by",) + combo)
            for combo in itertools.product(sorted(spec.operation_modes), repeat=scen.n_future)
            if transitions_work(spec, ("o_by",) + combo, scen.time_grid)
        )
        assert best == exhaustive
        assert best == pytest.approx(optimum, rel=1e-9)
        initial = solver.initial_solution()
        assert solver.sequence_objective(initial.modes) == pytest.approx(stage_one, rel=1e-9)
        assert solver.sequence_objective(solver.improvement_heuristic(initial).modes) == best


class TestDegenerateData:
    def test_mode_without_direction_partner_is_just_infeasible(self, mini):
        import dataclasses

        spec, scen = mini
        # strip o_by of its only valid direction: its fixed stationary
        # model carries the contradictory row 1 <= sum of no partners
        spec2 = dataclasses.replace(spec, valid_pairs=frozenset({("o_cp", "f_fwd")}))
        solver = StationSolver(spec2, scen, WEIGHTS)
        assert solver.psf_value("o_by", 1, "o_cp") is None
        seq = solver.initial_solution()
        assert seq.modes == ("o_cp",) * 5


def record_windows(solver):
    """Make ``solver`` note every smoothing window model it makes; the list
    of (weights, modes, directions, snapshot, instance) it fills."""
    windows = []
    make = solver._window_model

    def recording(weights, modes, dirs, snapshot):
        key, inst = make(weights, modes, dirs, snapshot)
        windows.append((weights, modes, dirs, snapshot, inst))
        return key, inst

    solver._window_model = recording
    return windows


def record_stationary(solver):
    """Make ``solver`` note every stationary model it makes; the list of
    (template key, step, instance) it fills."""
    models = []
    make = solver._model

    def recording(key, start, build):
        inst = make(key, start, build)
        if key[0] != "Pf":
            models.append((key, start, inst))
        return inst

    solver._model = recording
    return models


def templates(solver, *variants) -> int:
    """How many of ``solver``'s templates are of one of ``variants``."""
    return sum(key[0] in variants for key in solver._templates)


def model_differences(inst, fresh) -> list:
    """The parts in which a model differs from a fresh build of the same
    model: LP text, arrays, solver view, objective and handles."""
    out = []
    m, f = inst.model, fresh.model
    digest = [hashlib.sha256(x.lp_text().encode()).hexdigest() for x in (m, f)]
    if digest[0] != digest[1]:
        out.append("lp_text")
    if (inst.kind, inst.times, m.name) != (fresh.kind, fresh.times, f.name):
        out.append("identity")
    for part in dataclasses.fields(m.arrays()):
        a, b = getattr(m.arrays(), part.name), getattr(f.arrays(), part.name)
        if a.dtype != b.dtype or a.tobytes() != b.tobytes():
            out.append(f"arrays.{part.name}")
    view, ref = m.solver_view(), f.solver_view()
    for part in ("c", "row_lo", "row_hi", "lb", "ub", "integer", "col_unit"):
        a, b = getattr(view, part), getattr(ref, part)
        if a.dtype != b.dtype or a.tobytes() != b.tobytes():
            out.append(f"view.{part}")
    for part in ("indptr", "indices", "data"):
        if getattr(view.A, part).tobytes() != getattr(ref.A, part).tobytes():
            out.append(f"view.A.{part}")
    if (m.objective_terms, repr(m.objective_constant)) != (f.objective_terms, repr(f.objective_constant)):
        out.append("objective")
    if inst.handles != fresh.handles:
        out.append("handles")
    return out


def assert_windows_fresh(spec, scen, windows):
    """Every recorded window equals a fresh build; the number patched."""
    patched = 0
    for weights, modes, dirs, snapshot, inst in windows:
        fresh = build_fixed_transient(spec, scen, weights, modes, dirs, snapshot)
        assert model_differences(inst, fresh) == [], (snapshot.time_index, weights)
        patched += inst.sites is None
    return patched


def assert_stationary_fresh(spec, scen, weights, models):
    """Every recorded stationary model equals a fresh build; the number patched."""
    patched = 0
    for key, t, inst in models:
        if key[0] == "Psf":
            fresh = build_stationary_fixed(spec, scen, weights, key[1], t)
        else:
            fresh = build_stationary(spec, scen, weights, t, key[1], list(key[2]))
        assert model_differences(inst, fresh) == [], (key[:-1], t)
        patched += inst.sites is None
    return patched


def with_demand(spec, scen, demand: str, t: int, value: float):
    """``scen`` with its ``demand`` (``pressure`` at B2, ``flow`` of the
    first fence group) set to ``value`` at step t."""
    kind, key = ("pressure_demand", "B2") if demand == "pressure" else ("flow_demand", next(iter(spec.fence_groups)))
    series = getattr(scen, kind)[key].copy()
    series[t - 1] = value
    return dataclasses.replace(scen, **{kind: {**getattr(scen, kind), key: series}})


DOCUMENTS = pytest.mark.parametrize(
    "doc, steps",
    [(mini_station, None), (mini_station_pipes, None), (mini_station_pipes, "96"), (medium_station, "24")]
    + [(functools.partial(seeded_instance, s), None) for s in range(10)],
    ids=["mini_station", "mini_station_pipes", "mini_station_pipes@96", "medium_station@24"]
    + [f"seeded_instance({s})" for s in range(10)],
)


def document(doc, steps, count=2000):
    """(spec, scenario) of a document, re-gridded when asked."""
    spec, scen = load_instance(doc())
    if steps is not None:
        spec, scen = regrid_instance(spec, scen, template_grid(steps))
    return build_spec_ranges(spec, count=count), scen


class TestWindowTemplates:
    """Smoothing windows of one pattern are patched from one build, and
    each equals a fresh build of its own window."""

    @DOCUMENTS
    def test_every_window_equals_a_fresh_build(self, doc, steps):
        spec, scen = document(doc, steps)
        solver = StationSolver(spec, scen, WEIGHTS)
        windows = record_windows(solver)
        plan = solver.solve_station(h=4)
        diagnostics = plan.diagnostics
        assert len(windows) == diagnostics["smoothing_solves"] + len(diagnostics["retried_windows"])
        patched = assert_windows_fresh(spec, scen, windows)
        assert patched == len(windows) - templates(solver, "Pf")
        if steps == "96":
            # one pattern: every window after the first is patched
            assert (len(windows), templates(solver, "Pf")) == (93, 1)

    def test_retried_windows_equal_fresh_builds(self):
        # a backend that fails the first solve of every window sends each
        # one through the retry with scaled weights, whose template serves
        # the later retries
        spec, scen = load_instance(mini_station_pipes())
        spec, scen = regrid_instance(spec, scen, template_grid("24"))
        spec = build_spec_ranges(spec, count=2000)
        real = InProcessBackend()
        calls = {"n": 0}

        class FlakyBackend:
            def solve_raw(self, model, settings):
                calls["n"] += 1
                if calls["n"] % 2:
                    return "infeasible", None, None, "spurious"
                return real.solve_raw(model, settings)

        solver = StationSolver(spec, scen, WEIGHTS)
        seq = solver.improvement_heuristic(solver.initial_solution())
        solver.backend = FlakyBackend()
        windows = record_windows(solver)
        plan = solver.transient_smoothing(seq, 4)
        assert plan.diagnostics["retried_windows"] == list(range(1, 22))
        assert {w for w, *_ in windows} == {WEIGHTS, WEIGHTS.scaled(10.0)}
        patched = assert_windows_fresh(spec, scen, windows)
        assert patched == len(windows) - templates(solver, "Pf") and patched > 0

    @pytest.mark.parametrize("differ", [None, "bound", "start mode"])
    def test_windows_of_two_patterns_get_two_templates(self, differ):
        # the windows after steps 0 and 2 of medium_station, from one start
        # state: one pattern, or two that differ in one bound at step 4 or
        # in the start mode
        doc = medium_station()
        if differ == "bound":
            b2 = next(node for node in doc["nodes"] if node["id"] == "B2")
            b2["pressureUB"] = [75.0, 75.0, 75.0, 75.0, 74.0, 75.0, 75.0]
        spec, scen = loaded(doc, count=2000)
        first = scen.initial_state
        later = dataclasses.replace(first, time_index=2)
        if differ == "start mode":
            later = dataclasses.replace(later, operation_mode="o_c2")
        solver = StationSolver(spec, scen, WEIGHTS)
        windows = record_windows(solver)
        for snapshot in (first, later):
            solver._window_model(WEIGHTS, ("o_c1", "o_c12"), ("f_we", "f_wes"), snapshot)
        patched = assert_windows_fresh(spec, scen, windows)
        assert (len(solver._templates), patched) == ((1, 1) if differ is None else (2, 0))

    MODES, DIRS = ("o_cp", "o_cp"), ("f_fwd", "f_fwd")

    def template_and_error(self, spec, scen, t0):
        """(instantiation error, fresh build error) of the two-step window
        after step ``t0``, patched from the window after the initial state."""
        template = build_fixed_transient(spec, scen, WEIGHTS, self.MODES, self.DIRS, scen.initial_state)
        assert template.sites is not None
        later = self.later(scen, t0)
        with pytest.raises(ValueError) as patched:
            instantiate(template, later)
        with pytest.raises(ValueError) as fresh:
            build_fixed_transient(template.spec, scen, WEIGHTS, self.MODES, self.DIRS, later)
        return patched.value, fresh.value

    @staticmethod
    def later(scen, t0):
        return dataclasses.replace(scen.initial_state, time_index=t0)

    def test_unavailable_mode_raises_as_the_build(self):
        step = 3 * 3600.0
        spec, scen = loaded(mini_station(steps=6, unavailability={"U1": [[4 * step + 1.0, 1e9]]}), count=2000)
        patched, fresh = self.template_and_error(spec, scen, 3)
        assert (type(patched), str(patched)) == (type(fresh), str(fresh))
        assert "unavailable at time step 4" in str(fresh)

    def test_window_past_the_grid_raises_as_the_build(self, mini):
        spec, scen = mini
        patched, fresh = self.template_and_error(spec, scen, 3)
        assert (type(patched), str(patched)) == (type(fresh), str(fresh))

    def test_invalid_pair_raises_as_the_build(self, mini):
        # a hit cannot carry an invalid pair, but the instantiation checks
        # its window with the build's own rules
        spec, scen = mini
        template = build_fixed_transient(spec, scen, WEIGHTS, self.MODES, self.DIRS, scen.initial_state)
        template.spec = dataclasses.replace(spec, valid_pairs=frozenset({("o_by", "f_fwd")}))
        with pytest.raises(ValueError) as patched:
            instantiate(template, self.later(scen, 2))
        with pytest.raises(ValueError) as fresh:
            build_fixed_transient(template.spec, scen, WEIGHTS, self.MODES, self.DIRS, self.later(scen, 2))
        assert str(patched.value) == str(fresh.value) == "('o_cp', 'f_fwd') is not a valid mode/direction pair"

    @pytest.mark.parametrize("demand", ["pressure", "flow"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_cap_raises_as_the_build(self, mini, demand, value):
        spec, scen = mini
        scen = with_demand(spec, scen, demand, 4, value)
        patched, fresh = self.template_and_error(spec, scen, 2)
        assert (type(patched), str(patched)) == (type(fresh), str(fresh))
        assert "needs finite bounds" in str(fresh) and ",4)'" in str(fresh)


class TestStationaryTemplates:
    """Stationary models of one pattern are patched from one build, and
    each equals a fresh build of its own step."""

    @DOCUMENTS
    def test_every_model_equals_a_fresh_build(self, doc, steps):
        spec, scen = document(doc, steps)
        solver = StationSolver(spec, scen, WEIGHTS)
        models = record_stationary(solver)
        plan = solver.solve_station(h=4)
        counts = plan.diagnostics["solve_counts"]
        assert len(models) == counts["Psf"] + counts["Ps"]
        patched = assert_stationary_fresh(spec, scen, WEIGHTS, models)
        assert patched == len(models) - templates(solver, "Psf", "Ps")
        if steps == "96":
            # one step pattern: every Psf model after the first is patched
            assert (counts["Psf"], templates(solver, "Psf")) == (51, 1)

    @pytest.mark.parametrize("differ", [None, "bound", "step length"])
    def test_steps_of_two_patterns_get_two_templates(self, differ):
        # steps 1 and 2 of mini_station with different demands, so that the
        # memo answers neither: one pattern, or two that differ in one bound
        # at step 2 or in the steps' lengths
        doc = mini_station()
        doc["scenario"]["pressureDemand"]["B2"][1] += 1.0
        if differ == "bound":
            doc["nodes"][1]["pressureUB"] = [70.0, 70.0, 69.0, 70.0, 70.0]
        elif differ == "step length":
            doc["scenario"]["timeGrid"][1] -= 3600.0
        spec, scen = loaded(doc, count=2000)
        solver = StationSolver(spec, scen, WEIGHTS)
        models = record_stationary(solver)
        for t in (1, 2):
            solver.psf_value("o_cp", t, "o_cp")
            solver.ps_best(t, sorted(spec.operation_modes), "o_by")
        patched = assert_stationary_fresh(spec, scen, WEIGHTS, models)
        assert (len(models), len(solver._templates), patched) == ((4, 2, 2) if differ is None else (4, 4, 0))

    @pytest.mark.parametrize("variant", ["Psf", "Ps"])
    @pytest.mark.parametrize("demand", ["pressure", "flow"])
    @pytest.mark.parametrize("value", [math.inf, math.nan])
    def test_non_finite_cap_raises_as_the_build(self, mini, variant, demand, value):
        spec, scen = mini
        scen = with_demand(spec, scen, demand, 2, value)

        def build(t):
            if variant == "Psf":
                return build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", t)
            return build_stationary(spec, scen, WEIGHTS, t, "o_by")

        template = build(1)
        with pytest.raises(ValueError) as patched:
            instantiate(template, 2)
        with pytest.raises(ValueError) as fresh:
            build(2)
        assert (type(patched.value), str(patched.value)) == (type(fresh.value), str(fresh.value))
        assert "needs finite bounds" in str(fresh.value) and ",2)'" in str(fresh.value)


# the model parts that differ between two windows of one model at different steps
RE_DATED = {"lp_text", "identity", "handles"}


class TestWindowMemo:
    """A smoothing window whose model repeats one solved earlier in the
    same pass takes that result without a solve; 9 of the 93 windows of
    ``mini_station_pipes@96`` do."""

    @pytest.fixture(scope="class")
    def run(self):
        spec, scen = document(mini_station_pipes, "96")
        solver = StationSolver(spec, scen, WEIGHTS)
        seq = solver.improvement_heuristic(solver.initial_solution())
        windows = record_windows(solver)
        solved = []
        solve_one = solver._solve

        def recording(inst):
            solved.append(inst)
            return solve_one(inst)

        solver._solve = recording
        plan = solver.transient_smoothing(seq, 4)
        return solver, seq, plan, tuple(inst for *_, inst in windows), tuple(solved)

    def test_repeated_windows_take_the_solved_result(self, run):
        solver, _, plan, windows, solved = run
        diagnostics = plan.diagnostics
        assert (diagnostics["smoothing_solves"], diagnostics["retried_windows"]) == (93, [])
        assert len(diagnostics["window_wall_times"]) == 93
        assert solver.counters["Pf"] == len(solved) == 84
        solved_ids = {id(inst) for inst in solved}
        repeats = [inst for inst in windows if id(inst) not in solved_ids]
        assert len(repeats) == 9
        for inst in repeats:
            a = inst.model.arrays()
            same = [
                s for s in solved
                if s.times[0] < inst.times[0]
                and s.model.arrays().ub.tobytes() == a.ub.tobytes()
                and s.model.arrays().rhs.tobytes() == a.rhs.tobytes()
            ]
            assert same and set(model_differences(inst, same[0])) <= RE_DATED, inst.times

    def test_a_start_pressure_one_ulp_away_is_solved(self, run):
        solver, seq, plan, *_ = run
        modes, dirs = seq.modes[1:5], seq.directions[1:5]
        start = plan.states[0]
        node = next(iter(solver.spec.stations.values())).from_node
        moved = dataclasses.replace(
            start, pressures={**start.pressures, node: float(np.nextafter(start.pressures[node], np.inf))}
        )
        solved: dict = {}
        before = solver.counters["Pf"]
        results = [solver._window_result(WEIGHTS, modes, dirs, s, solved)[1] for s in (start, start, moved)]
        assert solver.counters["Pf"] - before == 2 and len(solved) == 2
        assert results[1] is results[0] and results[2] is not results[0]

    def test_a_second_pass_solves_its_windows_again(self, run):
        solver, seq, plan, *_ = run
        before = solver.counters["Pf"]
        again = solver.transient_smoothing(seq, 4)
        assert solver.counters["Pf"] - before == 84
        assert again.states == plan.states


@pytest.mark.slow
def test_seeded_sweep_plans_and_bounds(capsys):
    """seeded_instance(0..299) at the command line's ranges and weights:
    every plan replays clean, every window equals a fresh build, and every
    lower bound lies at or below its plan objective.  Prints the largest
    gap and how many bounds found nothing under the plan's cutoff and were
    solved again without it."""
    gaps = {}
    resolved = 0
    for seed in range(300):
        doc = seeded_instance(seed)
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec)
        solver = StationSolver(spec, scen, load_weights(doc))
        windows = record_windows(solver)
        plan = solver.solve_station(h=4)
        assert plan.diagnostics["replay_violations"] == [], seed
        assert_windows_fresh(spec, scen, windows)
        # raises for an error status or a bound above the plan
        _, gaps[seed], res = solver.lower_bound(plan, TEN_HOURS)
        assert res.status in ("optimal", "feasible", "timeLimit"), (seed, res.message)
        resolved += res.message.startswith("nothing at or below the cutoff")
    worst = max(gaps, key=gaps.get)
    with capsys.disabled():
        print(
            f"\nseeded_instance(0..299): largest gap {gaps[worst]:.2%} at seed {worst}; "
            f"{resolved} cutoff re-solves"
        )
