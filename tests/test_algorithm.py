import itertools
import math

import numpy as np
import pytest

from stationopt.algorithm import (
    InitialSolutionAbort,
    ModeSequence,
    SmoothingError,
    StationSolver,
    all_modes_available,
    complete_plan_assignment,
    compute_gap,
    convex_combination,
    convex_combination_cs,
    not_soon_infeasible,
    sequence_valid,
    transitions_work,
)
from stationopt.fixtures import medium_station, mini_station, mini_station_pipes, seeded_instance, two_unit_station
from stationopt.io import load_instance, regrid_instance, template_grid
from stationopt.model import ObjectiveWeights, build_full
from stationopt.ranges import build_spec_ranges
from stationopt.solve import check_assignment, default_settings_for, solve

from oracles import brute_transition_check

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

            from stationopt.network import mode_available

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

    def test_directions_recorded_from_deciding_solve(self, mini):
        spec, scen = mini
        solver = StationSolver(spec, scen, WEIGHTS)
        seq = solver.initial_solution()
        assert seq.directions[0] is None
        assert all(d == "f_fwd" for d in seq.directions[1:])
        assert sequence_valid(spec, seq)


class TestImprovementHeuristic:
    def merge_fixture(self):
        """Initial o_by; o_c1 is best but its unit dies at step 3; o_c2 is
        slightly worse per step (undersized pressure cap) but survives."""
        doc = two_unit_station()
        doc["scenario"]["initialState"]["operationMode"] = "o_by"
        doc["scenario"]["initialState"]["arcFlows"] = {"CS1": 0.0, "V1": 700.0}
        doc["units"][1]["maxDeltaP"] = 9.75  # demanded lift is 10 bar
        step = 3 * HOUR
        doc["unavailability"] = {"U1": [[3 * step + 60.0, 1e9]]}
        doc["scenario"]["flowDemand"]["g_out"] = [-(700.0 - 8.0)] * 4
        return loaded(doc)

    def test_phase_merge_reduces_changes(self):
        spec, scen = self.merge_fixture()
        solver = StationSolver(spec, scen, WEIGHTS)
        initial = solver.initial_solution()
        # greedy picks the per-step best o_c1, then is forced off it
        assert initial.modes == ("o_by", "o_c1", "o_c1", "o_c2", "o_c2")
        improved = solver.improvement_heuristic(initial)
        assert improved.modes == ("o_by", "o_c2", "o_c2", "o_c2", "o_c2")
        assert solver.sequence_objective(improved.modes) < solver.sequence_objective(initial.modes)

    def test_matches_exhaustive_search_on_merge_fixture(self):
        spec, scen = self.merge_fixture()
        solver = StationSolver(spec, scen, WEIGHTS)
        improved = solver.improvement_heuristic(solver.initial_solution())
        got = solver.sequence_objective(improved.modes)
        best = math.inf
        mode_ids = sorted(spec.operation_modes)
        for combo in itertools.product(mode_ids, repeat=scen.n_future):
            modes = ("o_by",) + combo
            if not all_modes_available(spec, scen.time_grid, modes):
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
        spec, scen = self.merge_fixture()
        solver = StationSolver(spec, scen, WEIGHTS)
        initial = solver.initial_solution()
        improved = solver.improvement_heuristic(initial)
        assert solver.sequence_objective(improved.modes) <= solver.sequence_objective(initial.modes)
        assert all_modes_available(spec, scen.time_grid, improved.modes)
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
        # the CLI clamps bounds to 0 before calling compute_gap
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


class TestDegenerateData:
    def test_mode_without_direction_partner_is_just_infeasible(self, mini):
        import dataclasses

        spec, scen = mini
        # strip o_by of its only valid direction: its fixed stationary
        # model carries the contradictory row 1 <= sum of no partners
        spec2 = dataclasses.replace(spec, valid_pairs=frozenset({("o_cp", "f_fwd")}))
        solver = StationSolver(spec2, scen, WEIGHTS)
        feasible, cost, direction = solver.psf_value("o_by", 1, "o_cp")
        assert not feasible and cost == math.inf and direction is None
        seq = solver.initial_solution()
        assert seq.modes == ("o_cp",) * 5
