import dataclasses
import functools
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy
import scipy.optimize._milp as scipy_milp
from scipy.optimize._highspy._core import HighsOptions
from scipy.optimize._highspy._highs_options import HighsOptionsManager

import stationopt
from stationopt.algorithm import StationSolver
from stationopt.fixtures import medium_station, mini_station, mini_station_pipes, seeded_instance
from stationopt.io import load_instance, load_weights, regrid_instance, template_grid
from stationopt.linmodel import BuildInfeasibleError, LinearModel
from stationopt.model import (
    ObjectiveWeights,
    build_full,
    build_stationary,
    build_stationary_fixed,
    switch_cost,
)
from stationopt.ranges import build_spec_ranges
from stationopt.units import PA_PER_BAR
from stationopt.solve import (
    CHECK_TOL,
    InProcessBackend,
    SolveSettings,
    check_assignment,
    default_settings_for,
    solve,
)

from oracles import reference_handoff

WEIGHTS = ObjectiveWeights()


def one_var_model() -> LinearModel:
    m = LinearModel("tiny")
    x = m.add_var("x", 0.0, 10.0)
    m.add_row("floor", [(1.0, x)], ">=", 3.0)
    m.add_objective("cost", x, 1.0)
    return m


class TestBasics:
    def test_minimize_single_variable(self):
        m = one_var_model()
        res = solve(m, default_settings_for("Psf"))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)
        assert res.bound == pytest.approx(3.0)
        assert dict(zip(m.var_names, res.assignment))["x"] == pytest.approx(3.0)

    def test_infeasible_pair(self):
        m = LinearModel("bad")
        x = m.add_var("x", -5.0, 5.0)
        m.add_row("low", [(1.0, x)], "<=", 0.0)
        m.add_row("high", [(1.0, x)], ">=", 1.0)
        res = solve(m, default_settings_for("Psf"))
        assert res.status == "infeasible"
        assert res.assignment is None

    def test_integer_variable(self):
        m = LinearModel("int")
        x = m.add_var("x", 0.0, 5.0, integer=True)
        m.add_row("floor", [(1.0, x)], ">=", 1.5)
        m.add_objective("cost", x, 1.0)
        res = solve(m, default_settings_for("Psf"))
        assert res.objective == pytest.approx(2.0)

    def test_objective_constant_included(self):
        m = one_var_model()
        m.add_objective("fixed", 1.0, 42.0)
        res = solve(m, default_settings_for("Psf"))
        assert res.objective == pytest.approx(45.0)
        assert res.bound == pytest.approx(45.0)

    def test_deterministic_repeat(self):
        spec, scen = load_instance(mini_station())
        spec = build_spec_ranges(spec, count=2000)
        inst = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        r1 = solve(inst, default_settings_for("Ps"))
        r2 = solve(inst, default_settings_for("Ps"))
        assert r1.status == r2.status
        assert r1.objective == r2.objective
        assert np.array_equal(r1.assignment, r2.assignment)

    def test_gap_contract_on_optimal(self):
        settings = default_settings_for("Ps")
        res = solve(one_var_model(), settings)
        assert res.objective - res.bound <= max(
            settings.absolute_gap, settings.relative_gap * abs(res.objective)
        ) + 1e-9


class TestHighsOptions:
    def test_every_setting_reaches_highs_without_a_warning(self, monkeypatch):
        seen = []
        honest = scipy_milp._highs_wrapper

        def spy(*args):
            seen.append(dict(args[-1]))
            return honest(*args)

        monkeypatch.setattr(scipy_milp, "_highs_wrapper", spy)
        m = LinearModel("int")
        x = m.add_var("x", 0.0, 5.0, integer=True)
        m.add_row("floor", [(1.0, x)], ">=", 1.5)
        m.add_objective("cost", x, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = solve(m, SolveSettings(2e-4, 3e-2, 17.0))
        assert res.status == "optimal"
        assert len(seen) == 1
        options = seen[0]
        assert options["mip_rel_gap"] == 2e-4
        assert options["mip_abs_gap"] == 3e-2
        assert options["time_limit"] == 17.0
        assert options["mip_heuristic_run_feasibility_jump"] is False
        manager = HighsOptionsManager()
        for key in ("mip_rel_gap", "mip_abs_gap", "time_limit", "mip_heuristic_run_feasibility_jump"):
            assert manager.get_option_type(key) != -1, key

    @pytest.mark.parametrize("variant, count", [("Psf", 4), ("Ps", 4), ("Pf", 5), ("P", 4)])
    def test_only_options_off_highs_defaults_are_passed(self, variant, count, monkeypatch):
        # HiGHS' default presolve "choose" runs presolve, and the stationary
        # relative gap is HiGHS' own 1e-4; the fixed windows' 5e-3 is not
        seen = []
        honest = scipy_milp._highs_wrapper

        def spy(*args):
            seen.append(dict(args[-1]))
            return honest(*args)

        monkeypatch.setattr(scipy_milp, "_highs_wrapper", spy)
        m = LinearModel("int")
        x = m.add_var("x", 0.0, 5.0, integer=True)
        m.add_row("floor", [(1.0, x)], ">=", 1.5)
        m.add_objective("cost", x, 1.0)
        assert solve(m, default_settings_for(variant)).status == "optimal"
        expected = {"log_to_console", "time_limit", "mip_abs_gap", "mip_heuristic_run_feasibility_jump"}
        if variant == "Pf":
            expected.add("mip_rel_gap")
        assert len(seen) == 1 and len(seen[0]) == count
        assert set(seen[0]) == expected


    def test_a_changed_wrapper_signature_fails_the_import(self):
        code = (
            "import scipy.optimize._milp as m\n"
            "m._highs_wrapper = lambda c, indptr, indices, data, lhs, rhs, lb, ub, options: None\n"
            "import stationopt.solve\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(stationopt.__file__).parents[1])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode != 0
        assert "ImportError" in out.stderr and f"scipy {scipy.__version__}" in out.stderr


class Handed(Exception):
    """Raised by a spy in place of the HiGHS run it would start."""


def record_handoffs(monkeypatch, tamper=None):
    """A backend and the list of its solves: per ``solve_raw`` call the
    model, the settings and each ``_highs_wrapper`` call as (arguments,
    result).  With ``state["stop"]`` set, the spy records a call and
    raises :class:`Handed` instead of running HiGHS.  ``tamper`` may edit
    each result."""
    solves, state = [], {"stop": False}
    honest = scipy_milp._highs_wrapper

    def spy(*args):
        calls = solves[-1][2]
        if state["stop"]:
            calls.append((args, None))
            raise Handed
        res = honest(*args)
        if tamper is not None:
            tamper(args, res)
        calls.append((args, res))
        return res

    monkeypatch.setattr(scipy_milp, "_highs_wrapper", spy)
    real = InProcessBackend()

    class Recording:
        def solve_raw(self, model, settings):
            solves.append((model, settings, []))
            return real.solve_raw(model, settings)

    return Recording(), solves, state


def handoff_differences(solves) -> list:
    """Where a wrapper call got other arrays than ``scipy.optimize.milp``
    derived from the same solve (:func:`oracles.reference_handoff`), or
    other options than milp's less ``presolve``, the entries the wrapper
    skips (None) and the entries equal to HiGHS' defaults."""
    names = ("c", "indptr", "indices", "data", "lhs", "rhs", "lb", "ub", "integrality")
    defaults = HighsOptions()
    out = []
    for model, settings, calls in solves:
        view = model.solver_view()
        fixed = None
        assert 1 <= len(calls) <= 2, model.name
        for args, res in calls:
            *arrays, options = reference_handoff(view, settings, fixed)
            for name, got, want in zip(names, args, arrays):
                if got.dtype != want.dtype or not np.array_equal(got, want):
                    out.append((model.name, name))
            kept = {
                k: v
                for k, v in options.items()
                if k != "presolve" and v is not None and v != getattr(defaults, k)
            }
            if args[-1] != kept:
                out.append((model.name, "options"))
            if res is not None and res.get("x") is not None:
                # a second call re-solves the continuous part at the rounded integers
                fixed = np.round(res["x"][view.integer.astype(bool)])
    return out


class TestHandoffOracle:
    """Every ``_highs_wrapper`` call gets the arrays ``scipy.optimize.milp``
    derived from the same solve, dtypes included."""

    @pytest.mark.parametrize(
        "doc, steps",
        [(mini_station, None), (mini_station_pipes, "24"), (medium_station, "24")]
        + [(functools.partial(seeded_instance, s), None) for s in range(10)],
        ids=["mini_station", "mini_station_pipes@24", "medium_station@24"]
        + [f"seeded_instance({s})" for s in range(10)],
    )
    def test_plan_and_bound_hand_off_as_milp_did(self, doc, steps, monkeypatch):
        doc = doc()
        spec, scen = load_instance(doc)
        if steps is not None:
            spec, scen = regrid_instance(spec, scen, template_grid(steps))
        backend, solves, state = record_handoffs(monkeypatch)
        solver = StationSolver(build_spec_ranges(spec, count=2000), scen, load_weights(doc), backend=backend)
        plan = solver.solve_station(h=4)
        state["stop"] = True  # the bound's hand-off, without its search
        with pytest.raises(Handed):
            solver.lower_bound(plan, 600.0)
        variants = {model.name.split("_", 1)[0] for model, _, _ in solves}
        assert {"Psf", "Pf", "P"} <= variants
        # only the bound starts from a plan, so only it carries a cutoff
        [(full, settings, _)] = [s for s in solves if s[0].name.startswith("P_")]
        assert settings.cutoff == cutoff_of(full, plan.objective)
        assert all(s.cutoff == math.inf for m, s, _ in solves if m is not full)
        assert handoff_differences(solves) == []

    def test_model_without_rows(self, monkeypatch):
        m = LinearModel("free")
        x = m.add_var("x", 1.0, 4.0)
        b = m.add_var("b", 0.0, 1.0, integer=True)
        m.add_objective("cost", x, 1.0)
        m.add_objective("cost", b, -1.0)
        backend, solves, _ = record_handoffs(monkeypatch)
        res = solve(m, default_settings_for("Ps"), backend=backend)
        assert res.status == "optimal" and list(res.assignment) == [1.0, 1.0]
        assert handoff_differences(solves) == []

    def test_lp_without_integer_columns(self, monkeypatch):
        backend, solves, _ = record_handoffs(monkeypatch)
        assert solve(one_var_model(), default_settings_for("Pf"), backend=backend).status == "optimal"
        assert handoff_differences(solves) == []

    @pytest.mark.parametrize("initial", [None, [40e5, 0.0, 0.0]], ids=["without initial", "with initial"])
    def test_rounded_integer_resolve(self, initial, monkeypatch):
        # HiGHS' dual simplex ends an LP at objective_bound without a point,
        # so the cutoff goes to the MIP call only
        m, *_ = pressure_model()

        def off_integral(args, res):
            if args[8].any():
                res["x"][2] += 1e-9

        backend, solves, _ = record_handoffs(monkeypatch, off_integral)
        initial = None if initial is None else np.array(initial)
        assert solve(m, default_settings_for("Psf"), initial=initial, backend=backend).status == "optimal"
        [(_, _, [(mip, _), (lp, _)])] = solves
        assert ("objective_bound" in mip[-1], "objective_bound" in lp[-1]) == (initial is not None, False)
        assert handoff_differences(solves) == []


class TestPresolveDifferential:
    @pytest.mark.parametrize("seed", range(40))
    def test_full_model_agrees_without_presolve(self, seed, monkeypatch):
        # presolve may reduce the model but not move its optimum: both runs
        # land within the published gap of each other, and neither bound
        # lies above the other run's objective
        doc = seeded_instance(seed)
        spec, scen = load_instance(doc)
        inst = build_full(build_spec_ranges(spec, 2_000), scen, load_weights(doc))
        settings = default_settings_for("P")
        on = solve(inst, settings)
        honest = scipy_milp._highs_wrapper
        calls = []

        def without_presolve(*args):
            # the wrapper takes presolve as a bool and hands HiGHS "off" for False
            calls.append(args[-1].get("presolve"))
            return honest(*args[:-1], {**args[-1], "presolve": False})

        monkeypatch.setattr(scipy_milp, "_highs_wrapper", without_presolve)
        off = solve(inst, settings)
        # the backend never turned presolve off; only the spy did
        assert calls and not any(p is False or p == "off" for p in calls)
        assert (on.status, off.status) == ("optimal", "optimal")
        gap = max(settings.absolute_gap, settings.relative_gap * max(abs(on.objective), abs(off.objective)))
        assert abs(on.objective - off.objective) <= gap
        assert on.bound <= off.objective + gap
        assert off.bound <= on.objective + gap


class TestStationaryOracle:
    def test_best_mode_matches_pair_enumeration(self):
        doc = mini_station()
        doc["flowDirections"].append(
            {"id": "f_rev", "inflowNodes": ["B2"], "outflowNodes": ["B1"]}
        )
        doc["validPairs"] = [["o_by", "f_fwd"], ["o_by", "f_rev"], ["o_cp", "f_fwd"]]
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=2000)

        inst = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        res = solve(inst, default_settings_for("Ps"))
        assert res.ok

        best = None
        for mode, direction in sorted(spec.valid_pairs):
            fixed = build_stationary_fixed(spec, scen, WEIGHTS, mode, 1)
            fd = fixed.handles["fd", direction, 1]
            fixed.model.add_row("pin_direction", [(1.0, fd)], "==", 1.0)
            r = solve(fixed, default_settings_for("Psf"))
            value = r.objective + switch_cost(spec, WEIGHTS, "o_cp", mode)
            if r.ok and (best is None or value < best[0]):
                best = (value, mode, direction)
        assert best is not None
        assert res.objective == pytest.approx(best[0], rel=1e-6)
        assert inst.mode_at(res.assignment, 1) == best[1]
        assert inst.direction_at(res.assignment, 1) == best[2]


class TestDefaultSettings:
    def test_stationary_rows(self):
        for variant in ("Ps", "Psf"):
            s = default_settings_for(variant)
            assert (s.relative_gap, s.absolute_gap, s.time_limit) == (1e-4, 1e-2, 36000.0)

    def test_fixed_transient_row(self):
        s = default_settings_for("Pf")
        assert (s.relative_gap, s.absolute_gap, s.time_limit) == (5e-3, 1e-2, 60.0)

    def test_full_model_row(self):
        s = default_settings_for("P")
        assert (s.relative_gap, s.absolute_gap, s.time_limit) == (1e-4, 1e-2, 36000.0)
        s600 = default_settings_for("P", 600.0)
        assert s600.time_limit == 600.0

    @pytest.mark.parametrize("variant", ["Ps", "Psf", "Pf"])
    def test_fixed_limits_refuse_a_time_limit(self, variant):
        with pytest.raises(ValueError, match=f"model variant '{variant}' has a fixed time limit"):
            default_settings_for(variant, 5.0)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            default_settings_for("Px")

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolveSettings(-1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            SolveSettings(0.0, 0.0, 0.0)

    @pytest.mark.parametrize(
        "args", [(np.nan, 1e-2, 10.0), (1e-4, np.nan, 10.0), (1e-4, 1e-2, np.nan), (1e-4, 1e-2, 10.0, np.nan)]
    )
    def test_nan_settings_rejected(self, args):
        with pytest.raises(ValueError):
            SolveSettings(*args)


class TestChecker:
    def test_clean_solution_passes(self):
        m = one_var_model()
        res = solve(m, default_settings_for("Psf"))
        assert check_assignment(m, res.assignment) == []

    def test_violated_row_reported(self):
        m = one_var_model()
        bad = np.array([1.0])
        violations = check_assignment(m, bad)
        assert len(violations) == 1
        assert violations[0].name == "floor"
        assert violations[0].amount == pytest.approx(2.0)

    def test_bound_and_integrality_violations(self):
        m = LinearModel("int")
        m.add_var("x", 0.0, 5.0, integer=True)
        assert any("bounds" in v.name for v in check_assignment(m, np.array([7.0])))
        assert any("integrality" in v.name for v in check_assignment(m, np.array([2.5])))

    @pytest.fixture(scope="class")
    def psf(self):
        """mini_station's fixed stationary model at step 1 and its optimum."""
        spec, scen = load_instance(mini_station())
        spec = build_spec_ranges(spec, count=2000)
        inst = build_stationary_fixed(spec, scen, WEIGHTS, scen.initial_state.operation_mode, 1)
        res = solve(inst, default_settings_for("Psf"))
        assert res.status == "optimal" and check_assignment(inst.model, res.assignment) == []
        return inst.model, res.assignment

    def test_nan_assignment_rejected(self, psf):
        model, _ = psf
        violations = check_assignment(model, np.full(model.n_vars, np.nan))
        bounds = [v.name for v in violations if v.name.startswith("bounds(")]
        assert bounds == [f"bounds({name})" for name in model.var_names]
        assert all(v.amount == math.inf for v in violations)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_one_non_finite_entry_rejected(self, psf, value):
        model, x = psf
        for idx, name in enumerate(model.var_names):
            y = x.copy()
            y[idx] = value
            violations = check_assignment(model, y)
            assert violations[0].name == f"bounds({name})", (name, violations)
            assert violations[0].amount == math.inf

    def test_optimal_nan_assignment_is_an_error(self, psf):
        model, _ = psf
        nan = StubBackend("optimal", np.full(model.n_vars, np.nan), None)
        res = solve(model, default_settings_for("Psf"), backend=nan)
        assert res.status == "error" and res.assignment is None
        assert "failed the row checker, worst: bounds(" in res.message

    def test_lying_backend_downgraded_to_error(self):
        class LyingBackend:
            def solve_raw(self, model, settings):
                return "optimal", np.array([0.0]), 0.0, ""

        res = solve(one_var_model(), default_settings_for("Psf"), backend=LyingBackend())
        assert res.status == "error"
        assert "floor" in res.message

    def test_initial_assignment_rescues_failed_backend(self):
        class FailingBackend:
            def solve_raw(self, model, settings):
                return "timeLimit", None, None, "gave up"

        res = solve(
            one_var_model(),
            default_settings_for("Psf"),
            initial=np.array([4.0]),
            backend=FailingBackend(),
        )
        assert res.status == "feasible"
        assert res.objective == pytest.approx(4.0)

    def test_infeasible_initial_not_used(self):
        class FailingBackend:
            def solve_raw(self, model, settings):
                return "timeLimit", None, None, ""

        res = solve(
            one_var_model(),
            default_settings_for("Psf"),
            initial=np.array([1.0]),  # violates the floor row
            backend=FailingBackend(),
        )
        assert res.status == "timeLimit"
        assert res.assignment is None


class StubBackend:
    """Returns a fixed raw result, whatever the model."""

    def __init__(self, status, x, bound):
        self.raw = (status, None if x is None else np.array(x), bound, "")

    def solve_raw(self, model, settings):
        return self.raw


def cutoff_of(model: LinearModel, objective: float) -> float:
    """The cutoff a solve from an assignment of this objective hands HiGHS."""
    return objective - model.objective_constant + CHECK_TOL * max(1.0, abs(objective))


def int_model() -> LinearModel:
    """min x + 42 over integer x >= 1.5 in [0, 5]: optimum 44 at x = 2."""
    m = LinearModel("int")
    x = m.add_var("x", 0.0, 5.0, integer=True)
    m.add_row("floor", [(1.0, x)], ">=", 1.5)
    m.add_objective("cost", x, 1.0)
    m.add_objective("fixed", 1.0, 42.0)
    return m


class SettingsLog:
    """Answers each ``solve_raw`` with the next of ``answers`` and logs
    the settings it got."""

    def __init__(self, *answers):
        self.answers = list(answers)
        self.settings = []

    def solve_raw(self, model, settings):
        self.settings.append(settings)
        status, x, bound = self.answers.pop(0)
        return status, None if x is None else np.array(x), bound, status


class TestCutoff:
    @pytest.mark.parametrize("initial", [None, [4.0]], ids=["without initial", "with initial"])
    def test_initial_objective_reaches_highs_as_objective_bound(self, initial, monkeypatch):
        seen = []
        honest = scipy_milp._highs_wrapper

        def spy(*args):
            seen.append(dict(args[-1]))
            return honest(*args)

        monkeypatch.setattr(scipy_milp, "_highs_wrapper", spy)
        m = int_model()
        res = solve(m, default_settings_for("P"), initial=None if initial is None else np.array(initial))
        assert (res.status, res.objective, res.bound) == ("optimal", 44.0, 44.0)
        expected = {"log_to_console", "time_limit", "mip_abs_gap", "mip_heuristic_run_feasibility_jump"}
        if initial is None:
            assert len(seen) == 1 and set(seen[0]) == expected
        else:
            assert len(seen) == 1 and set(seen[0]) == expected | {"objective_bound"}
            # 46 - 42 + 1e-6 * 46: the plan's objective in c·x, plus the checker's slack
            assert seen[0]["objective_bound"] == cutoff_of(m, 46.0) == 4.0 + 46e-6

    def test_infeasible_under_the_cutoff_solves_again_without_it(self):
        backend = SettingsLog(("infeasible", None, None), ("optimal", [3.0], 3.0))
        res = solve(one_var_model(), default_settings_for("P"), initial=np.array([3.0]), backend=backend)
        assert [s.cutoff for s in backend.settings] == [cutoff_of(one_var_model(), 3.0), math.inf]
        assert (res.status, res.objective, res.bound) == ("optimal", 3.0, 3.0)
        assert res.message.startswith("nothing at or below the cutoff") and res.message.endswith("optimal")

    def test_bound_above_the_cutoff_solves_again_without_it(self):
        # HiGHS answered seeded_instance(287)'s P so under its plan's cutoff:
        # "optimal", proven, at a point 1% above the plan
        cutoff = cutoff_of(one_var_model(), 3.0)
        backend = SettingsLog(("optimal", [3.5], cutoff + 0.5), ("optimal", [3.0], 3.0))
        res = solve(one_var_model(), default_settings_for("P"), initial=np.array([3.0]), backend=backend)
        assert [s.cutoff for s in backend.settings] == [cutoff, math.inf]
        assert (res.status, res.objective, res.bound) == ("optimal", 3.0, 3.0)
        assert res.message.startswith("nothing at or below the cutoff")

    @pytest.mark.parametrize("first_takes, left", [(0.1, None), (0.6, 1e-3)], ids=["time left", "none left"])
    def test_solve_again_gets_the_time_left(self, first_takes, left):
        class SlowFirst(SettingsLog):
            def solve_raw(self, model, settings):
                if not self.settings:
                    time.sleep(first_takes)
                return super().solve_raw(model, settings)

        backend = SlowFirst(("infeasible", None, None), ("optimal", [3.0], 3.0))
        settings = SolveSettings(1e-4, 1e-2, 0.5)
        res = solve(one_var_model(), settings, initial=np.array([3.0]), backend=backend)
        first, second = (s.time_limit for s in backend.settings)
        assert first == 0.5
        if left is None:
            # the clock read before the second call lies between the two waits
            assert 0.5 - res.wall_time <= second <= 0.5 - first_takes
        else:
            assert second == left

    @pytest.mark.parametrize("initial", [None, [3.0]], ids=["without initial", "with initial"])
    def test_caller_cutoff_is_replaced(self, initial):
        backend = SettingsLog(("optimal", [3.0], 3.0))
        settings = dataclasses.replace(default_settings_for("P"), cutoff=5.0)
        solve(one_var_model(), settings, initial=None if initial is None else np.array(initial), backend=backend)
        expected = math.inf if initial is None else cutoff_of(one_var_model(), 3.0)
        assert [s.cutoff for s in backend.settings] == [expected]

    def test_proven_point_worse_than_initial_returns_initial(self):
        # under the cutoff HiGHS may prove a point within the cutoff's slack
        # above the plan; the proof covers the plan, and the bound stays at it
        worse = 3.0 + 1e-6
        backend = SettingsLog(("optimal", [worse], worse))
        res = solve(one_var_model(), default_settings_for("P"), initial=np.array([3.0]), backend=backend)
        assert len(backend.settings) == 1
        assert (res.status, res.objective, res.bound) == ("optimal", 3.0, 3.0)
        assert res.assignment.tolist() == [3.0]

    def test_infeasible_without_a_cutoff_is_not_solved_again(self):
        backend = SettingsLog(("infeasible", None, None))
        res = solve(one_var_model(), default_settings_for("P"), backend=backend)
        assert [s.cutoff for s in backend.settings] == [math.inf]
        assert res.status == "infeasible"

    def test_time_limit_under_the_cutoff_falls_back_without_a_bound(self):
        # scipy's wrapper drops HiGHS' dual bound with a time limit's missing point
        backend = SettingsLog(("timeLimit", None, None))
        res = solve(one_var_model(), default_settings_for("P"), initial=np.array([4.0]), backend=backend)
        assert len(backend.settings) == 1
        assert (res.status, res.objective, res.bound) == ("feasible", 4.0, -math.inf)


class TestBoundCrossCheck:
    def test_bound_above_clean_initial_is_error(self):
        res = solve(
            one_var_model(),
            default_settings_for("Psf"),
            initial=np.array([3.0]),
            backend=StubBackend("optimal", [5.0], 5.0),
        )
        assert res.status == "error"
        assert res.assignment is None
        assert "5.0" in res.message and "3.0" in res.message

    def test_optimal_without_bound_claims_its_objective(self):
        res = solve(
            one_var_model(),
            default_settings_for("Psf"),
            initial=np.array([3.0]),
            backend=StubBackend("optimal", [5.0], None),
        )
        assert res.status == "error"

    def test_bound_within_tolerance_accepted(self):
        bound = 3.0 + 0.5 * CHECK_TOL * 3.0
        res = solve(
            one_var_model(),
            default_settings_for("Psf"),
            initial=np.array([3.0]),
            backend=StubBackend("optimal", [3.0], bound),
        )
        assert res.status == "optimal"
        # roundoff above the feasible point is reported as the point's objective
        assert res.bound == 3.0

    def test_initial_failing_the_checker_is_not_evidence(self):
        res = solve(
            one_var_model(),
            default_settings_for("Psf"),
            initial=np.array([1.0]),  # violates the floor row
            backend=StubBackend("optimal", [3.0], 3.0),
        )
        assert res.status == "optimal"

    def test_feasible_without_bound_is_not_checked(self):
        res = solve(
            one_var_model(),
            default_settings_for("Psf"),
            initial=np.array([3.0]),
            backend=StubBackend("feasible", [5.0], None),
        )
        assert res.status == "feasible"


class TestCheckerFloorsInSolverUnits:
    """A row's absolute floor is ``CHECK_TOL`` in the row's solver unit,
    so a pressure row holds to ``CHECK_TOL`` bar, as HiGHS holds it."""

    @pytest.fixture(scope="class")
    def p_optimum(self):
        """medium_station's full model, its optimum and a ``p_cfg`` copy
        whose configuration is off there."""
        spec, scen = load_instance(medium_station())
        spec = build_spec_ranges(spec, count=2000)
        inst = build_full(spec, scen, WEIGHTS)
        res = solve(inst, default_settings_for("P", 600.0))
        assert res.status == "optimal"
        names = inst.model.var_names
        index = {name: i for i, name in enumerate(names)}
        off = next(
            i for i, name in enumerate(names)
            if name.startswith("p_cfg") and res.assignment[index["cfg" + name[name.index("("):]]] == 0.0
        )
        return inst.model, res.assignment, off

    def solve_moved(self, p_optimum, pa: float):
        model, x, off = p_optimum
        moved = x.copy()
        moved[off] += pa
        return solve(model, default_settings_for("P", 600.0), backend=StubBackend("optimal", moved, None))

    def test_pa_off_a_perspective_row_is_within_its_bar_floor(self, p_optimum):
        # cs_bnd_hi reads p_cfg <= ub * cfg, so 5e-6 Pa with cfg = 0 breaks
        # it by 5e-11 bar
        res = self.solve_moved(p_optimum, 5e-6)
        assert res.status == "optimal" and res.assignment is not None

    def test_one_pa_off_is_still_rejected(self, p_optimum):
        res = self.solve_moved(p_optimum, 1.0)
        assert res.status == "error" and res.assignment is None
        assert "worst: cs_bnd_hi(" in res.message


def pressure_model() -> tuple:
    """p in Pa (solver unit bar), q in kg/s and a binary b."""
    m = LinearModel("pa")
    p = m.add_var("p", 40e5, 70e5, unit=PA_PER_BAR)
    q = m.add_var("q", 0.0, 10.0)
    b = m.add_var("b", 0.0, 1.0, integer=True)
    m.add_row("p_floor", [(1.0, p), (-30e5, b), (2.0, q)], ">=", 25e5)
    m.add_row("q_on", [(1.0, q), (-10.0, b)], "<=", 0.0)
    m.add_objective("p_cost", p, 1e-5)
    m.add_objective("q_cost", q, 1.0)
    return m, p, q, b


class TestSolverUnits:
    def test_pa_column_comes_back_in_pa(self):
        m = LinearModel("one_pa")
        p = m.add_var("p", 40e5, 70e5, unit=PA_PER_BAR)
        m.add_row("floor", [(1.0, p)], ">=", 52.5e5)
        m.add_objective("cost", p, 1e-5)
        res = solve(m, default_settings_for("Psf"))
        assert res.status == "optimal"
        assert dict(zip(m.var_names, res.assignment))["p"] == pytest.approx(52.5e5, rel=1e-9)
        assert res.objective == pytest.approx(52.5, rel=1e-9)
        assert check_assignment(m, res.assignment) == []

    def test_view_scales_pa_columns_and_the_rows_touching_them(self):
        m, p, q, b = pressure_model()
        view = m.solver_view()
        assert list(view.lb) == [40.0, 0.0, 0.0]
        assert list(view.ub) == [70.0, 10.0, 1.0]
        assert list(view.c) == pytest.approx([1.0, 1.0, 0.0])
        dense = view.A.toarray()
        # p_floor reads in bar, big-M included; q_on touches no Pa column
        assert list(dense[0]) == pytest.approx([1.0, 2.0 / PA_PER_BAR, -30.0])
        assert list(dense[1]) == [0.0, 1.0, -10.0]
        assert list(view.row_lo) == pytest.approx([25.0, -np.inf])
        assert list(view.row_hi) == pytest.approx([np.inf, 0.0])
        assert list(view.to_si([50.0, 1.0, 1.0])) == [50e5, 1.0, 1.0]

    def test_scaled_mixed_model_solves_in_si(self):
        m, *_ = pressure_model()
        res = solve(m, default_settings_for("Psf"))
        assert res.status == "optimal"
        assert dict(zip(m.var_names, res.assignment))["p"] == pytest.approx(40e5, rel=1e-9)
        assert check_assignment(m, res.assignment) == []

    def test_declared_row_unit_overrides_the_columns(self):
        m, p, q, b = pressure_model()
        m.add_row("flow_row", [(1.0, q), (1e-4, p)], "<=", 8.0, unit=1.0)
        dense = m.solver_view().A.toarray()
        assert list(dense[2]) == pytest.approx([10.0, 1.0, 0.0])

    def test_rounded_integers_get_a_consistent_continuous_part(self, monkeypatch):
        # HiGHS may return a binary 1e-9 off integral; the big-M row then
        # leaves p at 7.5e-3 Pa once b is rounded to 0
        m = LinearModel("bigm")
        p = m.add_var("p", 0.0, 75e5, unit=PA_PER_BAR)
        b = m.add_var("b", 0.0, 1.0, integer=True)
        m.add_row("p_off", [(1.0, p), (-75e5, b)], "<=", 0.0)
        m.add_objective("cost", p, 1e-5)
        m.add_objective("cost", b, 100.0)
        honest = scipy_milp._highs_wrapper

        def sloppy(*args):
            res = honest(*args)
            if args[8].any():  # the MIP, not the re-solve at the rounded integers
                res["x"] = np.array([75.0 * 1e-9, 1e-9])
            return res

        monkeypatch.setattr(scipy_milp, "_highs_wrapper", sloppy)
        res = solve(m, default_settings_for("Psf"))
        assert res.status == "optimal"
        assert list(res.assignment) == [0.0, 0.0]
        assert check_assignment(m, res.assignment) == []

    def test_lp_export_stays_in_si(self):
        m, *_ = pressure_model()
        text = m.lp_text()
        assert " 4000000.0 <= p <= 7000000.0" in text
        assert "- 3000000.0 b" in text

    def test_integer_column_needs_unit_one(self):
        with pytest.raises(ValueError):
            LinearModel("t").add_var("b", 0.0, 1.0, integer=True, unit=PA_PER_BAR)


class TestLpExport:
    def test_structure(self):
        text = one_var_model().lp_text()
        assert text.startswith("\\ model tiny")
        assert "Minimize" in text and "Subject To" in text and "Bounds" in text
        assert "c0_floor: 1.0 x >= 3.0" in text
        assert text.endswith("End\n")

    def test_integer_section(self):
        m = LinearModel("int")
        m.add_var("b", 0.0, 1.0, integer=True)
        assert "Generals\n b" in m.lp_text()

    def test_byte_identical_across_rebuilds(self):
        spec, scen = load_instance(mini_station())
        spec = build_spec_ranges(spec, count=2000, base_seed=7)
        first = build_stationary(spec, scen, WEIGHTS, 1, "o_cp").model.lp_text()
        spec2, scen2 = load_instance(mini_station())
        spec2 = build_spec_ranges(spec2, count=2000, base_seed=7)
        second = build_stationary(spec2, scen2, WEIGHTS, 1, "o_cp").model.lp_text()
        assert first.encode() == second.encode()

    def test_lp_names_sanitized(self):
        m = LinearModel("names")
        m.add_var("weird name[1]", 0.0, 1.0)
        text = m.lp_text()
        assert "weird name[1]" not in text
        assert "weird_name_1_" in text


class TestModelContainer:
    def test_constant_row_tautology_dropped(self):
        m = LinearModel("t")
        m.add_row("fine", [(1.0, 0.5)], "<=", 1.0)
        assert m.rows == []

    def test_constant_row_violation_raises(self):
        m = LinearModel("t")
        with pytest.raises(BuildInfeasibleError):
            m.add_row("broken", [(1.0, 2.0)], "<=", 1.0)

    def test_empty_variable_domain_raises(self):
        m = LinearModel("t")
        with pytest.raises(BuildInfeasibleError):
            m.add_var("x", 2.0, 1.0)

    def test_non_finite_bounds_rejected(self):
        m = LinearModel("t")
        with pytest.raises(ValueError):
            m.add_var("x", 0.0, np.inf)
