import sys
import warnings

import numpy as np
import pytest
import scipy.optimize._milp as scipy_milp
from scipy.optimize._highspy._highs_options import HighsOptionsManager

from stationopt.fixtures import mini_station
from stationopt.io import load_instance
from stationopt.linmodel import BuildInfeasibleError, LinearModel
from stationopt.model import ObjectiveWeights, build_stationary, build_stationary_fixed
from stationopt.ranges import build_spec_ranges
from stationopt.units import PA_PER_BAR
from stationopt.solve import (
    CHECK_TOL,
    FileExchangeBackend,
    SolveSettings,
    check_assignment,
    default_settings_for,
    read_solution_text,
    solve,
    write_solution_text,
)

WEIGHTS = ObjectiveWeights()


def one_var_model() -> LinearModel:
    m = LinearModel("tiny")
    x = m.add_var("x", 0.0, 10.0)
    m.add_row("floor", [(1.0, x)], ">=", 3.0)
    m.add_objective("cost", x, 1.0)
    return m


class TestBasics:
    def test_minimize_single_variable(self):
        res = solve(one_var_model(), default_settings_for("Psf"))
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)
        assert res.bound == pytest.approx(3.0)
        assert res.by_name()["x"] == pytest.approx(3.0)

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
            fixed = build_stationary_fixed(spec, scen, WEIGHTS, mode, 1, "o_cp")
            fd = fixed.handle("fd", direction, 1)
            fixed.model.add_row("pin_direction", [(1.0, fd)], "==", 1.0)
            r = solve(fixed, default_settings_for("Psf"))
            if r.ok and (best is None or r.objective < best[0]):
                best = (r.objective, mode, direction)
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

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            default_settings_for("Px")

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            SolveSettings(-1.0, 0.0, 10.0)
        with pytest.raises(ValueError):
            SolveSettings(0.0, 0.0, 0.0)


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
        assert res.bound == bound

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
        assert res.by_name()["p"] == pytest.approx(52.5e5, rel=1e-9)
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
        assert res.by_name()["p"] == pytest.approx(40e5, rel=1e-9)
        assert check_assignment(m, res.assignment) == []

    def test_declared_row_unit_overrides_the_columns(self):
        m, p, q, b = pressure_model()
        m.add_row("flow_row", [(1.0, q), (1e-4, p)], "<=", 8.0, unit=1.0)
        dense = m.solver_view().A.toarray()
        assert list(dense[2]) == pytest.approx([10.0, 1.0, 0.0])

    def test_rounded_integers_get_a_consistent_continuous_part(self, monkeypatch):
        # HiGHS may return a binary 1e-9 off integral; the big-M row then
        # leaves p at 7.5e-3 Pa once b is rounded to 0
        import stationopt.solve as solve_mod

        m = LinearModel("bigm")
        p = m.add_var("p", 0.0, 75e5, unit=PA_PER_BAR)
        b = m.add_var("b", 0.0, 1.0, integer=True)
        m.add_row("p_off", [(1.0, p), (-75e5, b)], "<=", 0.0)
        m.add_objective("cost", p, 1e-5)
        m.add_objective("cost", b, 100.0)
        honest = solve_mod.milp

        def sloppy(**kwargs):
            res = honest(**kwargs)
            if kwargs.get("integrality") is not None:
                res.x = np.array([75.0 * 1e-9, 1e-9])
            return res

        monkeypatch.setattr(solve_mod, "milp", sloppy)
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


class TestSolutionFiles:
    def test_round_trip(self, tmp_path):
        m = one_var_model()
        res = solve(m, default_settings_for("Psf"))
        path = tmp_path / "sol.txt"
        write_solution_text(path, res)
        status, values, bound = read_solution_text(path)
        assert status == "optimal"
        assert values["x"] == pytest.approx(3.0)
        assert bound == pytest.approx(3.0)

    def test_file_backend_reads_existing_solution(self, tmp_path):
        m = one_var_model()
        res = solve(m, default_settings_for("Psf"))
        sol = tmp_path / "answer.sol"
        write_solution_text(sol, res)
        backend = FileExchangeBackend(tmp_path / "model.lp", sol, command=None)
        res2 = solve(m, default_settings_for("Psf"), backend=backend)
        assert res2.status == "optimal"
        assert res2.objective == pytest.approx(3.0)
        assert (tmp_path / "model.lp").exists()

    def test_file_backend_runs_command(self, tmp_path):
        sol = tmp_path / "out.sol"
        script = (
            "import sys\n"
            "open(sys.argv[2], 'w').write('#status: optimal\\n#bound: 3.0\\nx 3.0\\n')\n"
        )
        backend = FileExchangeBackend(
            tmp_path / "model.lp",
            sol,
            command=[sys.executable, "-c", script, "{lp}", "{sol}"],
        )
        res = solve(one_var_model(), default_settings_for("Psf"), backend=backend)
        assert res.status == "optimal"
        assert res.objective == pytest.approx(3.0)

    def test_objective_constant_stays_out_of_the_file(self, tmp_path):
        m = one_var_model()
        m.add_objective("fixed", 1.0, 42.0)
        res = solve(m, default_settings_for("Psf"))
        sol = tmp_path / "answer.sol"
        write_solution_text(sol, res)
        _, _, bound = read_solution_text(sol)
        assert bound == pytest.approx(3.0)
        backend = FileExchangeBackend(tmp_path / "model.lp", sol)
        res2 = solve(m, default_settings_for("Psf"), initial=res.assignment, backend=backend)
        assert res2.status == "optimal"
        assert res2.objective == pytest.approx(45.0)
        assert res2.bound == pytest.approx(45.0)

    def test_file_backend_reads_lp_names(self, tmp_path):
        spec, scen = load_instance(mini_station())
        spec = build_spec_ranges(spec, count=2000)
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 1, "o_cp")
        res = solve(inst, default_settings_for("Psf"))
        assert res.status == "optimal"
        # an external solver names the columns as the LP text's Bounds section does
        bounds = inst.model.lp_text().split("Bounds\n", 1)[1].split("\nGenerals", 1)[0]
        names = [line.split(" <= ")[1] for line in bounds.splitlines() if " <= " in line]
        assert len(names) == inst.model.n_vars and names != inst.model.var_names
        sol = tmp_path / "psf.sol"
        lines = ["#status: optimal", f"#bound: {res.bound - inst.model.objective_constant!r}"]
        lines += [f"{name} {float(value)!r}" for name, value in zip(names, res.assignment)]
        sol.write_text("\n".join(lines) + "\n")
        backend = FileExchangeBackend(tmp_path / "psf.lp", sol)
        res2 = solve(inst, default_settings_for("Psf"), backend=backend)
        assert res2.status == "optimal", res2.message
        assert res2.objective == pytest.approx(res.objective, rel=1e-12)
        assert res2.bound == pytest.approx(res.bound, rel=1e-12)

    def test_file_backend_missing_solution_is_error(self, tmp_path):
        backend = FileExchangeBackend(tmp_path / "m.lp", tmp_path / "missing.sol", None)
        res = solve(one_var_model(), default_settings_for("Psf"), backend=backend)
        assert res.status == "error"
        assert "no solution file" in res.message


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
