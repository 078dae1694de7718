"""The model container's array form: the vectorised row checker against a
row-by-row reference, and the fingerprint oracle that names a model's
numbers."""

import dataclasses
import functools

import numpy as np
import pytest
from scipy import sparse

from stationopt.algorithm import StationSolver, complete_plan_assignment
from stationopt.fixtures import medium_station, mini_station_pipes, seeded_instance
from stationopt.io import load_instance, load_weights, regrid_instance, template_grid
from stationopt.linmodel import LinearModel, VarRef
from stationopt.model import (
    ObjectiveWeights,
    build_fixed_transient,
    build_full,
    build_stationary,
    build_stationary_fixed,
)
from stationopt.ranges import build_spec_ranges
from stationopt.solve import InProcessBackend, check_assignment, default_settings_for, solve

from oracles import fingerprint, reference_check_assignment

WEIGHTS = ObjectiveWeights()


def variant_assignments(doc):
    """(variant, model, assignment) for P, Pf, Psf and Ps of a 12-step plan:
    the plan's replay for P, each model's own optimum for the others."""
    spec, scen = load_instance(doc)
    spec, scen = regrid_instance(spec, scen, template_grid("12"))
    spec = build_spec_ranges(spec, count=2000)
    plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
    modes, dirs = plan.sequence.modes, plan.sequence.directions
    inst, x = complete_plan_assignment(spec, scen, WEIGHTS, plan)
    out = [("P", inst.model, x)]
    built = {
        "Pf": build_fixed_transient(spec, scen, WEIGHTS, modes[1:5], dirs[1:5], scen.initial_state),
        "Psf": build_stationary_fixed(spec, scen, WEIGHTS, modes[1], 1),
        "Ps": build_stationary(spec, scen, WEIGHTS, 1, modes[0]),
    }
    for variant, inst in built.items():
        res = solve(inst, default_settings_for(variant))
        assert res.ok, (variant, res.message)
        out.append((variant, inst.model, res.assignment))
    return out


def perturbations(model, x0, seed):
    """x0 itself, then copies that break bounds, integrality and rows."""
    rng = np.random.default_rng(seed)
    lb, ub = model.arrays().lb, model.arrays().ub
    ints = np.flatnonzero(model.arrays().integer)
    out = [x0.copy()]
    for rel in (1e-6, 1e-4, 1e-2):
        out.append(x0 + rng.normal(size=x0.size) * rel * (1.0 + np.abs(x0)))
    x = x0.copy()
    cols = rng.choice(x0.size, size=min(10, x0.size), replace=False)
    x[cols[::2]] = ub[cols[::2]] + 1e-3 * (1.0 + np.abs(ub[cols[::2]]))
    x[cols[1::2]] = lb[cols[1::2]] - 1e-3 * (1.0 + np.abs(lb[cols[1::2]]))
    out.append(x)
    if ints.size:
        x = x0.copy()
        picked = rng.choice(ints, size=min(3, ints.size), replace=False)
        x[picked] += rng.uniform(0.1, 0.4, size=picked.size)
        out.append(x)
    return out


class TestCheckerOracle:
    """The vectorised checker gives the reference's violations: the same
    names in the same order, and amounts within 1e-12 relative."""

    @pytest.fixture(scope="class", params=[mini_station_pipes, medium_station], ids=lambda d: d.__name__)
    def cases(self, request):
        return variant_assignments(request.param())

    @pytest.mark.parametrize("variant", ["P", "Pf", "Psf", "Ps"])
    def test_matches_the_row_by_row_reference(self, cases, variant):
        (model, x0), = [(m, x) for v, m, x in cases if v == variant]
        senses = {row.name: row.sense for row in model.rows}
        seen: set = set()
        for seed in range(3):
            for x in perturbations(model, x0, seed):
                got = check_assignment(model, x)
                want = reference_check_assignment(model, x)
                assert [v.name for v in got] == [name for name, _ in want]
                assert [v.amount for v in got] == pytest.approx([a for _, a in want], rel=1e-12, abs=0.0)
                seen |= {senses.get(v.name, v.name.split("(", 1)[0]) for v in got}
        expected = set(senses.values()) | {"bounds"}
        if any(model.arrays().integer):
            expected.add("integrality")
        assert expected <= seen, f"perturbations never broke {expected - seen}"

    def test_replay_and_optima_are_clean(self, cases):
        for variant, model, x in cases:
            assert check_assignment(model, x) == [], variant


def small_model(name="m", **change):
    """Two columns, one row of each sense, a row unit, an objective with a
    constant; ``change`` replaces one number."""
    p = {
        "lb0": 0.0, "ub0": 4.0, "int1": True, "unit0": 1e5, "coef": 2.0, "sense": "<=",
        "rhs": 3.0, "row_unit": None, "obj": 1.5, "constant": 7.0,
    }
    p.update(change)
    m = LinearModel(name)
    x = m.add_var(f"{name}.x", p["lb0"], p["ub0"], unit=p["unit0"])
    y = m.add_var(f"{name}.y", -1.0, 1.0, integer=p["int1"])
    m.add_row(f"{name}.a", [(p["coef"], x), (1.0, y)], p["sense"], p["rhs"], unit=p["row_unit"])
    m.add_row(f"{name}.b", [(1.0, x), (-1.0, y)], ">=", -1.0)
    m.add_row(f"{name}.c", [(1.0, y)], "==", 0.0)
    m.add_objective("cost", x, p["obj"])
    m.add_objective("cost", y, 1.0)
    m.add_objective("fixed", 1.0, p["constant"])
    return m


class TestFingerprint:
    def test_names_do_not_count(self):
        assert fingerprint(small_model("a")) == fingerprint(small_model("b"))
        assert small_model("a").lp_text() != small_model("b").lp_text()

    @pytest.mark.parametrize(
        "change",
        [
            {"lb0": -1.0}, {"ub0": 5.0}, {"int1": False}, {"unit0": 1.0}, {"coef": 2.5},
            {"sense": ">="}, {"sense": "=="}, {"rhs": 3.5}, {"row_unit": 1e5}, {"obj": 1.0},
            {"constant": 8.0},
        ],
        ids=lambda c: "-".join(f"{k}={v}" for k, v in c.items()),
    )
    def test_every_number_counts(self, change):
        assert fingerprint(small_model(**change)) != fingerprint(small_model())

    def test_steps_with_equal_demand_share_it(self):
        spec, scen = load_instance(mini_station_pipes())
        spec, scen = regrid_instance(spec, scen, template_grid("96"))
        spec = build_spec_ranges(spec, count=2000)
        a, b = (build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", t).model for t in (48, 49))
        assert a.var_names != b.var_names
        assert fingerprint(a) == fingerprint(b)
        # and a step with other demand does not
        c = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 47).model
        assert fingerprint(c) != fingerprint(a)


def read_model(how):
    """``small_model("tpl")`` once read: by ``arrays()``, as the template of
    a ``patched`` copy, or as that copy."""
    m = small_model("tpl")
    if how == "arrays":
        m.arrays()
        return m
    copy = m.patched(2, {0: 3.0}, {0: 2.0})
    return m if how == "template" else copy


class TestReadModel:
    """A model is appended to while it is built and only read after that."""

    APPENDS = {
        "add_var": lambda m: m.add_var("tpl.z", 0.0, 1.0),
        "add_row": lambda m: m.add_row("tpl.d", [(1.0, VarRef(0))], "<=", 1.0),
        "add_objective": lambda m: m.add_objective("cost", VarRef(0), 1.0),
    }

    @pytest.mark.parametrize("how", ["arrays", "template", "copy"])
    @pytest.mark.parametrize("append", sorted(APPENDS))
    def test_refuses_appends(self, how, append):
        m = read_model(how)
        sizes, arrays = (m.n_vars, m.n_rows, fingerprint(m)), dataclasses.astuple(m.arrays())
        with pytest.raises(ValueError, match="model 'tpl' has been read and takes no appends"):
            self.APPENDS[append](m)
        assert (m.n_vars, m.n_rows, fingerprint(m)) == sizes
        for old, new in zip(arrays, dataclasses.astuple(m.arrays())):
            assert np.array_equal(new, old, equal_nan=True)

    @pytest.mark.parametrize("how", ["arrays", "template", "copy"])
    def test_arrays_are_read_only(self, how):
        a = read_model(how).arrays()
        for field in dataclasses.fields(a):
            with pytest.raises(ValueError, match="read-only"):
                getattr(a, field.name)[0] = 0


class TestRowRecords:
    def test_rows_round_trip_the_arrays(self):
        m = small_model()
        rows = m.rows
        assert [r.name for r in rows] == m.row_names
        assert rows[0].coeffs == {0: 2.0, 1: 1.0} and rows[0].sense == "<=" and rows[0].unit is None
        assert small_model(row_unit=1e5).rows[0].unit == 1e5
        assert [r.sense for r in rows] == ["<=", ">=", "=="]
        a = m.arrays()
        assert a.ptr.tolist() == [0, 2, 4, 5]
        assert a.row_of.tolist() == [0, 0, 1, 1, 2]


class TestSolverView:
    @pytest.mark.parametrize("doc", [mini_station_pipes, medium_station], ids=lambda d: d.__name__)
    def test_matrix_equals_the_triplet_reference(self, doc):
        # the view forms its CSC matrix from the row pointer; the reference
        # forms it from (row, column) triplets, as the view once did
        spec, scen = load_instance(doc())
        spec = build_spec_ranges(spec, count=2000)
        mode = scen.initial_state.operation_mode
        models = [
            build_full(spec, scen, WEIGHTS).model,
            build_stationary(spec, scen, WEIGHTS, 1, mode).model,
            build_stationary_fixed(spec, scen, WEIGHTS, mode, 1).model,
        ]
        for m in models:
            a, A = m.arrays(), m.solver_view().A
            derived = np.maximum(1.0, np.maximum.reduceat(a.col_unit[a.cols], a.ptr[:-1]))
            row_unit = np.where(np.isnan(a.row_unit), derived, a.row_unit)
            data = a.vals * a.col_unit[a.cols] / row_unit[a.row_of]
            ref = sparse.csc_array((data, (a.row_of, a.cols)), shape=(m.n_rows, m.n_vars))
            assert A.format == "csc" and A.shape == ref.shape
            for part in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(A, part), getattr(ref, part)), (m.name, part)


def view_differences(model, x) -> list:
    """Where the solver view of ``model`` reads other numbers than the SI
    model at the SI assignment ``x``, beyond 1e-9 relative: row activities
    and row bounds times their row units, column bounds times the column
    units, and the objective."""
    view, a = model.solver_view(), model.arrays()
    x = np.asarray(x, dtype=float)
    xv = x / view.col_unit

    def off(value, reference, scale):
        return bool(np.any(np.abs(value - reference) > 1e-9 * scale))

    out = []
    for name, bound, si in (("lb", view.lb, a.lb), ("ub", view.ub, a.ub)):
        if off(bound * view.col_unit, si, np.maximum(1.0, np.abs(si))):
            out.append(name)
    if model.n_rows:
        # a row reads in its declared unit, else in the largest of its columns'
        derived = np.array([max(1.0, *a.col_unit[a.cols[a.ptr[r] : a.ptr[r + 1]]]) for r in range(model.n_rows)])
        row_unit = np.where(np.isnan(a.row_unit), derived, a.row_unit)
        terms = a.vals * x[a.cols]
        si = np.bincount(a.row_of, weights=terms, minlength=model.n_rows)
        scale = np.maximum(1.0, np.maximum(np.abs(a.rhs), np.maximum.reduceat(np.abs(terms), a.ptr[:-1])))
        if off((view.A @ xv) * row_unit, si, scale):
            out.append("activity")
        for name, side, free in (("row_lo", view.row_lo, a.sense == 0), ("row_hi", view.row_hi, a.sense == 1)):
            if not np.all(np.isinf(side[free])) or off(side[~free] * row_unit[~free], a.rhs[~free], scale[~free]):
                out.append(name)
    terms = view.c * xv
    total = terms.sum() + model.objective_constant
    if off(total, model.objective_value(x), max(1.0, np.abs(terms).sum(), abs(model.objective_constant))):
        out.append("objective")
    return out


class TestSolverViewDifferential:
    """The view against the SI model on the replay's full model and every
    model a plan solves, patched smoothing windows included."""

    @pytest.mark.parametrize(
        "doc, steps",
        [(functools.partial(seeded_instance, s), None) for s in range(40)] + [(mini_station_pipes, "24")],
        ids=[f"seeded_instance({s})" for s in range(40)] + ["mini_station_pipes@24"],
    )
    def test_view_reads_the_si_numbers(self, doc, steps):
        doc = doc()
        spec, scen = load_instance(doc)
        if steps is not None:
            spec, scen = regrid_instance(spec, scen, template_grid(steps))
        spec = build_spec_ranges(spec, count=2000)
        real = InProcessBackend()
        solved = []

        class Recording:
            def solve_raw(self, model, settings):
                out = real.solve_raw(model, settings)
                if out[1] is not None:
                    solved.append((model, out[1]))
                return out

        solver = StationSolver(spec, scen, load_weights(doc), backend=Recording())
        plan = solver.solve_station(h=4)
        kinds = [m.name.split("_", 1)[0] for m, _ in solved]
        assert kinds.count("Pf") == plan.diagnostics["solve_counts"]["Pf"] and "Psf" in kinds
        if steps is not None:
            # some windows are patched
            assert kinds.count("Pf") > sum(key[0] == "Pf" for key in solver._templates)
        for model, x in [plan.replay] + solved:
            model = getattr(model, "model", model)
            assert view_differences(model, x) == [], model.name


class TestObjective:
    def test_a_column_listed_twice_sums_its_terms(self):
        m = LinearModel("m")
        x = m.add_var("x", 0.0, 4.0, unit=1e5)
        y = m.add_var("y", 0.0, 1.0)
        m.add_objective("cost", x, 1.5)
        m.add_objective("cost", y, 1.0)
        m.add_objective("penalty", x, 0.25)
        m.add_objective("fixed", 1.0, 7.0)
        assert not hasattr(m, "objective")  # the terms are the one record
        assert m.solver_view().c.tolist() == [1.75e5, 1.0]
        assert " obj: 1.75 x + 1.0 y\n" in m.lp_text()
        assert m.objective_value(np.array([2.0, 1.0])) == 7.0 + 3.0 + 1.0 + 0.5
        assert m.objective_breakdown(np.array([2.0, 1.0])) == {"cost": 4.0, "penalty": 0.5, "fixed": 7.0}


class TestVarRef:
    def test_equal_and_hashed_by_index(self):
        m = LinearModel("m")
        x = m.add_var("x", 0.0, 1.0)
        assert x == VarRef(0) and x != VarRef(1)
        assert hash(x) == hash(VarRef(0)) == hash((0,))
        assert x != 0 and x != (0,)
        assert {x: "x"}[VarRef(0)] == "x"
        assert repr(x) == "VarRef(index=0)"
