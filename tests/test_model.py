import dataclasses
import functools
import gc
import hashlib
import math
import tracemalloc

import numpy as np
import pytest

from stationopt.algorithm import StationSolver
from stationopt.fixtures import medium_station, mini_station, mini_station_pipes, seeded_instance, two_unit_station
from stationopt.gas import nikuradse_friction
from stationopt.io import load_instance, regrid_instance, template_grid
from stationopt.linmodel import BuildInfeasibleError
from stationopt.model import (
    ObjectiveWeights,
    build_fixed_transient,
    build_full,
    build_stationary,
    build_stationary_fixed,
    change_indicators,
    step_bounds,
    step_inputs,
    switch_cost,
    window_pattern,
)
from stationopt.network import REGULATOR_TOKENS, mode_available
from stationopt.ranges import build_spec_ranges
from stationopt.solve import default_settings_for, solve
from stationopt.units import KG_S_PER_SOLVER_FLOW, PA_PER_BAR, normvol_to_massflow

from oracles import fingerprint, reference_step_bounds, row_activity

WEIGHTS = ObjectiveWeights()


@pytest.fixture(scope="module")
def mini():
    doc = mini_station()
    spec, scen = load_instance(doc)
    return build_spec_ranges(spec, count=3000), scen


@pytest.fixture(scope="module")
def piped():
    doc = mini_station_pipes()
    spec, scen = load_instance(doc)
    return build_spec_ranges(spec, count=3000), scen


@pytest.fixture(scope="module")
def two_unit():
    spec, scen = load_instance(two_unit_station())
    return build_spec_ranges(spec, count=3000), scen


def rows_named(model, prefix):
    return [r for r in model.rows if r.name.startswith(prefix)]


class TestCompressorStationRows:
    def test_hand_counted_row_structure(self, mini):
        spec, scen = mini
        inst = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        m = inst.model
        n_facets = len(spec.stations["CS1"].configurations[0].facets)
        assert len(rows_named(m, "cs_select")) == 1
        assert len(rows_named(m, "cs_link_pl")) == 1
        assert len(rows_named(m, "cs_link_pr")) == 1
        assert len(rows_named(m, "cs_link_q")) == 1
        # 7 indicator bound pairs: 3 config copies + 2 bypass + 2 closed
        assert len(rows_named(m, "cs_bnd_lo")) == 7
        assert len(rows_named(m, "cs_bnd_hi")) == 7
        assert len(rows_named(m, "cs_facet")) == n_facets

    def test_disjunctive_copies_contain_zero(self, mini):
        spec, scen = mini
        inst = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        a = inst.model.arrays()
        for key in ("p_by", "q_by", "p_cl_l", "p_cl_r"):
            h = inst.handles[key, "CS1", 1]
            assert a.lb[h.index] <= 0.0 <= a.ub[h.index]
        h = inst.handles["q_cfg", "c1", "CS1", 1]
        assert a.lb[h.index] == 0.0

    def test_no_closed_flow_copy_exists(self, mini):
        spec, scen = mini
        inst = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        assert ("q_cl", "CS1", 1) not in inst.handles

    def test_closed_mode_forces_zero_flow(self, mini):
        spec, scen = mini
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_by", 1)
        res = solve(inst, default_settings_for("Psf"))
        assert res.ok
        assert inst.value(res.assignment, "q", "CS1", 1) == pytest.approx(0.0, abs=1e-6)

    def test_fixed_config_gets_direct_facets(self, mini):
        spec, scen = mini
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 1)
        assert rows_named(inst.model, "cs_facet")
        assert not rows_named(inst.model, "cs_select")
        assert ("p_by", "CS1", 1) not in inst.handles

    def test_missing_facets_raise(self):
        spec, scen = load_instance(mini_station())  # ranges not built
        with pytest.raises(ValueError, match="no built operating range"):
            build_stationary(spec, scen, WEIGHTS, 1, "o_cp")


class TestPipeRows:
    def test_stationary_momentum_coefficients(self, piped):
        spec, scen = piped
        pipe = spec.pipes["P1"]
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 1)
        (row,) = rows_named(inst.model, "pipe_mom(P1")
        lam = nikuradse_friction(pipe.diameter, pipe.roughness)
        expect_q = lam * pipe.length / (4 * pipe.diameter * pipe.area) * (
            pipe.velo_const_from + pipe.velo_const_to
        )
        pl = inst.handles["p", "B1", 1]
        pr = inst.handles["p", "N1", 1]
        q = inst.handles["ql", "P1", 1]
        # zero slope: p_r - p_l + coef * q = 0
        assert row.coeffs[pr.index] == pytest.approx(1.0)
        assert row.coeffs[pl.index] == pytest.approx(-1.0)
        assert row.coeffs[q.index] == pytest.approx(expect_q)
        assert row.rhs == 0.0
        assert not rows_named(inst.model, "pipe_cont")

    def test_zero_flow_initial_state_leaves_gravity_only(self):
        doc = mini_station_pipes()
        doc["scenario"]["initialState"]["pipeFlows"]["P1"] = [0.0, 0.0]
        for arc in ("CS1", "RG1"):
            doc["scenario"]["initialState"]["arcFlows"][arc] = 0.0
        doc["scenario"]["initialState"]["operationMode"] = "o_by"
        doc["arcs"][0]["slope"] = 0.01
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_by", 1)
        (row,) = rows_named(inst.model, "pipe_mom(P1")
        q = inst.handles["ql", "P1", 1]
        assert q.index not in row.coeffs  # friction term vanished with v = 0
        pl = inst.handles["p", "B1", 1]
        assert row.coeffs[pl.index] != pytest.approx(-1.0)  # gravity shifted it

    def test_transient_continuity_coefficients(self, piped):
        spec, scen = piped
        pipe = spec.pipes["P1"]
        inst = build_full(spec, scen, WEIGHTS)
        row = rows_named(inst.model, "pipe_cont(P1,2)")[0]
        c = spec.constants
        rstz = c.specific_gas_constant * c.temperature * pipe.z_factor
        dt = scen.time_grid[2] - scen.time_grid[1]
        expect = 2.0 * rstz * dt / (pipe.length * pipe.area)
        ql = inst.handles["ql", "P1", 2]
        qr = inst.handles["qr", "P1", 2]
        assert row.coeffs[qr.index] == pytest.approx(expect)
        assert row.coeffs[ql.index] == pytest.approx(-expect)

    def test_flat_pressures_force_balanced_pipe_flows(self, piped):
        # continuity with equal end pressures across adjacent steps
        # degenerates to q_out = q_in
        spec, scen = piped
        inst = build_full(spec, scen, WEIGHTS)
        row = rows_named(inst.model, "pipe_cont(P1,2)")[0]
        x = np.zeros(inst.model.n_vars)
        for v in ("B1", "N1"):
            x[inst.handles["p", v, 1].index] = 50e5
            x[inst.handles["p", v, 2].index] = 50e5
        x[inst.handles["ql", "P1", 2].index] = 120.0
        x[inst.handles["qr", "P1", 2].index] = 120.0
        assert row_activity(row, x) == pytest.approx(row.rhs)
        x[inst.handles["qr", "P1", 2].index] = 121.0
        assert row_activity(row, x) != pytest.approx(row.rhs)


class TestValveAndRegulatorRows:
    def test_open_valve_couples_pressures(self, mini):
        spec, scen = mini
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_by", 1)
        res = solve(inst, default_settings_for("Psf"))
        assert res.ok
        assert inst.value(res.assignment, "p", "B1", 1) == pytest.approx(
            inst.value(res.assignment, "p", "B2", 1), rel=1e-9
        )

    def test_closed_valve_blocks_flow(self, mini):
        spec, scen = mini
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 1)
        res = solve(inst, default_settings_for("Psf"))
        assert inst.value(res.assignment, "q", "V1", 1) == pytest.approx(0.0, abs=1e-6)

    def test_regulator_bypass_substitution(self, piped):
        spec, scen = piped
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_by", 1)
        m = inst.model
        x = np.zeros(m.n_vars)
        # pick out the regulator rows and check the bypass case collapses
        # to p_l = p_r with nonnegative flow
        by = inst.handles["rg", "by", "RG1", 1]
        cl = inst.handles["rg", "cl", "RG1", 1]
        ac = inst.handles["rg", "ac", "RG1", 1]
        pl = inst.handles["p", "N2", 1]
        pr = inst.handles["p", "B2", 1]
        q = inst.handles["q", "RG1", 1]
        x[by.index] = 1.0
        x[pl.index] = 60e5
        x[pr.index] = 60e5
        x[q.index] = 10.0
        for row in rows_named(m, "rg_"):
            act = row_activity(row, x)
            ok = {"<=": act <= row.rhs + 1e-9, ">=": act >= row.rhs - 1e-9, "==": abs(act - row.rhs) < 1e-9}
            assert ok[row.sense], row.name
        # bypass with unequal pressures violates the collapsed pair
        x[pr.index] = 59e5
        bad = [
            row
            for row in rows_named(m, "rg_p_")
            if not {
                "<=": row_activity(row, x) <= row.rhs + 1e-9,
                ">=": row_activity(row, x) >= row.rhs - 1e-9,
            }[row.sense]
        ]
        assert bad

    def test_regulator_flow_nonnegative(self, piped):
        spec, scen = piped
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 1)
        assert inst.model.arrays().lb[inst.handles["q", "RG1", 1].index] == 0.0
        assert rows_named(inst.model, "rg_q_lo")


class TestNodeBalance:
    def test_two_pipe_series_inner_node(self):
        doc = mini_station_pipes()
        # split P1 into two pipes in series via a new inner node
        doc["nodes"].append({"id": "M", "kind": "inner", "pressureLB": 30.0, "pressureUB": 70.0})
        doc["arcs"].append(
            {
                "id": "P2",
                "kind": "pipe",
                "from": "M",
                "to": "N1",
                "length": 300.0,
                "diameter": 0.5,
                "roughness": 1e-05,
                "flowLB": -2000.0,
                "flowUB": 2000.0,
            }
        )
        for arc in doc["arcs"]:
            if arc["id"] == "P1":
                arc["to"] = "M"
        doc["scenario"]["initialState"]["pressures"]["M"] = 49.95
        doc["scenario"]["initialState"]["pipeFlows"]["P2"] = [500.0, 500.0]
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        inst = build_full(spec, scen, WEIGHTS)
        row = rows_named(inst.model, "balance(M,1)")[0]
        qr1 = inst.handles["qr", "P1", 1]
        ql2 = inst.handles["ql", "P2", 1]
        assert row.coeffs == {qr1.index: 1.0, ql2.index: -1.0}

    def test_boundary_node_carries_inflow(self, mini):
        spec, scen = mini
        inst = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        row = rows_named(inst.model, "balance(B1,1)")[0]
        d = inst.handles["d", "B1", 1]
        assert row.coeffs[d.index] == 1.0

    def test_star_node_signed_incidence(self, piped):
        spec, scen = piped
        inst = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        row = rows_named(inst.model, "balance(N1,1)")[0]
        expect = {
            inst.handles["qr", "P1", 1].index: 1.0,  # pipe ends here
            inst.handles["q", "CS1", 1].index: -1.0,  # station leaves
            inst.handles["q", "V1", 1].index: -1.0,  # valve leaves
        }
        assert row.coeffs == expect


def tri_station():
    """Three boundary nodes with a flow condition, for big-M arithmetic."""
    doc = mini_station()
    doc["nodes"].append(
        {"id": "B3", "kind": "boundary", "pressureLB": 30.0, "pressureUB": 70.0}
    )
    doc["nodes"].append({"id": "N1", "kind": "inner", "pressureLB": 30.0, "pressureUB": 70.0})
    doc["arcs"] = [
        {"id": "V1", "kind": "valve", "from": "B1", "to": "N1", "flowLB": -2000.0, "flowUB": 2000.0},
        {"id": "V2", "kind": "valve", "from": "B3", "to": "N1", "flowLB": -2000.0, "flowUB": 2000.0},
        {
            "id": "CS1",
            "kind": "compressorStation",
            "from": "N1",
            "to": "B2",
            "flowLB": 0.0,
            "flowUB": 1800.0,
            "units": ["U1"],
            "configurations": [{"id": "c1", "stages": [["U1"]]}],
        },
    ]
    doc["operationModes"] = [
        {"id": "o_cp", "assignment": {"V1": "op", "V2": "op", "CS1": "c1"}}
    ]
    doc["flowDirections"] = [
        {"id": "f1", "inflowNodes": ["B1", "B3"], "outflowNodes": ["B2"]}
    ]
    doc["validPairs"] = [["o_cp", "f1"]]
    doc["fenceGroups"] = [{"id": "g_in", "nodes": ["B1", "B3"]}, {"id": "g_out", "nodes": ["B2"]}]
    doc["flowConditions"] = [{"direction": "f1", "smaller": ["B1"], "larger": ["B3"]}]
    doc["transitionTimes"] = {}
    doc["scenario"]["pressureDemand"]["B3"] = [50.0] * 4
    doc["scenario"]["inflowLB"]["B3"] = -300.0
    doc["scenario"]["inflowUB"]["B3"] = 800.0
    doc["scenario"]["inflowUB"]["B1"] = 700.0
    doc["scenario"]["initialState"]["pressures"]["B3"] = 50.0
    doc["scenario"]["initialState"]["pressures"]["N1"] = 50.0
    doc["scenario"]["initialState"]["arcFlows"] = {"V1": 250.0, "V2": 250.0, "CS1": 500.0}
    doc["scenario"]["flowDemand"] = {"g_in": [500.0] * 4, "g_out": [-480.0] * 4}
    return doc


class TestStationLogic:
    def test_single_pair_collapses_to_ones(self):
        doc = tri_station()
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        inst = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        res = solve(inst, default_settings_for("Ps"))
        assert res.ok
        assert inst.value(res.assignment, "om", "o_cp", 1) == 1.0
        assert inst.value(res.assignment, "fd", "f1", 1) == 1.0

    def test_node_in_neither_side_has_zero_inflow(self, mini):
        spec, scen = mini
        # a direction that names only B1: B2 must then have zero inflow
        import dataclasses

        from stationopt.network import FlowDirection

        fd = {"f_in": FlowDirection("f_in", frozenset({"B1"}), frozenset())}
        spec2 = dataclasses.replace(
            spec,
            flow_directions=fd,
            valid_pairs=frozenset({("o_by", "f_in"), ("o_cp", "f_in")}),
        )
        inst = build_stationary_fixed(spec2, scen, WEIGHTS, "o_by", 1)
        res = solve(inst, default_settings_for("Psf"))
        assert res.ok
        assert inst.value(res.assignment, "d", "B2", 1) == pytest.approx(0.0, abs=1e-6)

    def test_condition_big_m_matches_hand_value(self):
        doc = tri_station()
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        inst = build_full(spec, scen, WEIGHTS)
        row = rows_named(inst.model, "flow_condition(0,1)")[0]
        rho = spec.constants.normal_density
        # both node sets sit in the inflow side of f1:
        #   C1 = max(0, ub(B1)) - max(0, lb(B3))
        expect = normvol_to_massflow(700.0, rho) - 0.0
        fd = inst.handles["fd", "f1", 1]
        assert row.coeffs[fd.index] == pytest.approx(expect)
        assert row.rhs == pytest.approx(expect)
        d1 = inst.handles["d", "B1", 1]
        d3 = inst.handles["d", "B3", 1]
        assert row.coeffs[d1.index] == pytest.approx(1.0)
        assert row.coeffs[d3.index] == pytest.approx(-1.0)

    def test_exit_pressure_bound_active_for_outflow(self, mini):
        spec, scen = mini
        inst = build_full(spec, scen, WEIGHTS)
        row = rows_named(inst.model, "exit_pressure(B2,1)")[0]
        p = inst.handles["p", "B2", 1]
        fd = inst.handles["fd", "f_fwd", 1]
        node = spec.nodes["B2"]
        gap = node.pressure_ub[1] - node.exit_pressure_ub
        assert row.coeffs == {p.index: 1.0, fd.index: pytest.approx(gap)}
        assert row.rhs == pytest.approx(node.pressure_ub[1])

    def test_all_modes_unavailable_flagged_early(self):
        doc = mini_station(unavailability={"U1": [[0.0, 1e9]]})
        doc["operationModes"] = [doc["operationModes"][1]]  # only the compressing mode
        doc["validPairs"] = [["o_cp", "f_fwd"]]
        doc["scenario"]["initialState"]["operationMode"] = "o_cp"
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        with pytest.raises(BuildInfeasibleError, match="no operation mode"):
            build_full(spec, scen, WEIGHTS)


class TestChangesAndObjective:
    def test_exact_demand_means_zero_slack_cost(self):
        doc = mini_station(mismatch=0.0)
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 1)
        res = solve(inst, default_settings_for("Psf"))
        assert res.ok
        assert res.objective == pytest.approx(0.0, abs=1e-6)

    @pytest.mark.parametrize("mode", ["o_by", "o_c1", "o_c2", "o_c12"])
    @pytest.mark.parametrize("prev", ["o_by", "o_c1", "o_c2", "o_c12"])
    def test_switch_cost_equals_the_constants_of_a_switching_window(self, two_unit, prev, mode):
        spec, scen = two_unit
        snapshot = dataclasses.replace(scen.initial_state, operation_mode=prev)
        inst = build_fixed_transient(spec, scen, WEIGHTS, [mode], ["f_fwd"], snapshot)
        indicators = change_indicators(spec, prev, mode)
        assert indicators == {key: inst.handles[(*key, 1)] for key in indicators}
        started = spec.mode_units(mode) - spec.mode_units(prev)
        expected = WEIGHTS.operation_mode_change * (mode != prev) + WEIGHTS.unit_start * len(started)
        cost = switch_cost(spec, WEIGHTS, prev, mode)
        assert cost == pytest.approx(expected)
        # the window's only constants are its om_change and unit_start terms
        constants = {c for c, idx, _ in inst.model.objective_terms if idx is None}
        assert constants <= {"om_change", "unit_start"}
        assert cost == inst.model.objective_constant

    def test_fixed_stationary_model_has_no_switch_cost(self, mini):
        spec, scen = mini
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 1)
        assert inst.model.objective_constant == 0.0
        assert inst.handles["d_om", 1] == 0.0 and inst.handles["d_us", "U1", "CS1", 1] == 0.0

    def test_slack_weights_scale_with_interval_length(self, mini):
        spec, scen = mini
        inst = build_full(spec, scen, WEIGHTS)
        m = inst.model
        coef_by_time = {}
        for category, idx, coef in m.objective_terms:
            if category == "slack_pressure" and idx is not None:
                name = m.var_names[idx]
                t = int(name.split(",")[-1].rstrip(")"))
                coef_by_time[t] = coef
        dt = scen.step_length(1)
        assert coef_by_time[1] == pytest.approx(
            dt * WEIGHTS.slack_pressure / (1e5 * 3600.0)
        )


class TestBuildVariant:
    def test_fixed_transient_binary_count(self):
        # two regulators, one future step: 2 regulators x 3 modes plus the
        # two regulator change binaries; everything else is fixed
        doc = mini_station_pipes()
        doc["arcs"].append(
            {"id": "RG2", "kind": "regulator", "from": "N1", "to": "N2", "flowUB": 2000.0}
        )
        doc["scenario"]["initialState"]["arcFlows"]["RG2"] = 0.0
        doc["scenario"]["initialState"]["regulatorModes"]["RG2"] = "cl"
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        snapshot = scen.initial_state
        inst = build_fixed_transient(spec, scen, WEIGHTS, ["o_cp"], ["f_fwd"], snapshot)
        assert sum(inst.model.arrays().integer) == 2 * 3 + 2

    def test_singleton_stationary_equals_fixed(self, mini):
        spec, scen = mini
        ps = build_stationary(spec, scen, WEIGHTS, 2, "o_cp", ["o_cp"])
        psf = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 2)
        r1 = solve(ps, default_settings_for("Ps"))
        r2 = solve(psf, default_settings_for("Psf"))
        assert r1.objective == pytest.approx(r2.objective, rel=1e-6)

    def test_restriction_property(self, mini):
        spec, scen = mini
        full = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        res_full = solve(full, default_settings_for("Ps"))
        for mode in spec.operation_modes:
            fixed = build_stationary_fixed(spec, scen, WEIGHTS, mode, 1)
            res_fixed = solve(fixed, default_settings_for("Psf"))
            if res_fixed.ok:
                value = res_fixed.objective + switch_cost(spec, WEIGHTS, "o_cp", mode)
                assert value >= res_full.objective - 1e-6

    def test_sequence_length_mismatch(self, mini):
        spec, scen = mini
        with pytest.raises(ValueError, match="length"):
            build_fixed_transient(spec, scen, WEIGHTS, ["o_cp"], ["f_fwd", "f_fwd"], scen.initial_state)

    def test_fixed_mode_unavailable_rejected(self):
        doc = mini_station(unavailability={"U1": [[100.0, 1e9]]})
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        with pytest.raises(ValueError, match="unavailable"):
            build_fixed_transient(
                spec, scen, WEIGHTS, ["o_cp", "o_cp"], ["f_fwd", "f_fwd"], scen.initial_state
            )

    def test_full_model_smoke(self, piped):
        spec, scen = piped
        inst = build_full(spec, scen, WEIGHTS)
        res = solve(inst, default_settings_for("P", 120))
        assert res.status == "optimal"
        assert res.objective < math.inf

    def test_all_coefficients_finite(self, piped):
        spec, scen = piped
        inst = build_full(spec, scen, WEIGHTS)
        for row in inst.model.rows:
            assert all(np.isfinite(c) for c in row.coeffs.values())
            assert np.isfinite(row.rhs)
        assert all(np.isfinite(b) for b in inst.model.arrays().lb)
        assert all(np.isfinite(b) for b in inst.model.arrays().ub)

    def test_big_m_values_follow_bounds(self):
        doc = mini_station()
        doc["nodes"][0]["pressureUB"] = 80.0
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        inst = build_full(spec, scen, WEIGHTS)
        row = rows_named(inst.model, "valve_p_hi(V1,1)")[0]
        op = inst.handles["op", "V1", 1]
        assert row.coeffs[op.index] == pytest.approx((80.0 - 30.0) * 1e5)
        assert row.rhs == pytest.approx((80.0 - 30.0) * 1e5)


# Operating range of mini_station's configuration c1, attached to the loaded
# spec so that no range construction runs: w pl + x pr + y q + z <= 0 in Pa, Pa
# and kg/s; the last row is a flow facet, the others are pressure facets.
PINNED_FACETS = [
    [-1.0, 0.0, 0.0, 4.0e6],
    [0.0, 1.0, 0.0, -7.5e6],
    [1.0, -1.0, 0.0, 0.0],
    [-1.0, 1.0, 0.0, -2.5e6],
    [0.0, 0.0, -1.0, 0.0],
    [-1.0e-4, 1.0e-4, 1.0, -450.0],
]
# sha256 of lp_text() per variant; P, Ps and Pf have a mode change, so Pf
# carries constant mode-change and unit-start terms, and Psf has none
PINNED_LP_SHA256 = {
    "P": "dfe8c86673277772650e35c5e67df1cfd1076ab7ba934dfb2ffc691d914f5c8e",
    "Ps": "e7ec6cacb82ea38a50c03ad2ca86c6d719e8f9513c98a14d5e870ef6dbe1698d",
    "Psf": "d52a2a4b19e5907c201517978be991a223efece41b3993cfa85aa7778e6159c7",
    "Pf": "f46e5de376486ceead04da24df4ea9e2e376e4fd6186df9e69642e2ad747d3b5",
}


class TestPinnedOutput:
    """The builder's LP text for every variant of mini_station, byte for byte."""

    @pytest.fixture(scope="class")
    def models(self):
        spec, scen = load_instance(mini_station())
        station = spec.stations["CS1"]
        (config,) = station.configurations
        pinned = dataclasses.replace(station, configurations=(config.with_facets(PINNED_FACETS),))
        spec = dataclasses.replace(spec, stations={"CS1": pinned})
        pf_modes = ["o_cp", "o_by", "o_by", "o_cp"]
        return {
            "P": build_full(spec, scen, WEIGHTS),
            "Ps": build_stationary(spec, scen, WEIGHTS, 2, "o_by"),
            "Psf": build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 2),
            "Pf": build_fixed_transient(
                spec, scen, WEIGHTS, pf_modes, ["f_fwd"] * 4, scen.initial_state
            ),
        }

    @pytest.mark.parametrize("kind", sorted(PINNED_LP_SHA256))
    def test_lp_text_sha256(self, models, kind):
        text = models[kind].model.lp_text()
        assert hashlib.sha256(text.encode()).hexdigest() == PINNED_LP_SHA256[kind]


PRESSURE_COLUMNS = ("p(", "p_by(", "p_cl_l(", "p_cl_r(", "p_cfg_l(", "p_cfg_r(", "sp_pos(", "sp_neg(")
PRESSURE_COLUMNS += ("trk_rg_pl(", "trk_rg_pr(", "trk_cs_pl(", "trk_cs_pr(")
FLOW_COLUMNS = ("q(", "ql(", "qr(", "q_by(", "q_cfg(", "d(", "sd_pos(", "sd_neg(", "trk_rg_q(", "trk_cs_q(")


class TestSolverUnits:
    def test_every_column_declares_its_unit(self, piped, mini):
        spec, scen = piped
        models = [build_full(spec, scen, WEIGHTS).model]
        models.append(build_stationary(*mini, WEIGHTS, 1, "o_cp").model)
        for m in models:
            for name, unit, integer in zip(m.var_names, m.arrays().col_unit, m.arrays().integer):
                if name.startswith(PRESSURE_COLUMNS):
                    assert unit == PA_PER_BAR, name
                elif name.startswith(FLOW_COLUMNS):
                    assert unit == KG_S_PER_SOLVER_FLOW, name
                else:
                    assert integer and unit == 1.0, name

    def test_solver_view_is_well_scaled(self, piped):
        spec, scen = piped
        m = build_full(spec, scen, WEIGHTS).model
        si = np.abs([c for row in m.rows for c in row.coeffs.values()])
        assert si.max() / si.min() > 1e11
        view = m.solver_view()
        coeffs = np.abs(view.A.data[view.A.data != 0.0])
        assert coeffs.max() / coeffs.min() < 1e6
        finite = np.concatenate([view.row_lo, view.row_hi, view.lb, view.ub])
        assert np.abs(finite[np.isfinite(finite)]).max() < 1e3
        facets = [row for row in m.rows if row.name.startswith("cs_facet")]
        flow_facets = [row for row in facets if row.unit == KG_S_PER_SOLVER_FLOW]
        assert flow_facets and len(flow_facets) < len(facets)
        assert all(row.unit is None for row in facets if row not in flow_facets)


class TestLinkingEqualities:
    def test_exactly_one_branch_carries_values(self, mini):
        spec, scen = mini
        inst = build_stationary(spec, scen, WEIGHTS, 1, "o_cp")
        res = solve(inst, default_settings_for("Ps"))
        assert res.ok
        by = inst.value(res.assignment, "cs_by", "CS1", 1)
        cl = inst.value(res.assignment, "cs_cl", "CS1", 1)
        cfg = inst.value(res.assignment, "cfg", "c1", "CS1", 1)
        assert by + cl + cfg == pytest.approx(1.0)
        copies = {
            "by": inst.value(res.assignment, "p_by", "CS1", 1),
            "cl": inst.value(res.assignment, "p_cl_l", "CS1", 1),
            "cfg": inst.value(res.assignment, "p_cfg_l", "c1", "CS1", 1),
        }
        active = {"by": by, "cl": cl, "cfg": cfg}
        for branch, indicator in active.items():
            if indicator == 0.0:
                assert copies[branch] == pytest.approx(0.0, abs=1e-6)


class TestExitPressureBehavior:
    def test_exit_bound_caps_the_outflow_node(self):
        # B2 wants 69 bar but serves as exit (bound 68): the pressure must
        # stay at the exit cap and the shortfall lands in the slack
        doc = mini_station()
        doc["scenario"]["pressureDemand"]["B2"] = [69.0] * 4
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000)
        inst = build_stationary_fixed(spec, scen, WEIGHTS, "o_cp", 1)
        res = solve(inst, default_settings_for("Psf"))
        assert res.ok
        p_b2 = inst.value(res.assignment, "p", "B2", 1)
        assert p_b2 <= 68.0e5 + 1.0
        assert inst.value(res.assignment, "sp-", "B2", 1) >= 1.0e5 - 1.0


class TestStepBounds:
    """``step_bounds`` is the per-run table both solver keys slice: row t
    holds the bounds a build reads at step t in the key layout."""

    @pytest.mark.parametrize(
        "doc, steps",
        [(mini_station, None), (mini_station_pipes, None), (two_unit_station, None), (medium_station, None),
         (mini_station_pipes, "96"), (medium_station, "24")]
        + [(functools.partial(seeded_instance, s), None) for s in range(10)],
        ids=["mini_station", "mini_station_pipes", "two_unit_station", "medium_station", "mini_station_pipes@96",
             "medium_station@24"] + [f"seeded_{s}" for s in range(10)],
    )
    def test_row_t_holds_the_bounds_of_step_t(self, doc, steps):
        spec, scen = load_instance(doc())
        if steps is not None:
            spec, scen = regrid_instance(spec, scen, template_grid(steps))
        table = step_bounds(spec, scen)
        assert table.shape[0] == scen.n_future + 1
        for t in range(scen.n_future + 1):
            assert table[t].tobytes() == reference_step_bounds(spec, scen, t).tobytes(), t


def per_step_arrays(obj, path=()):
    """(path, array) of every 1-D array reachable from a spec or scenario
    through dataclass fields, dict values and tuple items."""
    if isinstance(obj, np.ndarray):
        if obj.ndim == 1:
            yield path, obj
    elif dataclasses.is_dataclass(obj):
        for f in dataclasses.fields(obj):
            yield from per_step_arrays(getattr(obj, f.name), path + (f.name,))
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from per_step_arrays(value, path + (key,))
    elif isinstance(obj, (tuple, list)):
        for i, value in enumerate(obj):
            yield from per_step_arrays(value, path + (i,))


def stationary_fingerprints(spec, scen, t):
    """The fingerprint of ``Psf`` in every mode and of ``Ps`` after every
    previous mode at step t ("infeasible" where the build says so)."""
    out = {}
    modes = sorted(spec.operation_modes)
    builds = [(("Psf", o), lambda o=o: build_stationary_fixed(spec, scen, WEIGHTS, o, t)) for o in modes]
    builds += [(("Ps", o), lambda o=o: build_stationary(spec, scen, WEIGHTS, t, o, modes)) for o in modes]
    for key, build in builds:
        try:
            out[key] = fingerprint(build().model)
        except BuildInfeasibleError:
            out[key] = "infeasible"
    return out


def stationary_keys(spec, scen, t):
    """What the solver's memo keys a step on, per variant: ``Psf`` on its
    ``step_inputs``, ``Ps`` also on the candidates available at t."""
    inputs = step_inputs(spec, scen, step_bounds(spec, scen), t)
    available = tuple(o for o in sorted(spec.operation_modes) if mode_available(spec, scen.time_grid, o, t))
    return {"Psf": inputs, "Ps": (available, inputs)}


class TestStepInputs:
    """``step_inputs`` keys the solver's stationary memo: a step whose key
    repeats is answered without a build, so the key must change wherever
    a stationary model's numbers change."""

    @pytest.mark.parametrize("doc", [mini_station_pipes, medium_station], ids=lambda d: d.__name__)
    def test_key_changes_with_every_per_step_number(self, doc):
        spec, scen = load_instance(doc())
        spec = build_spec_ranges(spec, count=2000)
        steps = range(1, scen.n_future + 1)

        def snapshot():
            return [(stationary_keys(spec, scen, t), stationary_fingerprints(spec, scen, t)) for t in steps]

        def moved_without_key(before, after):
            """The variants whose fingerprint moved, and those of them
            whose key stayed."""
            (keys0, fps0), (keys1, fps1) = before, after
            moved = {name for name in fps0 if fps0[name] != fps1[name]}
            return moved, [name for name in sorted(moved) if keys0[name[0]] == keys1[name[0]]]

        base = snapshot()
        arrays = list(per_step_arrays(spec, ("spec",))) + list(per_step_arrays(scen, ("scen",)))
        assert {"pressure_lb", "pressure_ub", "flow_lb", "flow_ub", "time_grid"} <= {p[-1] for p, _ in arrays}
        assert {"pressure_demand", "flow_demand", "inflow_lb", "inflow_ub"} <= {p[1] for p, _ in arrays}
        changed = 0
        for path, array in arrays:
            # one interior step: index t of a (k + 1)-array, t - 1 of a demand
            i = array.size // 2
            old = array[i]
            array.flags.writeable = True
            # a zero also flips its sign, which the fingerprint sees
            for new in [old * 1.01 + 1.0] + ([-old] if old == 0.0 else []):
                array[i] = new
                try:
                    after = snapshot()
                finally:
                    array[i] = old
                for t, before, now in zip(steps, base, after):
                    moved, unkeyed = moved_without_key(before, now)
                    changed += bool(moved)
                    assert not unkeyed, (path, new, t, unkeyed)
        # each unit out for one second at the start of step t: only the
        # available candidates change, which Psf does not read
        ps_moved = 0
        for unit in sorted({u.id for st in spec.stations.values() for u in st.units}):
            for t in steps:
                window = (float(scen.time_grid[t]), float(scen.time_grid[t]) + 1.0)
                out = dataclasses.replace(spec, unavailability={**spec.unavailability, unit: (window,)})
                now = stationary_keys(out, scen, t), stationary_fingerprints(out, scen, t)
                moved, unkeyed = moved_without_key(base[t - 1], now)
                assert now[0]["Psf"] == base[t - 1][0]["Psf"]
                assert all(variant == "Ps" for variant, _ in moved), (unit, t, moved)
                ps_moved += bool(moved)
                assert not unkeyed, (unit, t, unkeyed)
        assert changed > 0 and ps_moved > 0

    @pytest.mark.parametrize(
        "doc, steps",
        [(mini_station, None), (mini_station_pipes, None), (two_unit_station, None), (medium_station, None),
         (mini_station_pipes, "96")]
        + [(functools.partial(seeded_instance, s), None) for s in range(40)],
        ids=["mini_station", "mini_station_pipes", "two_unit_station", "medium_station", "mini_station_pipes@96"]
        + [f"seeded_{s}" for s in range(40)],
    )
    def test_equal_keys_give_equal_fingerprints(self, doc, steps):
        spec, scen = load_instance(doc())
        if steps is not None:
            spec, scen = regrid_instance(spec, scen, template_grid(steps))
        spec = build_spec_ranges(spec, count=2000)
        by_key: dict = {}
        for t in range(1, scen.n_future + 1):
            fps = stationary_fingerprints(spec, scen, t)
            for variant, key in stationary_keys(spec, scen, t).items():
                part = {name: fp for name, fp in fps.items() if name[0] == variant}
                by_key.setdefault((variant, key), []).append((t, part))
        for (variant, _), repeats in by_key.items():
            (_, first), *rest = repeats
            assert all(part == first for _, part in rest), (variant, [t for t, _ in repeats])
        if steps == "96":
            assert len([key for key in by_key if key[0] == "Psf"]) < scen.n_future


def per_time_bounds(doc: dict) -> dict:
    """``doc`` with a series over the grid instants for every node pressure
    bound, arc flow bound and boundary inflow bound, each tightening by a
    step per instant (true per-time bounds, which ``regrid_bounds``
    rejects)."""
    n = len(doc["scenario"]["timeGrid"])
    for item in doc["nodes"] + doc["arcs"]:
        for key, step in (("pressureLB", 0.1), ("pressureUB", -0.1), ("flowLB", 1.0), ("flowUB", -1.0)):
            if key in item:
                item[key] = [item[key] + step * i for i in range(n)]
    scenario = doc["scenario"]
    for key, step in (("inflowLB", 1.0), ("inflowUB", -1.0)):
        scenario[key] = {v: [b + step * i for i in range(n)] for v, b in scenario[key].items()}
    return doc


class TestWindowPattern:
    """``window_pattern`` keys the solver's smoothing templates: a window
    whose pattern repeats is patched from an earlier build, so the pattern
    must change wherever a fixed transient build's numbers change, but for
    the start state's pressures and flows and the demands, which the patch
    recomputes."""

    MODES, DIRS = ("o_c1", "o_c12"), ("f_we", "f_wes")
    T0 = 2  # the window's steps are 3 and 4, the step before is 2

    @pytest.fixture()
    def native(self):
        spec, scen = load_instance(per_time_bounds(medium_station()))
        return spec, scen, dataclasses.replace(scen.initial_state, time_index=self.T0)

    def pattern(self, spec, scen, snapshot, weights=WEIGHTS):
        return window_pattern(scen, step_bounds(spec, scen), weights, self.MODES, self.DIRS, snapshot)

    def test_changes_with_every_bound_and_step_length_it_reads(self, native):
        spec, scen, snapshot = native
        base = self.pattern(spec, scen, snapshot)
        # grid instants T0..last bound the window's own steps; bounds are
        # indexed by step, demands by step - 1 and never read
        read = range(self.T0, self.T0 + len(self.MODES) + 1)
        arrays = list(per_step_arrays(spec, ("spec",))) + list(per_step_arrays(scen, ("scen",)))
        assert {"pressure_lb", "pressure_ub", "flow_lb", "flow_ub", "time_grid"} <= {p[-1] for p, _ in arrays}
        assert {"pressure_demand", "flow_demand", "inflow_lb", "inflow_ub"} <= {p[1] for p, _ in arrays}
        for path, array in arrays:
            demand = path[1] in ("pressure_demand", "flow_demand")
            for i in range(array.size):
                old = array[i]
                array[i] = old * 1.01 + 1.0
                try:
                    moved = self.pattern(spec, scen, snapshot) != base
                finally:
                    array[i] = old
                assert moved == (not demand and i in read), (path, i)

    def test_changes_with_the_start_modes_and_the_weights(self, native):
        spec, scen, snapshot = native
        base = self.pattern(spec, scen, snapshot)
        for mode in spec.operation_modes:
            if mode != snapshot.operation_mode:
                assert self.pattern(spec, scen, dataclasses.replace(snapshot, operation_mode=mode)) != base
        for a, token in snapshot.regulator_modes.items():
            for other in REGULATOR_TOKENS:
                if other != token:
                    modes = {**snapshot.regulator_modes, a: other}
                    changed = dataclasses.replace(snapshot, regulator_modes=modes)
                    assert self.pattern(spec, scen, changed) != base, (a, other)
        for f in dataclasses.fields(WEIGHTS):
            weights = dataclasses.replace(WEIGHTS, **{f.name: getattr(WEIGHTS, f.name) * 2.0})
            assert self.pattern(spec, scen, snapshot, weights) != base, f.name

    def test_ignores_the_start_pressures_and_flows_and_the_absolute_step(self, native):
        spec, scen, snapshot = native
        base = self.pattern(spec, scen, snapshot)
        for name in ("pressures", "arc_flows", "pipe_flows", "inflows"):
            values = getattr(snapshot, name)
            for key, value in values.items():
                moved = tuple(x * 1.01 + 1.0 for x in value) if name == "pipe_flows" else value * 1.01 + 1.0
                changed = dataclasses.replace(snapshot, **{name: {**values, key: moved}})
                assert self.pattern(spec, scen, changed) == base, (name, key)
        # on a grid and bounds that repeat, windows at two positions share it
        spec, scen = load_instance(medium_station())
        first, later = (dataclasses.replace(scen.initial_state, time_index=t0) for t0 in (1, self.T0))
        assert self.pattern(spec, scen, first) == self.pattern(spec, scen, later)


class TestPlanReplay:
    """``complete_plan_assignment`` writes a plan's states into the columns
    of the full model and ``ModelInstance.snapshot_at`` reads states out of
    them, so the two must name each column alike."""

    @pytest.mark.parametrize(
        "doc",
        [mini_station, mini_station_pipes, two_unit_station, medium_station]
        + [functools.partial(seeded_instance, s) for s in range(5)],
        ids=["mini_station", "mini_station_pipes", "two_unit_station", "medium_station"]
        + [f"seeded_{s}" for s in range(5)],
    )
    def test_snapshot_at_reads_back_the_replayed_states(self, doc):
        spec, scen = load_instance(doc())
        spec = build_spec_ranges(spec, count=2000)
        plan = StationSolver(spec, scen, WEIGHTS).solve_station(h=4)
        inst, x = plan.replay
        for t in range(1, scen.n_future + 1):
            assert repr(inst.snapshot_at(x, t)) == repr(plan.states[t]), t


def test_full_model_footprint_is_bounded():
    # the container keeps its numbers in typed buffers, 8 bytes or fewer
    # per entry, where lists of boxed floats and ints held about 3.6 MiB;
    # and its objective once, as build-order terms, where a column dict
    # beside them kept about 2.48 MiB
    spec, scen = load_instance(mini_station_pipes())
    spec, scen = regrid_instance(spec, scen, template_grid("96"))
    spec = build_spec_ranges(spec, count=2000)
    # The figures count what a build takes fresh from the allocator, not
    # the tuples and floats it takes back from CPython's free lists, which
    # the freed warm-up refills. A full collection empties those lists, so
    # the collector pauses from the warm-up to the last reading: otherwise
    # the figures move by about 0.35 MiB with whatever ran before (with
    # empty lists the build keeps about 2.73 MiB).
    gc.disable()
    try:
        build_full(spec, scen, WEIGHTS).model.solver_view()  # first-call allocations
        tracemalloc.start()
        try:
            inst = build_full(spec, scen, WEIGHTS)
            kept, _ = tracemalloc.get_traced_memory()
            inst.model.solver_view()
            read, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    finally:
        gc.enable()
    assert inst.model.n_vars == 4320 and inst.model.n_rows == 7680
    assert kept < 2.43 * 2**20, kept / 2**20
    # a read model views its buffers: about 3.2 MiB, where copies of them
    # kept 3.8 MiB
    assert read < 3.5 * 2**20, read / 2**20
