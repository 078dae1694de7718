from dataclasses import replace

import numpy as np
import pytest

from stationopt.fixtures import medium_station, mini_station, mini_station_pipes, two_unit_station
from stationopt.io import SchemaError, load_instance
from stationopt.network import Configuration, FlowCondition, Violation, mode_available, validate


@pytest.fixture(scope="module")
def mini():
    return load_instance(mini_station())


@pytest.fixture(scope="module")
def piped():
    return load_instance(mini_station_pipes())


class TestValidate:
    def test_well_formed_instances_pass(self, mini, piped):
        assert validate(*mini) == []
        assert validate(*piped) == []

    def test_overlapping_flow_direction_sets(self):
        doc = mini_station()
        doc["flowDirections"][0]["outflowNodes"] = ["B1", "B2"]
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("overlap" in s for s in issues)

    def test_mode_missing_valve_assignment(self):
        doc = mini_station()
        del doc["operationModes"][0]["assignment"]["V1"]
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("missing assignment" in s and "'V1'" in s for s in issues)

    def test_violations_name_entity_and_rule(self):
        doc = mini_station()
        doc["nodes"][0]["pressureLB"] = 75.0  # above the 70 bar upper bound
        spec, scen = load_instance(doc)
        issues = validate(spec, scen)
        assert any(v.entity == "node B1" and "exceeds" in v.rule for v in issues)

    def test_validate_is_idempotent(self, mini):
        spec, scen = mini
        assert validate(spec, scen) == validate(spec, scen)

    def test_regulator_flap_trap(self):
        # a single-field rule: the reader rejects it before validate runs
        doc = mini_station_pipes()
        i = next(i for i, arc in enumerate(doc["arcs"]) if arc["id"] == "RG1")
        doc["arcs"][i]["flowLB"] = -10.0
        with pytest.raises(SchemaError, match=rf"\$\.arcs\[{i}\]\.flowLB: .*flap trap"):
            load_instance(doc)

    def test_missing_transition_time(self):
        doc = mini_station()
        del doc["transitionTimes"]["o_by"]["o_cp"]
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("missing entry for 'o_by' -> 'o_cp'" in s for s in issues)

    def test_exit_pressure_above_bound(self):
        doc = mini_station()
        doc["nodes"][1]["exitPressureUB"] = 71.0
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("exit pressure" in s for s in issues)

    def test_valid_pairs_resolve(self, mini):
        spec, scen = mini
        for o, f in spec.valid_pairs:
            assert o in spec.operation_modes
            assert f in spec.flow_directions

    def test_initial_state_must_cover_all_arcs(self):
        doc = mini_station()
        del doc["scenario"]["initialState"]["arcFlows"]["V1"]
        with pytest.raises(Exception):
            load_instance(doc)  # loader requires flows for every arc

    def test_fence_groups_disjoint(self):
        doc = mini_station()
        doc["fenceGroups"][1]["nodes"] = ["B1"]
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("another fence group" in s for s in issues)


def replaced(obj, fields: dict):
    """``obj`` with each named field replaced by ``fields[name](obj)``."""
    return replace(obj, **{name: new(obj) for name, new in fields.items()})


def with_spec(**fields):
    """A break of a loaded (spec, scenario) pair that replaces spec fields."""
    return lambda spec, scen: (replaced(spec, fields), scen)


def with_scenario(**fields):
    return lambda spec, scen: (spec, replaced(scen, fields))


def with_state(**fields):
    return with_scenario(initial_state=lambda sc: replaced(sc.initial_state, fields))


def with_station(**fields):
    return with_spec(stations=lambda sp: {"CS1": replaced(sp.stations["CS1"], fields)})


def with_tokens(mode_id, **tokens):
    def modes(spec):
        mode = spec.operation_modes[mode_id]
        return {**spec.operation_modes, mode_id: replace(mode, assignment={**mode.assignment, **tokens})}

    return with_spec(operation_modes=modes)


# one break per relational rule of validate, on the loaded mini_station_pipes
# (boundary nodes B1, B2; inner nodes N1, N2; k = 6 future steps)
RELATIONAL_BREAKS = {
    "exit-bound-on-inner-node": (
        with_spec(nodes=lambda sp: {**sp.nodes, "N1": replace(sp.nodes["N1"], exit_pressure_ub=60e5)}),
        Violation("node N1", "exit pressure bound on a non-boundary node"),
    ),
    "foreign-unit-in-configuration": (
        with_station(
            configurations=lambda st: (*st.configurations, Configuration("c9", (frozenset({"U9"}),)))
        ),
        Violation("configuration c9", "references units not on station CS1: ['U9']"),
    ),
    "assignment-to-unknown-arc": (
        with_tokens("o_by", X9="op"),
        Violation("operation mode o_by", "assignment for unknown arc 'X9'"),
    ),
    "invalid-valve-token": (
        with_tokens("o_by", V1="by"),
        Violation("operation mode o_by", "invalid valve token 'by' for 'V1'"),
    ),
    "invalid-station-token": (
        with_tokens("o_cp", CS1="c9"),
        Violation("operation mode o_cp", "invalid station token 'c9' for 'CS1'"),
    ),
    "direction-node-not-boundary": (
        with_spec(
            flow_directions=lambda sp: {
                "f_fwd": replace(sp.flow_directions["f_fwd"], outflow_nodes=frozenset({"B2", "N2"}))
            }
        ),
        Violation("flow direction f_fwd", "'N2' is not a boundary node"),
    ),
    "pair-with-unknown-mode": (
        with_spec(valid_pairs=lambda sp: sp.valid_pairs | {("o_x", "f_fwd")}),
        Violation("valid pairs", "unknown operation mode 'o_x'"),
    ),
    "pair-with-unknown-direction": (
        with_spec(valid_pairs=lambda sp: sp.valid_pairs | {("o_by", "f_x")}),
        Violation("valid pairs", "unknown flow direction 'f_x'"),
    ),
    "group-node-not-boundary": (
        with_spec(fence_groups=lambda sp: {**sp.fence_groups, "g_in": ("B1", "N1")}),
        Violation("fence group g_in", "'N1' is not a boundary node"),
    ),
    "condition-on-unknown-direction": (
        with_spec(flow_conditions=lambda sp: (FlowCondition("f_x", ("B1",), ("B2",)),)),
        Violation("flow condition on f_x", "unknown flow direction 'f_x'"),
    ),
    "condition-node-set-split": (
        with_spec(flow_conditions=lambda sp: (FlowCondition("f_fwd", ("B1", "B2"), ("B2",)),)),
        Violation(
            "flow condition on f_fwd", "first node set must lie entirely in the inflow or the outflow side"
        ),
    ),
    "condition-node-not-boundary": (
        with_spec(flow_conditions=lambda sp: (FlowCondition("f_fwd", ("B1",), ("N2",)),)),
        Violation("flow condition on f_fwd", "'N2' is not a boundary node"),
    ),
    "unknown-unavailable-unit": (
        with_spec(unavailability=lambda sp: {"U9": ((0.0, 3600.0),)}),
        Violation("unavailability", "unknown compressor unit 'U9'"),
    ),
    "pressure-demand-length": (
        with_scenario(
            pressure_demand=lambda sc: {**sc.pressure_demand, "B1": sc.pressure_demand["B1"][:-1]}
        ),
        Violation("scenario", "pressure demand for 'B1' must have 6 values"),
    ),
    "missing-flow-demand": (
        with_scenario(flow_demand=lambda sc: {"g_in": sc.flow_demand["g_in"]}),
        Violation("scenario", "missing flow demand for fence group 'g_out'"),
    ),
    "flow-demand-length": (
        with_scenario(
            flow_demand=lambda sc: {**sc.flow_demand, "g_in": np.append(sc.flow_demand["g_in"], 0.0)}
        ),
        Violation("scenario", "flow demand for 'g_in' must have 6 values"),
    ),
    "inflow-bounds-inverted": (
        with_scenario(inflow_lb=lambda sc: {**sc.inflow_lb, "B1": sc.inflow_ub["B1"] + 1.0}),
        Violation("scenario", "inflow lower bound exceeds upper bound for 'B1'"),
    ),
    "unknown-initial-mode": (
        with_state(operation_mode=lambda st: "o_x"),
        Violation("initial state", "unknown operation mode 'o_x'"),
    ),
    "missing-initial-pressure": (
        with_state(pressures=lambda st: {v: p for v, p in st.pressures.items() if v != "N1"}),
        Violation("initial state", "missing pressure for node 'N1'"),
    ),
    "invalid-regulator-token": (
        with_state(regulator_modes=lambda st: {"RG1": "op"}),
        Violation("initial state", "invalid regulator mode 'op' for 'RG1'"),
    ),
}


@pytest.mark.parametrize("name", RELATIONAL_BREAKS)
def test_each_relational_rule_reports_its_violation(piped, name):
    break_rule, violation = RELATIONAL_BREAKS[name]
    assert violation in validate(*break_rule(*piped))


class TestModeAvailable:
    def test_no_windows_always_available(self, mini):
        spec, scen = mini
        for o in spec.operation_modes:
            for t in range(scen.n_future + 1):
                assert mode_available(spec, scen.time_grid, o, t)

    def test_interior_window_blocks_only_that_step(self):
        grid_step = 3.0 * 3600.0
        doc = mini_station(unavailability={"U1": [[grid_step + 60.0, 2 * grid_step - 60.0]]})
        spec, scen = load_instance(doc)
        grid = scen.time_grid
        assert mode_available(spec, grid, "o_cp", 0)
        assert not mode_available(spec, grid, "o_cp", 1)
        assert mode_available(spec, grid, "o_cp", 2)

    def test_mode_without_units_unaffected(self):
        doc = mini_station(unavailability={"U1": [[0.0, 1e6]]})
        spec, scen = load_instance(doc)
        for t in range(scen.n_future + 1):
            assert mode_available(spec, scen.time_grid, "o_by", t)
            assert not mode_available(spec, scen.time_grid, "o_cp", t)

    def test_last_step_checks_instant_only(self):
        # window starts just after the final grid instant
        doc = mini_station(unavailability={"U1": [[4 * 3.0 * 3600.0 + 1.0, 1e9]]})
        spec, scen = load_instance(doc)
        k = scen.n_future
        assert mode_available(spec, scen.time_grid, "o_cp", k)
        doc2 = mini_station(unavailability={"U1": [[4 * 3.0 * 3600.0, 1e9]]})
        spec2, scen2 = load_instance(doc2)
        assert not mode_available(spec2, scen2.time_grid, "o_cp", k)

    def test_monotone_in_windows(self):
        base = mini_station()
        spec0, scen0 = load_instance(base)
        more = mini_station(unavailability={"U1": [[100.0, 20000.0]]})
        spec1, scen1 = load_instance(more)
        for t in range(scen0.n_future + 1):
            if not mode_available(spec0, scen0.time_grid, "o_cp", t):
                assert not mode_available(spec1, scen1.time_grid, "o_cp", t)

    def test_unknown_mode_raises(self, mini):
        spec, scen = mini
        with pytest.raises(KeyError):
            mode_available(spec, scen.time_grid, "nope", 0)


class TestSpecServices:
    def test_mode_units(self):
        spec, _ = load_instance(two_unit_station())
        assert spec.mode_units("o_by") == frozenset()
        assert spec.mode_units("o_c1") == {"U1"}
        assert spec.mode_units("o_c12") == {"U1", "U2"}

    def test_per_mode_lookups_are_computed_once(self):
        spec, _ = load_instance(two_unit_station())
        spec = replace(spec, valid_pairs=spec.valid_pairs | {("o_c1", "f_rev"), ("o_c1", "f_alt")})
        assert spec.direction_partners["o_c1"] == ("f_alt", "f_fwd", "f_rev")
        for o in spec.operation_modes:
            assert spec.direction_partners[o] == tuple(sorted(f for oo, f in spec.valid_pairs if oo == o))
        assert spec.direction_partners is spec.direction_partners
        assert spec.mode_units("o_c12") is spec.mode_units("o_c12")
        with pytest.raises(KeyError):
            spec.mode_units("nope")

    def test_node_incidence_in_balance_row_order(self):
        spec, _ = load_instance(medium_station())
        incidence = spec.node_incidence
        # the star node: pipe P2 ends here, both regulators leave
        assert incidence["N3"] == [(1.0, "qr", "P2"), (-1.0, "q", "RG1"), (-1.0, "q", "RG2")]
        # pipe ends before other arcs, valves before stations
        assert incidence["N1"] == [(1.0, "qr", "P1"), (-1.0, "q", "V1"), (-1.0, "q", "CS1")]
        for v, node in spec.nodes.items():
            kinds = [kind for _, kind, _ in incidence[v]]
            if node.is_boundary:
                assert incidence[v][-1] == (1.0, "d", v) and kinds.count("d") == 1
            else:
                assert "d" not in kinds
        assert spec.node_incidence is incidence

    def test_transition_time_lookup(self, mini):
        spec, _ = mini
        assert spec.transition_time("o_by", "o_by") == 0.0
        assert spec.transition_time("o_by", "o_cp") == 30.0 * 60.0
        with pytest.raises(KeyError):
            spec.transition_time("o_by", "nope")

    def test_arcs_lookup_covers_all_kinds(self, piped):
        spec, _ = piped
        assert set(spec.arcs()) == {"P1", "CS1", "V1", "RG1"}
        assert set(spec.non_pipe_arcs()) == {"CS1", "V1", "RG1"}
