import json
import math

import numpy as np
import pytest

from stationopt.algorithm import StationSolver
from stationopt.cli import main
from stationopt.fixtures import medium_station, mini_station, mini_station_pipes
from stationopt.io import (
    SchemaError,
    interpolate_scenario,
    load_instance,
    regrid_instance,
    load_weights,
    template_grid,
)
from stationopt.model import ObjectiveWeights
from stationopt.network import Violation, validate
from stationopt.ranges import build_spec_ranges
from stationopt.units import (
    bar_to_pa,
    massflow_to_normvol,
    normvol_to_massflow,
    pa_to_bar,
)


class TestUnits:
    def test_flow_conversion_reference(self):
        assert massflow_to_normvol(1.0, 0.8) == pytest.approx(4.5, rel=1e-12)

    def test_zero_maps_to_zero(self):
        assert massflow_to_normvol(0.0, 0.785) == 0.0
        assert bar_to_pa(0.0) == 0.0

    def test_round_trips(self):
        rng = np.random.default_rng(0)
        for x in rng.uniform(-1000, 1000, size=200):
            assert pa_to_bar(bar_to_pa(x)) == pytest.approx(x, rel=1e-12)
            assert normvol_to_massflow(massflow_to_normvol(x, 0.785), 0.785) == pytest.approx(
                x, rel=1e-12
            )

    def test_bad_density(self):
        with pytest.raises(ValueError):
            massflow_to_normvol(1.0, 0.0)


class TestTemplates:
    @pytest.mark.parametrize("name,k", [("12", 12), ("24", 24), ("48", 48), ("96", 96)])
    def test_grid_shapes(self, name, k):
        grid = template_grid(name)
        assert len(grid) == k + 1
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(12 * 3600.0)
        assert np.all(np.diff(grid) > 0)

    def test_twelve_step_partition(self):
        grid = template_grid("12")
        lengths = np.diff(grid) / 60.0
        assert list(lengths) == [15.0] * 4 + [60.0] * 5 + [120.0] * 3

    def test_unknown_template(self):
        with pytest.raises(KeyError):
            template_grid("13")


class TestLoadSave:
    def test_mini_fixture_loads_clean(self):
        spec, scen = load_instance(mini_station())
        assert validate(spec, scen) == []
        assert spec.nodes["B1"].pressure_ub[0] == pytest.approx(bar_to_pa(70.0))
        assert scen.n_future == 4

    def test_initial_inflows_balance_the_initial_flows(self):
        # B3 sits at the end of P3, whose initial flows are zero: its inflow
        # is the negated zero sum, -0.0
        _, scen = load_instance(medium_station())
        assert repr(scen.initial_state.inflows) == (
            "{'B1': 152.63888888888889, 'B2': -152.63888888888889, 'B3': -0.0}"
        )

    def test_derived_gas_quantities(self):
        spec, _ = load_instance(mini_station_pipes())
        pipe = spec.pipes["P1"]
        assert 0.8 < pipe.z_factor < 1.0
        assert pipe.velo_const_from > 0.0  # nonzero initial flow
        st = spec.stations["CS1"]
        assert 0.8 < st.units[0].inlet_z_factor < 1.0

    def test_missing_transition_table_errors(self):
        doc = mini_station()
        del doc["transitionTimes"]
        with pytest.raises(SchemaError, match="transitionTimes"):
            load_instance(doc)

    def test_schema_error_paths(self):
        doc = mini_station()
        del doc["nodes"][0]["pressureUB"]
        with pytest.raises(SchemaError, match=r"\$\.nodes\[0\]\.pressureUB"):
            load_instance(doc)

    @pytest.mark.parametrize(
        "windows,path",
        [
            ([[3600.0]], r"\$\.unavailability\.U1\[0\]: expected \[start, end\]"),
            ([["a", 5.0]], r"\$\.unavailability\.U1\[0\]\[0\]: expected a number"),
            ([[3600.0, "7200"]], r"\$\.unavailability\.U1\[0\]\[1\]: expected a number"),
            ([[0.0, 10.0], [True, 7200.0]], r"\$\.unavailability\.U1\[1\]\[0\]: expected a number"),
            (3600.0, r"\$\.unavailability\.U1: expected a list"),
        ],
        ids=["one-number", "text-start", "text-end", "bool-start", "not-a-list"],
    )
    def test_malformed_unavailability_window(self, windows, path):
        doc = mini_station()
        doc["unavailability"] = {"U1": windows}
        with pytest.raises(SchemaError, match=path):
            load_instance(doc)

    def test_unknown_arc_kind_names_its_path(self):
        doc = mini_station()
        doc["arcs"][0]["kind"] = "pump"
        with pytest.raises(SchemaError, match=r"\$\.arcs\[0\]\.kind: unknown arc kind 'pump'"):
            load_instance(doc)

    def test_malformed_pipe_flow_names_its_entry(self):
        doc = mini_station_pipes()
        doc["scenario"]["initialState"]["pipeFlows"]["P1"] = [700.0, "700"]
        with pytest.raises(SchemaError, match=r"\$\.scenario\.initialState\.pipeFlows\.P1\[1\]"):
            load_instance(doc)

    def test_wrong_series_length(self):
        doc = mini_station()
        doc["scenario"]["inflowLB"]["B1"] = [0.0, 0.0]  # needs k+1 = 5
        with pytest.raises(SchemaError, match="inflowLB"):
            load_instance(doc)


class TestWeights:
    def test_defaults_match_published_values(self):
        w = load_weights({"weights": {}})
        assert w.slack_pressure == 1000.0
        assert w.slack_flow == 100.0
        assert w.operation_mode_change == 1000.0
        assert w.unit_start == 1200.0
        assert w.regulator_mode_change == 50.0
        assert w.regulator_inlet_pressure == 10.0
        assert w.regulator_outlet_pressure == 10.0
        assert w.regulator_flow == 1.0
        assert w.station_inlet_pressure == 10.0
        assert w.station_outlet_pressure == 10.0
        assert w.station_flow == 1.0

    def test_override(self):
        w = load_weights({"weights": {"operationModeChange": 500.0}})
        assert w.operation_mode_change == 500.0
        assert w.unit_start == 1200.0

    def test_unknown_key_rejected(self):
        with pytest.raises(SchemaError):
            load_weights({"weights": {"bogus": 1.0}})

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            ObjectiveWeights(slack_pressure=0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError, match="slack_flow"):
            ObjectiveWeights(slack_flow=math.nan)


class TestFixedValves:
    def base(self):
        doc = mini_station_pipes()
        # splice a fixed-open valve between N2 and a new inner node N3
        # feeding the regulator
        for arc in doc["arcs"]:
            if arc["id"] == "RG1":
                arc["from"] = "N3"
        doc["nodes"].append({"id": "N3", "kind": "inner", "pressureLB": 30.0, "pressureUB": 70.0})
        doc["arcs"].append(
            {
                "id": "VF",
                "kind": "valve",
                "from": "N2",
                "to": "N3",
                "flowLB": -2000.0,
                "flowUB": 2000.0,
                "fixedMode": "op",
            }
        )
        doc["scenario"]["initialState"]["pressures"]["N3"] = 63.0
        doc["scenario"]["initialState"]["arcFlows"]["VF"] = 500.0
        return doc

    def test_open_valve_contracts_nodes(self):
        spec, scen = load_instance(self.base())
        assert "VF" not in spec.valves
        assert "N3" not in spec.nodes
        assert spec.regulators["RG1"].from_node == "N2"
        assert spec.valve_rewrites["mergedNodes"] == {"N3": "N2"}
        assert validate(spec, scen) == []

    def test_closed_valve_removed(self):
        doc = self.base()
        for arc in doc["arcs"]:
            if arc["id"] == "VF":
                arc["fixedMode"] = "cl"
        spec, scen = load_instance(doc)
        assert "VF" not in spec.valves
        assert "N3" in spec.nodes  # nodes stay; the regulator now hangs off N3
        assert spec.valve_rewrites["removedArcs"]["VF"] == "fixed closed"

    def test_contraction_between_boundary_nodes_rejected(self):
        doc = mini_station()
        doc["arcs"].append(
            {
                "id": "VF",
                "kind": "valve",
                "from": "B1",
                "to": "B2",
                "flowLB": -10.0,
                "flowUB": 10.0,
                "fixedMode": "op",
            }
        )
        doc["scenario"]["initialState"]["arcFlows"]["VF"] = 0.0
        with pytest.raises(SchemaError, match="boundary"):
            load_instance(doc)

    def test_parallel_fixed_valve_is_vacuous(self):
        doc = self.base()
        doc["arcs"].append(dict(doc["arcs"][-1], id="VF2"))  # a second VF, N2 -> N3
        spec, scen = load_instance(doc)
        assert spec.valve_rewrites["removedArcs"] == {
            "VF": "fixed open (contracted)", "VF2": "fixed open (vacuous)"
        }
        assert "VF2" not in spec.valves and validate(spec, scen) == []

    def test_contraction_into_a_self_loop_rejected(self):
        doc = self.base()
        doc["arcs"].append(
            {"id": "V2", "kind": "valve", "from": "N2", "to": "N3", "flowLB": -10.0, "flowUB": 10.0}
        )
        with pytest.raises(SchemaError, match=r"\$\.arcs\[5\]: fixed-open valve contraction .* self-loop"):
            load_instance(doc)

    def exit_merge_doc(self):
        """The regulator feeds the inner node N3, which has an exit bound of
        66 bar and a fixed-open valve into the boundary node B2 (68 bar)."""
        doc = mini_station_pipes()
        doc["arcs"][3]["to"] = "N3"
        doc["nodes"].append(
            {"id": "N3", "kind": "inner", "pressureLB": 30.0, "pressureUB": 70.0, "exitPressureUB": 66.0}
        )
        doc["arcs"].append(
            {"id": "VF", "kind": "valve", "from": "N3", "to": "B2", "flowLB": -2000.0, "flowUB": 2000.0,
             "fixedMode": "op"}
        )
        return doc

    def test_exit_bounds_merge_to_the_lower(self):
        spec, scen = load_instance(self.exit_merge_doc())
        assert spec.valve_rewrites["mergedNodes"] == {"N3": "B2"}
        assert spec.regulators["RG1"].to_node == "B2"
        assert spec.nodes["B2"].exit_pressure_ub == pytest.approx(bar_to_pa(66.0))
        assert validate(spec, scen) == []

    def test_flow_condition_follows_a_merged_node(self):
        doc = self.exit_merge_doc()
        doc["flowConditions"] = [{"direction": "f_fwd", "smaller": ["B1"], "larger": ["N3"]}]
        spec, scen = load_instance(doc)
        (cond,) = spec.flow_conditions
        assert (cond.smaller, cond.larger) == (("B1",), ("B2",))
        assert validate(spec, scen) == []

    def test_merged_bounds_are_intersected(self):
        doc = self.base()
        for node in doc["nodes"]:
            if node["id"] == "N3":
                node["pressureUB"] = 65.0
        spec, _ = load_instance(doc)
        assert spec.nodes["N2"].pressure_ub[0] == pytest.approx(bar_to_pa(65.0))


DELETE = object()  # a document edit that removes the field


def edited(base, where, value):
    """``base()`` with the value at ``where`` (keys and list indices) replaced."""
    doc = base()
    target = doc
    for key in where[:-1]:
        target = target[key]
    if value is DELETE:
        del target[where[-1]]
    else:
        target[where[-1]] = value
    return doc


def fixed_valve_doc():
    return TestFixedValves().base()  # arc 4 is the fixed-open valve VF


def fixed_valve_first_doc():
    doc = fixed_valve_doc()
    doc["arcs"].insert(0, doc["arcs"].pop())  # VF first, so the pipe P1 is arc 1
    return doc


def resistor_doc():
    """``mini_station_pipes`` with its pipe P1 (arc 0) replaced by the resistor R1."""
    doc = mini_station_pipes()
    doc["arcs"][0] = {
        "id": "R1", "kind": "resistor", "from": "B1", "to": "N1",
        "drag": 2.0, "diameter": 0.5, "flowLB": -2000.0, "flowUB": 2000.0,
    }
    state = doc["scenario"]["initialState"]
    state["pipeFlows"] = {}
    state["arcFlows"]["R1"] = 500.0
    return doc


def test_resistor_loads_validates_and_plans():
    doc = resistor_doc()
    spec, scen = load_instance(doc)
    res = spec.resistors["R1"]
    assert not spec.pipes and (res.drag, res.diameter) == (2.0, 0.5)
    assert res.z_factor > 0.0 and res.velo_const > 0.0
    assert validate(spec, scen) == []
    plan = StationSolver(build_spec_ranges(spec, count=2000), scen, load_weights(doc)).solve_station()
    assert plan.diagnostics["replay_violations"] == []
    inst, _ = plan.replay
    assert "resistor(R1,1)" in inst.model.row_names
    assert plan.objective == pytest.approx(18580.98, abs=0.01)


def json_values(value, where=()):
    """(where, value) for every value below ``value``, in document order."""
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in children:
        yield where + (key,), child
        yield from json_values(child, where + (key,))


def json_type(value) -> str:
    if value is None:
        return "null"
    return {str: "string", list: "list", dict: "object"}.get(type(value), "number")


# one value of each JSON type; a number is never replaced by a number
REPLACEMENTS = {"string": "x", "number": 1.5, "list": [], "object": {}, "null": None}


def swept_documents():
    """Each fixture with one value replaced by a value of another JSON type."""
    for base in (mini_station, mini_station_pipes, fixed_valve_doc):
        for where, value in json_values(base()):
            for kind, replacement in REPLACEMENTS.items():
                if kind != json_type(value):
                    yield base.__name__, where, edited(base, where, replacement)


class TestMalformedDocuments:
    @pytest.mark.parametrize(
        "base,where,value,path",
        [
            (mini_station, ("gas",), [500.0], r"\$\.gas: expected an object"),
            (mini_station, ("nodes",), {"B1": {"kind": "boundary"}}, r"\$\.nodes: expected a list"),
            (mini_station, ("scenario", "timeGrid"), 3600.0, r"\$\.scenario\.timeGrid: expected a list"),
            (mini_station, ("scenario", "timeGrid"), [], r"\$\.scenario\.timeGrid: expected a nonempty list"),
            (mini_station, ("transitionTimes", "o_by"), 30.0, r"\$\.transitionTimes\.o_by: expected an object"),
            (mini_station, ("unavailability",), [], r"\$\.unavailability: expected an object"),
            (mini_station, ("flowDirections", 0, "inflowNodes"), "B1",
             r"\$\.flowDirections\[0\]\.inflowNodes: expected a list"),
            (mini_station, ("arcs", 0, "configurations", 0, "stages"), ["U1"],
             r"\$\.arcs\[0\]\.configurations\[0\]\.stages\[0\]: expected a list"),
            (mini_station, ("fenceGroups", 0, "nodes"), "B1", r"\$\.fenceGroups\[0\]\.nodes: expected a list"),
            (mini_station, ("operationModes", 0, "assignment"), ["V1"],
             r"\$\.operationModes\[0\]\.assignment: expected an object"),
            (mini_station, ("validPairs", 0), ["o_by", "f_fwd", "f_fwd"],
             r"\$\.validPairs\[0\]: expected \[mode, direction\]"),
            (mini_station, ("weights",), [1.0], r"\$\.weights: expected an object"),
            (mini_station, ("weights",), {"slackFlow": -1.0}, r"\$\.weights\.slackFlow: weight must be positive"),
            (fixed_valve_doc, ("arcs", 4, "to"), "NX", r"\$\.arcs\[4\]\.to: unknown node 'NX'"),
            (fixed_valve_doc, ("arcs", 4, "from"), DELETE, r"\$\.arcs\[4\]\.from: required field is missing"),
            (fixed_valve_doc, ("arcs", 4, "fixedMode"), "shut", r"\$\.arcs\[4\]\.fixedMode: invalid fixed mode"),
            (fixed_valve_first_doc, ("arcs", 1, "length"), "400", r"\$\.arcs\[1\]\.length: expected a number"),
            # one rule about a single field each, checked as the field is read
            (mini_station, ("gas", "specificGasConstant"), 0.0, r"\$\.gas\.specificGasConstant: must be positive"),
            (mini_station, ("gas", "normalDensity"), -1.0, r"\$\.gas\.normalDensity: must be positive"),
            (mini_station, ("gas", "isentropicExponent"), 1.0, r"\$\.gas\.isentropicExponent: must exceed 1"),
            (mini_station, ("nodes", 0, "kind"), "exit", r"\$\.nodes\[0\]\.kind: must be 'boundary' or 'inner'"),
            (mini_station, ("nodes", 1, "pressureLB"), 0.0, r"\$\.nodes\[1\]\.pressureLB: must be positive"),
            (fixed_valve_doc, ("nodes", 4, "pressureLB"), -1.0, r"\$\.nodes\[4\]\.pressureLB: must be positive"),
            (mini_station_pipes, ("arcs", 0, "length"), 0.0, r"\$\.arcs\[0\]\.length: must be positive"),
            (mini_station_pipes, ("arcs", 0, "diameter"), 0.0, r"\$\.arcs\[0\]\.diameter: must be positive"),
            (mini_station_pipes, ("arcs", 0, "roughness"), -1.0, r"\$\.arcs\[0\]\.roughness: must be positive"),
            (mini_station_pipes, ("arcs", 0, "slope"), 1.5, r"\$\.arcs\[0\]\.slope: must lie in \[-1, 1\]"),
            (resistor_doc, ("arcs", 0, "drag"), -1.0, r"\$\.arcs\[0\]\.drag: must be nonnegative"),
            (resistor_doc, ("arcs", 0, "diameter"), 0.0, r"\$\.arcs\[0\]\.diameter: must be positive"),
            (mini_station_pipes, ("arcs", 3, "flowLB"), -10.0, r"\$\.arcs\[3\]\.flowLB: must be zero"),
            (mini_station, ("units", 0, "maxPower"), 0.0, r"\$\.units\[0\]\.maxPower: must be positive"),
            (mini_station, ("units", 0, "maxDeltaP"), 0.0, r"\$\.units\[0\]\.maxDeltaP: must be positive"),
            (mini_station, ("units", 0, "adiabaticEfficiency"), 1.5,
             r"\$\.units\[0\]\.adiabaticEfficiency: must lie in \(0, 1\]"),
            (mini_station, ("units", 0, "operatingRange2D"), [],
             r"\$\.units\[0\]\.operatingRange2D: must hold at least one facet"),
            (mini_station, ("arcs", 0, "configurations", 0, "stages"), [],
             r"\$\.arcs\[0\]\.configurations\[0\]\.stages: must be a nonempty list"),
            (mini_station, ("arcs", 0, "configurations", 0, "stages"), [["U1"], []],
             r"\$\.arcs\[0\]\.configurations\[0\]\.stages: must be a nonempty list of nonempty stages"),
            (mini_station, ("fenceGroups", 0, "nodes"), [], r"\$\.fenceGroups\[0\]\.nodes: must be a nonempty list"),
            (mini_station, ("transitionTimes", "o_by", "o_cp"), -5.0,
             r"\$\.transitionTimes\.o_by\.o_cp: must be nonnegative"),
            (mini_station, ("unavailability",), {"U1": [[7200.0, 3600.0]]},
             r"\$\.unavailability\.U1\[0\]: must start before it ends"),
            (mini_station, ("scenario", "timeGrid", 0), 60.0, r"\$\.scenario\.timeGrid: must start at 0"),
            (mini_station, ("scenario", "timeGrid", 2), 10800.0, r"\$\.scenario\.timeGrid: .*increase strictly"),
        ],
        ids=[
            "gas-list", "nodes-object", "time-grid-number", "time-grid-empty", "transition-row-number",
            "unavailability-list", "inflow-nodes-string", "stage-string", "fence-nodes-string",
            "assignment-list", "valid-pair-triple", "weights-list", "weight-negative",
            "fixed-valve-unknown-to", "fixed-valve-without-from", "fixed-mode-by-index",
            "index-after-a-fixed-valve",
            "gas-constant-zero", "normal-density-negative", "isentropic-exponent-one", "node-kind-unknown",
            "pressure-lb-zero", "merged-node-pressure-lb-negative", "pipe-length-zero", "pipe-diameter-zero",
            "pipe-roughness-negative", "pipe-slope-steep", "resistor-drag-negative", "resistor-diameter-zero",
            "regulator-flow-lb-negative",
            "max-power-zero", "max-delta-p-zero", "efficiency-above-one", "operating-range-empty",
            "stages-empty", "stage-empty", "fence-nodes-empty", "transition-time-negative",
            "unavailability-window-reversed", "time-grid-late-start", "time-grid-repeated-instant",
        ],
    )
    def test_malformed_document_names_its_path(self, base, where, value, path):
        doc = edited(base, where, value)
        with pytest.raises(SchemaError, match=path):
            load_instance(doc)
            load_weights(doc)

    @pytest.mark.parametrize(
        "base,where,index,path",
        [
            (medium_station, ("units",), 0, r"\$\.units\[2\]\.id: repeats the id 'U1'"),
            (medium_station, ("nodes",), 1, r"\$\.nodes\[7\]\.id: repeats the id"),
            (medium_station, ("arcs",), 2, r"\$\.arcs\[7\]\.id: repeats the id 'V1'"),
            (medium_station, ("operationModes",), 0, r"\$\.operationModes\[5\]\.id: repeats the id"),
            (medium_station, ("flowDirections",), 0, r"\$\.flowDirections\[2\]\.id: repeats the id"),
            (medium_station, ("arcs", 1, "configurations"), 0,
             r"\$\.arcs\[1\]\.configurations\[4\]\.id: repeats the id"),
            (medium_station, ("arcs", 1, "units"), 0, r"\$\.arcs\[1\]\.units\[2\]: repeats the id 'U1'"),
            (medium_station, ("fenceGroups",), 0, r"\$\.fenceGroups\[3\]\.id: repeats the id 'g_w'"),
            (fixed_valve_doc, ("nodes",), 2, r"\$\.nodes\[5\]\.id: repeats the id 'N2'"),
            (fixed_valve_doc, ("arcs",), 4, r"\$\.arcs\[5\]\.id: repeats the id 'VF'"),
        ],
        ids=[
            "unit", "node", "arc", "operation-mode", "flow-direction", "configuration", "station-unit",
            "fence-group", "node-before-valve-merge", "fixed-valve",
        ],
    )
    def test_repeated_id_names_the_repeat(self, base, where, index, path):
        doc = base()
        entries = doc
        for key in where:
            entries = entries[key]
        copy = json.loads(json.dumps(entries[index]))
        if isinstance(copy, dict) and "maxPower" in copy:
            copy["maxPower"] = 1.0  # a repeat with other data is no more welcome
        entries.append(copy)
        with pytest.raises(SchemaError, match=path):
            load_instance(doc)

    def test_no_wrong_type_gets_past_the_reader(self):
        loaded = rejected = 0
        for name, where, doc in swept_documents():
            try:
                spec, scen = load_instance(doc)
                load_weights(doc)
                validate(spec, scen)
            except SchemaError:
                rejected += 1
                continue
            except Exception as exc:  # anything else is a reader gap; name the edit
                pytest.fail(f"{name} with {where} replaced raised {type(exc).__name__}: {exc}")
            loaded += 1
        assert rejected > 2000 and loaded > 0

    def test_no_zero_or_negative_number_gets_past_the_reader(self):
        outcomes = {"loaded": 0, "rejected": 0, "violations": 0}
        for base in (mini_station, mini_station_pipes, medium_station, resistor_doc):
            for where, value in json_values(base()):
                if json_type(value) != "number":
                    continue
                for number in (0.0, -1.0):
                    doc = edited(base, where, number)
                    try:
                        spec, scen = load_instance(doc)
                        load_weights(doc)
                        issues = validate(spec, scen)
                    except SchemaError:
                        outcomes["rejected"] += 1
                        continue
                    except Exception as exc:  # a physics or conversion error; name the edit
                        pytest.fail(f"{base.__name__} with {where} = {number} raised {type(exc).__name__}: {exc}")
                    assert all(isinstance(v, Violation) for v in issues)
                    outcomes["violations" if issues else "loaded"] += 1
        assert min(outcomes.values()) > 0, outcomes

    @pytest.mark.parametrize("command", ["validate", "solve"])
    @pytest.mark.parametrize(
        "where,value,path",
        [
            (("arcs", 1, "flowUB"), math.inf, "$.arcs[1].flowUB: must be finite"),
            (("arcs", 1, "flowLB"), -(10**400), "$.arcs[1].flowLB: must be finite"),
            (("nodes", 0, "pressureUB"), math.nan, "$.nodes[0].pressureUB: must be finite"),
            (("scenario", "pressureDemand", "B2", 2), math.nan, "$.scenario.pressureDemand.B2[2]: must be finite"),
            (("scenario", "initialState", "arcFlows", "V1"), -math.inf,
             "$.scenario.initialState.arcFlows.V1: must be finite"),
        ],
        ids=["flow-ub-infinity", "flow-lb-huge-integer", "pressure-ub-nan", "pressure-demand-nan", "initial-flow-minus-infinity"],
    )
    def test_non_finite_number_exits_2_naming_its_path(self, tmp_path, capsys, command, where, value, path):
        file = tmp_path / "inst.json"
        file.write_text(json.dumps(edited(mini_station, where, value)))  # NaN / Infinity literals
        assert main([command, str(file)]) == 2
        assert path in capsys.readouterr().err

    def test_repeated_key_exits_2_naming_file_and_key(self, tmp_path, capsys):
        text = json.dumps(medium_station(), indent=1)
        repeat = text.replace('"maxPower": 14000000.0,', '"maxPower": 14000000.0, "maxPower": 1.0,', 1)
        assert repeat != text
        file = tmp_path / "inst.json"
        file.write_text(repeat)
        assert main(["validate", str(file)]) == 2
        err = capsys.readouterr().err
        assert str(file) in err and "repeated key 'maxPower'" in err


class TestInterpolation:
    def test_identity_on_same_grid(self):
        spec, scen = load_instance(mini_station_pipes())
        again = interpolate_scenario(spec, scen, scen.time_grid)
        for v in scen.pressure_demand:
            assert np.allclose(again.pressure_demand[v], scen.pressure_demand[v])
        for g in scen.flow_demand:
            assert np.allclose(again.flow_demand[g], scen.flow_demand[g])

    def test_midpoint_of_linear_ramp(self):
        spec, scen = load_instance(mini_station_pipes())
        src = scen.time_grid
        mid = 0.5 * (src[1] + src[2])
        target = np.array([0.0, src[1], mid, src[-1]])
        out = interpolate_scenario(spec, scen, target)
        for v, arr in scen.pressure_demand.items():
            assert out.pressure_demand[v][1] == pytest.approx(0.5 * (arr[0] + arr[1]))

    @pytest.mark.parametrize("steps", ["12", "24", "48", "96"])
    def test_envelope_preserved_on_templates(self, steps):
        spec, scen = load_instance(mini_station_pipes())
        out = interpolate_scenario(spec, scen, template_grid(steps))
        assert out.n_future == int(steps)
        for v, arr in scen.pressure_demand.items():
            anchored = np.concatenate([[scen.initial_state.pressures[v]], arr])
            assert out.pressure_demand[v].min() >= anchored.min() - 1e-9
            assert out.pressure_demand[v].max() <= anchored.max() + 1e-9

    def test_target_outside_span_rejected(self):
        spec, scen = load_instance(mini_station_pipes())
        too_far = np.array([0.0, 3600.0, scen.time_grid[-1] + 3600.0])
        with pytest.raises(ValueError, match="outside the source span"):
            interpolate_scenario(spec, scen, too_far)

    def test_validates_after_regrid(self):
        spec, scen = load_instance(mini_station_pipes())
        spec12, out = regrid_instance(spec, scen, template_grid("12"))
        assert validate(spec12, out) == []

    def test_regrid_rejects_true_per_time_bounds(self):
        doc = mini_station_pipes()
        doc["nodes"][0]["pressureUB"] = [70.0, 70.0, 69.0, 69.0, 68.0, 68.0, 68.0]
        spec, scen = load_instance(doc)
        with pytest.raises(ValueError, match="cannot be re-gridded"):
            regrid_instance(spec, scen, template_grid("12"))
