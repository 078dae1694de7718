"""Instance documents, unit conversion and time-grid handling.

An instance is a single JSON document holding the station description and
one scenario.  File values use the field-facing units (bar, 1000 m^3/h,
minutes for transition times, seconds for the time grid and unavailability
windows); everything is converted to SI exactly once, here.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from .gas import GasConstants, papay_z, pipe_average_z, pipe_velocity_constant, resistor_velocity_constant
from .model import ObjectiveWeights
from .network import (
    CompressorStationArc,
    CompressorUnit,
    Configuration,
    FlowCondition,
    FlowDirection,
    Node,
    OperationMode,
    PipeArc,
    RegulatorArc,
    ResistorArc,
    Scenario,
    StateSnapshot,
    StationSpec,
    ValveArc,
    per_time,
)
from .units import (
    bar_to_pa,
    massflow_to_normvol,
    minutes_to_seconds,
    normvol_to_massflow,
    pa_to_bar,
)

# Partitions of the 12 h horizon into (count, minutes) runs.
TIME_GRID_TEMPLATES = {
    "12": ((4, 15.0), (5, 60.0), (3, 120.0)),
    "24": ((4, 15.0), (18, 30.0), (2, 60.0)),
    "48": ((48, 15.0),),
    "96": ((96, 7.5),),
}

HORIZON_SECONDS = 12.0 * 3600.0


class SchemaError(ValueError):
    """Instance document violates the schema; the message carries the path."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path


def template_grid(steps: str) -> np.ndarray:
    """Grid instants (seconds) of a named 12 h partition."""
    if steps not in TIME_GRID_TEMPLATES:
        raise KeyError(f"unknown time-grid template {steps!r}; have {sorted(TIME_GRID_TEMPLATES)}")
    instants = [0.0]
    for count, minutes in TIME_GRID_TEMPLATES[steps]:
        for _ in range(count):
            instants.append(instants[-1] + minutes_to_seconds(minutes))
    grid = np.array(instants)
    assert abs(grid[-1] - HORIZON_SECONDS) < 1e-6
    return grid


def _need(doc: dict, key: str, path: str):
    if key not in doc:
        raise SchemaError(f"{path}.{key}", "required field is missing")
    return doc[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SchemaError(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _number_row(value, n: int, path: str, expected: str) -> tuple:
    """A list of exactly ``n`` numbers, each checked with its own path."""
    if not isinstance(value, list) or len(value) != n:
        raise SchemaError(path, f"expected {expected}")
    return tuple(_number(v, f"{path}[{k}]") for k, v in enumerate(value))


def _number_or_list(value, n: int, path: str) -> np.ndarray:
    if isinstance(value, list):
        if len(value) != n:
            raise SchemaError(path, f"expected {n} values, got {len(value)}")
        return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)])
    return per_time(_number(value, path), n)


def load_instance(source):
    """Parse and convert an instance document; returns (spec, scenario).

    ``source`` is a path or an already-parsed dict.  Fixed valves are
    resolved here: open ones contract their end nodes (recorded in
    ``spec.valve_rewrites``), closed ones are deleted.
    """
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    doc = _preprocess_fixed_valves(doc)

    gas_doc = _need(doc, "gas", "$")
    constants = GasConstants(
        specific_gas_constant=_number(_need(gas_doc, "specificGasConstant", "$.gas"), "$.gas.specificGasConstant"),
        temperature=_number(_need(gas_doc, "temperature", "$.gas"), "$.gas.temperature"),
        pseudo_critical_pressure=_number(
            _need(gas_doc, "pseudoCriticalPressure", "$.gas"), "$.gas.pseudoCriticalPressure"
        ),
        pseudo_critical_temperature=_number(
            _need(gas_doc, "pseudoCriticalTemperature", "$.gas"), "$.gas.pseudoCriticalTemperature"
        ),
        normal_density=_number(_need(gas_doc, "normalDensity", "$.gas"), "$.gas.normalDensity"),
        isentropic_exponent=_number(gas_doc.get("isentropicExponent", 1.296), "$.gas.isentropicExponent"),
    )
    rho0 = constants.normal_density

    scen_doc = _need(doc, "scenario", "$")
    grid = np.array(
        [_number(v, f"$.scenario.timeGrid[{i}]") for i, v in enumerate(_need(scen_doc, "timeGrid", "$.scenario"))]
    )
    n_times = len(grid)
    k = n_times - 1

    nodes = {}
    for i, nd in enumerate(_need(doc, "nodes", "$")):
        path = f"$.nodes[{i}]"
        nid = _need(nd, "id", path)
        exit_ub = nd.get("exitPressureUB")
        nodes[nid] = Node(
            id=nid,
            kind=_need(nd, "kind", path),
            pressure_lb=bar_to_pa(_number_or_list(_need(nd, "pressureLB", path), n_times, f"{path}.pressureLB")),
            pressure_ub=bar_to_pa(_number_or_list(_need(nd, "pressureUB", path), n_times, f"{path}.pressureUB")),
            exit_pressure_ub=bar_to_pa(_number(exit_ub, f"{path}.exitPressureUB")) if exit_ub is not None else None,
        )

    units = {}
    for i, ud in enumerate(doc.get("units", [])):
        path = f"$.units[{i}]"
        uid = _need(ud, "id", path)
        facets = tuple(
            _number_row(row, 3, f"{path}.operatingRange2D[{j}]", "a triple (a0, a1, a2)")
            for j, row in enumerate(_need(ud, "operatingRange2D", path))
        )
        units[uid] = dict(
            id=uid,
            operating_range_2d=facets,
            max_delta_p=bar_to_pa(_number(_need(ud, "maxDeltaP", path), f"{path}.maxDeltaP")),
            max_power=_number(_need(ud, "maxPower", path), f"{path}.maxPower"),
            adiabatic_efficiency=_number(
                _need(ud, "adiabaticEfficiency", path), f"{path}.adiabaticEfficiency"
            ),
        )

    state_doc = _need(scen_doc, "initialState", "$.scenario")
    init_pressures = {}
    for v, p in _need(state_doc, "pressures", "$.scenario.initialState").items():
        value = _number(p, f"$.scenario.initialState.pressures.{v}")
        if not value > 0.0:
            raise SchemaError(f"$.scenario.initialState.pressures.{v}", "initial pressure must be positive")
        init_pressures[v] = bar_to_pa(value)

    def end_pressure(v):
        # the arc constants below need it; other nodes are checked by validate
        if v not in init_pressures:
            raise SchemaError(f"$.scenario.initialState.pressures.{v}", "missing initial pressure")
        return init_pressures[v]

    pipes, resistors, valves, regulators, stations = {}, {}, {}, {}, {}
    for i, ad in enumerate(_need(doc, "arcs", "$")):
        path = f"$.arcs[{i}]"
        aid = _need(ad, "id", path)
        kind = _need(ad, "kind", path)
        from_node = _need(ad, "from", path)
        to_node = _need(ad, "to", path)
        if from_node not in nodes or to_node not in nodes:
            raise SchemaError(path, f"unknown end node on arc {aid!r}")

        def flow_bounds(lb_key="flowLB", ub_key="flowUB", default_lb=None):
            lb_raw = ad.get(lb_key, default_lb)
            if lb_raw is None:
                raise SchemaError(f"{path}.{lb_key}", "required field is missing")
            lb = _number_or_list(lb_raw, n_times, f"{path}.{lb_key}")
            ub = _number_or_list(_need(ad, ub_key, path), n_times, f"{path}.{ub_key}")
            return normvol_to_massflow(lb, rho0), normvol_to_massflow(ub, rho0)

        if kind == "pipe":
            lb, ub = flow_bounds()
            p_l0, p_r0 = end_pressure(from_node), end_pressure(to_node)
            z = pipe_average_z(p_l0, p_r0, constants)
            pipe = PipeArc(
                id=aid,
                from_node=from_node,
                to_node=to_node,
                length=_number(_need(ad, "length", path), f"{path}.length"),
                diameter=_number(_need(ad, "diameter", path), f"{path}.diameter"),
                roughness=_number(_need(ad, "roughness", path), f"{path}.roughness"),
                slope=_number(ad.get("slope", 0.0), f"{path}.slope"),
                flow_lb=lb,
                flow_ub=ub,
                z_factor=z,
            )
            q_in, q_out = _pipe_initial_flows(state_doc, aid, rho0)
            pipes[aid] = replace(
                pipe,
                velo_const_from=pipe_velocity_constant(p_l0, q_in, pipe.area, z, constants),
                velo_const_to=pipe_velocity_constant(p_r0, q_out, pipe.area, z, constants),
            )
        elif kind == "resistor":
            lb, ub = flow_bounds()
            p_l0, p_r0 = end_pressure(from_node), end_pressure(to_node)
            z = pipe_average_z(p_l0, p_r0, constants)
            res = ResistorArc(
                id=aid,
                from_node=from_node,
                to_node=to_node,
                drag=_number(_need(ad, "drag", path), f"{path}.drag"),
                diameter=_number(_need(ad, "diameter", path), f"{path}.diameter"),
                flow_lb=lb,
                flow_ub=ub,
                z_factor=z,
            )
            q0 = _arc_initial_flow(state_doc, aid, rho0)
            resistors[aid] = replace(
                res, velo_const=resistor_velocity_constant(p_l0, p_r0, q0, res.area, z, constants)
            )
        elif kind == "valve":
            lb, ub = flow_bounds()
            valves[aid] = ValveArc(aid, from_node, to_node, lb, ub)
        elif kind == "regulator":
            lb, ub = flow_bounds(default_lb=0.0)
            regulators[aid] = RegulatorArc(aid, from_node, to_node, lb, ub)
        elif kind == "compressorStation":
            lb, ub = flow_bounds()
            z_l = papay_z(pa_to_bar(end_pressure(from_node)), constants)
            member_units = []
            for uid in _need(ad, "units", path):
                if uid not in units:
                    raise SchemaError(f"{path}.units", f"unknown compressor unit {uid!r}")
                member_units.append(CompressorUnit(inlet_z_factor=z_l, **units[uid]))
            configs = []
            for j, cd in enumerate(_need(ad, "configurations", path)):
                cpath = f"{path}.configurations[{j}]"
                stages = tuple(
                    frozenset(stage) for stage in _need(cd, "stages", cpath)
                )
                facets = cd.get("facets")
                if facets is not None:
                    facets = tuple(
                        _number_row(f, 4, f"{cpath}.facets[{m}]", "4 numbers (w, x, y, z)")
                        for m, f in enumerate(facets)
                    )
                configs.append(Configuration(_need(cd, "id", cpath), stages, facets))
            stations[aid] = CompressorStationArc(
                aid, from_node, to_node, tuple(member_units), tuple(configs), lb, ub
            )
        else:
            raise SchemaError(f"{path}.kind", f"unknown arc kind {kind!r}")

    modes = {}
    for i, od in enumerate(_need(doc, "operationModes", "$")):
        path = f"$.operationModes[{i}]"
        oid = _need(od, "id", path)
        modes[oid] = OperationMode(oid, dict(_need(od, "assignment", path)))

    directions = {}
    for i, fd in enumerate(_need(doc, "flowDirections", "$")):
        path = f"$.flowDirections[{i}]"
        fid = _need(fd, "id", path)
        directions[fid] = FlowDirection(
            fid,
            frozenset(_need(fd, "inflowNodes", path)),
            frozenset(_need(fd, "outflowNodes", path)),
        )

    valid_pairs = frozenset(
        (pair[0], pair[1]) for pair in _need(doc, "validPairs", "$")
    )
    fence_groups = {
        _need(gd, "id", f"$.fenceGroups[{i}]"): tuple(_need(gd, "nodes", f"$.fenceGroups[{i}]"))
        for i, gd in enumerate(doc.get("fenceGroups", []))
    }
    conditions = tuple(
        FlowCondition(
            _need(cd, "direction", f"$.flowConditions[{i}]"),
            tuple(_need(cd, "smaller", f"$.flowConditions[{i}]")),
            tuple(_need(cd, "larger", f"$.flowConditions[{i}]")),
        )
        for i, cd in enumerate(doc.get("flowConditions", []))
    )

    transition_times = {}
    for o1, row in _need(doc, "transitionTimes", "$").items():
        for o2, minutes in row.items():
            transition_times[(o1, o2)] = minutes_to_seconds(
                _number(minutes, f"$.transitionTimes.{o1}.{o2}")
            )

    unavailability = {}
    for uid, windows in doc.get("unavailability", {}).items():
        path = f"$.unavailability.{uid}"
        if not isinstance(windows, list):
            raise SchemaError(path, "expected a list of [start, end] windows")
        unavailability[uid] = tuple(
            _number_row(w, 2, f"{path}[{j}]", "[start, end]") for j, w in enumerate(windows)
        )

    spec = StationSpec(
        name=doc.get("name", "station"),
        constants=constants,
        nodes=dict(sorted(nodes.items())),
        pipes=dict(sorted(pipes.items())),
        resistors=dict(sorted(resistors.items())),
        valves=dict(sorted(valves.items())),
        regulators=dict(sorted(regulators.items())),
        stations=dict(sorted(stations.items())),
        operation_modes=dict(sorted(modes.items())),
        flow_directions=dict(sorted(directions.items())),
        valid_pairs=valid_pairs,
        fence_groups=dict(sorted(fence_groups.items())),
        flow_conditions=conditions,
        transition_times=transition_times,
        unavailability=unavailability,
        valve_rewrites=doc.get("_valveRewrites", {}),
    )

    boundary = spec.boundary_nodes()
    pressure_demand = {}
    for v, series in _need(scen_doc, "pressureDemand", "$.scenario").items():
        pressure_demand[v] = bar_to_pa(
            np.array([_number(x, f"$.scenario.pressureDemand.{v}[{i}]") for i, x in enumerate(series)])
        )
    flow_demand = {
        g: np.array([normvol_to_massflow(_number(x, f"$.scenario.flowDemand.{g}[{i}]"), rho0) for i, x in enumerate(series)])
        for g, series in _need(scen_doc, "flowDemand", "$.scenario").items()
    }
    inflow_lb = {
        v: normvol_to_massflow(_number_or_list(raw, n_times, f"$.scenario.inflowLB.{v}"), rho0)
        for v, raw in _need(scen_doc, "inflowLB", "$.scenario").items()
    }
    inflow_ub = {
        v: normvol_to_massflow(_number_or_list(raw, n_times, f"$.scenario.inflowUB.{v}"), rho0)
        for v, raw in _need(scen_doc, "inflowUB", "$.scenario").items()
    }
    for v in boundary:
        if v not in pressure_demand:
            raise SchemaError(f"$.scenario.pressureDemand.{v}", "missing boundary node demand")

    arc_flows = {
        a: _arc_initial_flow(state_doc, a, rho0)
        for a in list(resistors) + list(valves) + list(regulators) + list(stations)
    }
    pipe_flows = {a: _pipe_initial_flows(state_doc, a, rho0) for a in pipes}
    initial = StateSnapshot(
        time_index=0,
        operation_mode=_need(state_doc, "operationMode", "$.scenario.initialState"),
        regulator_modes=dict(state_doc.get("regulatorModes", {})),
        pressures=init_pressures,
        arc_flows=arc_flows,
        pipe_flows=pipe_flows,
        inflows={v: _node_inflow(spec, pipe_flows, arc_flows, v) for v in boundary},
    )
    scenario = Scenario(
        time_grid=grid,
        pressure_demand=pressure_demand,
        flow_demand=flow_demand,
        inflow_lb=inflow_lb,
        inflow_ub=inflow_ub,
        initial_state=initial,
    )
    return spec, scenario


def _arc_initial_flow(state_doc: dict, arc_id: str, rho0: float) -> float:
    flows = _need(state_doc, "arcFlows", "$.scenario.initialState")
    if arc_id not in flows:
        raise SchemaError(f"$.scenario.initialState.arcFlows.{arc_id}", "missing initial flow")
    return normvol_to_massflow(_number(flows[arc_id], f"$.scenario.initialState.arcFlows.{arc_id}"), rho0)


def _pipe_initial_flows(state_doc: dict, arc_id: str, rho0: float):
    flows = _need(state_doc, "pipeFlows", "$.scenario.initialState")
    path = f"$.scenario.initialState.pipeFlows.{arc_id}"
    if arc_id not in flows:
        raise SchemaError(path, "missing initial pipe flows")
    q_in, q_out = _number_row(flows[arc_id], 2, path, "[inflow, outflow]")
    return normvol_to_massflow(q_in, rho0), normvol_to_massflow(q_out, rho0)


def _preprocess_fixed_valves(doc: dict) -> dict:
    """Resolve valves whose mode is a fixed input decision.

    Closed valves are deleted; open valves contract their end nodes (one
    of which must be an inner node).  The rewrite map is recorded so
    results can be reported against the original topology.
    """
    arcs = doc.get("arcs", [])
    fixed = [a for a in arcs if a.get("kind") == "valve" and "fixedMode" in a]
    if not fixed:
        return doc
    doc = json.loads(json.dumps(doc))  # deep copy; we rewrite in place
    rewrites: dict = {"removedArcs": {}, "mergedNodes": {}}
    node_kind = {n["id"]: n["kind"] for n in doc["nodes"]}

    rename: dict = {}

    def resolve(node_id: str) -> str:
        while node_id in rename:
            node_id = rename[node_id]
        return node_id

    keep_arcs = []
    for arc in doc["arcs"]:
        if not (arc.get("kind") == "valve" and "fixedMode" in arc):
            keep_arcs.append(arc)
            continue
        mode = arc["fixedMode"]
        if mode == "cl":
            rewrites["removedArcs"][arc["id"]] = "fixed closed"
            continue
        if mode != "op":
            raise SchemaError(f"$.arcs[{arc['id']}].fixedMode", f"invalid fixed mode {mode!r}")
        a, b = resolve(arc["from"]), resolve(arc["to"])
        if a == b:
            rewrites["removedArcs"][arc["id"]] = "fixed open (vacuous)"
            continue
        if node_kind[a] == "boundary" and node_kind[b] == "boundary":
            raise SchemaError(
                f"$.arcs[{arc['id']}]", "cannot contract a fixed-open valve between two boundary nodes"
            )
        # keep the boundary end if there is one, else the valve's source
        keep, drop = (b, a) if node_kind[b] == "boundary" else (a, b)
        rename[drop] = keep
        rewrites["removedArcs"][arc["id"]] = "fixed open (contracted)"
        rewrites["mergedNodes"][drop] = keep

    merged_bounds: dict = {}
    kept_nodes = []
    for n in doc["nodes"]:
        nid = n["id"]
        if resolve(nid) != nid:
            merged_bounds.setdefault(resolve(nid), []).append(n)
        else:
            kept_nodes.append(n)
    for n in kept_nodes:
        for other in merged_bounds.get(n["id"], []):
            n["pressureLB"] = _merge_bound(n["pressureLB"], other["pressureLB"], max)
            n["pressureUB"] = _merge_bound(n["pressureUB"], other["pressureUB"], min)
            if other.get("exitPressureUB") is not None:
                n["exitPressureUB"] = min(
                    n.get("exitPressureUB", other["exitPressureUB"]), other["exitPressureUB"]
                )
    doc["nodes"] = kept_nodes

    for arc in keep_arcs:
        src, dst = resolve(arc["from"]), resolve(arc["to"])
        if src == dst:
            raise SchemaError(
                f"$.arcs[{arc['id']}]", "fixed-open valve contraction would create a self-loop"
            )
        arc["from"], arc["to"] = src, dst
    doc["arcs"] = keep_arcs

    removed_arc_ids = set(rewrites["removedArcs"])
    for mode in doc.get("operationModes", []):
        mode["assignment"] = {
            a: tok for a, tok in mode["assignment"].items() if a not in removed_arc_ids
        }
    for fd in doc.get("flowDirections", []):
        fd["inflowNodes"] = sorted({resolve(v) for v in fd["inflowNodes"]})
        fd["outflowNodes"] = sorted({resolve(v) for v in fd["outflowNodes"]})
    for gd in doc.get("fenceGroups", []):
        gd["nodes"] = sorted({resolve(v) for v in gd["nodes"]})
    for cd in doc.get("flowConditions", []):
        cd["smaller"] = sorted({resolve(v) for v in cd["smaller"]})
        cd["larger"] = sorted({resolve(v) for v in cd["larger"]})

    scen = doc["scenario"]
    state = scen["initialState"]
    state["pressures"] = {
        v: p for v, p in state["pressures"].items() if resolve(v) == v
    }
    state["arcFlows"] = {a: q for a, q in state.get("arcFlows", {}).items() if a not in removed_arc_ids}
    scen["pressureDemand"] = {
        v: series for v, series in scen["pressureDemand"].items() if resolve(v) == v
    }
    for key in ("inflowLB", "inflowUB"):
        scen[key] = {v: series for v, series in scen[key].items() if resolve(v) == v}
    doc["_valveRewrites"] = rewrites
    return doc


def _merge_bound(a, b, op):
    if isinstance(a, list) or isinstance(b, list):
        n = len(a) if isinstance(a, list) else len(b)
        av = a if isinstance(a, list) else [a] * n
        bv = b if isinstance(b, list) else [b] * n
        return [op(x, y) for x, y in zip(av, bv)]
    return op(a, b)


_WEIGHT_KEYS = {
    "slackPressure": "slack_pressure",
    "slackFlow": "slack_flow",
    "operationModeChange": "operation_mode_change",
    "unitStart": "unit_start",
    "regulatorModeChange": "regulator_mode_change",
    "regulatorInletPressure": "regulator_inlet_pressure",
    "regulatorOutletPressure": "regulator_outlet_pressure",
    "regulatorFlow": "regulator_flow",
    "stationInletPressure": "station_inlet_pressure",
    "stationOutletPressure": "station_outlet_pressure",
    "stationFlow": "station_flow",
}


def load_weights(source) -> ObjectiveWeights:
    """Objective weights from an instance document; defaults when absent."""
    if isinstance(source, dict):
        doc = source
    else:
        with open(source, encoding="utf-8") as fh:
            doc = json.load(fh)
    wdoc = doc.get("weights", {})
    kwargs = {}
    for file_key, field_name in _WEIGHT_KEYS.items():
        if file_key in wdoc:
            kwargs[field_name] = _number(wdoc[file_key], f"$.weights.{file_key}")
    unknown = set(wdoc) - set(_WEIGHT_KEYS)
    if unknown:
        raise SchemaError("$.weights", f"unknown weight keys {sorted(unknown)}")
    return ObjectiveWeights(**kwargs)


def interpolate_scenario(spec: StationSpec, scen: Scenario, target_grid: np.ndarray) -> Scenario:
    """Scenario re-gridded by piecewise-linear interpolation.

    Demand series are anchored at the source future instants plus the
    initial state at t=0 (pressure: the initial node pressure; group flow:
    the signed boundary inflow implied by the initial arc flows), so any
    target grid inside the 12 h span works, including ones starting before
    the first source instant.  Shared instants reproduce source values
    exactly.
    """
    source = scen.time_grid
    target_grid = np.asarray(target_grid, dtype=float)
    if target_grid[0] != 0.0 or np.any(np.diff(target_grid) <= 0):
        raise ValueError("target grid must be strictly increasing from 0")
    if target_grid[-1] > source[-1] + 1e-6:
        raise ValueError(
            f"target grid ends at {target_grid[-1]} s, outside the source span {source[-1]} s"
        )

    def interp(train_x, train_y, at):
        return np.interp(at, train_x, train_y)

    future = target_grid[1:]
    pressure_demand = {
        v: interp(source, np.concatenate([[scen.initial_state.pressures[v]], arr]), future)
        for v, arr in scen.pressure_demand.items()
    }
    flow_demand = {}
    for g, arr in scen.flow_demand.items():
        anchor0 = sum(scen.initial_state.inflows[v] for v in spec.fence_groups[g])
        flow_demand[g] = interp(source, np.concatenate([[anchor0], arr]), future)
    inflow_lb = {v: interp(source, arr, target_grid) for v, arr in scen.inflow_lb.items()}
    inflow_ub = {v: interp(source, arr, target_grid) for v, arr in scen.inflow_ub.items()}
    return Scenario(
        time_grid=target_grid,
        pressure_demand=pressure_demand,
        flow_demand=flow_demand,
        inflow_lb=inflow_lb,
        inflow_ub=inflow_ub,
        initial_state=scen.initial_state,
    )


def regrid_bounds(spec: StationSpec, n_times: int) -> StationSpec:
    """Spec with per-time bound arrays resized for a new grid length.

    Only constant (scalar-born) bound series can be re-gridded; a genuine
    per-time list would have to be re-interpolated, which would invent
    data, so it raises instead.
    """

    def resize(arr: np.ndarray, label: str) -> np.ndarray:
        if np.all(arr == arr[0]):
            return np.full(n_times, float(arr[0]))
        raise ValueError(f"{label}: per-time bounds cannot be re-gridded; supply scalars")

    nodes = {
        v: replace(
            n,
            pressure_lb=resize(n.pressure_lb, f"node {v} pressureLB"),
            pressure_ub=resize(n.pressure_ub, f"node {v} pressureUB"),
        )
        for v, n in spec.nodes.items()
    }

    def resize_arc(group: dict) -> dict:
        return {
            a: replace(
                arc,
                flow_lb=resize(arc.flow_lb, f"arc {a} flowLB"),
                flow_ub=resize(arc.flow_ub, f"arc {a} flowUB"),
            )
            for a, arc in group.items()
        }

    return replace(
        spec,
        nodes=nodes,
        pipes=resize_arc(spec.pipes),
        resistors=resize_arc(spec.resistors),
        valves=resize_arc(spec.valves),
        regulators=resize_arc(spec.regulators),
        stations=resize_arc(spec.stations),
    )


def regrid_instance(spec: StationSpec, scen: Scenario, target_grid) -> tuple:
    """Re-grid scenario and bounds together; the usual entry point."""
    new_scen = interpolate_scenario(spec, scen, target_grid)
    return regrid_bounds(spec, len(new_scen.time_grid)), new_scen


def write_plan(prefix, spec: StationSpec, scen: Scenario, plan, extra: dict | None = None) -> tuple:
    """Write a control plan as a JSON document plus a CSV of trajectories.

    Returns the two paths.  The JSON carries the control decisions, the
    objective breakdown and the run report fields; the CSV has one row per
    grid instant with node pressures (bar), arc flows and boundary inflows
    (1000 m^3/h).
    """
    rho0 = spec.constants.normal_density
    json_path = f"{prefix}.plan.json"
    csv_path = f"{prefix}.plan.csv"

    doc = {
        "instance": spec.name,
        "status": "ok",
        "objective": plan.objective,
        "objectiveBreakdown": {k: v for k, v in sorted(plan.breakdown.items())},
        "phaseSeconds": plan.phase_seconds,
        "phaseShares": plan.phase_shares,
        "wallTime": sum(plan.phase_seconds.values()),
        "control": [],
        "diagnostics": {
            k: v
            for k, v in plan.diagnostics.items()
            if k in ("smoothing_solves", "retried_windows", "max_replay_violation", "solve_counts", "memo_hits")
        },
        "valveRewrites": spec.valve_rewrites,
    }
    if extra:
        doc.update(extra)
    for t in range(scen.n_future + 1):
        doc["control"].append(
            {
                "time": float(scen.time_grid[t]),
                "operationMode": plan.sequence.modes[t],
                "flowDirection": plan.sequence.directions[t],
                "regulatorModes": dict(sorted(plan.states[t].regulator_modes.items())),
            }
        )
    with open(json_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")

    node_ids = sorted(spec.nodes)
    arc_ids = sorted(spec.non_pipe_arcs())
    pipe_ids = sorted(spec.pipes)
    boundary = sorted(spec.boundary_nodes())
    header = (
        ["time_s"]
        + [f"p_{v}_bar" for v in node_ids]
        + [f"q_{a}" for a in arc_ids]
        + [f"q_{a}_in" for a in pipe_ids]
        + [f"q_{a}_out" for a in pipe_ids]
        + [f"d_{v}" for v in boundary]
    )
    rows = [",".join(header)]
    for t, state in enumerate(plan.states):
        cells = [f"{scen.time_grid[t]:.1f}"]
        cells += [f"{pa_to_bar(state.pressures[v]):.6f}" for v in node_ids]
        cells += [f"{massflow_to_normvol(state.arc_flows[a], rho0):.6f}" for a in arc_ids]
        cells += [f"{massflow_to_normvol(state.pipe_flows[a][0], rho0):.6f}" for a in pipe_ids]
        cells += [f"{massflow_to_normvol(state.pipe_flows[a][1], rho0):.6f}" for a in pipe_ids]
        cells += [f"{massflow_to_normvol(state.inflows[v], rho0):.6f}" for v in boundary]
        rows.append(",".join(cells))
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return json_path, csv_path


def read_report(path) -> dict:
    """Run-report fields of a written plan document."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return {
        "path": str(path),
        "instance": doc.get("instance", "?"),
        "status": doc.get("status", "?"),
        "objective": doc.get("objective"),
        "wallTime": doc.get("wallTime"),
        "gap": doc.get("gap"),
        "lowerBound": doc.get("lowerBound"),
        "phaseShares": doc.get("phaseShares", {}),
        "objectiveBreakdown": doc.get("objectiveBreakdown", {}),
    }


def _node_inflow(spec: StationSpec, pipe_flows: dict, arc_flows: dict, node: str) -> float:
    """Boundary inflow d that balances the given end flows at a node."""
    into = 0.0
    for a, pipe in spec.pipes.items():
        if pipe.to_node == node:
            into += pipe_flows[a][1]
        if pipe.from_node == node:
            into -= pipe_flows[a][0]
    for a, arc in spec.non_pipe_arcs().items():
        if arc.to_node == node:
            into += arc_flows[a]
        if arc.from_node == node:
            into -= arc_flows[a]
    return -into
