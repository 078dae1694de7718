"""Instance documents, unit conversion and time-grid handling.

An instance is a single JSON document holding the station description and
one scenario.  File values use the field-facing units (bar, 1000 m^3/h,
minutes for transition times, seconds for the time grid and unavailability
windows); everything is converted to SI exactly once, here.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import fields, replace

import numpy as np

from .gas import (
    ISENTROPIC_EXPONENT,
    GasConstants,
    papay_z,
    pipe_average_z,
    pipe_velocity_constant,
    resistor_velocity_constant,
)
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
    """A document violates its schema or cannot be read.

    The message starts with the JSON path of the offending value, or with
    the file name when the file is not a readable JSON document.
    """

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


# how a schema error names the JSON type of the value it rejects
_JSON_TYPES = {
    dict: "an object", list: "a list", str: "a string", bool: "a boolean",
    int: "a number", float: "a number", type(None): "null",
}


class _Field:
    """A value of a JSON document together with its path.

    The accessors check the value's JSON type, ``positive`` and ``check``
    its range, and raise a SchemaError naming the path when it is wrong,
    so every rule about one field is checked where the field is read.
    Fields and list items come back as ``_Field``s with their own paths
    (``$.arcs[3].configurations[0]``), so each path is formed once, from
    its key or index.
    """

    __slots__ = ("value", "path")

    def __init__(self, value, path: str = "$"):
        self.value = value
        self.path = path

    def expected(self, what: str) -> SchemaError:
        got = _JSON_TYPES.get(type(self.value), type(self.value).__name__)
        if isinstance(self.value, list):
            got += f" of {len(self.value)}"
        return SchemaError(self.path, f"expected {what}, got {got}")

    def check(self, ok, rule: str) -> None:
        """Raise a SchemaError naming this path and ``rule`` unless ``ok``."""
        if not ok:
            raise SchemaError(self.path, rule)

    def need(self, key: str, missing: str = "required field is missing") -> "_Field":
        """Field ``key`` of an object; ``missing`` is the message when it is absent."""
        field = self.get(key)
        field.check(key in self.value, missing)
        return field

    __getitem__ = need

    def get(self, key: str, default=None) -> "_Field":
        """Optional field ``key`` of an object; absent or null reads as ``default``."""
        value = self._object().get(key)
        return _Field(default if value is None else value, f"{self.path}.{key}")

    def fields(self) -> list:
        """(key, field) for each member of an object, in document order."""
        return [(key, _Field(value, f"{self.path}.{key}")) for key, value in self._object().items()]

    def items(self) -> list:
        if not isinstance(self.value, list):
            raise self.expected("a list")
        return [_Field(value, f"{self.path}[{i}]") for i, value in enumerate(self.value)]

    def distinct(self, key: str | None = "id") -> list:
        """Items of a list, each named by a string id no earlier item has:
        its field ``key``, or with ``key=None`` the item itself."""
        items, seen = self.items(), set()
        for item in items:
            ident = item if key is None else item[key]
            ident.check(ident.string() not in seen, f"repeats the id {ident.value!r} of an earlier entry")
            seen.add(ident.value)
        return items

    def row(self, n: int, what: str) -> list:
        """Items of a list of exactly ``n`` entries; ``what`` describes it."""
        if not (isinstance(self.value, list) and len(self.value) == n):
            raise self.expected(what)
        return self.items()

    def number(self) -> float:
        if isinstance(self.value, bool) or not isinstance(self.value, (int, float)):
            raise self.expected("a number")
        try:
            value = float(self.value)
        except OverflowError:  # an integer beyond the float range
            value = math.inf
        self.check(math.isfinite(value), "must be finite")
        return value

    def positive(self, rule: str = "must be positive") -> float:
        value = self.number()
        self.check(value > 0.0, rule)
        return value

    def number_or_none(self):
        return None if self.value is None else self.number()

    def numbers(self, n: int, what: str) -> tuple:
        return tuple(item.number() for item in self.row(n, what))

    def array(self) -> np.ndarray:
        """A list of numbers of any length."""
        return np.array([item.number() for item in self.items()])

    def series(self, n: int) -> np.ndarray:
        """A number broadcast over ``n`` grid instants, or a list of ``n`` numbers."""
        if isinstance(self.value, list):
            return np.array(self.numbers(n, f"{n} values"))
        return np.full(n, self.number())

    def string(self) -> str:
        if not isinstance(self.value, str):
            raise self.expected("a string")
        return self.value

    def strings(self) -> tuple:
        return tuple(item.string() for item in self.items())

    def string_map(self) -> dict:
        return {key: value.string() for key, value in self.fields()}

    def _object(self) -> dict:
        if not isinstance(self.value, dict):
            raise self.expected("an object")
        return self.value


def _unique_keys(pairs: list) -> dict:
    """A JSON object's members as a dict; a repeated key raises."""
    out = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"repeated key {key!r}")
        out[key] = value
    return out


def _read_document(source) -> dict:
    """``source`` itself if it is an already-parsed document, else the JSON
    document in the file it names, in which no object may repeat a key.

    An already-parsed dict cannot carry a repeat: the parser that built it
    has already kept one of the values.
    """
    if isinstance(source, dict):
        return source
    try:
        with open(source, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as exc:  # unreadable, not UTF-8 or not JSON
        reason = getattr(exc, "strerror", None) or exc
        raise SchemaError(str(source), f"cannot read the document: {reason}") from exc


def _end_nodes(arc: _Field, nodes) -> tuple:
    """An arc's (from, to) node ids, each of which must be a key of ``nodes``."""
    ends = arc["from"], arc["to"]
    for end in ends:
        end.check(end.string() in nodes, f"unknown node {end.value!r}")
    return ends[0].value, ends[1].value


def _check_node(nd: _Field) -> None:
    """The rules on a node's own fields: its kind and its pressure lower bound."""
    kind, lb = nd["kind"], nd["pressureLB"]
    kind.check(kind.string() in ("boundary", "inner"), "must be 'boundary' or 'inner'")
    lb.check(np.all((lb.array() if isinstance(lb.value, list) else lb.number()) > 0.0), "must be positive")


def load_instance(source):
    """Parse and convert an instance document; returns (spec, scenario).

    ``source`` is a path or an already-parsed dict.  Fixed valves are
    resolved here: open ones contract their end nodes (recorded in
    ``spec.valve_rewrites``), closed ones are deleted.
    """
    document = _Field(_read_document(source))
    # as written, before fixed valves merge nodes' bounds and drop arcs
    for nd in document["nodes"].distinct():
        _check_node(nd)
    document["arcs"].distinct()
    root, valve_rewrites = _preprocess_fixed_valves(document)

    gas = root["gas"]
    kappa = gas.get("isentropicExponent", ISENTROPIC_EXPONENT)
    kappa.check(kappa.number() > 1.0, "must exceed 1")
    constants = GasConstants(
        specific_gas_constant=gas["specificGasConstant"].positive(),
        temperature=gas["temperature"].positive(),
        pseudo_critical_pressure=gas["pseudoCriticalPressure"].positive(),
        pseudo_critical_temperature=gas["pseudoCriticalTemperature"].positive(),
        normal_density=gas["normalDensity"].positive(),
        isentropic_exponent=kappa.number(),
    )
    rho0 = constants.normal_density

    scen_doc = root["scenario"]
    time_grid = scen_doc["timeGrid"]
    grid = time_grid.array()
    if len(grid) == 0:
        raise time_grid.expected("a nonempty list")
    time_grid.check(grid[0] == 0.0 and np.all(np.diff(grid) > 0.0), "must start at 0 and increase strictly")
    n_times = len(grid)

    nodes = {}
    for nd in root["nodes"].items():
        nid = nd["id"].string()
        if nid in valve_rewrites.get("mergedNodes", {}):
            continue
        exit_ub = nd.get("exitPressureUB").number_or_none()
        nodes[nid] = Node(
            id=nid,
            kind=nd["kind"].value,
            pressure_lb=bar_to_pa(nd["pressureLB"].series(n_times)),
            pressure_ub=bar_to_pa(nd["pressureUB"].series(n_times)),
            exit_pressure_ub=None if exit_ub is None else bar_to_pa(exit_ub),
        )

    units = {}
    for ud in root.get("units", []).distinct():
        uid = ud["id"].string()
        facets, efficiency = ud["operatingRange2D"], ud["adiabaticEfficiency"]
        range_2d = tuple(row.numbers(3, "a triple (a0, a1, a2)") for row in facets.items())
        facets.check(range_2d, "must hold at least one facet")
        efficiency.check(0.0 < efficiency.number() <= 1.0, "must lie in (0, 1]")
        units[uid] = dict(
            id=uid,
            operating_range_2d=range_2d,
            max_delta_p=bar_to_pa(ud["maxDeltaP"].positive()),
            max_power=ud["maxPower"].positive(),
            adiabatic_efficiency=efficiency.number(),
        )

    state = scen_doc["initialState"]
    pressures = state["pressures"]
    init_pressures = {
        v: bar_to_pa(p.positive("initial pressure must be positive")) for v, p in pressures.fields()
    }

    def end_pressure(v):
        # the arc constants below need it; other nodes are checked by validate
        pressures.need(v, "missing initial pressure")
        return init_pressures[v]

    def initial_flow(arc_id):
        return normvol_to_massflow(state["arcFlows"].need(arc_id, "missing initial flow").number(), rho0)

    pipes, resistors, valves, regulators, stations = {}, {}, {}, {}, {}
    pipe_flows = {}
    for ad in root["arcs"].items():
        aid = ad["id"].string()
        if aid in valve_rewrites.get("removedArcs", {}):
            continue
        kind_field = ad["kind"]
        kind = kind_field.string()
        from_node, to_node = _end_nodes(ad, nodes)
        lb_field = ad.get("flowLB", 0.0) if kind == "regulator" else ad["flowLB"]
        lb = normvol_to_massflow(lb_field.series(n_times), rho0)
        ub = normvol_to_massflow(ad["flowUB"].series(n_times), rho0)

        if kind == "pipe":
            slope = ad.get("slope", 0.0)
            slope.check(-1.0 <= slope.number() <= 1.0, "must lie in [-1, 1]")
            pipe = PipeArc(
                id=aid,
                from_node=from_node,
                to_node=to_node,
                length=ad["length"].positive(),
                diameter=ad["diameter"].positive(),
                roughness=ad["roughness"].positive(),
                slope=slope.number(),
                flow_lb=lb,
                flow_ub=ub,
            )
            flows = state["pipeFlows"].need(aid, "missing initial pipe flows")
            q_in, q_out = pipe_flows[aid] = tuple(
                normvol_to_massflow(q, rho0) for q in flows.numbers(2, "[inflow, outflow]")
            )
            p_l0, p_r0 = end_pressure(from_node), end_pressure(to_node)
            z = pipe_average_z(p_l0, p_r0, constants)
            pipes[aid] = replace(
                pipe,
                z_factor=z,
                velo_const_from=pipe_velocity_constant(p_l0, q_in, pipe.area, z, constants),
                velo_const_to=pipe_velocity_constant(p_r0, q_out, pipe.area, z, constants),
            )
        elif kind == "resistor":
            drag = ad["drag"]
            drag.check(drag.number() >= 0.0, "must be nonnegative")
            res = ResistorArc(
                id=aid,
                from_node=from_node,
                to_node=to_node,
                drag=drag.number(),
                diameter=ad["diameter"].positive(),
                flow_lb=lb,
                flow_ub=ub,
            )
            q0 = initial_flow(aid)
            p_l0, p_r0 = end_pressure(from_node), end_pressure(to_node)
            z = pipe_average_z(p_l0, p_r0, constants)
            resistors[aid] = replace(
                res, z_factor=z, velo_const=resistor_velocity_constant(p_l0, p_r0, q0, res.area, z, constants)
            )
        elif kind == "valve":
            valves[aid] = ValveArc(aid, from_node, to_node, lb, ub)
        elif kind == "regulator":
            lb_field.check(not np.any(lb), "must be zero: a regulator carries a flap trap")
            regulators[aid] = RegulatorArc(aid, from_node, to_node, lb, ub)
        elif kind == "compressorStation":
            configs = []
            for cd in ad["configurations"].distinct():
                stage_list = cd["stages"]
                stages = tuple(frozenset(stage.strings()) for stage in stage_list.items())
                stage_list.check(stages and all(stages), "must be a nonempty list of nonempty stages")
                configs.append(Configuration(cd["id"].string(), stages))
            z_l = papay_z(pa_to_bar(end_pressure(from_node)), constants)
            member_units = []
            for unit_id in ad["units"].distinct(key=None):
                unit_id.check(unit_id.string() in units, f"unknown compressor unit {unit_id.value!r}")
                member_units.append(CompressorUnit(inlet_z_factor=z_l, **units[unit_id.value]))
            stations[aid] = CompressorStationArc(
                aid, from_node, to_node, lb, ub, units=tuple(member_units), configurations=tuple(configs)
            )
        else:
            raise SchemaError(kind_field.path, f"unknown arc kind {kind!r}")

    modes = {}
    for od in root["operationModes"].distinct():
        oid = od["id"].string()
        modes[oid] = OperationMode(oid, od["assignment"].string_map())

    directions = {}
    for fd in root["flowDirections"].distinct():
        fid = fd["id"].string()
        directions[fid] = FlowDirection(
            fid, frozenset(fd["inflowNodes"].strings()), frozenset(fd["outflowNodes"].strings())
        )

    valid_pairs = frozenset(
        tuple(name.string() for name in pair.row(2, "[mode, direction]"))
        for pair in root["validPairs"].items()
    )
    fence_groups = {}
    for gd in root.get("fenceGroups", []).distinct():
        gid, members = gd["id"].string(), gd["nodes"].strings()
        gd["nodes"].check(members, "must be a nonempty list")
        fence_groups[gid] = members
    conditions = tuple(
        FlowCondition(cd["direction"].string(), cd["smaller"].strings(), cd["larger"].strings())
        for cd in root.get("flowConditions", []).items()
    )
    transition_times = {}
    for o1, row in root["transitionTimes"].fields():
        for o2, minutes in row.fields():
            minutes.check(minutes.number() >= 0.0, "must be nonnegative")
            transition_times[o1, o2] = minutes_to_seconds(minutes.number())

    def window(field: _Field) -> tuple:
        start, end = field.numbers(2, "[start, end]")
        field.check(start < end, "must start before it ends")
        return start, end

    unavailability = {
        uid: tuple(window(w) for w in windows.items())
        for uid, windows in root.get("unavailability", {}).fields()
    }

    spec = StationSpec(
        name=root.get("name", "station").string(),
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
        valve_rewrites=valve_rewrites,
    )

    boundary = spec.boundary_nodes()
    demand = scen_doc["pressureDemand"]
    pressure_demand = {v: bar_to_pa(series.array()) for v, series in demand.fields()}
    flow_demand = {g: normvol_to_massflow(s.array(), rho0) for g, s in scen_doc["flowDemand"].fields()}
    inflow_lb, inflow_ub = (
        {v: normvol_to_massflow(s.series(n_times), rho0) for v, s in scen_doc[key].fields()}
        for key in ("inflowLB", "inflowUB")
    )
    for v in boundary:
        demand.need(v, "missing boundary node demand")

    arc_flows = {a: initial_flow(a) for a in [*resistors, *valves, *regulators, *stations]}
    flows = {("q", a): q for a, q in arc_flows.items()}
    flows.update({(kind, a): q for a, ends in pipe_flows.items() for kind, q in zip(("ql", "qr"), ends)})
    inflows = {}
    for v in boundary:
        # the inflow d that balances the node's other flows, summed in balance-row order
        into = 0.0
        for sign, kind, a in spec.node_incidence[v]:
            if kind != "d":
                into += sign * flows[kind, a]
        inflows[v] = -into
    initial = StateSnapshot(
        time_index=0,
        operation_mode=state["operationMode"].string(),
        regulator_modes=state.get("regulatorModes", {}).string_map(),
        pressures=init_pressures,
        arc_flows=arc_flows,
        pipe_flows=pipe_flows,
        inflows=inflows,
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


def _preprocess_fixed_valves(root: _Field) -> tuple:
    """Resolve valves whose mode is a fixed input decision.

    Closed valves are deleted; open valves contract their end nodes (one
    of which must be an inner node).  Returns the rewritten document and
    the rewrite record, so results can be reported against the original
    topology; a document without fixed valves comes back unchanged, with
    an empty record.  The removed arcs and merged nodes stay in the
    document's lists, so every path keeps its index; the loader skips them.
    """

    def fixed(arc: _Field) -> bool:
        return arc.get("kind").value == "valve" and "fixedMode" in arc.value

    if not any(fixed(arc) for arc in root["arcs"].items()):
        return root, {}
    root = _Field(json.loads(json.dumps(root.value)))  # deep copy; we rewrite in place
    nodes = {nd["id"].string(): nd for nd in root["nodes"].items()}
    boundary = {nid for nid, nd in nodes.items() if nd["kind"].string() == "boundary"}
    removed, merged = {}, {}  # arc id -> why; dropped node -> the node it merged into

    def resolve(node_id: str) -> str:
        while node_id in merged:
            node_id = merged[node_id]
        return node_id

    keep_arcs = []
    for arc in root["arcs"].items():
        if not fixed(arc):
            keep_arcs.append(arc)
            continue
        aid = arc["id"].string()
        mode = arc["fixedMode"]
        if mode.value == "cl":
            removed[aid] = "fixed closed"
            continue
        if mode.value != "op":
            raise SchemaError(mode.path, f"invalid fixed mode {mode.value!r}")
        a, b = (resolve(v) for v in _end_nodes(arc, nodes))
        if a == b:
            removed[aid] = "fixed open (vacuous)"
            continue
        if a in boundary and b in boundary:
            raise SchemaError(arc.path, "cannot contract a fixed-open valve between two boundary nodes")
        # keep the boundary end if there is one, else the valve's source
        keep, drop = (b, a) if b in boundary else (a, b)
        merged[drop] = keep
        removed[aid] = "fixed open (contracted)"

    for drop in merged:
        keep, other = nodes[resolve(drop)], nodes[drop]
        keep.value["pressureLB"] = _merge_bound(keep["pressureLB"], other["pressureLB"], max)
        keep.value["pressureUB"] = _merge_bound(keep["pressureUB"], other["pressureUB"], min)
        exit_ub = other.get("exitPressureUB").number_or_none()
        if exit_ub is not None:
            keep.value["exitPressureUB"] = min(keep.get("exitPressureUB", exit_ub).number(), exit_ub)
    for arc in keep_arcs:
        src, dst = (resolve(v) for v in _end_nodes(arc, nodes))
        if src == dst:
            raise SchemaError(arc.path, "fixed-open valve contraction would create a self-loop")
        arc.value["from"], arc.value["to"] = src, dst

    def resolve_all(item: _Field, key: str) -> None:
        item.value[key] = sorted({resolve(v) for v in item[key].strings()})

    def keep_entries(item: _Field, key: str, keep) -> None:
        item.value[key] = {k: entry.value for k, entry in item.get(key, {}).fields() if keep(k)}

    for od in root["operationModes"].items():
        keep_entries(od, "assignment", lambda a: a not in removed)
    for fd in root["flowDirections"].items():
        resolve_all(fd, "inflowNodes")
        resolve_all(fd, "outflowNodes")
    for gd in root.get("fenceGroups", []).items():
        resolve_all(gd, "nodes")
    for cd in root.get("flowConditions", []).items():
        resolve_all(cd, "smaller")
        resolve_all(cd, "larger")

    scen = root["scenario"]
    state = scen["initialState"]
    keep_entries(state, "pressures", lambda v: v not in merged)
    keep_entries(state, "arcFlows", lambda a: a not in removed)
    for key in ("pressureDemand", "inflowLB", "inflowUB"):
        keep_entries(scen, key, lambda v: v not in merged)
    return root, {"removedArcs": removed, "mergedNodes": merged}


def _merge_bound(a: _Field, b: _Field, op):
    """``op`` of two pressure bounds, each a number or a per-time list."""
    if isinstance(a.value, list) or isinstance(b.value, list):
        n = len(a.value if isinstance(a.value, list) else b.value)
        return [op(x, y) for x, y in zip(a.series(n).tolist(), b.series(n).tolist())]
    return op(a.number(), b.number())


def load_weights(source) -> ObjectiveWeights:
    """Objective weights from an instance document; defaults when absent."""
    # document keys are the field names in camel case: slackFlow -> slack_flow
    names = {re.sub(r"_(.)", lambda m: m[1].upper(), f.name): f.name for f in fields(ObjectiveWeights)}
    kwargs = {}
    for key, value in _Field(_read_document(source)).get("weights", {}).fields():
        value.check(key in names, "unknown weight key")
        kwargs[names[key]] = value.positive("weight must be positive")
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

    future = target_grid[1:]
    pressure_demand = {
        v: np.interp(future, source, np.concatenate([[scen.initial_state.pressures[v]], arr]))
        for v, arr in scen.pressure_demand.items()
    }
    flow_demand = {}
    for g, arr in scen.flow_demand.items():
        anchor0 = sum(scen.initial_state.inflows[v] for v in spec.fence_groups[g])
        flow_demand[g] = np.interp(future, source, np.concatenate([[anchor0], arr]))
    inflow_lb = {v: np.interp(target_grid, source, arr) for v, arr in scen.inflow_lb.items()}
    inflow_ub = {v: np.interp(target_grid, source, arr) for v, arr in scen.inflow_ub.items()}
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
            if k in (
                "smoothing_solves", "retried_windows", "time_limited_windows", "max_replay_violation",
                "solve_counts", "memo_hits",
            )
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
    """Run-report fields of a written plan document.

    A report reads many files, so a schema error names the file before the
    JSON path: ``runs/a.plan.json: $.objective: required field is missing``.
    """
    plan = _Field(_read_document(path), f"{path}: $")
    return {
        "path": str(path),
        "instance": plan.get("instance", "?").string(),
        "status": plan.get("status", "?").string(),
        "objective": plan["objective"].number(),
        "wallTime": plan.get("wallTime").number_or_none(),
        "gap": plan.get("gap").number_or_none(),
        "lowerBound": plan.get("lowerBound").number_or_none(),
        "phaseShares": {k: v.number() for k, v in plan.get("phaseShares", {}).fields()},
        "objectiveBreakdown": {k: v.number() for k, v in plan.get("objectiveBreakdown", {}).fields()},
    }

