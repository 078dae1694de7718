"""Domain model of a network station and its scenario data.

Typed nodes, element arcs, operation modes, flow directions and scenario
values, plus the validation and lookup services everything downstream
relies on.  All values here are internal SI (Pa, kg/s, seconds); the
loaders in :mod:`stationopt.io` convert from file-facing units.

Instances are immutable after construction and safe to share; a
:class:`StationSpec` computes its lookups (unit sets, direction partners,
node incidence) once, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .gas import GasConstants, cross_section_area

VALVE_TOKENS = ("op", "cl")
STATION_MODE_TOKENS = ("by", "cl")
REGULATOR_TOKENS = ("by", "cl", "ac")


@dataclass(frozen=True)
class Node:
    id: str
    kind: str  # "boundary" | "inner"
    pressure_lb: np.ndarray  # Pa, per time step in T_0
    pressure_ub: np.ndarray
    exit_pressure_ub: Optional[float] = None  # Pa, boundary nodes only

    @property
    def is_boundary(self) -> bool:
        return self.kind == "boundary"


@dataclass(frozen=True)
class Arc:
    """The fields every element kind shares; each kind adds its own as keywords."""

    id: str
    from_node: str
    to_node: str
    flow_lb: np.ndarray  # kg/s, per time step in T_0
    flow_ub: np.ndarray


@dataclass(frozen=True, kw_only=True)
class PipeArc(Arc):
    """Bounds ``flow_lb``/``flow_ub`` are shared by both end flows."""

    length: float  # m
    diameter: float  # m
    roughness: float  # m
    slope: float  # dimensionless, in [-1, 1]
    z_factor: float = 1.0
    velo_const_from: float = 0.0  # m/s, fixed from the initial state
    velo_const_to: float = 0.0

    @property
    def area(self) -> float:
        return cross_section_area(self.diameter)


@dataclass(frozen=True, kw_only=True)
class ResistorArc(Arc):
    drag: float
    diameter: float
    z_factor: float = 1.0
    velo_const: float = 0.0

    @property
    def area(self) -> float:
        return cross_section_area(self.diameter)


class ValveArc(Arc):
    """Open or closed, as the operation mode assigns it."""


class RegulatorArc(Arc):
    """``flow_lb`` is zero everywhere: a regulator carries a flap trap."""


@dataclass(frozen=True)
class CompressorUnit:
    id: str
    operating_range_2d: tuple[tuple[float, float, float], ...]  # a0 + a1 Q + a2 (pr/pl) <= 0
    max_delta_p: float  # Pa
    max_power: float  # W
    adiabatic_efficiency: float
    inlet_z_factor: float = 1.0


@dataclass(frozen=True)
class Configuration:
    id: str
    stages: tuple[frozenset[str], ...]  # serial sequence of parallel unit-id sets
    facets: Optional[tuple[tuple[float, float, float, float], ...]] = None  # built F_c

    @property
    def units(self) -> frozenset[str]:
        out: frozenset[str] = frozenset()
        for stage in self.stages:
            out = out | stage
        return out

    def with_facets(self, facets) -> "Configuration":
        return Configuration(self.id, self.stages, tuple(tuple(f) for f in facets))


@dataclass(frozen=True, kw_only=True)
class CompressorStationArc(Arc):
    units: tuple[CompressorUnit, ...]
    configurations: tuple[Configuration, ...]

    def configuration(self, config_id: str) -> Configuration:
        for c in self.configurations:
            if c.id == config_id:
                return c
        raise KeyError(f"unknown configuration {config_id!r} on station {self.id!r}")

    def token_units(self, token: str) -> frozenset[str]:
        """Units used by a mode token; bypass and closed use none."""
        if token in STATION_MODE_TOKENS:
            return frozenset()
        return self.configuration(token).units


@dataclass(frozen=True)
class OperationMode:
    id: str
    assignment: dict  # arc id -> token ("op"/"cl" for valves; "by"/"cl"/config id for stations)


@dataclass(frozen=True)
class FlowDirection:
    id: str
    inflow_nodes: frozenset[str]
    outflow_nodes: frozenset[str]


@dataclass(frozen=True)
class FlowCondition:
    """Flow over ``smaller`` must stay below flow over ``larger`` when
    ``direction`` is active."""

    direction: str
    smaller: tuple[str, ...]
    larger: tuple[str, ...]


@dataclass(frozen=True)
class StationSpec:
    name: str
    constants: GasConstants
    nodes: dict
    pipes: dict
    resistors: dict
    valves: dict
    regulators: dict
    stations: dict
    operation_modes: dict
    flow_directions: dict
    valid_pairs: frozenset
    fence_groups: dict  # group id -> tuple of boundary node ids
    flow_conditions: tuple
    transition_times: dict  # (mode, mode) -> seconds
    unavailability: dict  # unit id -> tuple of (start, end) second intervals
    valve_rewrites: dict = field(default_factory=dict)  # fixed-valve preprocessing record

    def arcs(self) -> dict:
        out: dict = {}
        for group in (self.pipes, self.resistors, self.valves, self.regulators, self.stations):
            out.update(group)
        return out

    def non_pipe_arcs(self) -> dict:
        return {a: arc for a, arc in self.arcs().items() if a not in self.pipes}

    def boundary_nodes(self) -> tuple[str, ...]:
        return self._boundary_nodes

    @cached_property
    def _boundary_nodes(self) -> tuple[str, ...]:
        return tuple(v for v, node in self.nodes.items() if node.is_boundary)

    def transition_time(self, from_mode: str, to_mode: str) -> float:
        if from_mode == to_mode:
            return 0.0
        try:
            return self.transition_times[(from_mode, to_mode)]
        except KeyError:
            raise KeyError(f"no transition time for {from_mode!r} -> {to_mode!r}") from None

    def mode_units(self, mode_id: str) -> frozenset[str]:
        """All compressor units the mode runs (union over its stations)."""
        return self._units_by_mode[mode_id]

    @cached_property
    def _units_by_mode(self) -> dict:
        out = {}
        for o, mode in self.operation_modes.items():
            used: frozenset[str] = frozenset()
            for arc_id, token in mode.assignment.items():
                if arc_id in self.stations:
                    used = used | self.stations[arc_id].token_units(token)
            out[o] = used
        return out

    @cached_property
    def direction_partners(self) -> dict:
        """Per operation mode, the sorted flow directions it forms a valid pair with."""
        return {o: tuple(sorted(f for oo, f in self.valid_pairs if oo == o)) for o in self.operation_modes}

    @cached_property
    def node_incidence(self) -> dict:
        """Per node, the (sign, flow kind, id) of each flow into (+1) or out of (-1)
        it, in balance-row order: arc ends in catalog order, then a boundary ``d``."""
        out: dict = {v: [] for v in self.nodes}
        for a, arc in self.arcs().items():
            into, out_of = ("qr", "ql") if a in self.pipes else ("q", "q")
            out[arc.to_node].append((1.0, into, a))
            out[arc.from_node].append((-1.0, out_of, a))
        for v in self.boundary_nodes():
            out[v].append((1.0, "d", v))
        return out


@dataclass(frozen=True)
class StateSnapshot:
    """Complete network state at one grid instant.

    Index 0 is the scenario's initial state, a plain starting point rather
    than a model solution; later ones come from solved plan windows.
    """

    time_index: int
    operation_mode: str
    regulator_modes: dict  # regulator arc id -> "by" | "cl" | "ac"
    pressures: dict  # node id -> Pa
    arc_flows: dict  # non-pipe arc id -> kg/s
    pipe_flows: dict  # pipe arc id -> (q_in, q_out) kg/s
    inflows: dict  # boundary node id -> inflow d, kg/s (negative where gas leaves)


@dataclass(frozen=True)
class Scenario:
    time_grid: np.ndarray  # seconds, strictly increasing, grid[0] == 0
    pressure_demand: dict  # boundary node -> array of k future values, Pa
    flow_demand: dict  # fence group -> array of k future values, kg/s
    inflow_lb: dict  # boundary node -> array over T_0, kg/s
    inflow_ub: dict
    initial_state: StateSnapshot

    @property
    def n_future(self) -> int:
        return len(self.time_grid) - 1

    def step_length(self, t: int) -> float:
        return float(self.time_grid[t] - self.time_grid[t - 1])


@dataclass(frozen=True)
class Violation:
    entity: str
    rule: str

    def __str__(self) -> str:
        return f"{self.entity}: {self.rule}"


def mode_available(spec: StationSpec, time_grid: np.ndarray, mode_id: str, t: int) -> bool:
    """Whether operation mode ``mode_id`` can be active for time step ``t``.

    A mode occupies the half-open interval up to the next grid point, so a
    unit outage anywhere in [delta_t, delta_{t+1}) blocks it; the last time
    step only checks the instant delta_t itself.
    """
    used = spec.mode_units(mode_id)
    if not used:
        return True
    last = len(time_grid) - 1
    start = float(time_grid[t])
    end = float(time_grid[t + 1]) if t < last else None
    for unit_id in used:
        for window_start, window_end in spec.unavailability.get(unit_id, ()):
            if end is None:
                if window_start <= start < window_end:
                    return False
            elif window_start < end and window_end > start:
                return False
    return True


def validate(spec: StationSpec, scen: Scenario) -> list[Violation]:
    """All violations of the rules that relate two fields or two entities;
    empty means well formed.

    Rules about a single document field (signs, ranges, list lengths,
    known end nodes) are checked by :func:`stationopt.io.load_instance`
    as the field is read, so a loaded pair never breaks them.
    """
    out: list[Violation] = []
    add = out.append

    boundary = set(spec.boundary_nodes())
    for vid, node in spec.nodes.items():
        if np.any(node.pressure_lb > node.pressure_ub):
            add(Violation(f"node {vid}", "pressure lower bound exceeds upper bound"))
        if node.exit_pressure_ub is not None:
            if not node.is_boundary:
                add(Violation(f"node {vid}", "exit pressure bound on a non-boundary node"))
            elif node.exit_pressure_ub > float(node.pressure_ub.min()):
                add(Violation(f"node {vid}", "exit pressure bound exceeds pressure upper bound"))

    for aid, arc in spec.arcs().items():
        if np.any(arc.flow_lb > arc.flow_ub):
            add(Violation(f"arc {aid}", "flow lower bound exceeds upper bound"))

    for aid, station in spec.stations.items():
        unit_ids = {u.id for u in station.units}
        for config in station.configurations:
            foreign = config.units - unit_ids
            if foreign:
                add(
                    Violation(
                        f"configuration {config.id}",
                        f"references units not on station {aid}: {sorted(foreign)}",
                    )
                )

    valve_and_station_ids = set(spec.valves) | set(spec.stations)
    for oid, mode in spec.operation_modes.items():
        assigned = set(mode.assignment)
        for missing in sorted(valve_and_station_ids - assigned):
            add(Violation(f"operation mode {oid}", f"missing assignment for arc {missing!r}"))
        for extra in sorted(assigned - valve_and_station_ids):
            add(Violation(f"operation mode {oid}", f"assignment for unknown arc {extra!r}"))
        for arc_id in assigned & valve_and_station_ids:
            token = mode.assignment[arc_id]
            if arc_id in spec.valves:
                if token not in VALVE_TOKENS:
                    add(Violation(f"operation mode {oid}", f"invalid valve token {token!r} for {arc_id!r}"))
            else:
                station = spec.stations[arc_id]
                config_ids = {c.id for c in station.configurations}
                if token not in STATION_MODE_TOKENS and token not in config_ids:
                    add(Violation(f"operation mode {oid}", f"invalid station token {token!r} for {arc_id!r}"))

    for fid, direction in spec.flow_directions.items():
        overlap = direction.inflow_nodes & direction.outflow_nodes
        if overlap:
            add(Violation(f"flow direction {fid}", f"inflow and outflow sets overlap: {sorted(overlap)}"))
        for vid in sorted((direction.inflow_nodes | direction.outflow_nodes) - boundary):
            add(Violation(f"flow direction {fid}", f"{vid!r} is not a boundary node"))

    for pair in spec.valid_pairs:
        oid, fid = pair
        if oid not in spec.operation_modes:
            add(Violation("valid pairs", f"unknown operation mode {oid!r}"))
        if fid not in spec.flow_directions:
            add(Violation("valid pairs", f"unknown flow direction {fid!r}"))

    seen_group_nodes: set[str] = set()
    for gid, members in spec.fence_groups.items():
        for vid in members:
            if vid not in boundary:
                add(Violation(f"fence group {gid}", f"{vid!r} is not a boundary node"))
            if vid in seen_group_nodes:
                add(Violation(f"fence group {gid}", f"{vid!r} already belongs to another fence group"))
            seen_group_nodes.add(vid)

    for cond in spec.flow_conditions:
        label = f"flow condition on {cond.direction}"
        direction = spec.flow_directions.get(cond.direction)
        if direction is None:
            add(Violation(label, f"unknown flow direction {cond.direction!r}"))
            continue
        for name, nodes in (("first", cond.smaller), ("second", cond.larger)):
            node_set = set(nodes)
            if not (node_set <= direction.inflow_nodes or node_set <= direction.outflow_nodes):
                add(
                    Violation(
                        label,
                        f"{name} node set must lie entirely in the inflow or the outflow side",
                    )
                )
            for vid in sorted(node_set - boundary):
                add(Violation(label, f"{vid!r} is not a boundary node"))

    mode_ids = list(spec.operation_modes)
    for m1 in mode_ids:
        for m2 in mode_ids:
            if m1 != m2 and (m1, m2) not in spec.transition_times:
                add(Violation("transition times", f"missing entry for {m1!r} -> {m2!r}"))

    all_units = {u.id for st in spec.stations.values() for u in st.units}
    for unit_id in spec.unavailability:
        if unit_id not in all_units:
            add(Violation("unavailability", f"unknown compressor unit {unit_id!r}"))

    k = scen.n_future
    for vid in sorted(boundary):
        if len(scen.pressure_demand[vid]) != k:
            add(Violation("scenario", f"pressure demand for {vid!r} must have {k} values"))
        for bounds, label in ((scen.inflow_lb, "lower"), (scen.inflow_ub, "upper")):
            if vid not in bounds:
                add(Violation("scenario", f"missing inflow {label} bound for {vid!r}"))
        lb, ub = scen.inflow_lb.get(vid), scen.inflow_ub.get(vid)
        if lb is not None and ub is not None and np.any(lb > ub):
            add(Violation("scenario", f"inflow lower bound exceeds upper bound for {vid!r}"))
    for gid in spec.fence_groups:
        if gid not in scen.flow_demand:
            add(Violation("scenario", f"missing flow demand for fence group {gid!r}"))
        elif len(scen.flow_demand[gid]) != k:
            add(Violation("scenario", f"flow demand for {gid!r} must have {k} values"))

    state = scen.initial_state
    if state.operation_mode not in spec.operation_modes:
        add(Violation("initial state", f"unknown operation mode {state.operation_mode!r}"))
    for vid in spec.nodes:
        if vid not in state.pressures:
            add(Violation("initial state", f"missing pressure for node {vid!r}"))
    for aid in spec.regulators:
        token = state.regulator_modes.get(aid)
        if token is None:
            add(Violation("initial state", f"missing mode for regulator {aid!r}"))
        elif token not in REGULATOR_TOKENS:
            add(Violation("initial state", f"invalid regulator mode {token!r} for {aid!r}"))

    return out
