"""Assembly of the station MIP variants.

Builds the full transient model and its three working variants -- the
per-step stationary model, the stationary model with a fixed operation
mode, and the transient model with fixed operation modes and flow
directions -- as plain linear models over a typed variable catalog.
Everything is solver independent; :mod:`stationopt.solve` handles solving.

The variants differ only in which decisions are constants.  The builder
first writes every decision the variant fixes, and every value of the step
before the first modelled one, into its handle table as a constant; every
row then reads the table, and constants fold into right-hand sides.  A
step between two fixed modes costs :func:`switch_cost`, summed from the
:func:`change_indicators` the builder writes.  The fixed stationary model
keeps its mode at the step before, so it has no switch cost.

A fixed transient build also records where the numbers that differ
between windows of one pattern land: the start state's pressures and
flows enter the table as marked constants, so the rows they fold into
are noted with their constant terms in order, as are the demand
right-hand sides and the slack caps.  :func:`instantiate_fixed_transient`
recomputes just those numbers for another window in the builder's own
arithmetic and shares the rest of the build.  Names are kept as records
of a label and its arguments, the time steps marked as ints, and are
formatted when read, so a copy re-dates them by a shift.

Internally the models use Pa, kg/s and seconds.  The objective converts
the file-facing weights (bar, 1000 m^3/h, hours) once per build.  Every
pressure variable is declared with solver unit ``PA_PER_BAR`` and every
mass-flow variable with ``KG_S_PER_SOLVER_FLOW``, so an in-process solver
sees pressures in bar and flows in tens of kg/s (see
:meth:`LinearModel.solver_view`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .gas import nikuradse_friction
from .linmodel import BuildInfeasibleError, LinearModel, VarRef
from .network import REGULATOR_TOKENS, Scenario, StateSnapshot, StationSpec, mode_available
from .units import KG_S_PER_SOLVER_FLOW, PA_PER_BAR, SECONDS_PER_HOUR


@dataclass(frozen=True)
class ObjectiveWeights:
    """Objective weights in their file-facing units.

    Slack weights are per bar*h and per 1000 m^3; operating-point change
    weights per bar and per 1000 m^3/h; the discrete change weights are
    unitless counts.
    """

    slack_pressure: float = 1000.0
    slack_flow: float = 100.0
    operation_mode_change: float = 1000.0
    unit_start: float = 1200.0
    regulator_mode_change: float = 50.0
    regulator_inlet_pressure: float = 10.0
    regulator_outlet_pressure: float = 10.0
    regulator_flow: float = 1.0
    station_inlet_pressure: float = 10.0
    station_outlet_pressure: float = 10.0
    station_flow: float = 1.0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if not value > 0.0:
                raise ValueError(f"objective weight {name} must be positive")

    def scaled(self, factor: float) -> "ObjectiveWeights":
        """Same weights with the two slack weights multiplied by ``factor``."""
        return replace(
            self, slack_pressure=self.slack_pressure * factor, slack_flow=self.slack_flow * factor
        )


class ModelInstance:
    """A fully assembled variant: linear model plus its variable catalog."""

    def __init__(self, kind: str, model: LinearModel, spec: StationSpec, scen: Scenario, times):
        self.kind = kind
        self.model = model
        self.spec = spec
        self.scen = scen
        self.times = list(times)
        self.handles: dict = {}
        self.sites: _Sites | None = None  # set by build_fixed_transient

    def handle(self, *key):
        return self.handles[key]

    def value(self, assignment: np.ndarray, *key) -> float:
        h = self.handles[key]
        return float(assignment[h.index]) if isinstance(h, VarRef) else float(h)

    def mode_at(self, assignment: np.ndarray, t: int) -> str:
        return max(self.spec.operation_modes, key=lambda o: self.value(assignment, "om", o, t))

    def direction_at(self, assignment: np.ndarray, t: int) -> str:
        return max(self.spec.flow_directions, key=lambda f: self.value(assignment, "fd", f, t))

    def regulator_mode_at(self, assignment: np.ndarray, arc_id: str, t: int) -> str:
        return max(
            REGULATOR_TOKENS, key=lambda tok: self.value(assignment, "rg", tok, arc_id, t)
        )

    def snapshot_at(self, assignment: np.ndarray, t: int) -> StateSnapshot:
        spec = self.spec
        pressures = {v: self.value(assignment, "p", v, t) for v in spec.nodes}
        arc_flows = {a: self.value(assignment, "q", a, t) for a in spec.non_pipe_arcs()}
        pipe_flows = {
            a: (self.value(assignment, "ql", a, t), self.value(assignment, "qr", a, t))
            for a in spec.pipes
        }
        return StateSnapshot(
            time_index=t,
            operation_mode=self.mode_at(assignment, t),
            regulator_modes={
                a: self.regulator_mode_at(assignment, a, t) for a in spec.regulators
            },
            pressures=pressures,
            arc_flows=arc_flows,
            pipe_flows=pipe_flows,
            inflows={v: self.value(assignment, "d", v, t) for v in spec.boundary_nodes()},
        )


def mode_indicators(spec: StationSpec, mode: str) -> dict:
    """The om/op/cs_by/cs_cl/cfg values an operation mode implies, keyed
    like the model handles without their time step."""
    assignment = spec.operation_modes[mode].assignment
    out = {("om", o): float(o == mode) for o in spec.operation_modes}
    out.update({("op", a): float(assignment[a] == "op") for a in spec.valves})
    for a, st in spec.stations.items():
        out[("cs_by", a)] = float(assignment[a] == "by")
        out[("cs_cl", a)] = float(assignment[a] == "cl")
        out.update({("cfg", c.id, a): float(assignment[a] == c.id) for c in st.configurations})
    return out


def change_indicators(spec: StationSpec, prev: str, mode: str) -> dict:
    """The d_om/d_us values of a step from mode ``prev`` to ``mode``, keyed
    like the model handles without their time step, in the builder's order."""
    out = {("d_om",): float(mode != prev)}
    for a in sorted(spec.stations):
        st = spec.stations[a]
        now, before = (st.token_units(spec.operation_modes[o].assignment[a]) for o in (mode, prev))
        out.update({("d_us", u.id, a): float(u.id in now and u.id not in before) for u in st.units})
    return out


def switch_cost(spec: StationSpec, weights: ObjectiveWeights, prev: str, mode: str) -> float:
    """The objective's mode-change and unit-start terms of a step from
    ``prev`` to ``mode``, summed in the builder's objective order."""
    total = 0.0
    for key, value in change_indicators(spec, prev, mode).items():
        total += value * (weights.operation_mode_change if key == ("d_om",) else weights.unit_start)
    return total


def step_bounds(spec: StationSpec, scen: Scenario, t: int) -> list:
    """The bounds a build reads at step ``t``: node pressure bounds, arc and
    pipe flow bounds and boundary inflow bounds."""
    values = []
    for node in spec.nodes.values():
        values += (node.pressure_lb[t], node.pressure_ub[t])
    for arc in spec.arcs().values():
        values += (arc.flow_lb[t], arc.flow_ub[t])
    for v in spec.boundary_nodes():
        values += (scen.inflow_lb[v][t], scen.inflow_ub[v][t])
    return values


def step_inputs(spec: StationSpec, scen: Scenario, t: int) -> bytes:
    """Every number a stationary build reads at step ``t``, as bytes.

    The step length, the :func:`step_bounds` at t, and the pressure and
    flow demands at index ``t - 1`` (demand arrays start at step 1).  For
    the same mode (``Psf``), or the same previous mode and the same
    candidates available at t (``Ps``), two steps with equal bytes give
    models that differ only in their names; mode availability is read
    only through the candidate filter.  Bytes, not floats, so that the key
    tells 0.0 from -0.0.
    """
    values = [scen.step_length(t), *step_bounds(spec, scen, t)]
    values += (scen.pressure_demand[v][t - 1] for v in spec.boundary_nodes())
    values += (scen.flow_demand[g][t - 1] for g in spec.fence_groups)
    return np.array(values, dtype=float).tobytes()


def build_full(spec: StationSpec, scen: Scenario, weights: ObjectiveWeights) -> ModelInstance:
    times = list(range(1, scen.n_future + 1))
    b = _Builder(spec, scen, weights, "P", times, snapshot=scen.initial_state)
    return b.build()


def build_stationary(
    spec: StationSpec,
    scen: Scenario,
    weights: ObjectiveWeights,
    t: int,
    prev_mode: str,
    valid_modes=None,
) -> ModelInstance:
    b = _Builder(
        spec, scen, weights, "Ps", [t], prev_mode=prev_mode, valid_modes=valid_modes
    )
    return b.build()


def build_stationary_fixed(
    spec: StationSpec, scen: Scenario, weights: ObjectiveWeights, mode: str, t: int
) -> ModelInstance:
    if mode not in spec.operation_modes:
        raise KeyError(f"unknown operation mode {mode!r}")
    b = _Builder(spec, scen, weights, "Psf", [t], prev_mode=mode, fixed_modes={t: mode})
    return b.build()


def build_fixed_transient(
    spec: StationSpec,
    scen: Scenario,
    weights: ObjectiveWeights,
    modes,
    directions,
    snapshot: StateSnapshot,
) -> ModelInstance:
    """The transient window after ``snapshot`` with every mode and
    direction fixed.  Its ``sites`` record serves
    :func:`instantiate_fixed_transient`; it is None where a row that reads
    the start state or a demand folds away."""
    modes = tuple(modes)
    directions = tuple(directions)
    times = _window_times(spec, scen, modes, directions, snapshot)
    b = _Builder(
        spec,
        scen,
        weights,
        "Pf",
        times,
        snapshot=snapshot,
        fixed_modes=dict(zip(times, modes)),
        fixed_dirs=dict(zip(times, directions)),
        sites=_Sites(modes, directions),
    )
    inst = b.build()
    inst.sites = b.sites
    return inst


def instantiate_fixed_transient(template: ModelInstance, snapshot: StateSnapshot) -> ModelInstance:
    """The window after ``snapshot`` with the modes and directions of
    ``template``, a :func:`build_fixed_transient` result with ``sites``,
    without a build.

    It equals a fresh build of that window, names, handles and arrays
    included, when the window reads the template's pattern: the same
    weights, start mode and regulator modes, and the same
    :func:`step_bounds` and step lengths at its steps and the step before.
    The caller keys on these.  The copy takes the start state's pressures
    and flows, the demands and the slack caps at its own steps, each
    combined in the builder's order, and raises where the fresh build
    would.
    """
    spec, scen, sites = template.spec, template.scen, template.sites
    times = _window_times(spec, scen, sites.modes, sites.directions, snapshot)
    shift = times[0] - template.times[0]

    def value(x):
        if type(x) is not _Param:
            return x
        kind, key = x.key[:2]
        if kind == "p":
            return snapshot.pressures[key]
        if kind == "q":
            return snapshot.arc_flows[key]
        return getattr(scen, kind)[key][x.key[2] + shift - 1]

    ub = {}
    for cols, cap, v, t in sites.caps:
        ub.update(dict.fromkeys(cols, cap(spec, scen, v, t + shift)))
    rhs = {}
    for row, row_rhs, constants in sites.rows:
        const = 0.0
        for coef, h in constants:
            const += float(coef) * float(h if type(h) is not _Param else value(h))
        rhs[row] = float(value(row_rhs)) - const
    inst = ModelInstance("Pf", template.model.patched(shift, ub, rhs), spec, scen, times)
    inst.handles = {key[:-1] + (key[-1] + shift,): h for key, h in template.handles.items()}
    t0 = times[0] - 1
    for v, p in snapshot.pressures.items():
        inst.handles[("p", v, t0)] = p
    for a, q in snapshot.arc_flows.items():
        inst.handles[("q", a, t0)] = q
    return inst


def _window_times(spec: StationSpec, scen: Scenario, modes: tuple, directions: tuple, snapshot) -> list:
    """The steps of a fixed transient window; raises for a window no build can take."""
    if len(modes) != len(directions):
        raise ValueError("mode and direction sequences differ in length")
    t_start = snapshot.time_index + 1
    times = list(range(t_start, t_start + len(modes)))
    if times[-1] > scen.n_future:
        raise ValueError("sequence extends past the time grid")
    for t, o, f in zip(times, modes, directions):
        if (o, f) not in spec.valid_pairs:
            raise ValueError(f"({o!r}, {f!r}) is not a valid mode/direction pair")
        if not mode_available(spec, scen.time_grid, o, t):
            raise ValueError(f"fixed mode {o!r} is unavailable at time step {t}")
    return times


class _Param(float):
    """A start-state value or a demand in a build that records its sites:
    the number itself, and ``key`` to find it for another window, one of
    ``("p", node)``, ``("q", arc)`` and ``(demand kind, id, step)``."""

    __slots__ = ("key",)

    def __new__(cls, value, key: tuple):
        self = super().__new__(cls, value)
        self.key = key
        return self


@dataclass
class _Sites:
    """Where the numbers that differ between windows of one pattern land
    in a fixed transient build: ``caps`` holds (columns, cap function,
    node, step) per slack pair, ``rows`` (row, right-hand side, constant
    terms) per row whose right-hand side reads a :class:`_Param`."""

    modes: tuple
    directions: tuple
    caps: list = field(default_factory=list)
    rows: list = field(default_factory=list)


# ---------------------------------------------------------------------------


class _Builder:
    """Assembles one variant; ``h`` is the handle table the module docstring describes."""

    def __init__(
        self,
        spec: StationSpec,
        scen: Scenario,
        weights: ObjectiveWeights,
        kind: str,
        times,
        snapshot: StateSnapshot | None = None,
        prev_mode: str | None = None,
        fixed_modes: dict | None = None,
        fixed_dirs: dict | None = None,
        valid_modes=None,
        sites: _Sites | None = None,
    ):
        self.spec = spec
        self.scen = scen
        self.weights = weights
        self.kind = kind
        self.transient = kind in ("P", "Pf")
        self.times = list(times)
        self.snapshot = snapshot
        # the mode of the step before the first modelled one is fixed too
        past = prev_mode if snapshot is None else snapshot.operation_mode
        self.fixed_modes = {self.times[0] - 1: past, **(fixed_modes or {})}
        self.fixed_dirs = fixed_dirs or {}
        self.instance = ModelInstance(kind, LinearModel(f"{kind}_{spec.name}"), spec, scen, times)
        self.h = self.instance.handles
        candidates = spec.operation_modes if valid_modes is None else valid_modes
        self.valid_modes = {
            t: [o for o in candidates if mode_available(spec, scen.time_grid, o, t)]
            for t in self.times
        }
        for t in self.times:
            if t not in self.fixed_modes and not self.valid_modes[t]:
                raise BuildInfeasibleError(f"no operation mode is available at time step {t}")
        self._incidence = self._node_incidence()
        # with ``sites`` the build records where its window parameters land
        self.sites = sites
        self._row = self._recorded_row if sites is not None else self.instance.model.add_row

    # -- fixed and past decisions -------------------------------------------

    def _fix_past(self) -> None:
        """Constants for step ``times[0] - 1`` of a transient variant: the
        snapshot's pressures, flows and regulator modes."""
        t0 = self.times[0] - 1
        snap = self.snapshot
        for v, p in snap.pressures.items():
            self.h[("p", v, t0)] = p if self.sites is None else _Param(p, ("p", v))
        for a, q in snap.arc_flows.items():
            self.h[("q", a, t0)] = q if self.sites is None else _Param(q, ("q", a))
        for a, mode in snap.regulator_modes.items():
            for token in REGULATOR_TOKENS:
                self.h[("rg", token, a, t0)] = float(token == mode)

    def _fix_decisions(self, t: int, mode: str) -> None:
        """Constants for the mode, and the direction if fixed too, at step t."""
        for key, value in mode_indicators(self.spec, mode).items():
            self.h[key + (t,)] = value
        if t in self.fixed_dirs:
            for f in self.spec.flow_directions:
                self.h[("fd", f, t)] = float(f == self.fixed_dirs[t])

    # -- build -------------------------------------------------------------

    def build(self) -> ModelInstance:
        for t, mode in self.fixed_modes.items():
            self._fix_decisions(t, mode)
        if self.transient:
            self._fix_past()
        for t in self.times:
            self._make_variables(t)
        for t in self.times:
            self._emit_time_step(t)
        self._emit_objective()
        return self.instance

    def _recorded_row(self, name, pairs, sense: str, rhs: float, unit: float | None = None) -> None:
        """``add_row``, noting each row that reads a window parameter: its
        index, its right-hand side and its constant terms in order."""
        m = self.instance.model
        row = m.n_rows
        m.add_row(name, pairs, sense, rhs, unit)
        if self.sites is None:
            return
        constants = [(coef, h) for coef, h in pairs if type(h) is not VarRef]
        if type(rhs) is _Param or any(type(h) is _Param for _, h in constants):
            if m.n_rows == row:
                # folded into a check that another window's numbers could fail
                self.sites = None
            else:
                self.sites.rows.append((row, rhs, constants))

    def _add_slacks(self, add, kind: str, v: str, t: int, cap) -> None:
        """The slack pair ``kind+``/``kind-`` of node v at step t, each
        bounded by ``cap(spec, scen, v, t)``."""
        ub = cap(self.spec, self.scen, v, t)
        cols = []
        for sign, word in (("+", "pos"), ("-", "neg")):
            self.h[(kind + sign, v, t)] = ref = add((f"{kind}_{word}", v, t), 0.0, ub)
            cols.append(ref.index)
        if self.sites is not None:
            self.sites.caps.append((cols, cap, v, t))

    def _add_pa(self, name: str, lb: float, ub: float) -> VarRef:
        """A pressure-valued variable in Pa, seen by the solver in bar."""
        return self.instance.model.add_var(name, lb, ub, unit=PA_PER_BAR)

    def _add_q(self, name: str, lb: float, ub: float) -> VarRef:
        """A mass-flow variable in kg/s, seen by the solver in tens of kg/s."""
        return self.instance.model.add_var(name, lb, ub, unit=KG_S_PER_SOLVER_FLOW)

    def _make_variables(self, t: int) -> None:
        spec = self.spec
        m = self.instance.model
        add = m.add_var
        add_pa, add_q = self._add_pa, self._add_q
        for v in sorted(spec.nodes):
            node = spec.nodes[v]
            self.h[("p", v, t)] = add_pa(("p", v, t), node.pressure_lb[t], node.pressure_ub[t])
        for a in sorted(spec.pipes):
            pipe = spec.pipes[a]
            if self.transient:
                self.h[("ql", a, t)] = add_q(("ql", a, t), pipe.flow_lb[t], pipe.flow_ub[t])
                self.h[("qr", a, t)] = add_q(("qr", a, t), pipe.flow_lb[t], pipe.flow_ub[t])
            else:
                q = add_q(("q", a, t), pipe.flow_lb[t], pipe.flow_ub[t])
                self.h[("ql", a, t)] = q
                self.h[("qr", a, t)] = q
                self.h[("q", a, t)] = q
        non_pipe = spec.non_pipe_arcs()
        for a in sorted(non_pipe):
            arc = non_pipe[a]
            self.h[("q", a, t)] = add_q(("q", a, t), arc.flow_lb[t], arc.flow_ub[t])
        for v in sorted(spec.boundary_nodes()):
            self.h[("d", v, t)] = add_q(
                ("d", v, t), self.scen.inflow_lb[v][t], self.scen.inflow_ub[v][t]
            )

        # with a fixed mode, om/op/cs/cfg are constants already and the
        # station needs no copies: its facets go on the originals
        om_free = t not in self.fixed_modes
        if om_free:
            for o in sorted(spec.operation_modes):
                valid = o in self.valid_modes[t]
                self.h[("om", o, t)] = add(("om", o, t), 0.0, 1.0, integer=True) if valid else 0.0
        if t not in self.fixed_dirs:
            for f in sorted(spec.flow_directions):
                self.h[("fd", f, t)] = add(("fd", f, t), 0.0, 1.0, integer=True)
        if om_free:
            for a in sorted(spec.valves):
                self.h[("op", a, t)] = add(("op", a, t), 0.0, 1.0, integer=True)
            for a in sorted(spec.stations):
                st = spec.stations[a]
                nl = spec.nodes[st.from_node]
                nr = spec.nodes[st.to_node]
                plub, prub = nl.pressure_ub[t], nr.pressure_ub[t]
                qlb, qub = st.flow_lb[t], st.flow_ub[t]
                self.h[("cs_by", a, t)] = add(("cs_by", a, t), 0.0, 1.0, integer=True)
                self.h[("cs_cl", a, t)] = add(("cs_cl", a, t), 0.0, 1.0, integer=True)
                self.h[("p_by", a, t)] = add_pa(("p_by", a, t), 0.0, min(plub, prub))
                self.h[("q_by", a, t)] = add_q(("q_by", a, t), min(0.0, qlb), max(0.0, qub))
                self.h[("p_cl_l", a, t)] = add_pa(("p_cl_l", a, t), 0.0, plub)
                self.h[("p_cl_r", a, t)] = add_pa(("p_cl_r", a, t), 0.0, prub)
                for c in st.configurations:
                    self.h[("cfg", c.id, a, t)] = add(("cfg", c.id, a, t), 0.0, 1.0, integer=True)
                    self.h[("p_cfg_l", c.id, a, t)] = add_pa(("p_cfg_l", c.id, a, t), 0.0, plub)
                    self.h[("p_cfg_r", c.id, a, t)] = add_pa(("p_cfg_r", c.id, a, t), 0.0, prub)
                    self.h[("q_cfg", c.id, a, t)] = add_q(
                        ("q_cfg", c.id, a, t), 0.0, max(0.0, qub)
                    )

        for a in sorted(spec.regulators):
            for token in REGULATOR_TOKENS:
                self.h[("rg", token, a, t)] = add((f"rg_{token}", a, t), 0.0, 1.0, integer=True)

        for v in sorted(spec.boundary_nodes()):
            self._add_slacks(add_pa, "sp", v, t, _pressure_slack_cap)
        grouped = {v for g in spec.fence_groups.values() for v in g}
        for v in sorted(grouped):
            self._add_slacks(add_q, "sd", v, t, _flow_slack_cap)

        # change variables: constants where the modes on both sides are fixed
        mode, prev = self.fixed_modes.get(t), self.fixed_modes.get(t - 1)
        both_fixed = mode is not None and prev is not None
        if both_fixed:
            for key, value in change_indicators(spec, prev, mode).items():
                self.h[key + (t,)] = value
        else:
            self.h[("d_om", t)] = add(("d_om", t), 0.0, 1.0, integer=True)
        if self.transient:
            # stationary variants drop regulator change tracking entirely
            for a in sorted(spec.regulators):
                self.h[("d_rg", a, t)] = add(("d_rg", a, t), 0.0, 1.0, integer=True)
        if not both_fixed:
            for a in sorted(spec.stations):
                for u in spec.stations[a].units:
                    self.h[("d_us", u.id, a, t)] = add(("d_us", u.id, a, t), 0.0, 1.0, integer=True)

        if self.transient:
            for a in sorted(spec.regulators):
                self._make_tracker_vars("rg", a, t)
            for a in sorted(spec.stations):
                self._make_tracker_vars("cs", a, t)

    def _make_tracker_vars(self, kind: str, a: str, t: int) -> None:
        arc = self.spec.regulators[a] if kind == "rg" else self.spec.stations[a]
        for label, _, lb, ub in self._tracked(arc, a):
            add = self._add_q if label == "q" else self._add_pa
            span = max(ub[t] - lb[t - 1], ub[t - 1] - lb[t], 0.0)
            self.h[(f"{kind}_{label}", a, t)] = add((f"trk_{kind}_{label}", a, t), 0.0, span)

    def _tracked(self, arc, a: str):
        """(label, handle key without the step, lower and upper bounds) of
        the inlet pressure, outlet pressure and flow of a tracked arc."""
        nl, nr = self.spec.nodes[arc.from_node], self.spec.nodes[arc.to_node]
        return (
            ("pl", ("p", arc.from_node), nl.pressure_lb, nl.pressure_ub),
            ("pr", ("p", arc.to_node), nr.pressure_lb, nr.pressure_ub),
            ("q", ("q", a), arc.flow_lb, arc.flow_ub),
        )

    # -- rows ---------------------------------------------------------------

    def _emit_time_step(self, t: int) -> None:
        spec = self.spec
        for a in sorted(spec.pipes):
            self._emit_pipe(a, t)
        for a in sorted(spec.resistors):
            self._emit_resistor(a, t)
        for a in sorted(spec.valves):
            self._emit_valve(a, t)
        for a in sorted(spec.regulators):
            self._emit_regulator(a, t)
        for a in sorted(spec.stations):
            self._emit_station(a, t)
        for v in sorted(spec.nodes):
            self._emit_node_balance(v, t)
        self._emit_station_logic(t)
        self._emit_slacks(t)
        self._emit_changes(t)
        if self.transient:
            self._emit_trackers(t)

    def _emit_pipe(self, a: str, t: int) -> None:
        spec = self.spec
        pipe = spec.pipes[a]
        c = spec.constants
        rstz = c.specific_gas_constant * c.temperature * pipe.z_factor
        fric_coef = (
            _friction(pipe) * pipe.length / (4.0 * pipe.diameter * pipe.area)
        )
        grav = c.gravity * pipe.slope * pipe.length / (2.0 * rstz)
        pl, pr = self.h[("p", pipe.from_node, t)], self.h[("p", pipe.to_node, t)]
        ql, qr = self.h[("ql", a, t)], self.h[("qr", a, t)]
        if self.transient:
            t0 = t - 1
            dt = self.scen.time_grid[t] - self.scen.time_grid[t0]
            cont = 2.0 * rstz * dt / (pipe.length * pipe.area)
            pl0, pr0 = self.h[("p", pipe.from_node, t0)], self.h[("p", pipe.to_node, t0)]
            self._row(
                ("pipe_cont", a, t),
                [(1.0, pl), (1.0, pr), (-1.0, pl0), (-1.0, pr0), (cont, qr), (-cont, ql)],
                "==",
                0.0,
            )
            self._row(
                ("pipe_mom", a, t),
                [
                    (1.0 + grav, pr),
                    (-1.0 + grav, pl),
                    (fric_coef * pipe.velo_const_from, ql),
                    (fric_coef * pipe.velo_const_to, qr),
                ],
                "==",
                0.0,
            )
        else:
            self._row(
                ("pipe_mom", a, t),
                [
                    (1.0 + grav, pr),
                    (-1.0 + grav, pl),
                    (fric_coef * (pipe.velo_const_from + pipe.velo_const_to), ql),
                ],
                "==",
                0.0,
            )

    def _emit_resistor(self, a: str, t: int) -> None:
        res = self.spec.resistors[a]
        coef = res.drag * res.velo_const / (2.0 * res.area)
        self._row(
            ("resistor", a, t),
            [
                (1.0, self.h[("p", res.from_node, t)]),
                (-1.0, self.h[("p", res.to_node, t)]),
                (-coef, self.h[("q", a, t)]),
            ],
            "==",
            0.0,
        )

    def _emit_valve(self, a: str, t: int) -> None:
        spec = self.spec
        valve = spec.valves[a]
        nl, nr = spec.nodes[valve.from_node], spec.nodes[valve.to_node]
        pl, pr = self.h[("p", valve.from_node, t)], self.h[("p", valve.to_node, t)]
        q = self.h[("q", a, t)]
        op = self.h[("op", a, t)]
        hi = nl.pressure_ub[t] - nr.pressure_lb[t]
        lo = nl.pressure_lb[t] - nr.pressure_ub[t]
        self._row(("valve_p_hi", a, t), [(1.0, pl), (-1.0, pr), (hi, op)], "<=", hi)
        self._row(("valve_p_lo", a, t), [(1.0, pl), (-1.0, pr), (lo, op)], ">=", lo)
        self._row(("valve_q_hi", a, t), [(1.0, q), (-valve.flow_ub[t], op)], "<=", 0.0)
        self._row(("valve_q_lo", a, t), [(1.0, q), (-valve.flow_lb[t], op)], ">=", 0.0)

    def _emit_regulator(self, a: str, t: int) -> None:
        spec = self.spec
        rg = spec.regulators[a]
        nl, nr = spec.nodes[rg.from_node], spec.nodes[rg.to_node]
        pl, pr = self.h[("p", rg.from_node, t)], self.h[("p", rg.to_node, t)]
        q = self.h[("q", a, t)]
        by, cl, ac = (self.h[("rg", token, a, t)] for token in REGULATOR_TOKENS)
        self._row(("rg_mode", a, t), [(1.0, cl), (1.0, by), (1.0, ac)], "==", 1.0)
        hi = nl.pressure_ub[t] - nr.pressure_lb[t]
        lo = nl.pressure_lb[t] - nr.pressure_ub[t]
        self._row(("rg_p_hi", a, t), [(1.0, pl), (-1.0, pr), (hi, by)], "<=", hi)
        self._row(("rg_p_lo", a, t), [(1.0, pl), (-1.0, pr), (lo, by), (lo, ac)], ">=", lo)
        self._row(("rg_q_hi", a, t), [(1.0, q), (rg.flow_ub[t], cl)], "<=", rg.flow_ub[t])
        self._row(("rg_q_lo", a, t), [(1.0, q)], ">=", 0.0)

    def _emit_station(self, a: str, t: int) -> None:
        spec = self.spec
        st = spec.stations[a]
        pl, pr = self.h[("p", st.from_node, t)], self.h[("p", st.to_node, t)]
        q = self.h[("q", a, t)]
        if t in self.fixed_modes:
            # mode fixed: apply the active branch directly on the originals
            token = spec.operation_modes[self.fixed_modes[t]].assignment[a]
            if token == "by":
                self._row(("cs_bypass", a, t), [(1.0, pl), (-1.0, pr)], "==", 0.0)
            elif token == "cl":
                self._row(("cs_closed", a, t), [(1.0, q)], "==", 0.0)
            else:
                config = st.configuration(token)
                self._require_facets(config, a)
                self._row(("cs_q_lo", a, t), [(1.0, q)], ">=", 0.0)
                for i, (w, x, y, z) in enumerate(config.facets):
                    self._row(
                        ("cs_facet", config.id, a, t, str(i)),
                        [(w, pl), (x, pr), (y, q)],
                        "<=",
                        -z,
                        unit=_facet_unit(w, x, y),
                    )
            return

        by = self.h[("cs_by", a, t)]
        cl = self.h[("cs_cl", a, t)]
        p_by, q_by = self.h[("p_by", a, t)], self.h[("q_by", a, t)]
        p_cl_l, p_cl_r = self.h[("p_cl_l", a, t)], self.h[("p_cl_r", a, t)]
        cfgs = [self.h[("cfg", c.id, a, t)] for c in st.configurations]
        sel = [(1.0, by), (1.0, cl)] + [(1.0, g) for g in cfgs]
        self._row(("cs_select", a, t), sel, "==", 1.0)
        link_l = [(1.0, p_by), (1.0, p_cl_l)] + [
            (1.0, self.h[("p_cfg_l", c.id, a, t)]) for c in st.configurations
        ]
        link_r = [(1.0, p_by), (1.0, p_cl_r)] + [
            (1.0, self.h[("p_cfg_r", c.id, a, t)]) for c in st.configurations
        ]
        link_q = [(1.0, q_by)] + [(1.0, self.h[("q_cfg", c.id, a, t)]) for c in st.configurations]
        self._row(("cs_link_pl", a, t), [(-1.0, pl)] + link_l, "==", 0.0)
        self._row(("cs_link_pr", a, t), [(-1.0, pr)] + link_r, "==", 0.0)
        self._row(("cs_link_q", a, t), [(-1.0, q)] + link_q, "==", 0.0)

        nl, nr = spec.nodes[st.from_node], spec.nodes[st.to_node]
        plub, prub = nl.pressure_ub[t], nr.pressure_ub[t]
        qlb, qub = st.flow_lb[t], st.flow_ub[t]

        def bound_pair(label, var, lo, hi, indicator):
            self._row(("cs_bnd_lo", label, a, t), [(1.0, var), (-lo, indicator)], ">=", 0.0)
            self._row(("cs_bnd_hi", label, a, t), [(1.0, var), (-hi, indicator)], "<=", 0.0)

        for c in st.configurations:
            g = self.h[("cfg", c.id, a, t)]
            bound_pair(f"pl,{c.id}", self.h[("p_cfg_l", c.id, a, t)], 0.0, plub, g)
            bound_pair(f"pr,{c.id}", self.h[("p_cfg_r", c.id, a, t)], 0.0, prub, g)
            bound_pair(f"q,{c.id}", self.h[("q_cfg", c.id, a, t)], 0.0, max(0.0, qub), g)
        bound_pair("p,by", p_by, 0.0, min(plub, prub), by)
        bound_pair("q,by", q_by, min(0.0, qlb), max(0.0, qub), by)
        bound_pair("pl,cl", p_cl_l, 0.0, plub, cl)
        bound_pair("pr,cl", p_cl_r, 0.0, prub, cl)

        for c in st.configurations:
            self._require_facets(c, a)
            g = self.h[("cfg", c.id, a, t)]
            for i, (w, x, y, z) in enumerate(c.facets):
                self._row(
                    ("cs_facet", c.id, a, t, str(i)),
                    [
                        (w, self.h[("p_cfg_l", c.id, a, t)]),
                        (x, self.h[("p_cfg_r", c.id, a, t)]),
                        (y, self.h[("q_cfg", c.id, a, t)]),
                        (z, g),
                    ],
                    "<=",
                    0.0,
                    unit=_facet_unit(w, x, y),
                )

    def _require_facets(self, config, arc_id: str) -> None:
        if config.facets is None:
            raise ValueError(
                f"configuration {config.id!r} on station {arc_id!r} has no built operating range"
            )

    def _node_incidence(self) -> dict:
        """Per node, the (sign, handle kind, id) of each flow into or out
        of it, in balance-row order: pipe ends, then other arcs, each in
        catalog order, then the boundary inflow."""
        spec = self.spec
        out: dict = {v: [] for v in spec.nodes}
        for a, pipe in spec.pipes.items():
            out[pipe.to_node].append((1.0, "qr", a))
            out[pipe.from_node].append((-1.0, "ql", a))
        for a, arc in spec.non_pipe_arcs().items():
            out[arc.to_node].append((1.0, "q", a))
            out[arc.from_node].append((-1.0, "q", a))
        for v in spec.boundary_nodes():
            out[v].append((1.0, "d", v))
        return out

    def _emit_node_balance(self, v: str, t: int) -> None:
        h = self.h
        pairs = [(sign, h[(kind, a, t)]) for sign, kind, a in self._incidence[v]]
        if pairs:
            self._row(("balance", v, t), pairs, "==", 0.0)

    def _emit_station_logic(self, t: int) -> None:
        spec = self.spec

        if t not in self.fixed_modes:  # a fixed mode satisfies these rows by construction
            self._row(
                ("om_choice", t),
                [(1.0, self.h[("om", o, t)]) for o in spec.operation_modes],
                "==",
                1.0,
            )
            for a in sorted(spec.valves):
                self._coupling_row(("valve_coupling", a, t), ("op", a, t), a, "op")
            for a in sorted(spec.stations):
                self._coupling_row(("cs_by_coupling", a, t), ("cs_by", a, t), a, "by")
                # the closed-mode coupling row is implied by the remaining
                # couplings together with mode selection; omitted
                for c in spec.stations[a].configurations:
                    self._coupling_row(
                        ("cs_cfg_coupling", c.id, a, t), ("cfg", c.id, a, t), a, c.id
                    )

        if t not in self.fixed_dirs:
            self._row(
                ("fd_choice", t),
                [(1.0, self.h[("fd", f, t)]) for f in sorted(spec.flow_directions)],
                "==",
                1.0,
            )
        for o in sorted(spec.operation_modes):
            om = self.h[("om", o, t)]
            if isinstance(om, float) and om == 0.0:
                continue
            pairs = [(1.0, om)] + [(-1.0, self.h[("fd", f, t)]) for f in spec.direction_partners[o]]
            self._row(("om_fd_coupling", o, t), pairs, "<=", 0.0)

        for v in sorted(spec.boundary_nodes()):
            d = self.h[("d", v, t)]
            dlb = self.scen.inflow_lb[v][t]
            dub = self.scen.inflow_ub[v][t]
            not_out = [f for f, fd in spec.flow_directions.items() if v not in fd.outflow_nodes]
            not_in = [f for f, fd in spec.flow_directions.items() if v not in fd.inflow_nodes]
            self._row(
                ("fd_inflow_lo", v, t),
                [(1.0, d)] + [(dlb, self.h[("fd", f, t)]) for f in not_out],
                ">=",
                dlb,
            )
            self._row(
                ("fd_inflow_hi", v, t),
                [(1.0, d)] + [(dub, self.h[("fd", f, t)]) for f in not_in],
                "<=",
                dub,
            )
            node = spec.nodes[v]
            if node.exit_pressure_ub is not None:
                outs = [f for f, fd in spec.flow_directions.items() if v in fd.outflow_nodes]
                gap = node.pressure_ub[t] - node.exit_pressure_ub
                self._row(
                    ("exit_pressure", v, t),
                    [(1.0, self.h[("p", v, t)])] + [(gap, self.h[("fd", f, t)]) for f in outs],
                    "<=",
                    node.pressure_ub[t],
                )

        for idx, cond in enumerate(spec.flow_conditions):
            f = cond.direction
            fd_handle = self.h[("fd", f, t)]
            if isinstance(fd_handle, float) and fd_handle == 0.0:
                continue  # resolved away: condition direction not selected
            direction = spec.flow_directions[f]

            def sgn(v):
                return 1.0 if v in direction.inflow_nodes else -1.0

            c1 = self._condition_big_m(cond, t)
            pairs = [(sgn(v), self.h[("d", v, t)]) for v in cond.smaller]
            pairs += [(-sgn(v), self.h[("d", v, t)]) for v in cond.larger]
            pairs.append((c1, fd_handle))
            self._row(("flow_condition", str(idx), t), pairs, "<=", c1)

    def _coupling_row(self, name: str, key: tuple, a: str, token: str) -> None:
        """Indicator ``key`` equals the sum of the modes assigning ``token`` to arc ``a``."""
        t = key[-1]
        pairs = [(1.0, self.h[key])]
        pairs += [
            (-1.0, self.h[("om", o, t)])
            for o, mode in self.spec.operation_modes.items()
            if mode.assignment[a] == token
        ]
        self._row(name, pairs, "==", 0.0)

    def _condition_big_m(self, cond, t: int) -> float:
        direction = self.spec.flow_directions[cond.direction]
        dlb = {v: self.scen.inflow_lb[v][t] for v in set(cond.smaller) | set(cond.larger)}
        dub = {v: self.scen.inflow_ub[v][t] for v in set(cond.smaller) | set(cond.larger)}
        c1 = 0.0
        for v in cond.smaller:
            if v in direction.inflow_nodes:
                c1 += max(0.0, dub[v])
            else:
                c1 -= min(0.0, dlb[v])
        for v in cond.larger:
            if v in direction.inflow_nodes:
                c1 -= max(0.0, dlb[v])
            else:
                c1 += min(0.0, dub[v])
        return c1

    def _demand(self, kind: str, key: str, t: int) -> float:
        """``scen.<kind>[key]`` at step t, ``kind`` one of ``pressure_demand``
        and ``flow_demand`` (demand arrays start at step 1)."""
        value = getattr(self.scen, kind)[key][t - 1]
        return value if self.sites is None else _Param(value, (kind, key, t))

    def _emit_slacks(self, t: int) -> None:
        spec = self.spec
        for v in sorted(spec.boundary_nodes()):
            self._row(
                ("slack_pressure", v, t),
                [
                    (1.0, self.h[("p", v, t)]),
                    (-1.0, self.h[("sp+", v, t)]),
                    (1.0, self.h[("sp-", v, t)]),
                ],
                "==",
                self._demand("pressure_demand", v, t),
            )
        for g, members in sorted(spec.fence_groups.items()):
            pairs = []
            for v in members:
                pairs += [
                    (1.0, self.h[("d", v, t)]),
                    (-1.0, self.h[("sd+", v, t)]),
                    (1.0, self.h[("sd-", v, t)]),
                ]
            self._row(("slack_flow", g, t), pairs, "==", self._demand("flow_demand", g, t))

    def _emit_changes(self, t: int) -> None:
        spec = self.spec
        d_om = self.h[("d_om", t)]
        if isinstance(d_om, VarRef):
            for o in sorted(spec.operation_modes):
                self._change_rows(d_om, ("om", o), t)
        if self.transient:
            for a in sorted(spec.regulators):
                d_rg = self.h[("d_rg", a, t)]
                for token in REGULATOR_TOKENS:
                    self._change_rows(d_rg, ("rg", token, a), t)
        for a in sorted(spec.stations):
            st = spec.stations[a]
            for u in st.units:
                d_us = self.h[("d_us", u.id, a, t)]
                if not isinstance(d_us, VarRef):
                    continue
                using = [c.id for c in st.configurations if u.id in c.units]
                pairs = [(1.0, d_us)]
                pairs += [(-1.0, self.h[("cfg", c, a, t)]) for c in using]
                pairs += [(1.0, self.h[("cfg", c, a, t - 1)]) for c in using]
                self._row(("unit_start", u.id, a, t), pairs, ">=", 0.0)

    def _change_rows(self, change, key: tuple, t: int) -> None:
        """``change`` is at least |indicator ``key`` at t - at t-1| (0/1
        values); the rows are named after the key, e.g. ``om_change_lo(o,t)``."""
        kind, args = key[0], key[1:] + (t,)
        now, before = self.h[key + (t,)], self.h[key + (t - 1,)]
        self._row((f"{kind}_change_lo", *args), [(1.0, change), (-1.0, now), (1.0, before)], ">=", 0.0)
        self._row((f"{kind}_change_hi", *args), [(1.0, change), (1.0, now), (1.0, before)], "<=", 2.0)

    def _emit_trackers(self, t: int) -> None:
        spec = self.spec
        for a in sorted(spec.regulators):
            relax = [self.h[("rg", "by", a, t)], self.h[("rg", "cl", a, t)], self.h[("d_rg", a, t)]]
            self._tracker_rows("rg", spec.regulators[a], a, t, relax)
        for a in sorted(spec.stations):
            relax = [self.h[("cs_by", a, t)], self.h[("cs_cl", a, t)], self.h[("d_om", t)]]
            self._tracker_rows("cs", spec.stations[a], a, t, relax)

    def _tracker_rows(self, kind: str, arc, a: str, t: int, relax) -> None:
        """Trackers bound the change of pl, pr and q over the step unless a
        relaxing indicator (bypass, closed, mode change) is on."""
        tp = t - 1
        for label, key, lb, ub in self._tracked(arc, a):
            tracker = self.h[(f"{kind}_{label}", a, t)]
            now, before = self.h[key + (t,)], self.h[key + (tp,)]
            up_m, down_m = ub[t] - lb[tp], ub[tp] - lb[t]
            self._row(
                (f"trk_{kind}_{label}_up", a, t),
                [(1.0, now), (-1.0, before), (-1.0, tracker)] + [(-up_m, h) for h in relax],
                "<=",
                0.0,
            )
            self._row(
                (f"trk_{kind}_{label}_dn", a, t),
                [(1.0, before), (-1.0, now), (-1.0, tracker)] + [(-down_m, h) for h in relax],
                "<=",
                0.0,
            )

    def _emit_objective(self) -> None:
        """The objective, with the file-facing weights converted to Pa, kg/s and s."""
        spec = self.spec
        m = self.instance.model
        w = self.weights
        per_pa = 1.0 / PA_PER_BAR
        per_kg_s = SECONDS_PER_HOUR / (1000.0 * spec.constants.normal_density)
        slack_pressure = w.slack_pressure / (PA_PER_BAR * SECONDS_PER_HOUR)  # per Pa*s
        slack_flow = w.slack_flow / (1000.0 * spec.constants.normal_density)  # per kg
        tracked = {  # per Pa, per Pa and per kg/s of inlet, outlet and flow change
            "rg": (
                w.regulator_inlet_pressure * per_pa,
                w.regulator_outlet_pressure * per_pa,
                w.regulator_flow * per_kg_s,
            ),
            "cs": (
                w.station_inlet_pressure * per_pa,
                w.station_outlet_pressure * per_pa,
                w.station_flow * per_kg_s,
            ),
        }

        def tracker_terms(kind: str, a: str, t: int) -> None:
            for category, label, coef in zip(
                ("inlet_pressure", "outlet_pressure", "flow"), ("pl", "pr", "q"), tracked[kind]
            ):
                m.add_objective(f"{kind}_{category}", self.h[(f"{kind}_{label}", a, t)], coef)

        for t in self.times:
            dt = self.scen.step_length(t)
            for v in sorted(spec.boundary_nodes()):
                m.add_objective("slack_pressure", self.h[("sp+", v, t)], dt * slack_pressure)
                m.add_objective("slack_pressure", self.h[("sp-", v, t)], dt * slack_pressure)
                if ("sd+", v, t) in self.h:
                    m.add_objective("slack_flow", self.h[("sd+", v, t)], dt * slack_flow)
                    m.add_objective("slack_flow", self.h[("sd-", v, t)], dt * slack_flow)
            m.add_objective("om_change", self.h[("d_om", t)], w.operation_mode_change)
            for a in sorted(spec.stations):
                for u in spec.stations[a].units:
                    m.add_objective("unit_start", self.h[("d_us", u.id, a, t)], w.unit_start)
            if not self.transient:
                continue
            for a in sorted(spec.regulators):
                m.add_objective("rg_change", self.h[("d_rg", a, t)], w.regulator_mode_change)
                tracker_terms("rg", a, t)
            for a in sorted(spec.stations):
                tracker_terms("cs", a, t)


def _pressure_slack_cap(spec: StationSpec, scen: Scenario, v: str, t: int) -> float:
    """Upper bound of the pressure slacks of boundary node v at step t."""
    return float(spec.nodes[v].pressure_ub[t] + abs(scen.pressure_demand[v][t - 1]))


def _flow_slack_cap(spec: StationSpec, scen: Scenario, v: str, t: int) -> float:
    """Upper bound of the flow slacks of fenced node v at step t."""
    demand = max(abs(scen.flow_demand[g][t - 1]) for g, members in spec.fence_groups.items() if v in members)
    return float(abs(scen.inflow_lb[v][t]) + abs(scen.inflow_ub[v][t]) + demand) + 1.0


def _facet_unit(w: float, x: float, y: float) -> float | None:
    """Solver unit of a facet row ``w pl + x pr + y q + z <= 0``.

    Facets are normalised over (Pa, Pa, kg/s).  A flow facet, whose flow
    term dominates, is measured in flow units: dividing it by
    ``PA_PER_BAR`` would shrink its flow coefficient to 1e-4.  A pressure
    facet reads in bar like any other row over pressure columns.
    """
    return KG_S_PER_SOLVER_FLOW if abs(y) >= max(abs(w), abs(x)) else None


def _friction(pipe) -> float:
    return nikuradse_friction(pipe.diameter, pipe.roughness)
