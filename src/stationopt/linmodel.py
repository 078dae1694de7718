"""Solver-independent linear model container and LP-format export.

A :class:`LinearModel` is a plain catalog of variables (finite bounds,
optional integrality, a solver unit), rows (sparse coefficients, sense,
right-hand side) and a linear objective split into named categories.  Its
numbers live in typed ``array.array`` buffers, the rows as flat COO data
(row pointer, columns, values); every reader sees them through
:meth:`LinearModel.arrays` as read-only numpy views.  A model is appended
to while it is built and only read after that: a read model takes no
appends.  Names are strings or records ``(label, *args)`` formatted only
when read (see :func:`format_name`).  The model itself is in SI;
:meth:`LinearModel.solver_view` derives the arrays an in-process solver
sees, with every column in its declared unit.  :meth:`LinearModel.patched`
copies a read model with new column upper bounds and right-hand sides and
shares the rest, the solver view's matrix included.  The export writes
deterministic CPLEX-style LP text in SI, byte-identical for identical
models.
"""

from __future__ import annotations

import copy
import math
import re
from array import array
from dataclasses import dataclass, replace

import numpy as np
from scipy import sparse

SENSES = ("<=", ">=", "==")
_SENSE_INDEX = {sense: i for i, sense in enumerate(SENSES)}
CONSTANT_ROW_TOL = 1e-9  # relative slack for a row left without variables


class BuildInfeasibleError(ValueError):
    """A constant-only constraint is violated already at build time."""


def format_name(name, shift: int = 0) -> str:
    """A variable or row name as text.

    ``name`` is a string, returned as it is, or a record ``(label, *args)``
    whose string arguments are ids and whose int arguments are time steps;
    it reads ``label(arg,...)`` with every step moved by ``shift``.
    """
    if type(name) is str:
        return name
    args = ",".join([a if type(a) is str else str(a + shift) for a in name[1:]])
    return f"{name[0]}({args})"


def _bounds_error(name, lb: float, ub: float, shift: int = 0):
    """The error :meth:`LinearModel.add_var` raises for bounds it cannot take."""
    if not (math.isfinite(lb) and math.isfinite(ub)):
        raise ValueError(f"variable {format_name(name, shift)!r} needs finite bounds, got [{lb}, {ub}]")
    raise BuildInfeasibleError(f"variable {format_name(name, shift)!r} has empty domain [{lb}, {ub}]")


@dataclass(slots=True, unsafe_hash=True)
class VarRef:
    """Handle of one model variable; equal and hashed by its index.

    Slotted and not frozen: a model makes one per column, and a frozen
    dataclass costs about twice as much to construct.
    """

    index: int


@dataclass
class Row:
    """One row as a record; :attr:`LinearModel.rows` derives these."""

    name: str
    coeffs: dict  # var index -> coefficient
    sense: str
    rhs: float
    unit: float | None = None  # solver unit of the row; None derives it from the columns


@dataclass(frozen=True)
class SolverView:
    """A model in solver units, as arrays.

    Column ``j`` holds ``x_j / col_unit[j]``.  Row ``r`` is divided by its
    declared unit or, by default, by the largest unit among its columns, so
    a row over pressure columns reads in bar, big-M terms included, and a
    row over SI-only columns is unchanged.  The objective value is the SI
    one.  ``integer`` is ``uint8``, 1 for an integer column.
    """

    c: np.ndarray
    A: sparse.csc_array
    row_lo: np.ndarray
    row_hi: np.ndarray
    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray
    col_unit: np.ndarray

    def to_si(self, x) -> np.ndarray:
        """A solver-unit assignment mapped back to SI."""
        return np.asarray(x, dtype=float) * self.col_unit


@dataclass(frozen=True)
class ModelArrays:
    """A model's columns and rows as numpy arrays, in SI.

    Row ``r`` holds the entries ``ptr[r]:ptr[r + 1]`` of ``cols`` and
    ``vals`` (``row_of`` repeats ``r`` for each of them); ``sense`` indexes
    :data:`SENSES`, and ``row_unit`` is NaN where the row derives its unit
    from its columns.  Every row has at least one entry.
    """

    lb: np.ndarray
    ub: np.ndarray
    integer: np.ndarray  # bool
    col_unit: np.ndarray
    ptr: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    row_of: np.ndarray
    sense: np.ndarray
    rhs: np.ndarray
    row_unit: np.ndarray


class LinearModel:
    """Variables, rows and objective of one model, appended in build order.

    The ``add_*`` methods are the only writers.  Every per-column and
    per-row number sits in a typed buffer (``"d"`` floats, ``"q"`` indices,
    ``"b"`` flags and senses), 8 bytes or fewer per entry where a list
    holds a boxed number.  The first read of :meth:`arrays` closes the
    model: it views the buffers, which :meth:`patched` copies share, so
    every later ``add_*`` call raises ``ValueError``.
    """

    def __init__(self, name: str):
        self.name = name
        self._var_keys: list = []  # names as given (see format_name)
        self._row_keys: list = []
        self._shift = 0  # steps the names are moved by when formatted
        self._names: tuple | None = None  # (var_names, row_names), formatted on first read
        self._lb = array("d")
        self._ub = array("d")
        self._integer = array("b")  # 1 for an integer column
        self._unit = array("d")  # SI value of one solver unit, per column
        self._ptr = array("q", [0])
        self._cols = array("q")
        self._vals = array("d")
        self._sense = array("b")  # index into SENSES
        self._rhs = array("d")
        self._row_unit = array("d")  # NaN: derived from the columns
        self.objective_constant = 0.0  # the sum of the constant terms
        # (category, var index or None, coefficient or constant value), in build order
        self.objective_terms: list[tuple[str, int | None, float]] = []
        self._arrays: ModelArrays | None = None  # set on first read, which closes the model
        self._view: tuple | None = None  # what solver_view derives from the structure alone
        self._row_units: np.ndarray | None = None

    @property
    def n_vars(self) -> int:
        return len(self._var_keys)

    @property
    def n_rows(self) -> int:
        return len(self._row_keys)

    @property
    def var_names(self) -> list[str]:
        return self._formatted()[0]

    @property
    def row_names(self) -> list[str]:
        return self._formatted()[1]

    def _formatted(self) -> tuple:
        if self._names is None:
            shift = self._shift
            self._names = (
                [format_name(n, shift) for n in self._var_keys],
                [format_name(n, shift) for n in self._row_keys],
            )
        return self._names

    @property
    def rows(self) -> list[Row]:
        """The rows as :class:`Row` records, derived afresh on each read."""
        a = self.arrays()
        ptr, cols, vals = a.ptr.tolist(), a.cols.tolist(), a.vals.tolist()
        units = [None if math.isnan(unit) else unit for unit in a.row_unit.tolist()]
        return [
            Row(name, dict(zip(cols[lo:hi], vals[lo:hi])), SENSES[sense], rhs, unit)
            for name, lo, hi, sense, rhs, unit
            in zip(self.row_names, ptr, ptr[1:], a.sense.tolist(), a.rhs.tolist(), units)
        ]

    def arrays(self) -> ModelArrays:
        """The columns and rows as read-only arrays (see :class:`ModelArrays`).

        Each views its buffer, and ``row_of`` is derived.  The first call
        closes the model: a view pins its buffer, so no append may follow.
        """
        if self._arrays is None:
            ptr = np.frombuffer(self._ptr, dtype=np.int64)
            fields = dict(
                lb=np.frombuffer(self._lb, dtype=float),
                ub=np.frombuffer(self._ub, dtype=float),
                integer=np.frombuffer(self._integer, dtype=bool),
                col_unit=np.frombuffer(self._unit, dtype=float),
                ptr=ptr,
                cols=np.frombuffer(self._cols, dtype=np.int64),
                vals=np.frombuffer(self._vals, dtype=float),
                row_of=np.repeat(np.arange(self.n_rows, dtype=np.int64), np.diff(ptr)),
                sense=np.frombuffer(self._sense, dtype=np.int8),
                rhs=np.frombuffer(self._rhs, dtype=float),
                row_unit=np.frombuffer(self._row_unit, dtype=float),
            )
            for field in fields.values():
                field.flags.writeable = False
            self._arrays = ModelArrays(**fields)
        return self._arrays

    def _refuse_if_read(self) -> None:
        if self._arrays is not None:
            raise ValueError(f"model {self.name!r} has been read and takes no appends")

    def add_var(
        self, name, lb: float, ub: float, integer: bool = False, unit: float = 1.0
    ) -> VarRef:
        """One variable with SI bounds.

        ``unit`` is the SI value of one solver unit: a pressure column in Pa
        passes ``units.PA_PER_BAR`` so that the solver sees it in bar.
        """
        self._refuse_if_read()
        if not (math.isfinite(lb) and math.isfinite(ub)) or lb > ub:
            _bounds_error(name, lb, ub)
        if not unit > 0.0 or (integer and unit != 1.0):
            raise ValueError(f"variable {format_name(name)!r} cannot have solver unit {unit}")
        self._names = None
        self._var_keys.append(name)
        self._lb.append(float(lb))
        self._ub.append(float(ub))
        self._integer.append(bool(integer))
        self._unit.append(float(unit))
        return VarRef(len(self._var_keys) - 1)

    def add_row(self, name, pairs, sense: str, rhs: float, unit: float | None = None) -> None:
        """One linear row from (coefficient, handle) pairs.

        Handles are :class:`VarRef` or plain numbers; constants fold into
        the right-hand side.  A row left without any variable must hold as
        a tautology, otherwise the model is infeasible by construction.
        ``unit`` overrides the row's solver unit (see :class:`SolverView`)
        for a row that touches a scaled column but is not measured in it.
        """
        self._refuse_if_read()
        sense_index = _SENSE_INDEX.get(sense)
        if sense_index is None:
            raise ValueError(f"unknown sense {sense!r}")
        coeffs: dict = {}
        const = 0.0
        for coef, handle in pairs:
            if type(handle) is VarRef:
                index = handle.index
                coeffs[index] = coeffs.get(index, 0.0) + float(coef)
            else:
                const += float(coef) * float(handle)
        rhs_eff = float(rhs) - const
        if 0.0 in coeffs.values():
            coeffs = {i: c for i, c in coeffs.items() if c != 0.0}
        if not coeffs:
            slack = CONSTANT_ROW_TOL * max(1.0, abs(rhs_eff))
            ok = {
                "<=": 0.0 <= rhs_eff + slack,
                ">=": 0.0 >= rhs_eff - slack,
                "==": abs(rhs_eff) <= slack,
            }[sense]
            if not ok:
                raise BuildInfeasibleError(
                    f"constant row {format_name(name)!r} is violated: 0 {sense} {rhs_eff}"
                )
            return
        self._names = None
        self._row_keys.append(name)
        self._cols.extend(coeffs)
        self._vals.extend(coeffs.values())
        self._ptr.append(len(self._cols))
        self._sense.append(sense_index)
        self._rhs.append(rhs_eff)
        self._row_unit.append(math.nan if unit is None else float(unit))

    def add_objective(self, category: str, handle, coef: float) -> None:
        """Linear objective contribution; constants keep their category."""
        self._refuse_if_read()
        if type(handle) is VarRef:
            self.objective_terms.append((category, handle.index, float(coef)))
        else:
            value = float(coef) * float(handle)
            if value != 0.0:
                self.objective_constant += value
                self.objective_terms.append((category, None, value))

    def objective_value(self, assignment: np.ndarray) -> float:
        total = self.objective_constant
        for _, idx, coef in self.objective_terms:
            if idx is not None:
                total += coef * assignment[idx]
        return float(total)

    def objective_breakdown(self, assignment: np.ndarray) -> dict:
        out: dict = {}
        for category, idx, coef in self.objective_terms:
            value = coef if idx is None else coef * assignment[idx]
            out[category] = out.get(category, 0.0) + float(value)
        return out

    def solver_view(self) -> SolverView:
        """The model in solver units (see :class:`SolverView`).

        The objective, the matrix, the row units and the lower bounds are
        derived once per model structure; the upper bounds and the row
        bounds on every call.
        """
        a = self.arrays()
        c, A, lb, integer = self._view_structure()
        row_lo = row_hi = np.zeros(0)
        if self.n_rows:
            rhs = a.rhs / self.row_units()
            row_lo = np.where(a.sense == SENSES.index("<="), -np.inf, rhs)
            row_hi = np.where(a.sense == SENSES.index(">="), np.inf, rhs)
        return SolverView(
            c=c,
            A=A,
            row_lo=row_lo,
            row_hi=row_hi,
            lb=lb,
            ub=a.ub / a.col_unit,
            integer=integer,
            col_unit=a.col_unit,
        )

    def row_units(self) -> np.ndarray:
        """Each row's solver unit (see :class:`SolverView`): its declared
        unit, or else the largest unit among its columns, at least 1.
        Derived once per model structure."""
        if self._row_units is None:
            a = self.arrays()
            derived = np.maximum(1.0, np.maximum.reduceat(a.col_unit[a.cols], a.ptr[:-1]))
            self._row_units = np.where(np.isnan(a.row_unit), derived, a.row_unit)
        return self._row_units

    def _objective_c(self) -> np.ndarray:
        """Each column's objective coefficient in SI, its terms summed in build order."""
        c = np.zeros(self.n_vars)
        for _, idx, coef in self.objective_terms:
            if idx is not None:
                c[idx] += coef
        return c

    def _view_structure(self) -> tuple:
        if self._view is None:
            a = self.arrays()
            col_unit = a.col_unit
            A = sparse.csc_array((0, self.n_vars))
            if self.n_rows:
                data = a.vals * col_unit[a.cols] / self.row_units()[a.row_of]
                A = sparse.csr_array((data, a.cols, a.ptr), shape=(self.n_rows, self.n_vars)).tocsc()
            self._view = (self._objective_c() * col_unit, A, a.lb / col_unit, a.integer.astype(np.uint8))
        return self._view

    def patched(self, shift: int, ub: dict, rhs: dict) -> "LinearModel":
        """A copy with new upper bounds ``ub`` and right-hand sides ``rhs``
        (each index -> value) and its names moved by ``shift`` steps.

        The copy shares every other array, the objective and the solver
        view's structure with this closed model.  An upper bound the copy
        cannot take raises as :meth:`add_var` would, the first in ``ub`` order.
        """
        a = self.arrays()
        self._view_structure()  # derived here, so the copy shares it and the row units
        for i, value in ub.items():
            lb = a.lb[i]
            if not (math.isfinite(lb) and math.isfinite(value)) or lb > value:
                _bounds_error(self._var_keys[i], lb, value, self._shift + shift)
        new_ub, new_rhs = a.ub.copy(), a.rhs.copy()
        new_ub[list(ub)] = list(ub.values())
        new_rhs[list(rhs)] = list(rhs.values())
        new_ub.flags.writeable = new_rhs.flags.writeable = False
        out = copy.copy(self)
        out._shift = self._shift + shift
        out._names = None
        out._arrays = replace(a, ub=new_ub, rhs=new_rhs)
        return out

    def lp_text(self) -> str:
        """Deterministic LP-format text of the model.

        The objective constant is not representable in LP format and is
        carried separately (see ``objective_constant``); a comment records
        it for external diffing.
        """
        out = [f"\\ model {self.name}"]
        if self.objective_constant:
            out.append(f"\\ objective constant {_num(self.objective_constant)}")
        out.append("Minimize")
        terms = [
            f"{_sign(coef)} {_num(abs(coef))} {self._vn(idx)}"
            for idx, coef in enumerate(self._objective_c().tolist())
            if coef != 0.0
        ]
        out.append(" obj: " + (" ".join(terms).lstrip("+ ") if terms else "0 " + self._vn(0)))
        out.append("Subject To")
        for i, row in enumerate(self.rows):
            lhs = " ".join(
                f"{_sign(coef)} {_num(abs(coef))} {self._vn(idx)}"
                for idx, coef in sorted(row.coeffs.items())
            ).lstrip("+ ")
            op = {"<=": "<=", ">=": ">=", "==": "="}[row.sense]
            out.append(f" c{i}_{_lp_name(row.name)}: {lhs} {op} {_num(row.rhs)}")
        out.append("Bounds")
        a = self.arrays()
        for idx, (lb, ub) in enumerate(zip(a.lb.tolist(), a.ub.tolist())):
            out.append(f" {_num(lb)} <= {self._vn(idx)} <= {_num(ub)}")
        integers = [self._vn(idx) for idx, is_int in enumerate(a.integer.tolist()) if is_int]
        if integers:
            out.append("Generals")
            out.append(" " + " ".join(integers))
        out.append("End")
        return "\n".join(out) + "\n"

    def _vn(self, idx: int) -> str:
        return _lp_name(self.var_names[idx])


def _lp_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_.()]", "_", name)


def _sign(x: float) -> str:
    return "-" if x < 0 else "+"


def _num(x: float) -> str:
    return repr(float(x))
