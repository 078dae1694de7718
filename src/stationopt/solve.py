"""Uniform contract to a mixed-integer linear solver.

The bundled in-process backend is HiGHS through ``scipy.optimize.milp``.
A file-exchange backend writes LP text and reads a plain solution file
(one ``name value`` pair per line under a ``#status:`` header, with the
variable names and the objective as in the LP text) so a proprietary
solver can be dropped in without code changes.

:class:`SolveSettings` carries the published optimality conditions of a
model variant.  HiGHS receives the relative gap and the time limit.
scipy's binding has no absolute-gap option; a solve stops when either
gap holds, so without it HiGHS can only search longer, never stop
earlier (see :class:`InProcessBackend`).

Every returned assignment is replayed through an independent row checker
before the result is handed back; a checker violation downgrades the
result to an error naming the worst row.
"""

from __future__ import annotations

import ctypes
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .linmodel import LinearModel
from .model import ModelInstance

CHECK_TOL = 1e-6


class BackendCapabilityWarning(UserWarning):
    """The backend cannot honor a requested setting; continuing without it."""


class BackendError(RuntimeError):
    """The solver backend failed in a way that is not an infeasibility."""


@dataclass(frozen=True)
class SolveSettings:
    relative_gap: float
    absolute_gap: float
    time_limit: float  # seconds

    def __post_init__(self) -> None:
        if self.relative_gap < 0.0 or self.absolute_gap < 0.0:
            raise ValueError("optimality gaps must be nonnegative")
        if self.time_limit <= 0.0:
            raise ValueError("time limit must be positive")


TEN_HOURS = 36000.0


def default_settings_for(variant: str, time_limit: float | None = None) -> SolveSettings:
    """The published optimality conditions per model variant.

    The stationary variants run with (1e-4, 1e-2) gaps and a 10 h limit
    standing in for "unlimited"; the fixed transient windows run with
    (5e-3, 1e-2) and 60 s.  The full model reuses the stationary gaps with
    a caller-chosen time limit.
    """
    if variant in ("Ps", "Psf"):
        return SolveSettings(1e-4, 1e-2, TEN_HOURS)
    if variant == "Pf":
        return SolveSettings(5e-3, 1e-2, 60.0)
    if variant == "P":
        return SolveSettings(1e-4, 1e-2, TEN_HOURS if time_limit is None else time_limit)
    raise ValueError(f"unknown model variant {variant!r}")


@dataclass
class SolveResult:
    status: str  # optimal | feasible | infeasible | timeLimit | error
    objective: float
    bound: float
    assignment: np.ndarray | None
    wall_time: float
    message: str = ""
    model: LinearModel | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.status in ("optimal", "feasible") and self.assignment is not None

    def by_name(self) -> dict:
        if self.assignment is None or self.model is None:
            return {}
        return {n: float(v) for n, v in zip(self.model.var_names, self.assignment)}


@dataclass(frozen=True)
class RowViolation:
    name: str
    amount: float

    def __str__(self) -> str:
        return f"{self.name}: violated by {self.amount:.3e}"


def check_assignment(model: LinearModel, x: np.ndarray, tol: float = CHECK_TOL) -> list[RowViolation]:
    """Replay bounds, integrality and every row against an assignment.

    Violations are measured relative to the row's own magnitude (big-M
    rows in Pa live around 1e6), so ``tol`` is a relative feasibility
    tolerance with an absolute floor of ``tol`` itself.
    """
    out: list[RowViolation] = []
    for idx in range(model.n_vars):
        scale = max(1.0, abs(model.lb[idx]), abs(model.ub[idx]))
        if x[idx] < model.lb[idx] - tol * scale or x[idx] > model.ub[idx] + tol * scale:
            out.append(RowViolation(f"bounds({model.var_names[idx]})", _bound_gap(model, idx, x[idx])))
        if model.integer[idx] and abs(x[idx] - round(x[idx])) > 1e-5:
            out.append(RowViolation(f"integrality({model.var_names[idx]})", abs(x[idx] - round(x[idx]))))
    for row in model.rows:
        act = model.row_activity(row, x)
        scale = max(1.0, abs(row.rhs), max(abs(c * x[i]) for i, c in row.coeffs.items()))
        if row.sense == "<=":
            gap = act - row.rhs
        elif row.sense == ">=":
            gap = row.rhs - act
        else:
            gap = abs(act - row.rhs)
        if gap > tol * scale:
            out.append(RowViolation(row.name, gap))
    return out


def _bound_gap(model: LinearModel, idx: int, value: float) -> float:
    return max(model.lb[idx] - value, value - model.ub[idx], 0.0)


class InProcessBackend:
    """HiGHS via scipy.optimize.milp.

    HiGHS solves the model's :meth:`~LinearModel.solver_view`: pressure
    columns in bar and flow columns in tens of kg/s, and every row that
    touches a pressure column divided by ``PA_PER_BAR``, big-M terms
    included.  In SI the model's coefficients span about twelve orders of
    magnitude, and HiGHS' fixed absolute tolerances then let presolve
    return an "optimal" bound above a feasible plan.  The assignment comes
    back in SI, so the row checker, the objective and the LP export never
    see solver units.  When HiGHS returns an integer column off integral
    (within its 1e-6 tolerance), the continuous part is re-solved as an LP
    at the rounded integers, so big-M rows hold for the rounded values.

    Of the settings, ``relative_gap`` and ``time_limit`` reach HiGHS as
    ``mip_rel_gap`` and ``time_limit``.  ``absolute_gap`` does not, as
    scipy's binding has no option for it.  Above an objective of
    ``absolute_gap / relative_gap`` (100 for every variant) the relative gap
    is met first, so the absolute one would not change where HiGHS stops.

    Both HiGHS calls run with file descriptor 1 pointed at ``/dev/null``:
    some HiGHS MIP messages are printed from C++ whatever the output
    options say, and would otherwise interleave with the caller's stdout.
    """

    def solve_raw(self, model: LinearModel, settings: SolveSettings):
        view = model.solver_view()
        constraints = LinearConstraint(view.A, view.row_lo, view.row_hi) if view.A is not None else []
        options = {
            "time_limit": settings.time_limit,
            "mip_rel_gap": settings.relative_gap,
            "presolve": True,
        }
        is_int = view.integer.astype(bool)
        with _stdout_to_devnull():
            res = milp(
                c=view.c,
                constraints=constraints,
                integrality=view.integer if is_int.any() else None,
                bounds=Bounds(view.lb, view.ub),
                options=options,
            )
            x = res.x
            if x is not None and np.any(x[is_int] != np.round(x[is_int])):
                # HiGHS accepts integers within 1e-6 of integral, and a big-M
                # row turns that into a residual the checker sees once they are
                # rounded; re-solve the continuous part at the rounded integers
                fixed_lb, fixed_ub = view.lb.copy(), view.ub.copy()
                fixed_lb[is_int] = fixed_ub[is_int] = np.round(x[is_int])
                lp = milp(c=view.c, constraints=constraints, bounds=Bounds(fixed_lb, fixed_ub), options=options)
                if lp.status == 0:
                    x = lp.x
        x = view.to_si(x) if x is not None else None
        bound = getattr(res, "mip_dual_bound", None)
        status = {0: "optimal", 1: "timeLimit", 2: "infeasible", 3: "error", 4: "error"}.get(
            res.status, "error"
        )
        return status, x, bound, res.message or ""


@contextmanager
def _stdout_to_devnull():
    """Point file descriptor 1 at ``/dev/null`` for the block.

    Python's buffer is flushed first, so nothing written before the block
    is lost, and C stdio's buffers before fd 1 is restored, so nothing
    written inside it leaks out later (a pipe is block-buffered).
    """
    sys.stdout.flush()
    fflush = ctypes.CDLL(None).fflush
    fflush.argtypes = [ctypes.c_void_p]
    fflush.restype = ctypes.c_int
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        yield
    finally:
        fflush(None)
        os.dup2(saved, 1)
        os.close(devnull)
        os.close(saved)


class FileExchangeBackend:
    """LP text out, solution text in.

    ``command`` is a list whose ``{lp}``/``{sol}`` placeholders are
    substituted with the exchange paths; when it is None the solution
    file must already exist (a manual or out-of-band solver run).
    """

    def __init__(self, lp_path, sol_path, command=None):
        self.lp_path = str(lp_path)
        self.sol_path = str(sol_path)
        self.command = command

    def solve_raw(self, model: LinearModel, settings: SolveSettings):
        with open(self.lp_path, "w", encoding="utf-8") as fh:
            fh.write(model.lp_text())
        if self.command is not None:
            argv = [arg.format(lp=self.lp_path, sol=self.sol_path) for arg in self.command]
            proc = subprocess.run(argv, capture_output=True, text=True)
            if proc.returncode != 0:
                return "error", None, None, f"backend command failed: {proc.stderr[:500]}"
        try:
            status, values, bound = read_solution_text(self.sol_path)
        except FileNotFoundError:
            return "error", None, None, f"no solution file at {self.sol_path}"
        if values is None:
            return status, None, bound, ""
        x = np.zeros(model.n_vars)
        by_name = {name: i for i, name in enumerate(model.lp_var_names())}
        for name, value in values.items():
            if name in by_name:
                x[by_name[name]] = value
        return status, x, bound, ""


def write_solution_text(path, result: SolveResult) -> None:
    """A solution file in the terms of the model's LP text: variables under
    their LP names, objective and bound without the objective constant,
    which LP format cannot carry (``solve`` adds it back on reading)."""
    model = result.model
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#status: {result.status}\n")
        fh.write(f"#objective: {result.objective - model.objective_constant!r}\n")
        fh.write(f"#bound: {result.bound - model.objective_constant!r}\n")
        if result.assignment is not None:
            for name, value in zip(model.lp_var_names(), result.assignment):
                fh.write(f"{name} {float(value)!r}\n")


def read_solution_text(path):
    status = "error"
    bound = None
    values: dict = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#status:"):
                status = line.split(":", 1)[1].strip()
            elif line.startswith("#bound:"):
                raw = line.split(":", 1)[1].strip()
                bound = float(raw) if raw not in ("None", "") else None
            elif line.startswith("#"):
                continue
            else:
                name, value = line.rsplit(None, 1)
                values[name] = float(value)
    if status in ("infeasible", "error"):
        return status, None, bound
    return status, values, bound


_DEFAULT_BACKEND = InProcessBackend()


def solve(
    target,
    settings: SolveSettings,
    initial: np.ndarray | None = None,
    backend=None,
) -> SolveResult:
    """Solve a model (or instance) under the given settings.

    ``initial`` is a known-feasible assignment (a warm start); scipy's
    binding cannot inject it into HiGHS, so it serves as the fallback
    incumbent: the result never comes back worse than it.  It also
    cross-checks the backend's bound: a bound above the objective of a
    checker-clean ``initial`` by more than ``CHECK_TOL`` (relative) is
    false, and the status is ``error`` with both values in the message.
    The returned assignment always passes the independent row checker;
    otherwise the status is ``error`` with the worst row in the message.
    """
    model = target.model if isinstance(target, ModelInstance) else target
    backend = backend or _DEFAULT_BACKEND
    started = time.perf_counter()
    status, x, bound, message = backend.solve_raw(model, settings)
    wall = time.perf_counter() - started

    if x is not None:
        x = _snap_integers(model, x)
        objective = model.objective_value(x)
    else:
        objective = np.inf
    bound_value = float(bound) + model.objective_constant if bound is not None else objective
    init_value = model.objective_value(initial) if initial is not None else np.inf

    if initial is not None and status in ("timeLimit", "infeasible", "error"):
        if (x is None or init_value < objective) and not check_assignment(model, initial):
            status = "feasible"
            x, objective = np.asarray(initial, dtype=float), init_value
            if bound is None:
                bound_value = -np.inf

    # an "optimal" without a bound claims its objective as the bound
    claims_bound = bound is not None or status == "optimal"
    if (
        claims_bound
        and bound_value - init_value > CHECK_TOL * max(1.0, abs(init_value))
        and not check_assignment(model, initial)
    ):
        return SolveResult(
            "error", np.inf, bound_value, None, wall,
            f"backend bound {bound_value!r} lies above the objective {init_value!r} "
            "of the checker-clean initial assignment", model,
        )

    if x is not None and status in ("optimal", "feasible", "timeLimit"):
        violations = check_assignment(model, x)
        if violations:
            worst = max(violations, key=lambda v: v.amount)
            return SolveResult(
                "error", np.inf, bound_value, None, wall,
                f"solution failed the row checker, worst: {worst}", model,
            )
    return SolveResult(status, objective, bound_value, x, wall, message, model)


def _snap_integers(model: LinearModel, x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float)
    for idx, is_int in enumerate(model.integer):
        if is_int:
            out[idx] = round(out[idx])
    return out
