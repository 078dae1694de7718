"""Uniform contract to a mixed-integer linear solver.

The backend is HiGHS through ``scipy.optimize.milp``.  Any object with a
``solve_raw(model, settings)`` method returning ``(status, x, bound,
message)`` can stand in for it: ``x`` is the assignment in SI (or None)
and ``bound`` the dual bound without the model's objective constant.

:class:`SolveSettings` carries the published optimality conditions of a
model variant; HiGHS receives all three.

Every returned assignment is replayed through an independent row checker
before the result is handed back; a checker violation downgrades the
result to an error naming the worst row.  A non-finite entry is a
violation, so an "optimal" NaN assignment is an error too.
"""

from __future__ import annotations

import ctypes
import math
import os
import sys
import time
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

from .linmodel import SENSES, LinearModel
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
        if not (self.relative_gap >= 0.0 and self.absolute_gap >= 0.0):
            raise ValueError("optimality gaps must be nonnegative")
        if not self.time_limit > 0.0:
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

    @property
    def ok(self) -> bool:
        """Whether the result carries an assignment, which :func:`solve`
        hands back only once it has passed the row checker.  The status
        says what else is known of it: proven ``optimal``, the best found
        by a ``timeLimit``, or ``feasible`` without a proof (the caller's
        ``initial``, for one)."""
        return self.assignment is not None


@dataclass(frozen=True)
class RowViolation:
    name: str
    amount: float

    def __str__(self) -> str:
        return f"{self.name}: violated by {self.amount:.3e}"


@np.errstate(invalid="ignore")  # an infinite entry gives NaN terms, which fail their tests
def check_assignment(model: LinearModel, x: np.ndarray) -> list[RowViolation]:
    """Replay bounds, integrality and every row against an assignment.

    Violations are measured relative to the row's own magnitude (big-M
    rows in Pa live around 1e6), so ``CHECK_TOL`` is a relative
    feasibility tolerance with an absolute floor of ``CHECK_TOL`` solver
    units, the units the backend holds the model in
    (:meth:`~stationopt.linmodel.LinearModel.solver_view`): a row's scale
    is ``max(u_r, |rhs|, max_j |a_ij x_j|)`` with ``u_r`` its solver unit,
    and a column's ``max(col_unit, |lb|, |ub|)``.  A pressure row's floor
    is thus ``CHECK_TOL`` bar, where HiGHS holds it to about 1e-7 bar, not
    ``CHECK_TOL`` Pa.  Columns come first, each with its bounds
    before its integrality, then the rows, in model order.  Each test asks
    whether a value lies within its tolerance, which NaN never does, and
    bounds are finite, so a non-finite entry fails its bounds; a NaN
    amount is reported as infinite.
    """
    a = model.arrays()
    x = np.asarray(x, dtype=float)
    out: list[RowViolation] = []
    scale = np.maximum(a.col_unit, np.maximum(np.abs(a.lb), np.abs(a.ub)))
    off_bounds = ~((x >= a.lb - CHECK_TOL * scale) & (x <= a.ub + CHECK_TOL * scale))
    fraction = np.abs(x - np.round(x))
    off_integer = a.integer & ~(fraction <= 1e-5)
    for idx in np.flatnonzero(off_bounds | off_integer):
        name = model.var_names[idx]
        if off_bounds[idx]:
            gap = max(a.lb[idx] - x[idx], x[idx] - a.ub[idx], 0.0)
            out.append(RowViolation(f"bounds({name})", _amount(gap)))
        if off_integer[idx]:
            out.append(RowViolation(f"integrality({name})", _amount(fraction[idx])))
    if model.n_rows:
        terms = a.vals * x[a.cols]
        # bincount adds each row's terms in order, as a Python sum would
        act = np.bincount(a.row_of, weights=terms, minlength=model.n_rows)
        scale = np.maximum(
            model.row_units(), np.maximum(np.abs(a.rhs), np.maximum.reduceat(np.abs(terms), a.ptr[:-1]))
        )
        gap = np.select(
            [a.sense == SENSES.index("<="), a.sense == SENSES.index(">=")],
            [act - a.rhs, a.rhs - act],
            np.abs(act - a.rhs),
        )
        for r in np.flatnonzero(~(gap <= CHECK_TOL * scale)):
            out.append(RowViolation(model.row_names[r], _amount(gap[r])))
    return out


def _amount(gap) -> float:
    """A violation's size; NaN, which fails every test, counts as infinite."""
    return math.inf if math.isnan(gap) else float(gap)


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

    The settings reach HiGHS as ``mip_rel_gap``, ``mip_abs_gap`` and
    ``time_limit``.  Every call also turns off HiGHS' feasibility-jump
    heuristic: on these small models it takes about half of HiGHS' time
    and never changes the branch-and-bound node count.  ``milp`` passes
    options outside its own list to HiGHS verbatim with a
    ``RuntimeWarning``, which is silenced here; an option the installed
    HiGHS rejects still raises scipy's ``OptimizeWarning``.  The calls go
    through ``milp`` as a module global, not through HiGHS' object API,
    because ``perfbench`` times the layers by patching ``solve.milp`` and
    scipy's ``_highs_wrapper``.

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
            "mip_abs_gap": settings.absolute_gap,
            "mip_heuristic_run_feasibility_jump": False,
            "presolve": True,
        }
        is_int = view.integer.astype(bool)
        with _stdout_to_devnull(), warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options detected", RuntimeWarning)
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


# C stdio's fflush, resolved once: a CDLL and its function pointer cost
# more than the rest of the redirect
_fflush = ctypes.CDLL(None).fflush
_fflush.argtypes = [ctypes.c_void_p]
_fflush.restype = ctypes.c_int


@contextmanager
def _stdout_to_devnull():
    """Point file descriptor 1 at ``/dev/null`` for the block.

    Python's buffer is flushed first, so nothing written before the block
    is lost, and C stdio's buffers before fd 1 is restored, so nothing
    written inside it leaks out later (a pipe is block-buffered).
    """
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        yield
    finally:
        _fflush(None)
        os.dup2(saved, 1)
        os.close(devnull)
        os.close(saved)


_DEFAULT_BACKEND = InProcessBackend()


def solve(
    target,
    settings: SolveSettings,
    initial: np.ndarray | None = None,
    backend=None,
) -> SolveResult:
    """Solve a model (or instance) under the given settings.

    ``initial`` is a known-feasible assignment, not a warm start: scipy's
    binding cannot inject it into HiGHS, so it serves as the fallback
    incumbent, and the result never comes back worse than it.  It also
    cross-checks the backend's bound: a bound above the objective of a
    checker-clean ``initial`` by more than ``CHECK_TOL`` (relative) is
    false, and the status is ``error`` with both values in the message.
    The returned assignment always passes the independent row checker;
    otherwise the status is ``error`` with the worst row in the message.
    An ``infeasible`` or ``error`` status returns no assignment.
    """
    model = target.model if isinstance(target, ModelInstance) else target
    backend = backend or _DEFAULT_BACKEND
    started = time.perf_counter()
    status, x, bound, message = backend.solve_raw(model, settings)
    wall = time.perf_counter() - started
    if status not in ("optimal", "feasible", "timeLimit"):
        x = None

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
            "of the checker-clean initial assignment",
        )

    if x is not None:
        violations = check_assignment(model, x)
        if violations:
            worst = max(violations, key=lambda v: v.amount)
            return SolveResult(
                "error", np.inf, bound_value, None, wall,
                f"solution failed the row checker, worst: {worst}",
            )
    return SolveResult(status, objective, bound_value, x, wall, message)


def _snap_integers(model: LinearModel, x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float)
    is_int = model.arrays().integer
    # adding 0.0 turns a rounded -0.0 into 0.0, as Python's round() gives
    out[is_int] = np.round(out[is_int]) + 0.0
    return out
