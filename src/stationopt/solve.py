"""Uniform contract to a mixed-integer linear solver.

The backend is HiGHS, handed the model's solver view through scipy's
``_highs_wrapper``.  Any object with a
``solve_raw(model, settings)`` method returning ``(status, x, bound,
message)`` can stand in for it: ``x`` is the assignment in SI (or None)
and ``bound`` the dual bound without the model's objective constant.

:class:`SolveSettings` carries the published optimality conditions of a
model variant; HiGHS receives each one that differs from its default.
A solve from a known assignment also carries its objective as a cutoff:
HiGHS cannot take the assignment as a MIP start, but it prunes every node
whose bound lies above the cutoff.

Every returned assignment is replayed through an independent row checker
before the result is handed back; a checker violation downgrades the
result to an error naming the worst row.  A non-finite entry is a
violation, so an "optimal" NaN assignment is an error too.
"""

from __future__ import annotations

import ctypes
import inspect
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np
import scipy
from scipy.optimize import _milp
from scipy.optimize._highspy._core import HighsOptions
from scipy.optimize._highspy._highs_options import HighsOptionsManager
from scipy.optimize._linprog_highs import _highs_to_scipy_status_message

from .linmodel import SENSES, LinearModel, SolverView
from .model import ModelInstance

# scipy's private HiGHS entry point, as scipy 1.17 declares it; it is looked
# up on scipy.optimize._milp at each call, so a patch there sees every call
_WRAPPER_PARAMETERS = ("c", "indptr", "indices", "data", "lhs", "rhs", "lb", "ub", "integrality", "options")
if tuple(inspect.signature(_milp._highs_wrapper).parameters) != _WRAPPER_PARAMETERS:
    raise ImportError(
        f"stationopt needs scipy's private _highs_wrapper{_WRAPPER_PARAMETERS}, "
        f"which scipy {scipy.__version__} declares otherwise; scipy 1.17 is the verified version"
    )
# the wrapper drops an option name HiGHS does not know with only a warning
_OPTIONS = ("log_to_console", "time_limit", "mip_rel_gap", "mip_abs_gap", "objective_bound",
            "mip_heuristic_run_feasibility_jump", "mip_heuristic_run_root_reduced_cost")
_option_type = HighsOptionsManager().get_option_type
if _unknown := [k for k in _OPTIONS if _option_type(k) == -1]:
    raise ImportError(f"stationopt sets HiGHS options {_unknown}, which scipy {scipy.__version__} does not know")
_HIGHS_DEFAULTS = HighsOptions()

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
    # HiGHS' objective_bound, on the solver view's c·x (no objective constant);
    # solve() overwrites it from its initial assignment, infinite without one
    cutoff: float = math.inf
    root_reduced_cost_heuristic: bool = True  # HiGHS' mip_heuristic_run_root_reduced_cost

    def __post_init__(self) -> None:
        if not (self.relative_gap >= 0.0 and self.absolute_gap >= 0.0):
            raise ValueError("optimality gaps must be nonnegative")
        if not self.time_limit > 0.0:
            raise ValueError("time limit must be positive")
        if math.isnan(self.cutoff):
            raise ValueError("cutoff must not be NaN")


TEN_HOURS = 36000.0


def default_settings_for(variant: str, time_limit: float | None = None) -> SolveSettings:
    """The published optimality conditions per model variant.

    The stationary variants run with (1e-4, 1e-2) gaps and a 10 h limit
    standing in for "unlimited"; the fixed transient windows run with
    (5e-3, 1e-2) and 60 s.  The full model reuses the stationary gaps with
    a caller-chosen time limit; only it takes ``time_limit``, and only it
    turns HiGHS' root reduced-cost heuristic off (:class:`InProcessBackend`).
    """
    if time_limit is not None and variant in ("Ps", "Psf", "Pf"):
        raise ValueError(f"model variant {variant!r} has a fixed time limit and takes no time_limit")
    if variant in ("Ps", "Psf"):
        return SolveSettings(1e-4, 1e-2, TEN_HOURS)
    if variant == "Pf":
        return SolveSettings(5e-3, 1e-2, 60.0)
    if variant == "P":
        return SolveSettings(1e-4, 1e-2, TEN_HOURS if time_limit is None else time_limit, root_reduced_cost_heuristic=False)
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
    """HiGHS, handed the solver view's arrays by :func:`milp`.

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

    The settings reach HiGHS as ``time_limit``, ``mip_rel_gap``,
    ``mip_abs_gap`` and ``objective_bound``, the cutoff.  The re-solve at
    rounded integers runs without the cutoff, because HiGHS ends an LP
    whose objective passes it without a point.  Every call also turns off
    HiGHS' console log and its feasibility-jump heuristic: on these small
    models the heuristic takes about half of HiGHS' time and never changes
    the branch-and-bound node count.  ``P``'s settings also turn off the
    root reduced-cost heuristic: on ``medium_station`` at 24 steps its root
    sub-MIP took about 1 s, and without it HiGHS ran the same 5 nodes in
    12.5% fewer simplex iterations and about 17% less time.  Only options
    that differ from HiGHS' defaults are passed, because scipy's wrapper
    spends about 0.06 ms on each, and the small variants keep that
    heuristic, which changes nothing measurable on them; HiGHS' default
    ``presolve="choose"`` runs presolve.  The calls go through :func:`milp`
    as a module global, not through HiGHS' object API, because
    ``perfbench`` times the layers by patching ``solve.milp`` and scipy's
    ``_highs_wrapper``.

    Both HiGHS calls run with file descriptor 1 pointed at ``/dev/null``:
    some HiGHS MIP messages are printed from C++ whatever the output
    options say, and would otherwise interleave with the caller's stdout.
    """

    def solve_raw(self, model: LinearModel, settings: SolveSettings):
        view = model.solver_view()
        wanted = {
            "time_limit": settings.time_limit,
            "mip_rel_gap": settings.relative_gap,
            "mip_abs_gap": settings.absolute_gap,
            "mip_heuristic_run_feasibility_jump": False,
            "mip_heuristic_run_root_reduced_cost": settings.root_reduced_cost_heuristic,
            "objective_bound": settings.cutoff,
        }
        options = {"log_to_console": False}
        options.update((k, v) for k, v in wanted.items() if v != getattr(_HIGHS_DEFAULTS, k))
        lp_options = {k: v for k, v in options.items() if k != "objective_bound"}
        is_int = view.integer.astype(bool)
        with _stdout_to_devnull():
            status, message, res = milp(view, view.lb, view.ub, view.integer, options)
            x = res.get("x")
            if x is not None and np.any(x[is_int] != np.round(x[is_int])):
                # HiGHS accepts integers within 1e-6 of integral, and a big-M
                # row turns that into a residual the checker sees once they are
                # rounded; re-solve the continuous part at the rounded integers
                fixed_lb, fixed_ub = view.lb.copy(), view.ub.copy()
                fixed_lb[is_int] = fixed_ub[is_int] = np.round(x[is_int])
                lp_status, _, lp = milp(view, fixed_lb, fixed_ub, np.zeros_like(view.integer), lp_options)
                if lp_status == 0:
                    x = lp["x"]
        x = view.to_si(x) if x is not None else None
        status = {0: "optimal", 1: "timeLimit", 2: "infeasible", 3: "error", 4: "error"}.get(status, "error")
        return status, x, res.get("mip_dual_bound"), message


def milp(view: SolverView, lb: np.ndarray, ub: np.ndarray, integrality: np.ndarray, options: dict):
    """One HiGHS call on ``view``'s objective and rows, with column bounds
    ``lb``/``ub`` and ``integrality`` (``uint8``, 1 for an integer column).

    The view's own CSC arrays go to scipy's ``_highs_wrapper`` as they
    are, without ``scipy.optimize.milp``'s copies and checks.  Returns
    scipy's status code and message, as ``scipy.optimize.milp`` reports
    them, and the wrapper's result dict.
    """
    A = view.A
    res = _milp._highs_wrapper(
        view.c, A.indptr, A.indices, A.data, view.row_lo, view.row_hi, lb, ub, integrality, options
    )
    status, message = _highs_to_scipy_status_message(res.get("status"), res.get("message"))
    return status, message, res


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

    ``initial`` is a known-feasible assignment, not a MIP start: the
    hand-off cannot inject it into HiGHS.  Its objective, plus
    ``CHECK_TOL`` relative, replaces the settings' cutoff (which is
    infinite without ``initial``), so the search prunes every node that
    cannot beat it.  A cut-off solve that answers ``infeasible``, or a
    bound above the cutoff, only says that nothing lies at or below the
    cutoff; it is solved once more without the cutoff, in the time left
    of the settings' limit, and the message says so.

    ``initial`` is also the fallback incumbent, so the result never comes
    back worse than it: a checker-clean ``initial`` replaces a worse
    point, and a missing one unless the backend claims an optimum.  A
    proven optimum keeps its status, since the proof covers the better
    ``initial``; otherwise the status is ``feasible``.  A cut-off solve
    stopped by its time limit before it has a point of its own falls back
    to ``initial`` without a dual bound (scipy's wrapper drops the bound
    with the point), where an uncut one may report one.  On
    ``medium_station`` regridded to 24 steps (2-core VM, one run per
    limit) that happened at limits of 0.1 and 0.2 s, and from 0.3 to 3 s
    the cut-off bound lay below the uncut one at 7 of 9 limits; the
    cut-off solve proves the optimum in about 4 s.

    ``initial`` cross-checks the backend's bound: a bound above the
    objective of a checker-clean ``initial`` by more than ``CHECK_TOL``
    (relative) is false, and the status is ``error`` with both values in
    the message.  A bound above the returned objective by less is
    roundoff, and is reported as that objective.
    The returned assignment always passes the independent row checker;
    otherwise the status is ``error`` with the worst row in the message.
    An ``infeasible`` or ``error`` status returns no assignment.
    """
    model = target.model if isinstance(target, ModelInstance) else target
    backend = backend or _DEFAULT_BACKEND
    init_value = model.objective_value(initial) if initial is not None else np.inf
    cutoff = math.inf
    if math.isfinite(init_value):
        cutoff = init_value - model.objective_constant + CHECK_TOL * max(1.0, abs(init_value))
    settings = replace(settings, cutoff=cutoff)
    started = time.perf_counter()
    status, x, bound, message = backend.solve_raw(model, settings)
    # both say only that nothing lies at or below the cutoff: on
    # seeded_instance(287)'s P, HiGHS proved a point 1% above the cutoff
    # "optimal" where the uncut optimum lies below it
    nothing_below = status == "infeasible" or (bound is not None and bound > cutoff)
    if math.isfinite(cutoff) and nothing_below:
        left = max(settings.time_limit - (time.perf_counter() - started), 1e-3)
        status, x, bound, message = backend.solve_raw(model, replace(settings, cutoff=math.inf, time_limit=left))
        message = f"nothing at or below the cutoff {cutoff!r}, solved again without it: {message}"
    wall = time.perf_counter() - started
    if status not in ("optimal", "feasible", "timeLimit"):
        x = None

    if x is not None:
        x = _snap_integers(model, x)
        objective = model.objective_value(x)
    else:
        objective = np.inf
    bound_value = float(bound) + model.objective_constant if bound is not None else objective

    # initial stands in for a worse point, and for a missing one where no
    # optimum was claimed
    worse = init_value < objective if x is not None else status != "optimal"
    took_initial = initial is not None and worse and not check_assignment(model, initial)
    if took_initial:
        x, objective = np.asarray(initial, dtype=float), init_value
        # a proof of optimality covers initial, which is better than the
        # proven point; without one, initial is feasible and no more
        if status != "optimal":
            status = "feasible"
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
        # initial, if it took the point's place, has passed the checker
        violations = [] if took_initial else check_assignment(model, x)
        if violations:
            worst = max(violations, key=lambda v: v.amount)
            return SolveResult(
                "error", np.inf, bound_value, None, wall,
                f"solution failed the row checker, worst: {worst}",
            )
        # the assignment is feasible, so a bound above its objective is
        # roundoff (one above a checker-clean initial by more is refused above)
        bound_value = min(bound_value, objective)
    return SolveResult(status, objective, bound_value, x, wall, message)


def _snap_integers(model: LinearModel, x: np.ndarray) -> np.ndarray:
    out = np.array(x, dtype=float)
    is_int = model.arrays().integer
    # adding 0.0 turns a rounded -0.0 into 0.0, as Python's round() gives
    out[is_int] = np.round(out[is_int]) + 0.0
    return out
