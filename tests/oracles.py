"""Independent oracles used by the unit and acceptance tests.

Everything here deliberately avoids the code paths it checks: vertex
enumeration is brute force over plane subsets, volume comes from the
divergence theorem on the H-representation, sampling is plain rejection
(and, to pin the seeded sampler bit for bit, its earlier scatter kernel),
the hyperplane fit solves the normal equations directly (and, to pin the
power fit bit for bit, its earlier sample-then-stack path), the row
checker walks the model's ``Row`` records one by one, the fingerprint
hashes a built model's numbers instead of the inputs the solver's
stationary memo keys on, the bounds of a step are gathered one element
at a time rather than sliced from the per-run table, the exact
stationary sequence is a dynamic programme over every mode at every step
rather than the greedy start and phase replacements it checks, and the
solver hand-off is what ``scipy.optimize.milp``'s input checks derive
from the call the backend once made, not the solver view's own arrays.
"""

from __future__ import annotations

import hashlib
import itertools
import math

import numpy as np
from scipy.spatial import ConvexHull


def brute_force_vertices(A: np.ndarray, b: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """All feasible intersections of dim-subsets of the planes A x + b = 0."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    d = A.shape[1]
    scale = max(1.0, np.abs(b).max())
    found: list[np.ndarray] = []
    for idx in itertools.combinations(range(len(b)), d):
        sub = A[list(idx)]
        if abs(np.linalg.det(sub)) < 1e-12:
            continue
        x = np.linalg.solve(sub, -b[list(idx)])
        if np.all(A @ x + b <= tol * scale):
            if not any(np.linalg.norm(x - y) <= tol * scale for y in found):
                found.append(x)
    return np.array(found)


def divergence_volume(A: np.ndarray, b: np.ndarray, vertices: np.ndarray, tol: float = 1e-7) -> float:
    """Volume of a 3-D polytope via (1/3) sum of facet offset times area.

    For the facet plane n.x = c (unit outward n), x.n is constant, so the
    divergence theorem gives V = (1/3) sum_f c_f area_f.  Facet polygons
    are recovered by grouping tight vertices and ordering them by angle.
    """
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    norms = np.linalg.norm(A, axis=1)
    A = A / norms[:, None]
    b = b / norms
    scale = max(1.0, np.abs(vertices).max())
    total = 0.0
    seen_planes: list[tuple[np.ndarray, float]] = []
    for n, off in zip(A, b):
        if any(np.linalg.norm(n - n2) < 1e-9 and abs(off - o2) < 1e-9 * scale for n2, o2 in seen_planes):
            continue
        seen_planes.append((n, off))
        tight = vertices[np.abs(vertices @ n + off) <= tol * scale]
        if len(tight) < 3:
            continue
        centroid = tight.mean(axis=0)
        # 2-D frame in the facet plane
        u = tight[np.argmax(np.linalg.norm(tight - centroid, axis=1))] - centroid
        u = u / np.linalg.norm(u)
        w = np.cross(n, u)
        rel = tight - centroid
        ang = np.arctan2(rel @ w, rel @ u)
        ordered = tight[np.argsort(ang)]
        area = 0.0
        for i in range(len(ordered)):
            p1 = ordered[i] - centroid
            p2 = ordered[(i + 1) % len(ordered)] - centroid
            area += 0.5 * float(np.dot(np.cross(p1, p2), n))
        # outward plane constant is -off for n.x + off <= 0
        total += (-off) * abs(area)
    return total / 3.0


def _point_to_polygon(x: np.ndarray, verts: np.ndarray) -> float:
    """Exact distance from a point to a convex 2-D polygon (0 if inside)."""
    if len(verts) == 1:
        return float(np.linalg.norm(x - verts[0]))
    if len(verts) == 2:
        ordered = verts
    else:
        ordered = verts[ConvexHull(verts).vertices]
    inside = True
    best = math.inf
    n = len(ordered)
    for i in range(n):
        a = ordered[i]
        b2 = ordered[(i + 1) % n]
        edge = b2 - a
        if edge[0] * (x - a)[1] - edge[1] * (x - a)[0] < 0:
            inside = False
        t = np.clip(np.dot(x - a, edge) / max(np.dot(edge, edge), 1e-300), 0.0, 1.0)
        best = min(best, float(np.linalg.norm(a + t * edge - x)))
    return 0.0 if (inside and n >= 3) else best


def hausdorff_convex_2d(P: np.ndarray, Q: np.ndarray) -> float:
    """Hausdorff distance between two convex polygons given by vertices.

    For convex sets the maximum of d(x, Q) over x in P is attained at a
    vertex of P, so checking vertices against the other polygon suffices.
    """
    d1 = max(_point_to_polygon(p, Q) for p in P)
    d2 = max(_point_to_polygon(q, P) for q in Q)
    return max(d1, d2)


def match_vertex_sets(P: np.ndarray, Q: np.ndarray, tol: float) -> bool:
    """Every vertex of one set has a partner in the other within tol."""
    if len(P) != len(Q):
        return False
    scale = max(1.0, np.abs(P).max(), np.abs(Q).max())
    for p in P:
        if not any(np.linalg.norm(p - q) <= tol * scale for q in Q):
            return False
    for q in Q:
        if not any(np.linalg.norm(q - p) <= tol * scale for p in P):
            return False
    return True


def rejection_sample(A: np.ndarray, b: np.ndarray, count: int, seed: int) -> np.ndarray:
    """Uniform samples by rejection from the bounding box of the vertices."""
    verts = brute_force_vertices(A, b)
    lo = verts.min(axis=0)
    hi = verts.max(axis=0)
    rng = np.random.default_rng(seed)
    out = np.empty((count, A.shape[1]))
    have = 0
    while have < count:
        cand = rng.uniform(lo, hi, size=(4 * (count - have), A.shape[1]))
        ok = cand[np.all(cand @ A.T + b <= 0.0, axis=1)]
        take = min(len(ok), count - have)
        out[have : have + take] = ok[:take]
        have += take
    return out


def reference_fold_to_barycentric(stu: np.ndarray) -> np.ndarray:
    """The simplex fold by boolean-index scatters, one case at a time."""
    s, t, u = stu[:, 0].copy(), stu[:, 1].copy(), stu[:, 2].copy()
    flip = s + t > 1.0
    s[flip], t[flip] = 1.0 - s[flip], 1.0 - t[flip]
    case1 = t + u > 1.0
    case2 = ~case1 & (s + t + u > 1.0)
    t_new = 1.0 - u[case1]
    u_new = 1.0 - s[case1] - t[case1]
    t[case1], u[case1] = t_new, u_new
    s_new = 1.0 - t[case2] - u[case2]
    u_new2 = s[case2] + t[case2] + u[case2] - 1.0
    s[case2], u[case2] = s_new, u_new2
    return np.column_stack([s, t, u])


def reference_project_out(h, index: int):
    """Fourier-Motzkin elimination one row pair at a time, in the row order
    ``polytope.project_out`` promises (rows free of the coordinate, then the
    (upper, lower) pairs upper-major), reduced by ``remove_redundant``."""
    from stationopt.polytope import FACET_TOL, HPolytope, remove_redundant

    col = h.A[:, index]
    rest = np.delete(h.A, index, axis=1)
    zero = np.abs(col) <= FACET_TOL * np.linalg.norm(h.A, axis=1)
    rows = [np.append(rest[i], h.b[i]) for i in np.where(zero)[0]]
    for i in np.where(~zero & (col > 0))[0]:
        for j in np.where(~zero & (col < 0))[0]:
            combined = np.append(rest[i], h.b[i]) / col[i] + np.append(rest[j], h.b[j]) / -col[j]
            if np.linalg.norm(combined[:-1]) > FACET_TOL:
                rows.append(combined)
    stacked = np.array(rows)
    return remove_redundant(HPolytope(stacked[:, :-1], stacked[:, -1]))


def reference_sample_uniform(v, count: int, seed: int) -> np.ndarray:
    """Seeded uniform samples with every sample's four corners gathered (n x 4 x 3).

    Draws the same random numbers in the same order as
    ``polytope.sample_uniform``, so equal output means an equal kernel.
    """
    from stationopt.polytope import triangulate

    corners, _ = triangulate(v)
    volumes = np.array([abs(float(np.linalg.det(c[1:] - c[0]))) / 6.0 for c in corners])
    rng = np.random.default_rng(seed)
    choice = rng.choice(len(corners), size=count, p=volumes / volumes.sum())
    stu = reference_fold_to_barycentric(rng.random((count, 3)))
    corners = corners[choice]
    base = corners[:, 0, :]
    edges = corners[:, 1:, :] - base[:, None, :]
    return base + np.einsum("nk,nkd->nd", stu, edges)


def reference_power_fit(lifted, unit, constants, count: int, seed: int) -> tuple[np.ndarray, float]:
    """``linearize_power_bound``'s coefficients and offset by the earlier path.

    The samples go into a new (count, 3) array, the powers are evaluated
    over all of them at once, and ``np.linalg.lstsq`` solves the
    ``column_stack`` of ones and the samples.
    """
    from stationopt.gas import compression_power
    from stationopt.polytope import enumerate_vertices, sample_uniform

    points = sample_uniform(enumerate_vertices(lifted), count, seed)
    pl, pr, q = points.T
    powers = compression_power(
        q, pl, np.maximum(pr, pl), unit.inlet_z_factor, unit.adiabatic_efficiency, constants
    )
    fit, _, _, _ = np.linalg.lstsq(np.column_stack([np.ones(count), points]), powers, rcond=None)
    return fit[1:], fit[0] - unit.max_power


def head_terms(ratio: float, z_inlet: float, constants) -> tuple[float, float]:
    """``(scale, ratio ** ((kappa - 1) / kappa))`` by ``math.pow``, one ratio at a time.

    The adiabatic head is ``scale * (term - 1)``.
    """
    kappa = constants.isentropic_exponent
    scale = constants.specific_gas_constant * constants.temperature * z_inlet * kappa / (kappa - 1.0)
    return scale, math.pow(ratio, (kappa - 1.0) / kappa)


def scalar_compression_power(
    q: float, pl: float, pr: float, z_inlet: float, efficiency: float, constants
) -> float:
    """Drive power ``q H_ad / eta`` of one operating point, closed form with ``math.pow``."""
    if q == 0.0 or pr == pl:
        return 0.0
    scale, term = head_terms(pr / pl, z_inlet, constants)
    return q * (scale * (term - 1.0)) / efficiency


def normal_equations_fit(points: np.ndarray, values: np.ndarray) -> np.ndarray:
    """OLS coefficients via an explicit normal-equations solve."""
    X = np.column_stack([np.ones(len(points)), points])
    return np.linalg.solve(X.T @ X, X.T @ values)


def project_vertices_hull(vertices: np.ndarray, drop: int) -> np.ndarray:
    """Vertices of the orthogonal projection: project, then hull."""
    pts = np.delete(vertices, drop, axis=1)
    hull = ConvexHull(pts)
    return pts[hull.vertices]


def octant_cells(lo: np.ndarray, hi: np.ndarray, split: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """The 8 axis-aligned cells of [lo, hi] split at an interior point."""
    cells = []
    for sx in range(2):
        for sy in range(2):
            for sz in range(2):
                signs = (sx, sy, sz)
                cl = np.array([lo[i] if signs[i] == 0 else split[i] for i in range(3)])
                ch = np.array([split[i] if signs[i] == 0 else hi[i] for i in range(3)])
                cells.append((cl, ch))
    return cells


def cell_counts(points: np.ndarray, cells) -> np.ndarray:
    counts = np.zeros(len(cells), dtype=int)
    for i, (cl, ch) in enumerate(cells):
        inside = np.all((points >= cl) & (points <= ch), axis=1)
        counts[i] = int(inside.sum())
    return counts


def chi_square_statistic(counts: np.ndarray, probs: np.ndarray) -> float:
    n = counts.sum()
    expected = probs * n
    mask = expected > 0
    return float(((counts[mask] - expected[mask]) ** 2 / expected[mask]).sum())


# 99% quantile of chi-square with 7 degrees of freedom (8 cells)
CHI2_7_99 = 18.475306906582357


def simplex_cell_probability(cl: np.ndarray, ch: np.ndarray) -> float:
    """Exact P(cell) for the uniform law on the unit simplex x,y,z>=0, sum<=1.

    Uses inclusion-exclusion over F(a,b,c) = vol(simplex cut to x>=a,y>=b,z>=c)
    = max(0, 1-a-b-c)^3 / 6.
    """

    def F(a: float, bb: float, c: float) -> float:
        r = 1.0 - a - bb - c
        return r**3 / 6.0 if r > 0 else 0.0

    a1, b1, c1 = cl
    a2, b2, c2 = ch
    vol = (
        F(a1, b1, c1)
        - F(a2, b1, c1)
        - F(a1, b2, c1)
        - F(a1, b1, c2)
        + F(a2, b2, c1)
        + F(a2, b1, c2)
        + F(a1, b2, c2)
        - F(a2, b2, c2)
    )
    return vol / (1.0 / 6.0)


def random_bounded_hpolytope(seed: int, extra_planes: int = 6, dim: int = 3) -> tuple[np.ndarray, np.ndarray]:
    """A seeded random bounded full-dimensional polytope (A x + b <= 0).

    Box [-1,1]^dim plus random cuts that keep a ball of radius 0.35 around
    the origin, so boundedness and full-dimensionality hold by construction.
    """
    rng = np.random.default_rng(seed)
    A = [np.eye(dim), -np.eye(dim)]
    b = [-np.ones(dim), -np.ones(dim)]
    normals = rng.normal(size=(extra_planes, dim))
    normals /= np.linalg.norm(normals, axis=1)[:, None]
    offsets = rng.uniform(0.4, 1.1, size=extra_planes)
    A.append(normals)
    b.append(-offsets)
    return np.vstack(A), np.concatenate(b)


def brute_transition_check(
    seq: list[str],
    grid: list[float],
    theta: dict[tuple[str, str], float],
) -> bool:
    """Interval-overlap simulator for mode-transition feasibility.

    Builds the half-open occupation interval of every transition (centered
    on the switch instant) and checks that no interval starts before the
    horizon and no two intervals overlap.  The transition into the last
    phase may extend past the horizon end; nothing follows it.
    """
    intervals = []
    for t in range(1, len(seq)):
        if seq[t] != seq[t - 1]:
            width = theta[(seq[t - 1], seq[t])]
            center = grid[t]
            intervals.append((center - width / 2.0, center + width / 2.0))
    for start, _end in intervals:
        if start < -1e-9:
            return False
    for (s1, e1), (s2, e2) in itertools.combinations(intervals, 2):
        if s1 < e2 - 1e-9 and s2 < e1 - 1e-9:
            return False
    return True


def facet_rows(A: np.ndarray, b: np.ndarray, tol: float = 1e-7) -> np.ndarray:
    """Indices of the rows whose tight vertices span a (dim-1)-dimensional face.

    Of rows equal within ``tol``, only the first counts.
    """
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    d = A.shape[1]
    verts = brute_force_vertices(A, b, tol)
    keep = []
    for i in range(len(b)):
        if any(np.abs(A[j] - A[i]).max() <= tol and abs(b[j] - b[i]) <= tol for j in keep):
            continue
        tight = verts[np.abs(verts @ A[i] + b[i]) <= tol]
        if len(tight) >= d and np.linalg.matrix_rank(tight[1:] - tight[0], tol) == d - 1:
            keep.append(i)
    return np.array(keep)


def row_activity(row, x: np.ndarray) -> float:
    """A ``Row`` record's left-hand side at ``x``, one coefficient at a time."""
    return float(sum(coef * x[idx] for idx, coef in row.coeffs.items()))


def reference_check_assignment(model, x: np.ndarray) -> list[tuple[str, float]]:
    """(name, amount) of every violation, one column and one row at a time.

    The same rules as ``solve.check_assignment``: a column's scale is
    ``max(unit, |lb|, |ub|)``, a row's ``max(u, |rhs|, max_j |a_ij x_j|)``,
    both times ``CHECK_TOL``, where a row's solver unit ``u`` is its
    declared unit or else the largest unit among its columns, at least 1;
    an integer column may be 1e-5 off integral.
    """
    from stationopt.solve import CHECK_TOL

    a = model.arrays()
    out: list[tuple[str, float]] = []
    for idx in range(model.n_vars):
        lb, ub, value = a.lb[idx], a.ub[idx], x[idx]
        scale = max(a.col_unit[idx], abs(lb), abs(ub))
        if value < lb - CHECK_TOL * scale or value > ub + CHECK_TOL * scale:
            out.append((f"bounds({model.var_names[idx]})", max(lb - value, value - ub, 0.0)))
        if a.integer[idx] and abs(value - round(value)) > 1e-5:
            out.append((f"integrality({model.var_names[idx]})", abs(value - round(value))))
    for row in model.rows:
        act = row_activity(row, x)
        unit = row.unit if row.unit is not None else max(1.0, *(a.col_unit[i] for i in row.coeffs))
        scale = max(unit, abs(row.rhs), max(abs(c * x[i]) for i, c in row.coeffs.items()))
        if row.sense == "<=":
            gap = act - row.rhs
        elif row.sense == ">=":
            gap = row.rhs - act
        else:
            gap = abs(act - row.rhs)
        if gap > CHECK_TOL * scale:
            out.append((row.name, gap))
    return out


def fingerprint(model) -> str:
    """Hash of every number a solve of ``model`` depends on, names excluded.

    It covers bounds, integrality, solver units, the objective's column
    terms (in build order, which the objective's sum follows) and
    constant, and the row arrays.  Two models with equal fingerprints are
    the same problem to the backend, the checker and the objective, column
    for column; only what their columns mean may differ.
    """
    a = model.arrays()
    terms = [(idx, coef) for _, idx, coef in model.objective_terms if idx is not None]
    digest = hashlib.blake2b(digest_size=20)
    parts = (
        a.lb, a.ub, a.integer, a.col_unit,
        np.array([idx for idx, _ in terms], dtype=np.int64),
        np.array([coef for _, coef in terms], dtype=float),
        np.array([model.objective_constant]),
        a.ptr, a.cols, a.vals, a.sense, a.rhs, a.row_unit,
    )
    for part in parts:
        digest.update(np.int64(part.size).tobytes())
        digest.update(part.tobytes())
    return digest.hexdigest()


def reference_handoff(view, settings, fixed: np.ndarray | None = None) -> tuple:
    """The ten arguments ``scipy.optimize.milp`` hands ``_highs_wrapper``
    for one solve of a solver view, as the backend once called ``milp``.

    That call passed ``c``, one ``LinearConstraint`` over the view's rows
    (none without rows), the integrality (None where no column is
    integer), ``Bounds`` of the view's columns and, as options, the three
    settings, the feasibility-jump heuristic off and presolve on.  The
    settings' cutoff is added as ``objective_bound`` and their root
    reduced-cost heuristic as ``mip_heuristic_run_root_reduced_cost``,
    which milp hands HiGHS verbatim.  With ``fixed``, the integer columns'
    rounded values, it is the re-solve of the continuous part: the integer
    columns fixed, no integrality and no cutoff.
    """
    import warnings

    from scipy.optimize import Bounds, LinearConstraint
    from scipy.optimize._milp import _milp_iv

    integrality, lb, ub = (view.integer if view.integer.any() else None), view.lb, view.ub
    if fixed is not None:
        is_int = view.integer.astype(bool)
        lb, ub = lb.copy(), ub.copy()
        lb[is_int] = ub[is_int] = fixed
        integrality = None
    constraints = LinearConstraint(view.A, view.row_lo, view.row_hi) if len(view.row_lo) else []
    options = {
        "time_limit": settings.time_limit,
        "mip_rel_gap": settings.relative_gap,
        "mip_abs_gap": settings.absolute_gap,
        "mip_heuristic_run_feasibility_jump": False,
        "mip_heuristic_run_root_reduced_cost": settings.root_reduced_cost_heuristic,
        "presolve": True,
        "objective_bound": settings.cutoff if fixed is None else None,
    }
    with warnings.catch_warnings():
        # milp passes the options outside its own list on, with this warning
        warnings.filterwarnings("ignore", "Unrecognized options detected", RuntimeWarning)
        c, integrality, lb, ub, indptr, indices, data, b_l, b_u, options = _milp_iv(
            view.c, integrality, Bounds(lb, ub), constraints, options
        )
    return c, indptr, indices, data, b_l, b_u, lb, ub, integrality, options


def reference_step_bounds(spec, scen, t: int) -> np.ndarray:
    """The bounds a build reads at step ``t``, gathered one element at a
    time in the key layout: per node its pressure bounds, per arc (pipes
    included) its flow bounds, per boundary node its inflow bounds, lower
    before upper."""
    values = []
    for node in spec.nodes.values():
        values += (node.pressure_lb[t], node.pressure_ub[t])
    for arc in spec.arcs().values():
        values += (arc.flow_lb[t], arc.flow_ub[t])
    for v in spec.boundary_nodes():
        values += (scen.inflow_lb[v][t], scen.inflow_ub[v][t])
    return np.array(values, dtype=float)


def exact_stationary_sequence(solver) -> tuple:
    """(objective, modes) of a mode sequence that minimises the objective
    of stages 1-2 exactly: the sum over steps t of S(m_t, t) plus the
    switch cost from m_{t-1}, under ``transitions_work``'s rule and
    ``mode_available``.

    A dynamic programme whose states are (mode, phase start, incoming
    mode): the rule for a switch reads only the current phase's start and
    the transition into it.  The phase holding position 0 starts at 0 and
    has no incoming mode.  S(m, t) is the cost of ``solver.psf_value(m, t,
    m)``.  The costs of a path are summed in the order
    ``sequence_objective`` sums them, so the optimum is never above the
    objective of a sequence the rules admit, bit for bit.  (math.inf, None)
    when no sequence exists.
    """
    from stationopt.model import switch_cost
    from stationopt.network import mode_available

    spec, weights, grid = solver.spec, solver.weights, solver.scen.time_grid
    initial = solver.scen.initial_state.operation_mode
    labels = {(initial, 0, None): (0.0, (initial,))}
    for t in range(1, solver.scen.n_future + 1):
        stationary = {}
        for m in sorted(spec.operation_modes):
            if mode_available(spec, grid, m, t):
                value = solver.psf_value(m, t, m)
                if value is not None:
                    stationary[m] = value[0]
        reached: dict = {}
        for (mode, start, incoming), (cost, modes) in labels.items():
            for m, value in stationary.items():
                if m == mode:
                    state = (mode, start, incoming)
                else:
                    theta_in = 0.0 if start == 0 else spec.transition_time(incoming, mode)
                    if grid[t] - grid[start] < (theta_in + spec.transition_time(mode, m)) / 2.0 - 1e-9:
                        continue
                    state = (m, t, mode)
                total = cost + (value + switch_cost(spec, weights, mode, m))
                if state not in reached or total < reached[state][0]:
                    reached[state] = (total, modes + (m,))
        labels = reached
    return min(labels.values(), default=(math.inf, None))
