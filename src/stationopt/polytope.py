"""Low-dimensional polytope computations.

Everything a compressor operating range needs: H-polytopes and (n, d)
vertex arrays, redundancy removal, Fourier-Motzkin projection,
triangulation, volume and rejection-free uniform sampling.  Dimensions stay <= 6 (3-D operating
ranges plus a few intermediate coordinates during composition), which
keeps the brute-force-friendly algorithms here perfectly adequate.

Vertices, bounding boxes and redundancy removal read one qhull halfspace
intersection (Barber, Dobkin & Huhdanpaa, ACM TOMS 22(4), 1996) around the
Chebyshev centre, so they need a bounded, full-dimensional region, dim >= 2.

Half spaces are stored as ``c . x + offset <= 0``.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import ConvexHull, HalfspaceIntersection

FACET_TOL = 1e-9
# rows of uniform samples drawn, folded and placed at a time
SAMPLE_CHUNK = 8_192


class EmptyRegionError(ValueError):
    """The described region contains no point."""


class UnboundedRegionError(ValueError):
    """A bounded polytope was required but the region is unbounded."""


class DegenerateRegionError(ValueError):
    """The region is not full-dimensional."""


class HPolytope:
    """Intersection of half spaces, ``A x + b <= 0`` row-wise."""

    def __init__(self, A: np.ndarray, b: np.ndarray):
        A = np.atleast_2d(np.asarray(A, dtype=float))
        b = np.asarray(b, dtype=float).ravel()
        if A.shape[0] != b.shape[0]:
            raise ValueError("A and b row counts differ")
        norms = np.linalg.norm(A, axis=1)
        if np.any(norms == 0.0):
            raise ValueError("zero rows are not valid half spaces")
        self.A = A
        self.b = b

    @property
    def dim(self) -> int:
        return self.A.shape[1]

    @property
    def n_rows(self) -> int:
        return self.A.shape[0]

    def normalized(self) -> "HPolytope":
        norms = np.linalg.norm(self.A, axis=1)
        return HPolytope(self.A / norms[:, None], self.b / norms)

    def contains(self, x, tol: float = FACET_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        scale = np.maximum(1.0, np.abs(self.b))
        return bool(np.all(self.A @ x + self.b <= tol * scale))

    def fix_coordinate(self, index: int, value: float) -> "HPolytope":
        """Intersect with the hyperplane ``x[index] = value`` and drop the coordinate."""
        rest = np.delete(self.A, index, axis=1)
        b = self.b + self.A[:, index] * value
        keep = np.linalg.norm(rest, axis=1) > 0.0
        residual = b[~keep]
        if np.any(residual > FACET_TOL * np.maximum(1.0, np.abs(residual))):
            raise EmptyRegionError(f"slice x[{index}]={value} is infeasible")
        return HPolytope(rest[keep], b[keep])

    def chebyshev_center(self) -> tuple[np.ndarray, float]:
        """Center and radius of a largest inscribed ball.

        Raises :class:`EmptyRegionError` if there is no feasible point.
        """
        norms = np.linalg.norm(self.A, axis=1)
        A_lp = np.hstack([self.A, norms[:, None]])
        c = np.zeros(self.dim + 1)
        c[-1] = -1.0
        bounds = [(None, None)] * self.dim + [(0.0, None)]
        res = linprog(c, A_ub=A_lp, b_ub=-self.b, bounds=bounds, method="highs")
        if res.status == 2:
            raise EmptyRegionError("polytope has no feasible point")
        if res.status == 3:
            # Radius can only be unbounded together with the region.
            raise UnboundedRegionError("polytope is unbounded")
        if res.status != 0:
            raise RuntimeError(f"Chebyshev LP failed: {res.message}")
        return res.x[:-1], float(res.x[-1])

    def bounding_box(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-coordinate min/max over the vertices.

        Raises :class:`EmptyRegionError`, :class:`UnboundedRegionError` or
        :class:`DegenerateRegionError` unless the region is bounded and
        full-dimensional.
        """
        vertices = _intersection(self).intersections
        return vertices.min(axis=0), vertices.max(axis=0)


def _intersection(h: HPolytope) -> HalfspaceIntersection:
    """qhull's intersection of the half spaces of ``h`` around its Chebyshev centre.

    The centre is the one LP.  Raises :class:`EmptyRegionError` without a
    feasible point, :class:`UnboundedRegionError` for a line or non-finite
    intersections, and :class:`DegenerateRegionError` when the inscribed
    radius is at most ``FACET_TOL`` times the centre's magnitude.
    """
    center, radius = h.chebyshev_center()
    if np.linalg.matrix_rank(h.A) < h.dim:
        raise UnboundedRegionError("polytope contains a line")
    if radius <= FACET_TOL * max(1.0, float(np.abs(center).max())):
        raise DegenerateRegionError("polytope is not full-dimensional")
    if h.dim < 2:
        raise ValueError("qhull needs dimension >= 2")
    with np.errstate(divide="ignore", invalid="ignore"):
        inter = HalfspaceIntersection(np.hstack([h.A, h.b[:, None]]), center)
    if not np.isfinite(inter.intersections).all():
        raise UnboundedRegionError("polytope is unbounded")
    return inter


def enumerate_vertices(h: HPolytope) -> np.ndarray:
    """Vertex enumeration of a bounded H-polytope (dimension <= 4).

    Returns the (n, d) vertex array in lexicographic order.  The vertices
    are qhull's halfspace intersections; vertices closer than ``FACET_TOL``
    (scaled by the coordinate magnitude) are merged.
    """
    if h.dim > 4:
        raise ValueError("vertex enumeration is limited to dimension <= 4")
    points = _intersection(h).intersections
    scale = max(1.0, float(np.abs(points).max()))
    return _dedupe_points(points, FACET_TOL * scale)


def _dedupe_points(points: np.ndarray, tol: float) -> np.ndarray:
    kept: list[np.ndarray] = []
    for p in points:
        if not any(np.linalg.norm(p - q) <= tol for q in kept):
            kept.append(p)
    order = np.lexsort(np.array(kept).T[::-1])
    return np.array(kept)[order]


def remove_redundant(h: HPolytope) -> HPolytope:
    """Minimal normalized H-description of a bounded, full-dimensional region.

    Each half space is a point of qhull's dual hull, and a facet of the
    region exactly when that point is a hull vertex, so a row is kept
    exactly when it is in some dual facet.  Slack, duplicate and merely
    touching planes go; of rows equal within ``FACET_TOL`` the first stays, and
    rows keep their order.  Raises as :meth:`HPolytope.bounding_box` does.
    """
    hp = h.normalized()
    rows = np.hstack([hp.A, hp.b[:, None]])
    kept = rows[np.unique(np.concatenate(_intersection(hp).dual_facets))]
    # qhull keeps any one of a set of duplicates; take the first instead
    keep = np.unique((np.abs(kept[:, None] - rows[None]) <= FACET_TOL).all(axis=2).argmax(axis=1))
    return HPolytope(hp.A[keep], hp.b[keep])


def project_out(h: HPolytope, index: int) -> HPolytope:
    """Orthogonal projection eliminating one coordinate (Fourier-Motzkin).

    Rows free of the coordinate come first, then the sum of every (upper,
    lower) pair of rows scaled to a unit coefficient, upper-major.  The
    combined rows are pruned with :func:`remove_redundant` right away to
    contain the quadratic blow-up; fine for the dimensions used here.
    """
    col = h.A[:, index]
    rows = np.column_stack([np.delete(h.A, index, axis=1), h.b])
    zero = np.abs(col) <= FACET_TOL * np.linalg.norm(h.A, axis=1)
    upper, lower = ~zero & (col > 0), ~zero & (col < 0)
    pairs = rows[upper, None] / col[upper, None, None] + rows[None, lower] / -col[None, lower, None]
    pairs = pairs.reshape(-1, rows.shape[1])
    kept = np.linalg.norm(pairs[:, :-1], axis=1) > FACET_TOL
    if np.any(pairs[~kept, -1] > FACET_TOL):
        raise EmptyRegionError("projection of an infeasible system")
    stacked = np.vstack([rows[zero], pairs[kept]])
    if not len(stacked):
        raise ValueError("projection produced an unconstrained region")
    return remove_redundant(HPolytope(stacked[:, :-1], stacked[:, -1]))


def triangulate(vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split a full-dimensional 3-D polytope into interior-disjoint tetrahedra.

    Fans the triangulated hull boundary of the (n, 3) ``vertices`` from an
    interior point, so the volumes add up to the polytope volume exactly.
    Returns the (T, 4, 3) corner array, interior point first, and the T
    volumes; flat tetrahedra are dropped.
    """
    vertices = np.asarray(vertices, dtype=float)
    if vertices.shape[1] != 3:
        raise ValueError("triangulation is defined for 3-D polytopes")
    centered = vertices - vertices.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    if len(vertices) < 4 or svals[-1] <= FACET_TOL * max(1.0, svals[0]):
        raise DegenerateRegionError("polytope is flat; no 3-D triangulation")
    hull = ConvexHull(vertices)
    center = vertices[np.unique(hull.vertices)].mean(axis=0)
    faces = vertices[hull.simplices]
    corners = np.concatenate([np.broadcast_to(center, (len(faces), 1, 3)), faces], axis=1)
    volumes = np.abs(np.linalg.det(faces - center)) / 6.0
    flat = volumes == 0.0
    return corners[~flat], volumes[~flat]


def _fold_to_barycentric(stu: np.ndarray) -> np.ndarray:
    """Fold unit-cube samples onto the unit simplex (rejection free).

    The three reflections map the parallelepiped spanned by a tetrahedron
    onto the tetrahedron itself while preserving uniformity.  The two
    cases after the first fold are disjoint, so each output coordinate is
    one select over the folded ``s, t, u``.
    """
    s, t, u = stu.T
    flip = s + t > 1.0
    s = np.where(flip, 1.0 - s, s)
    t = np.where(flip, 1.0 - t, t)
    total = s + t + u
    case1 = t + u > 1.0
    case2 = ~case1 & (total > 1.0)
    return np.column_stack(
        [
            np.where(case2, 1.0 - t - u, s),
            np.where(case1, 1.0 - u, t),
            np.where(case1, 1.0 - s - t, np.where(case2, total - 1.0, u)),
        ]
    )


def sample_uniform(vertices: np.ndarray, count: int, seed: int, out: np.ndarray | None = None) -> np.ndarray:
    """``count`` uniform samples from the full-dimensional 3-D polytope
    spanned by the (n, 3) ``vertices``.

    Tetrahedra of a triangulation are picked with probability proportional
    to their volume; inside a tetrahedron the parallelepiped-fold transform
    avoids rejection entirely.  Deterministic for a fixed seed.

    Every tetrahedron is picked first, then the points are drawn, folded
    and placed ``SAMPLE_CHUNK`` rows at a time, so the random stream is
    that of one draw of ``count`` points while the working set beyond the
    picks and the result stays a few chunk-sized arrays.  The result is
    written into ``out``, a float (count, 3) array such as a view of a
    larger design matrix, and returned; without ``out`` a new array is
    allocated.  A wrong ``out`` raises before anything is drawn.
    """
    if count < 1:
        raise ValueError("need at least one sample")
    if out is None:
        out = np.empty((count, 3))
    elif out.shape != (count, 3) or out.dtype != np.float64:
        raise ValueError(f"out must be a float64 ({count}, 3) array, got {out.dtype} {out.shape}")
    corners, volumes = triangulate(vertices)
    rng = np.random.default_rng(seed)
    choice = rng.choice(len(volumes), size=count, p=volumes / volumes.sum())
    base = corners[:, 0, :]
    edges = corners[:, 1:, :] - base[:, None, :]
    for start in range(0, count, SAMPLE_CHUNK):
        rows = slice(start, start + SAMPLE_CHUNK)
        picked = choice[rows]
        stu = _fold_to_barycentric(rng.random((len(picked), 3)))
        out[rows] = base[picked] + np.einsum("nk,nkd->nd", stu, edges[picked])
    return out


def least_squares_hyperplane(design: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Ordinary least-squares fit ``values ~ design @ coeffs``.

    ``design`` is the (n, d + 1) design matrix whose column 0 is ones, so
    the fit is ``values ~ a0 + a . points`` for the points in columns 1..d.
    It is solved as given, without a copy made here.  Returns
    ``(a0, a1, .., ad)``; raises with fewer than d + 1 rows or on a
    rank-deficient design matrix.
    """
    design = np.atleast_2d(np.asarray(design, dtype=float))
    values = np.asarray(values, dtype=float).ravel()
    n, k = design.shape
    if n < k:
        raise ValueError(f"need at least {k} points, got {n}")
    coeffs, _, rank, _ = np.linalg.lstsq(design, values, rcond=None)
    if rank < k:
        raise ValueError("design matrix is rank deficient")
    return coeffs
