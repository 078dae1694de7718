import numpy as np
import pytest

from stationopt import polytope
from stationopt.polytope import (
    DegenerateRegionError,
    EmptyRegionError,
    HPolytope,
    UnboundedRegionError,
    enumerate_vertices,
    least_squares_hyperplane,
    project_out,
    remove_redundant,
    sample_uniform,
    triangulate,
)

from oracles import (
    brute_force_vertices,
    divergence_volume,
    facet_rows,
    hausdorff_convex_2d,
    match_vertex_sets,
    normal_equations_fit,
    project_vertices_hull,
    random_bounded_hpolytope,
    reference_project_out,
)


def unit_cube() -> HPolytope:
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.concatenate([-np.ones(3), np.zeros(3)])
    return HPolytope(A, b)


def unit_simplex() -> HPolytope:
    A = np.vstack([-np.eye(3), np.ones(3)])
    b = np.array([0.0, 0.0, 0.0, -1.0])
    return HPolytope(A, b)


class TestRepresentations:
    def test_hpolytope_rejects_zero_row(self):
        with pytest.raises(ValueError, match="zero rows"):
            HPolytope(np.array([[1.0, 0.0], [0.0, 0.0]]), np.ones(2))

    def test_hpolytope_rejects_row_count_mismatch(self):
        with pytest.raises(ValueError, match="row counts"):
            HPolytope(np.eye(2), np.ones(3))

    def test_fix_coordinate(self):
        square = unit_cube().fix_coordinate(2, 0.5)
        assert square.dim == 2
        assert square.contains((0.5, 0.5))
        assert not square.contains((1.5, 0.5))


class TestEnumerateVertices:
    def test_unit_cube(self):
        v = enumerate_vertices(unit_cube())
        expect = np.array(
            [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=float
        )
        assert match_vertex_sets(v, expect, 1e-9)

    def test_unit_simplex(self):
        v = enumerate_vertices(unit_simplex())
        expect = np.vstack([np.zeros(3), np.eye(3)])
        assert match_vertex_sets(v, expect, 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_plane_triples(self, seed):
        A, b = random_bounded_hpolytope(seed)
        got = enumerate_vertices(HPolytope(A, b))
        expect = brute_force_vertices(A, b)
        assert match_vertex_sets(got, expect, 1e-7)

    def test_unbounded_raises(self):
        A = np.array([[1.0, 0.0], [0.0, 1.0]])
        with pytest.raises(UnboundedRegionError):
            enumerate_vertices(HPolytope(A, -np.ones(2)))

    def test_empty_raises(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([-0.0, 1.0])  # x <= 0 and x >= 1
        with pytest.raises(EmptyRegionError):
            enumerate_vertices(HPolytope(A, b))


class TestBoundingBoxRepeatCalls:
    def test_writes_into_result_do_not_leak(self):
        h = unit_simplex()
        lo, hi = h.bounding_box()
        expect = lo.copy(), hi.copy()
        lo[:] = 7.0
        hi[:] = -7.0
        lo2, hi2 = h.bounding_box()
        assert np.array_equal(lo2, expect[0]) and np.array_equal(hi2, expect[1])

    def test_errors_raise_on_every_call(self):
        unbounded = HPolytope(np.array([[1.0, 0.0], [0.0, 1.0]]), -np.ones(2))
        empty = HPolytope(np.array([[1.0], [-1.0]]), np.array([0.0, 1.0]))
        for h, error in ((unbounded, UnboundedRegionError), (empty, EmptyRegionError)):
            for _ in range(2):
                with pytest.raises(error):
                    h.bounding_box()


class TestRemoveRedundant:
    def test_duplicate_facet_dropped(self):
        h = unit_cube()
        doubled = HPolytope(np.vstack([h.A, h.A[:1]]), np.concatenate([h.b, h.b[:1]]))
        assert remove_redundant(doubled).n_rows == 6

    def test_slack_plane_dropped(self):
        h = unit_cube()
        extra = HPolytope(np.vstack([h.A, [[1.0, 0, 0]]]), np.concatenate([h.b, [-2.0]]))
        reduced = remove_redundant(extra)
        assert reduced.n_rows == 6
        assert match_vertex_sets(
            enumerate_vertices(reduced), enumerate_vertices(h), 1e-9
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_region_unchanged(self, seed):
        A, b = random_bounded_hpolytope(seed, extra_planes=9)
        h = HPolytope(A, b)
        reduced = remove_redundant(h)
        assert reduced.n_rows <= h.n_rows
        assert match_vertex_sets(
            enumerate_vertices(reduced), enumerate_vertices(h), 1e-7
        )

    @pytest.mark.parametrize("dim", [3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_keeps_exactly_the_facets(self, seed, dim):
        A, b = random_bounded_hpolytope(seed, extra_planes=9, dim=dim)
        A, b = np.vstack([A, A[-2:]]), np.concatenate([b, b[-2:]])  # duplicates at the end
        reduced = remove_redundant(HPolytope(A, b))
        expect = facet_rows(A, b)
        assert reduced.n_rows == len(expect)
        assert np.allclose(reduced.A, A[expect], rtol=0, atol=1e-12)
        assert np.allclose(reduced.b, b[expect], rtol=0, atol=1e-12)

    def test_infeasible_raises(self):
        A = np.array([[1.0], [-1.0]])
        b = np.array([0.0, 1.0])
        with pytest.raises(EmptyRegionError):
            remove_redundant(HPolytope(A, b))

    def test_plane_touching_a_vertex_dropped(self):
        h = unit_cube()
        corner = HPolytope(np.vstack([h.A, [[1.0, 1.0, 1.0]]]), np.concatenate([h.b, [-3.0]]))
        assert np.array_equal(remove_redundant(corner).A, remove_redundant(h).A)

    def test_flat_input_raises(self):
        h = unit_cube()
        flat = HPolytope(np.vstack([h.A, [[0.0, 0.0, 1.0]]]), np.concatenate([h.b, [0.0]]))
        with pytest.raises(DegenerateRegionError):
            remove_redundant(flat)


SLAB = HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, 0.0]))  # contains a line
HALF_STRIP = HPolytope(np.array([[0.0, 1.0], [0.0, -1.0], [-1.0, 0.0]]), np.array([-1.0, 0.0, 0.0]))


@pytest.mark.parametrize("reduce", [HPolytope.bounding_box, remove_redundant])
@pytest.mark.parametrize("h", [SLAB, HALF_STRIP], ids=["slab", "half-strip"])
def test_unbounded_region_raises_unbounded(reduce, h):
    with pytest.raises(UnboundedRegionError):
        reduce(h)


def test_one_dimensional_input_is_refused():
    interval = HPolytope(np.array([[1.0], [-1.0]]), np.array([-1.0, 0.0]))
    with pytest.raises(ValueError, match="dimension >= 2"):
        interval.bounding_box()


class TestProjectOut:
    def test_cube_projects_to_square(self):
        square = project_out(unit_cube(), 2)
        assert square.dim == 2
        verts = brute_force_vertices(square.A, square.b)
        assert match_vertex_sets(verts, np.array([[0, 0], [0, 1], [1, 0], [1, 1]], float), 1e-9)

    def test_simplex_projects_to_triangle(self):
        tri = project_out(unit_simplex(), 2)
        verts = brute_force_vertices(tri.A, tri.b)
        assert match_vertex_sets(verts, np.array([[0, 0], [1, 0], [0, 1]], float), 1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_vertex_projection_hull(self, seed):
        A, b = random_bounded_hpolytope(100 + seed)
        projected = project_out(HPolytope(A, b), 2)
        got = brute_force_vertices(projected.A, projected.b)
        expect = project_vertices_hull(brute_force_vertices(A, b), drop=2)
        assert hausdorff_convex_2d(got, expect) < 1e-7

    @pytest.mark.parametrize("seed", range(6))
    def test_equals_the_pairwise_loop_reference(self, seed):
        A, b = random_bounded_hpolytope(300 + seed, extra_planes=8, dim=3 + seed % 2)
        h = HPolytope(A, b)
        for index in range(h.dim):
            got, expect = project_out(h, index), reference_project_out(h, index)
            assert np.array_equal(got.A, expect.A) and np.array_equal(got.b, expect.b)

    def test_contradicting_pair_raises_empty(self):
        # x <= 0 and x >= 1 leave 0 <= -1 once x is eliminated
        A = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        with pytest.raises(EmptyRegionError):
            project_out(HPolytope(A, np.array([0.0, 1.0, -1.0, 0.0])), 0)

    def test_no_row_left_raises(self):
        # a slab in x alone says nothing about y
        with pytest.raises(ValueError, match="unconstrained"):
            project_out(HPolytope(np.array([[1.0, 0.0], [-1.0, 0.0]]), np.array([-1.0, 0.0])), 0)

    def test_commutes_across_coordinates(self):
        A, b = random_bounded_hpolytope(7, extra_planes=4, dim=4)
        h = HPolytope(A, b)
        # eliminating x3 then x1 must equal eliminating x1 then x3 (shifted index)
        p1 = project_out(project_out(h, 3), 1)
        p2 = project_out(project_out(h, 1), 2)
        v1 = brute_force_vertices(p1.A, p1.b)
        v2 = brute_force_vertices(p2.A, p2.b)
        assert hausdorff_convex_2d(v1, v2) < 1e-8

    def test_projection_of_4d_box(self):
        A = np.vstack([np.eye(4), -np.eye(4)])
        b = np.concatenate([-np.ones(4), np.zeros(4)])
        p = project_out(HPolytope(A, b), 3)
        assert p.dim == 3
        assert match_vertex_sets(
            enumerate_vertices(p), enumerate_vertices(unit_cube()), 1e-9
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_random_4d_matches_projected_hull(self, seed):
        from scipy.spatial import ConvexHull

        A, b = random_bounded_hpolytope(300 + seed, extra_planes=5, dim=4)
        projected = project_out(HPolytope(A, b), 3)
        got = enumerate_vertices(projected)
        pts = np.delete(brute_force_vertices(A, b), 3, axis=1)
        hull = ConvexHull(pts)
        expect = []
        for p in pts[hull.vertices]:
            if not any(np.linalg.norm(p - q) < 1e-7 for q in expect):
                expect.append(p)
        assert match_vertex_sets(got, np.array(expect), 1e-7)


class TestTriangulate:
    def test_tetrahedron_total_volume(self):
        corners, volumes = triangulate(np.vstack([np.zeros(3), np.eye(3)]))
        assert corners.shape == (4, 4, 3)
        assert volumes.sum() == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_cube_volume_one(self):
        _, volumes = triangulate(enumerate_vertices(unit_cube()))
        assert volumes.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_volume_matches_divergence_oracle(self, seed):
        A, b = random_bounded_hpolytope(200 + seed)
        verts = enumerate_vertices(HPolytope(A, b))
        total = triangulate(verts)[1].sum()
        oracle = divergence_volume(A, b, verts)
        assert total == pytest.approx(oracle, abs=1e-9)

    def test_flat_input_raises(self):
        flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]], float)
        with pytest.raises(DegenerateRegionError):
            triangulate(flat)


class TestSampleUniform:
    def test_points_inside_and_deterministic(self):
        v = enumerate_vertices(unit_cube())
        pts1 = sample_uniform(v, 500, seed=42)
        pts2 = sample_uniform(v, 500, seed=42)
        assert np.array_equal(pts1, pts2)
        h = unit_cube()
        assert all(h.contains(p, tol=1e-9) for p in pts1)

    def test_single_sample_reproducible(self):
        v = enumerate_vertices(unit_cube())
        assert np.array_equal(sample_uniform(v, 1, seed=7), sample_uniform(v, 1, seed=7))

    def test_tetrahedron_mean_near_centroid(self):
        v = np.vstack([np.zeros(3), np.eye(3)])
        pts = sample_uniform(v, 10_000, seed=11)
        mean = pts.mean(axis=0)
        # centroid of the unit simplex is (1/4, 1/4, 1/4); CLT bound
        assert np.all(np.abs(mean - 0.25) < 0.02)

    def test_degenerate_raises(self):
        flat = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], float)
        with pytest.raises(DegenerateRegionError):
            sample_uniform(flat, 10, seed=0)

    def test_count_validation(self):
        v = enumerate_vertices(unit_cube())
        with pytest.raises(ValueError, match="need at least one sample"):
            sample_uniform(v, 0, seed=0)
        with pytest.raises(ValueError, match="need at least one sample"):
            sample_uniform(v, 0, seed=0, out=np.empty((0, 3)))

    def test_out_is_filled_and_returned(self):
        v = enumerate_vertices(unit_cube())
        out = np.empty((500, 3))
        assert sample_uniform(v, 500, seed=42, out=out) is out
        assert np.array_equal(out, sample_uniform(v, 500, seed=42))

    @pytest.mark.parametrize(
        "out",
        [np.empty((9, 3)), np.empty((10, 4)), np.empty((10, 3), dtype=np.float32), np.empty((10, 3), dtype=int)],
        ids=["too-few-rows", "four-columns", "float32", "int"],
    )
    def test_wrong_out_raises_before_any_draw(self, out, monkeypatch):
        def no_draw(*_):
            raise AssertionError("drew samples for a wrong out")

        v = enumerate_vertices(unit_cube())
        monkeypatch.setattr(polytope, "triangulate", no_draw)
        monkeypatch.setattr(polytope.np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match=r"out must be a float64 \(10, 3\) array"):
            sample_uniform(v, 10, seed=0, out=out)


def design(points: np.ndarray) -> np.ndarray:
    """The fit's design matrix: a column of ones, then the points."""
    return np.column_stack([np.ones(len(points)), points])


class TestLeastSquares:
    def test_exact_affine_recovery(self):
        rng = np.random.default_rng(3)
        pts = rng.uniform(-2, 5, size=(40, 3))
        truth = np.array([1.5, -2.0, 0.25, 4.0])
        values = truth[0] + pts @ truth[1:]
        fitted = least_squares_hyperplane(design(pts), values)
        assert np.allclose(fitted, truth, atol=1e-10)
        residual = values - (fitted[0] + pts @ fitted[1:])
        assert np.abs(residual).max() < 1e-9

    def test_constant_values(self):
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, 1, size=(25, 3))
        fitted = least_squares_hyperplane(design(pts), np.full(25, 3.25))
        assert np.allclose(fitted, [3.25, 0, 0, 0], atol=1e-10)

    def test_matches_normal_equations(self):
        rng = np.random.default_rng(5)
        pts = rng.uniform(-1, 1, size=(60, 3))
        values = rng.normal(size=60)
        fitted = least_squares_hyperplane(design(pts), values)
        oracle = normal_equations_fit(pts, values)
        assert np.allclose(fitted, oracle, atol=1e-8)

    def test_residual_orthogonality(self):
        rng = np.random.default_rng(6)
        pts = rng.uniform(-1, 1, size=(80, 3))
        values = rng.normal(size=80) * 50.0
        X = design(pts)
        fitted = least_squares_hyperplane(X, values)
        r = values - X @ fitted
        assert np.abs(X.T @ r).max() < 1e-6 * max(1.0, np.abs(values).max())

    def test_rank_deficiency_raises(self):
        pts = np.zeros((10, 3))
        with pytest.raises(ValueError, match="rank deficient"):
            least_squares_hyperplane(design(pts), np.arange(10.0))

    def test_too_few_points_raise(self):
        with pytest.raises(ValueError, match="need at least 4 points, got 3"):
            least_squares_hyperplane(design(np.eye(3)), np.ones(3))
