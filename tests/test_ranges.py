import hashlib
import json
import tracemalloc
from functools import partial

import numpy as np
import pytest
from scipy.optimize import linprog
from scipy.spatial import ConvexHull

from stationopt.fixtures import medium_station, mini_station, mini_station_pipes, seeded_instance, two_unit_station
from stationopt.gas import GasConstants, compression_power
from stationopt.io import load_instance
from stationopt.network import CompressorUnit
from stationopt.polytope import (
    SAMPLE_CHUNK,
    EmptyRegionError,
    HPolytope,
    UnboundedRegionError,
    enumerate_vertices,
    least_squares_hyperplane,
    sample_uniform,
)
from stationopt.ranges import (
    DEFAULT_SAMPLE_COUNT,
    _lift_caps,
    _station_facets,
    build_spec_ranges,
    build_station_ranges,
    configuration_polytope,
    lift_unit_range,
    linearize_power_bound,
    seed_for_unit,
    stage_polytope,
    unit_polytope,
)

from oracles import (
    brute_force_vertices,
    match_vertex_sets,
    reference_power_fit,
    reference_sample_uniform,
    scalar_compression_power,
)

CONSTANTS = GasConstants(
    specific_gas_constant=500.0,
    temperature=283.15,
    pseudo_critical_pressure=46.0,
    pseudo_critical_temperature=190.0,
    normal_density=0.785,
)
RSTZ = 500.0 * 283.15 * 0.9  # R_s T z_l for the fixture unit

FIXTURE_2D = (
    (1.0, 0.0, -1.0),  # ratio >= 1
    (-1.9, 0.05, 1.0),  # ratio <= 1.9 - 0.05 Q
    (2.0, -1.0, 0.0),  # Q >= 2
    (-9.0, 1.0, 0.0),  # Q <= 9
)


def fixture_unit(max_power=20e6, facets=FIXTURE_2D) -> CompressorUnit:
    return CompressorUnit(
        id="U1",
        operating_range_2d=facets,
        max_delta_p=25e5,
        max_power=max_power,
        adiabatic_efficiency=0.85,
        inlet_z_factor=0.9,
    )


def box(pl, pr, q) -> HPolytope:
    A = np.vstack([np.eye(3), -np.eye(3)])
    b = np.array([-pl[1], -pr[1], -q[1], pl[0], pr[0], q[0]], dtype=float)
    return HPolytope(A, b)


class TestLiftUnitRange:
    def test_pure_ratio_facet(self):
        unit = fixture_unit(facets=((-2.0, 0.0, 1.0), (1.0, 0.0, -1.0), (2.0, -1.0, 0.0), (-9.0, 1.0, 0.0)))
        lifted = lift_unit_range(unit, 30e5, 70e5, CONSTANTS)
        # the ratio <= 2 facet must appear verbatim as -2 pl + pr <= 0
        rows = [
            (row, off)
            for row, off in zip(lifted.A, lifted.b)
            if np.allclose(row, (-2.0, 1.0, 0.0)) and off == 0.0
        ]
        assert rows

    def test_pure_flow_facet(self):
        qbar = 9.0
        unit = fixture_unit(facets=((1.0, 0.0, -1.0), (-1.9, 0.05, 1.0), (2.0, -1.0, 0.0), (-qbar, 1.0, 0.0)))
        lifted = lift_unit_range(unit, 30e5, 70e5, CONSTANTS)
        rows = [
            (row, off)
            for row, off in zip(lifted.A, lifted.b)
            if np.allclose(row, (-qbar, 0.0, RSTZ)) and off == 0.0
        ]
        assert rows  # R_s T z_l q - Q_max pl <= 0

    @pytest.mark.parametrize("pl", [35e5, 45e5, 60e5])
    def test_slice_reproduces_2d_region(self, pl):
        unit = fixture_unit()
        lifted = lift_unit_range(unit, 30e5, 70e5, CONSTANTS)
        rng = np.random.default_rng(int(pl))
        ratios = rng.uniform(0.9, 2.1, size=200)
        flows = rng.uniform(1.0, 10.0, size=200)
        for ratio, Q in zip(ratios, flows):
            pr = ratio * pl
            q = Q * pl / RSTZ
            in_2d = all(a0 + a1 * Q + a2 * ratio <= 1e-9 for a0, a1, a2 in FIXTURE_2D)
            in_caps = (pr - pl <= unit.max_delta_p) and (pl >= 30e5) and (pr <= 70e5)
            assert lifted.contains((pl, pr, q), tol=1e-12) == (in_2d and in_caps)

    def test_unbounded_without_flow_cap_raises(self):
        unit = fixture_unit(facets=((1.0, 0.0, -1.0), (-2.0, 0.0, 1.0)))  # no Q bounds
        with pytest.raises(UnboundedRegionError):
            unit_polytope(unit, 30e5, 70e5, CONSTANTS)

    def test_unit_polytope_solves_one_lp(self, linprog_calls):
        # the Chebyshev LP of the one vertex enumeration the power fit samples
        unit_polytope(fixture_unit(), 30e5, 70e5, CONSTANTS, count=1000, seed=5)
        assert len(linprog_calls) == 1

    def test_bad_caps_raise(self):
        with pytest.raises(ValueError):
            lift_unit_range(fixture_unit(), -1.0, 70e5, CONSTANTS)


class TestPowerBound:
    def test_nearly_flat_ratio_range_gives_inactive_bound(self):
        # operating range squeezed onto the pr = pl plane: power vanishes
        thin = fixture_unit(
            facets=(
                (1.0, 0.0, -1.0),
                (-(1.0 + 1e-6), 0.0, 1.0),
                (2.0, -1.0, 0.0),
                (-9.0, 1.0, 0.0),
            )
        )
        lifted = lift_unit_range(thin, 30e5, 70e5, CONSTANTS)
        coeffs, offset = linearize_power_bound(lifted, thin, CONSTANTS, count=2000, seed=1)
        values = enumerate_vertices(lifted) @ coeffs + offset
        # fitted power is ~0, so the facet sits far below the power cap
        assert np.all(values < -0.5 * thin.max_power)

    def test_seeded_reproducibility(self):
        unit = fixture_unit()
        lifted = lift_unit_range(unit, 30e5, 70e5, CONSTANTS)
        c1, o1 = linearize_power_bound(lifted, unit, CONSTANTS, count=5000, seed=11)
        c2, o2 = linearize_power_bound(lifted, unit, CONSTANTS, count=5000, seed=11)
        assert np.array_equal(c1, c2) and o1 == o2

    def test_fit_quality_against_independent_sampler(self):
        unit = fixture_unit()
        lifted = lift_unit_range(unit, 30e5, 70e5, CONSTANTS)
        coeffs, offset = linearize_power_bound(lifted, unit, CONSTANTS, count=20000, seed=3)
        intercept = offset + unit.max_power

        from oracles import rejection_sample

        pts = rejection_sample(lifted.A, lifted.b, 4000, seed=99)
        powers = np.array(
            [
                compression_power(q, pl, max(pr, pl), 0.9, unit.adiabatic_efficiency, CONSTANTS)
                for pl, pr, q in pts
            ]
        )
        fitted = intercept + pts @ coeffs
        rms = float(np.sqrt(np.mean((powers - fitted) ** 2)))
        assert rms < 0.10 * powers.max()

    def test_default_fit_matches_scalar_loop_oracle(self):
        # evaluating the samples as arrays changes the fit only by rounding
        unit = fixture_unit()
        lifted = lift_unit_range(unit, 30e5, 70e5, CONSTANTS)
        coeffs, offset = linearize_power_bound(lifted, unit, CONSTANTS)
        points = sample_uniform(enumerate_vertices(lifted), DEFAULT_SAMPLE_COUNT, seed_for_unit(unit.id))
        powers = np.array(
            [
                scalar_compression_power(q, pl, max(pr, pl), 0.9, unit.adiabatic_efficiency, CONSTANTS)
                for pl, pr, q in points
            ]
        )
        a0, a1, a2, a3 = least_squares_hyperplane(np.column_stack([np.ones(len(points)), points]), powers)
        np.testing.assert_allclose(
            (*coeffs, offset), (a1, a2, a3, a0 - unit.max_power), rtol=1e-12, atol=0.0
        )

    def test_default_seed_is_stable_per_unit(self):
        assert seed_for_unit("U1") == seed_for_unit("U1")
        assert seed_for_unit("U1") != seed_for_unit("U2")
        assert seed_for_unit("U1", base_seed=1) != seed_for_unit("U1", base_seed=2)


def product_oracle_parallel(polys: list[HPolytope]) -> np.ndarray:
    """Vertices of the parallel composition via the product construction."""
    n = len(polys)
    dim = 2 + n
    rows, offs = [], []
    for i, poly in enumerate(polys):
        for row, off in zip(poly.A, poly.b):
            full = np.zeros(dim)
            full[0], full[1], full[2 + i] = row[0], row[1], row[2]
            rows.append(full)
            offs.append(off)
    verts = brute_force_vertices(np.array(rows), np.array(offs))
    mapped = np.column_stack([verts[:, 0], verts[:, 1], verts[:, 2:].sum(axis=1)])
    hull = ConvexHull(mapped)
    dedup = []
    for p in mapped[hull.vertices]:
        if not any(np.linalg.norm(p - q) < 1e-7 for q in dedup):
            dedup.append(p)
    return np.array(dedup)


def chained_oracle_serial(polys: list[HPolytope]) -> np.ndarray:
    """Vertices of the serial composition via the chained product."""
    n = len(polys)
    dim = 3 + (n - 1)
    rows, offs = [], []
    for i, poly in enumerate(polys):
        col_in = 0 if i == 0 else 3 + (i - 1)
        col_out = 1 if i == n - 1 else 3 + i
        for row, off in zip(poly.A, poly.b):
            full = np.zeros(dim)
            full[col_in] += row[0]
            full[col_out] += row[1]
            full[2] += row[2]
            rows.append(full)
            offs.append(off)
    verts = brute_force_vertices(np.array(rows), np.array(offs))
    mapped = verts[:, :3]
    hull = ConvexHull(mapped)
    dedup = []
    for p in mapped[hull.vertices]:
        if not any(np.linalg.norm(p - q) < 1e-7 for q in dedup):
            dedup.append(p)
    return np.array(dedup)


class TestStagePolytope:
    def test_single_unit_identity(self):
        b1 = box((1, 2), (2, 3), (0, 5))
        assert stage_polytope([b1]) is b1

    def test_two_identical_boxes_double_flow(self):
        b1 = box((1, 2), (2, 3), (0, 5))
        stage = stage_polytope([b1, box((1, 2), (2, 3), (0, 5))])
        expect = enumerate_vertices(box((1, 2), (2, 3), (0, 10)))
        got = enumerate_vertices(stage)
        assert match_vertex_sets(got, expect, 1e-7)

    def test_matches_product_oracle(self):
        p1 = box((1, 2), (2, 3.5), (0, 5))
        p2 = box((1.5, 2.5), (2, 3), (1, 4))
        stage = stage_polytope([p1, p2])
        got = enumerate_vertices(stage)
        expect = product_oracle_parallel([p1, p2])
        assert match_vertex_sets(got, expect, 1e-6)

    def test_disjoint_inlet_ranges_empty(self):
        p1 = box((1, 2), (2, 3), (0, 5))
        p2 = box((3, 4), (2, 3), (0, 5))
        with pytest.raises(EmptyRegionError):
            stage_polytope([p1, p2])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parallel_composition_permutation_invariant(self, seed):
        rng = np.random.default_rng(seed)
        polys = []
        for _ in range(3):
            lo = rng.uniform(0.5, 1.5, size=3)
            hi = lo + rng.uniform(0.5, 2.0, size=3)
            polys.append(box((lo[0], hi[0]), (lo[1], hi[1]), (lo[2], hi[2])))
        a = enumerate_vertices(stage_polytope(polys))
        b2 = enumerate_vertices(stage_polytope([polys[2], polys[0], polys[1]]))
        assert match_vertex_sets(a, b2, 1e-6)


class TestConfigurationPolytope:
    def test_single_stage_same_region(self):
        b1 = box((1, 2), (2, 3), (0, 5))
        config = configuration_polytope([b1])
        assert match_vertex_sets(
            enumerate_vertices(config), enumerate_vertices(b1), 1e-9
        )

    def test_two_chained_boxes(self):
        s1 = box((1, 2), (2, 3), (0, 5))
        s2 = box((2.5, 4), (5, 6), (1, 4))
        config = configuration_polytope([s1, s2])
        got = enumerate_vertices(config)
        expect = chained_oracle_serial([s1, s2])
        assert match_vertex_sets(got, expect, 1e-6)
        # incoming pressure from stage 1, outgoing from stage 2, flow intersected
        lo, hi = config.bounding_box()
        assert np.allclose(lo, (1.0, 5.0, 1.0), atol=1e-7)
        assert np.allclose(hi, (2.0, 6.0, 4.0), atol=1e-7)

    def test_stage_order_matters(self):
        bounds = [((1, 3), (1, 6), (0, 5))]
        ratio_stage = HPolytope(
            np.array(
                [
                    [-2.0, 1.0, 0.0],  # pr <= 2 pl
                    [1.5, -1.0, 0.0],  # pr >= 1.5 pl
                    [1.0, 0.0, 0.0],
                    [-1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, -1.0, 0.0],
                    [0.0, 0.0, 1.0],
                    [0.0, 0.0, -1.0],
                ]
            ),
            np.array([0.0, 0.0, -3.0, 1.0, -6.0, 1.0, -5.0, 0.0]),
        )
        delta_stage = HPolytope(
            np.array(
                [
                    [1.0, -1.0, 0.0],  # pr - pl >= 0.5
                    [-1.0, 1.0, 0.0],  # pr - pl <= 1.0
                    [1.0, 0.0, 0.0],
                    [-1.0, 0.0, 0.0],
                    [0.0, 1.0, 0.0],
                    [0.0, -1.0, 0.0],
                    [0.0, 0.0, 1.0],
                    [0.0, 0.0, -1.0],
                ]
            ),
            np.array([0.5, -1.0, -3.0, 1.0, -6.0, 1.0, -5.0, 0.0]),
        )
        ab = configuration_polytope([ratio_stage, delta_stage])
        ba = configuration_polytope([delta_stage, ratio_stage])
        # witness: a vertex of one region outside the other
        va = enumerate_vertices(ab)
        vb = enumerate_vertices(ba)
        outside = [p for p in vb if not ab.contains(p, tol=1e-7)]
        outside += [p for p in va if not ba.contains(p, tol=1e-7)]
        assert outside

    def test_empty_chain_raises(self):
        s1 = box((1, 2), (2, 3), (0, 5))
        s2 = box((5, 6), (7, 8), (0, 5))  # stage-2 inlet misses stage-1 outlet
        with pytest.raises(EmptyRegionError):
            configuration_polytope([s1, s2])

    def test_facets_normalized(self):
        config = configuration_polytope([box((1, 2), (2, 3), (0, 5)), box((2.5, 4), (5, 6), (1, 4))])
        assert np.allclose(np.linalg.norm(config.A, axis=1), 1.0)


class TestEndToEndUnitComposition:
    def test_config_points_extend_to_unit_feasible_intermediates(self):
        unit = fixture_unit()
        upoly = unit_polytope(unit, 30e5, 70e5, CONSTANTS, count=4000, seed=5)
        config = configuration_polytope([stage_polytope([upoly]), stage_polytope([upoly])])
        from stationopt.polytope import sample_uniform

        pts = sample_uniform(enumerate_vertices(config), 50, seed=8)
        for pl, pr, q in pts:
            # find an intermediate pressure m with (pl, m, q) and (m, pr, q) feasible
            A1 = upoly.A[:, 1:2]
            b1 = upoly.b + upoly.A[:, 0] * pl + upoly.A[:, 2] * q
            A2 = upoly.A[:, 0:1]
            b2 = upoly.b + upoly.A[:, 1] * pr + upoly.A[:, 2] * q
            res = linprog(
                np.zeros(1),
                A_ub=np.vstack([A1, A2]),
                b_ub=-np.concatenate([b1, b2]) + 1e-4,
                bounds=[(None, None)],
                method="highs",
            )
            assert res.status == 0


def test_spec_ranges_solve_one_lp_per_qhull_call(linprog_calls):
    # one unit: its vertices and its reduced range each take one Chebyshev
    # centre and one qhull intersection
    spec, _ = load_instance(mini_station_pipes())
    build_spec_ranges(spec)
    assert len(linprog_calls) == 2


def test_composed_ranges_are_reduced_once(linprog_calls):
    # each polytope costs one Chebyshev LP: a vertex set per unit, one
    # reduction per projection and per single-unit single stage; the
    # parallel c12 comes out of its projection reduced
    spec, _ = load_instance(medium_station())
    spec = build_spec_ranges(spec)
    assert len(linprog_calls) == 6
    facet_counts = {c.id: len(c.facets) for c in spec.stations["CS1"].configurations}
    assert facet_counts == {"c1": 8, "c2": 8, "c12": 11, "s12": 10}


def facet_digest(spec) -> str:
    """sha256 of every configuration's facets at 12 significant digits."""
    rows = [
        [sid, c.id, [[f"{x + 0.0:.12g}" for x in f] for f in c.facets]]  # + 0.0 folds -0.0
        for sid, st in sorted(spec.stations.items())
        for c in st.configurations
    ]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


# build_spec_ranges at 2,000 samples; a kept, dropped or reordered row
# changes the digest, a last-ulp difference in libm does not
PINNED_FACET_SHA256 = {
    "mini_station_pipes": "8dfdafd018e822dbf2604b735ee15252dcd72f3f02dcf605fbd7ef314a571093",
    "medium_station": "4c975f948c88655dbaa69866728cb5617f5b1abced33c664d2706b65239e8dae",
    "seeded_instance(0)": "579bd63aae4f8fdde649afb8152f932fe78b37161e55caa93c5f5e6100b8f874",
    "seeded_instance(1)": "8dfdafd018e822dbf2604b735ee15252dcd72f3f02dcf605fbd7ef314a571093",
    "seeded_instance(2)": "579bd63aae4f8fdde649afb8152f932fe78b37161e55caa93c5f5e6100b8f874",
    "seeded_instance(3)": "8dfdafd018e822dbf2604b735ee15252dcd72f3f02dcf605fbd7ef314a571093",
}
PINNED_DOCS = {
    "mini_station_pipes": mini_station_pipes,
    "medium_station": medium_station,
    **{f"seeded_instance({i})": partial(seeded_instance, i) for i in range(4)},
}


@pytest.mark.parametrize("name", PINNED_FACET_SHA256)
def test_built_facets_are_pinned(name):
    spec, _ = load_instance(PINNED_DOCS[name]())
    assert facet_digest(build_spec_ranges(spec, 2_000)) == PINNED_FACET_SHA256[name]


SAMPLER_DOCS = {"mini_station": mini_station, **PINNED_DOCS}


@pytest.mark.parametrize("name", SAMPLER_DOCS)
def test_sampler_matches_scatter_reference(name):
    # the vectorised fold and per-tetrahedron gather draw the same numbers
    # and give the same samples, bit for bit, as the scatter kernel
    spec, _ = load_instance(SAMPLER_DOCS[name]())
    for station in spec.stations.values():
        pl_lb, pr_ub = _lift_caps(spec, station)
        for unit in station.units:
            verts = enumerate_vertices(lift_unit_range(unit, pl_lb, pr_ub, spec.constants))
            # a full chunk, a one-sample ragged tail and a chunk-aligned end
            for count in (1, 2_000, SAMPLE_CHUNK, SAMPLE_CHUNK + 1, 2 * SAMPLE_CHUNK, DEFAULT_SAMPLE_COUNT):
                for seed in (0, 5, seed_for_unit(unit.id)):
                    got = sample_uniform(verts, count, seed)
                    assert np.array_equal(got, reference_sample_uniform(verts, count, seed))
            # drawn into a design matrix's columns 1..3, the same bits land there
            for count in (1, SAMPLE_CHUNK + 1, DEFAULT_SAMPLE_COUNT):
                seed = seed_for_unit(unit.id)
                design = np.zeros((count, 4))
                drawn = sample_uniform(verts, count, seed, out=design[:, 1:])
                assert np.shares_memory(drawn, design) and drawn.shape == (count, 3)
                assert design[:, 1:].tobytes() == sample_uniform(verts, count, seed).tobytes()
                assert not design[:, 0].any()


FIT_DOCS = {
    "mini_station": mini_station,
    "mini_station_pipes": mini_station_pipes,
    "two_unit_station": two_unit_station,
    "medium_station": medium_station,
}


@pytest.mark.parametrize("name", FIT_DOCS)
def test_power_fit_is_bitwise_the_sample_then_stack_fit(name):
    # drawing into the design matrix and evaluating the powers a chunk at
    # a time leave every coefficient and offset bit of the earlier path
    spec, _ = load_instance(FIT_DOCS[name]())
    for station in spec.stations.values():
        pl_lb, pr_ub = _lift_caps(spec, station)
        for unit in station.units:
            lifted = lift_unit_range(unit, pl_lb, pr_ub, spec.constants)
            seed = seed_for_unit(unit.id)
            coeffs, offset = linearize_power_bound(lifted, unit, spec.constants, DEFAULT_SAMPLE_COUNT, seed)
            ref_coeffs, ref_offset = reference_power_fit(lifted, unit, spec.constants, DEFAULT_SAMPLE_COUNT, seed)
            got = [float(x).hex() for x in (*coeffs, offset)]
            assert got == [float(x).hex() for x in (*ref_coeffs, ref_offset)], unit.id


def test_range_build_peak_memory_is_bounded():
    # the sampler folds and places its points a chunk at a time, straight
    # into the fit's (count, 4) design matrix, and the powers are evaluated
    # a chunk at a time, so a 50,000-sample build holds the design matrix,
    # the picks, the powers and lstsq's copy (about 3.0 MiB), not a separate
    # sample array (3.4 MiB) or a gathered edge array and fold temporaries
    # for the whole draw
    spec, _ = load_instance(mini_station_pipes())
    build_spec_ranges(spec)  # first-call allocations of numpy, qhull and HiGHS
    _station_facets.cache_clear()
    tracemalloc.start()
    try:
        build_spec_ranges(spec, DEFAULT_SAMPLE_COUNT)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3.25 * 2**20


def built_facets(spec) -> dict:
    return {(sid, c.id): c.facets for sid, st in spec.stations.items() for c in st.configurations}


def _more_power(doc):
    doc["units"][0]["maxPower"] *= 1.1


def _lower_outlet_cap(doc):
    # CS1 runs N1 -> N2, so N2's upper bound is the lifting cap pr_ub
    next(n for n in doc["nodes"] if n["id"] == "N2")["pressureUB"] = 69.0


def _rename_unit(doc):
    # a unit's id seeds its sampler
    doc.update(json.loads(json.dumps(doc).replace('"U1"', '"U7"')))


def _swap_serial_stages(doc):
    # s12 runs U2 before U1; the two units differ in maxPower
    station = next(a for a in doc["arcs"] if a["id"] == "CS1")
    next(c for c in station["configurations"] if c["id"] == "s12")["stages"] = [["U2"], ["U1"]]


# a document, an edit of it and build arguments that each change one memo
# key input
MEMO_CHANGES = {
    "maxPower": (mini_station_pipes, _more_power, {}),
    "end-node pressure bound": (mini_station_pipes, _lower_outlet_cap, {}),
    "count": (mini_station_pipes, None, {"count": 2_000}),
    "base_seed": (mini_station_pipes, None, {"base_seed": 1}),
    "unit id": (mini_station_pipes, _rename_unit, {}),
    "stage set": (medium_station, _swap_serial_stages, {}),
}


class TestStationRangeMemo:
    def test_second_build_solves_no_lp(self, linprog_calls):
        spec, _ = load_instance(medium_station())
        first = build_spec_ranges(spec)
        assert len(linprog_calls) == 6
        second = build_spec_ranges(spec)
        assert len(linprog_calls) == 6
        assert built_facets(second) == built_facets(first)

    @pytest.mark.parametrize("change", MEMO_CHANGES)
    def test_changed_input_is_a_miss(self, change):
        make_doc, edit, kwargs = MEMO_CHANGES[change]
        _station_facets.cache_clear()
        before = built_facets(build_spec_ranges(load_instance(make_doc())[0]))
        doc = make_doc()
        if edit is not None:
            edit(doc)
        spec, _ = load_instance(doc)
        changed = built_facets(build_spec_ranges(spec, **kwargs))
        assert _station_facets.cache_info().misses == 2
        assert changed != before
        _station_facets.cache_clear()
        assert built_facets(build_spec_ranges(spec, **kwargs)) == changed

    def test_cached_facets_are_immutable(self):
        spec, _ = load_instance(medium_station())
        station = spec.stations["CS1"]
        first = build_station_ranges(spec, station)
        first.clear()  # the caller's dict is its own
        second = build_station_ranges(spec, station)
        third = build_station_ranges(spec, station)
        assert set(second) == {"c1", "c2", "c12", "s12"}
        for config_id, facets in second.items():
            assert facets is third[config_id]
            assert type(facets) is tuple
            assert all(type(row) is tuple and all(type(x) is float for x in row) for row in facets)

    def test_seeded_instances_share_two_station_ranges(self):
        # one plant under different demands and outages
        _station_facets.cache_clear()
        for i in range(10):
            build_spec_ranges(load_instance(seeded_instance(i))[0])
        assert _station_facets.cache_info().misses == 2

    def test_failing_build_raises_on_every_call(self, linprog_calls):
        doc = mini_station()
        doc["units"][0]["operatingRange2D"][0][0] = 0.0  # ratio >= 0: unbounded lift
        spec, _ = load_instance(doc)
        for calls in (1, 2):
            with pytest.raises(UnboundedRegionError, match="^unit 'U1' on station 'CS1': "):
                build_spec_ranges(spec)
            assert len(linprog_calls) == calls
        assert _station_facets.cache_info().currsize == 0
