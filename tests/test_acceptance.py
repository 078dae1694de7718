"""Acceptance suite.

One test per acceptance criterion, each at its stated tolerance, printing
one pass line when it holds (run with ``pytest -s`` to see them inline).
The real station data behind the published benchmarks is proprietary, so
acceptance is property-based plus small-instance oracle equivalence on
the bundled synthetic fixtures.
"""

import itertools
import math
import statistics
import time

import numpy as np
import pytest

from stationopt.algorithm import StationSolver, transitions_work
from stationopt.fixtures import mini_station, mini_station_pipes, seeded_instance
from stationopt.gas import (
    GasConstants,
    adiabatic_head,
    compression_power,
    nikuradse_friction,
    papay_z,
    ratio_from_head,
)
from stationopt.io import load_instance, load_weights, regrid_instance, template_grid
from stationopt.model import build_fixed_transient, build_full
from stationopt.polytope import (
    HPolytope,
    enumerate_vertices,
    project_out,
    sample_uniform,
    triangulate,
)
from stationopt.ranges import build_spec_ranges, configuration_polytope, stage_polytope
from stationopt.solve import SolveSettings, default_settings_for, solve
from stationopt.units import (
    bar_to_pa,
    massflow_to_normvol,
    normvol_to_massflow,
    pa_to_bar,
)

from oracles import (
    CHI2_7_99,
    brute_force_vertices,
    brute_transition_check,
    cell_counts,
    chi_square_statistic,
    divergence_volume,
    hausdorff_convex_2d,
    match_vertex_sets,
    octant_cells,
    project_vertices_hull,
    random_bounded_hpolytope,
    rejection_sample,
    simplex_cell_probability,
)

CONSTANTS = GasConstants(500.0, 283.15, 46.0, 190.0, 0.785)


def report(criterion: int, text: str) -> None:
    print(f"[acceptance {criterion:02d}] PASS - {text}")


def loaded(doc, count=3000):
    spec, scen = load_instance(doc)
    return build_spec_ranges(spec, count=count), scen


def test_criterion_01_geometry_oracle_suite():
    started = time.perf_counter()
    for seed in range(20):
        A, b = random_bounded_hpolytope(seed, extra_planes=6)
        h = HPolytope(A, b)
        verts = brute_force_vertices(A, b)

        projected = project_out(h, 2)
        got = brute_force_vertices(projected.A, projected.b)
        expect = project_vertices_hull(verts, drop=2)
        assert hausdorff_convex_2d(got, expect) < 1e-7, f"projection mismatch, seed {seed}"

        total = triangulate(enumerate_vertices(h))[1].sum()
        oracle = divergence_volume(A, b, verts)
        assert abs(total - oracle) < 1e-9, f"volume mismatch, seed {seed}"
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    report(1, f"20 random polytopes: projection Hausdorff < 1e-7, volumes within 1e-9, {elapsed:.1f}s")


def test_criterion_02_sampling_statistics():
    N = 50_000
    box_A = np.vstack([np.eye(3), -np.eye(3)])
    box_b = np.array([-2.0, -3.0, -1.5, 1.0, 0.0, 0.5])  # box [-1,2]x[0,3]x[-0.5,1.5]
    simplex_A = np.vstack([-np.eye(3), np.ones((1, 3))])
    simplex_b = np.array([0.0, 0.0, 0.0, -1.0])

    for name, A, b, probs_fn in (
        ("box", box_A, box_b, None),
        ("simplex", simplex_A, simplex_b, simplex_cell_probability),
    ):
        verts = enumerate_vertices(HPolytope(A, b))
        pts = sample_uniform(verts, N, seed=2024)
        assert all(HPolytope(A, b).contains(p, tol=1e-9) for p in pts[:200])
        lo, hi = verts.min(axis=0), verts.max(axis=0)
        split = lo + (hi - lo) * 0.25 if probs_fn else 0.5 * (lo + hi)
        cells = octant_cells(lo, hi, split)
        counts = cell_counts(pts, cells)
        if probs_fn is None:
            probs = np.array([np.prod(ch - cl) for cl, ch in cells])
            probs = probs / probs.sum()
        else:
            probs = np.array([probs_fn(cl, ch) for cl, ch in cells])
        stat = chi_square_statistic(counts, probs)
        assert stat < CHI2_7_99, f"chi-square {stat:.2f} fails on {name}"

        oracle_pts = rejection_sample(A, b, N, seed=77)
        oracle_counts = cell_counts(oracle_pts, cells)
        for c, (n1, n2) in enumerate(zip(counts, oracle_counts)):
            p_hat = (n1 + n2) / (2.0 * N)
            sigma = math.sqrt(max(p_hat * (1 - p_hat) * 2.0 / N, 1e-12))
            assert abs(n1 - n2) / N <= 3.0 * sigma, f"cell {c} deviates on {name}"
    report(2, "50k samples pass chi-square (alpha=0.01) and 3-sigma vs rejection oracle")


def test_criterion_03_physics_formulas():
    # friction: algebraic identity and frozen reference value
    ratio = 10.0 ** ((1.0 - 1.138) / 2.0)
    assert nikuradse_friction(ratio, 1.0) == pytest.approx(1.0, rel=1e-9)
    assert nikuradse_friction(1.0, 0.001) == pytest.approx(0.019626683213792440, rel=1e-9)
    assert nikuradse_friction(1.0, 0.01) > nikuradse_friction(1.0, 0.001)

    # compressibility: exact value at zero, frozen reference at the
    # pseudo-critical point
    assert papay_z(0.0, CONSTANTS) == 1.0
    critical = GasConstants(500.0, 190.0, 46.0, 190.0, 0.785)
    assert papay_z(46.0, critical) == pytest.approx(0.6704515047272117, rel=1e-9)

    # head/ratio inverse pair and frozen reference
    assert adiabatic_head(1.5, 0.9, CONSTANTS) == pytest.approx(54131.10957948559, rel=1e-9)
    for r in (1.0, 1.2, 1.8, 2.5):
        head = adiabatic_head(r, 0.9, CONSTANTS)
        assert ratio_from_head(head, 0.9, CONSTANTS) == pytest.approx(r, abs=1e-10)

    # power: exact zeros and linearity in the flow
    assert compression_power(0.0, 40e5, 60e5, 0.9, 0.8, CONSTANTS) == 0.0
    assert compression_power(120.0, 40e5, 40e5, 0.9, 0.8, CONSTANTS) == 0.0
    p1 = compression_power(90.0, 40e5, 60e5, 0.9, 0.8, CONSTANTS)
    p2 = compression_power(180.0, 40e5, 60e5, 0.9, 0.8, CONSTANTS)
    assert p2 == pytest.approx(2.0 * p1, rel=1e-12)
    report(3, "friction, compressibility, head inverse pair and power all within 1e-9")


def test_criterion_04_composition_correctness():
    def box(pl, pr, q):
        A = np.vstack([np.eye(3), -np.eye(3)])
        b = np.array([-pl[1], -pr[1], -q[1], pl[0], pr[0], q[0]], dtype=float)
        return HPolytope(A, b)

    from scipy.spatial import ConvexHull

    def oracle_parallel(polys):
        n = len(polys)
        rows, offs = [], []
        for i, poly in enumerate(polys):
            for row, off in zip(poly.A, poly.b):
                full = np.zeros(2 + n)
                full[0], full[1], full[2 + i] = row[0], row[1], row[2]
                rows.append(full)
                offs.append(off)
        verts = brute_force_vertices(np.array(rows), np.array(offs))
        mapped = np.column_stack([verts[:, 0], verts[:, 1], verts[:, 2:].sum(axis=1)])
        hull = ConvexHull(mapped)
        out = []
        for p in mapped[hull.vertices]:
            if not any(np.linalg.norm(p - q) < 1e-7 for q in out):
                out.append(p)
        return np.array(out)

    def oracle_serial(polys):
        n = len(polys)
        rows, offs = [], []
        for i, poly in enumerate(polys):
            col_in = 0 if i == 0 else 3 + (i - 1)
            col_out = 1 if i == n - 1 else 3 + i
            for row, off in zip(poly.A, poly.b):
                full = np.zeros(3 + n - 1)
                full[col_in] += row[0]
                full[col_out] += row[1]
                full[2] += row[2]
                rows.append(full)
                offs.append(off)
        verts = brute_force_vertices(np.array(rows), np.array(offs))
        hull = ConvexHull(verts[:, :3])
        out = []
        for p in verts[:, :3][hull.vertices]:
            if not any(np.linalg.norm(p - q) < 1e-7 for q in out):
                out.append(p)
        return np.array(out)

    b1 = box((1, 2), (2, 3.5), (0, 5))
    b2 = box((1.5, 2.5), (2, 3), (1, 4))
    stage = stage_polytope([b1, b2])
    assert match_vertex_sets(
        enumerate_vertices(stage), oracle_parallel([b1, b2]), 1e-7
    )

    s1 = box((1, 2), (2, 3), (0, 5))
    s2 = box((2.5, 4), (5, 6), (1, 4))
    config = configuration_polytope([s1, s2])
    assert match_vertex_sets(
        enumerate_vertices(config), oracle_serial([s1, s2]), 1e-7
    )

    for seed in range(3):
        rng = np.random.default_rng(seed)
        polys = []
        for _ in range(3):
            lo = rng.uniform(0.5, 1.5, size=3)
            hi = lo + rng.uniform(0.5, 2.0, size=3)
            polys.append(box((lo[0], hi[0]), (lo[1], hi[1]), (lo[2], hi[2])))
        base = enumerate_vertices(stage_polytope(polys))
        for perm in itertools.permutations(range(3)):
            other = enumerate_vertices(stage_polytope([polys[i] for i in perm]))
            assert match_vertex_sets(base, other, 1e-7)
    report(4, "stage/configuration composition matches the product-then-project oracle")


def test_criterion_05_model_decomposition_audit():
    doc = mini_station()
    spec, scen = loaded(doc)
    weights = load_weights(doc)
    solver = StationSolver(spec, scen, weights)
    sequences = [
        ("o_cp", "o_cp", "o_cp", "o_cp", "o_cp"),
        ("o_cp", "o_by", "o_by", "o_by", "o_by"),
        ("o_cp", "o_cp", "o_cp", "o_by", "o_by"),
        ("o_cp", "o_by", "o_cp", "o_by", "o_cp"),
        ("o_cp", "o_cp", "o_by", "o_by", "o_cp"),
    ]
    for modes in sequences:
        chained = solver.sequence_objective(modes)
        assert math.isfinite(chained)
        directions = [None] + [
            solver.psf_value(modes[t], t, modes[t - 1])[1] for t in range(1, len(modes))
        ]
        inst = build_fixed_transient(
            spec, scen, weights, modes[1:], directions[1:], scen.initial_state
        )
        res = solve(inst, SolveSettings(1e-9, 1e-9, 600.0))
        assert res.ok
        assert res.objective == pytest.approx(chained, rel=1e-5), modes
    report(5, f"chained stationary objective equals the fixed full model on {len(sequences)} sequences")


def test_criterion_06_algorithm_vs_exact():
    started = time.perf_counter()
    gaps = []
    for seed in range(10):
        doc = seeded_instance(seed)
        spec, scen = loaded(doc)
        weights = load_weights(doc)
        solver = StationSolver(spec, scen, weights)
        plan = solver.solve_station(h=4)
        assert plan.diagnostics["max_replay_violation"] <= 1e-6

        _, gap, res = solver.lower_bound(plan, 600.0)
        assert res.status in ("optimal", "feasible", "timeLimit")
        gaps.append(gap)
    elapsed = time.perf_counter() - started
    assert all(g <= 0.25 for g in gaps), gaps
    assert sum(1 for g in gaps if g <= 0.10) >= 5, gaps
    assert elapsed < 600.0
    report(
        6,
        f"10 seeded instances: feasible plans, max gap {max(gaps):.4f}, "
        f"{sum(1 for g in gaps if g <= 0.10)}/10 within 10%, {elapsed:.1f}s",
    )


def test_criterion_07_transition_time_logic():
    class ThetaSpec:
        def __init__(self, theta):
            self.theta = theta

        def transition_time(self, a, b):
            return 0.0 if a == b else self.theta[(a, b)]

    hour = 3600.0
    # the published conflict pattern: phase C holds 2 h but needs 3 h
    theta = {("B", "C"): 1 * hour, ("C", "D"): 5 * hour}
    grid = np.array([0.0, 2 * hour, 4 * hour, 6 * hour])
    seq = ["B", "C", "D", "D"]
    full_theta = dict(theta)
    assert transitions_work(ThetaSpec(theta), seq, grid) is False
    assert brute_transition_check(seq, grid, full_theta) is False

    # last-mode exemption: the closing change may spill past the horizon
    theta2 = {("A", "B"): 3 * hour}
    grid2 = np.array([0.0, 2 * hour, 4 * hour])
    assert transitions_work(ThetaSpec(theta2), ["A", "A", "B"], grid2) is True

    checked = 0
    for seed in range(1000):
        rng = np.random.default_rng(seed)
        mode_names = ["m0", "m1", "m2", "m3"][: int(rng.integers(2, 5))]
        k = int(rng.integers(3, 9))
        grid = np.concatenate([[0.0], np.cumsum(rng.uniform(0.25, 2.5, size=k))]) * hour
        seq = [mode_names[i] for i in rng.integers(0, len(mode_names), size=k + 1)]
        theta = {
            (a, b): float(rng.choice([0.0, 0.5, 1.0, 2.0, 4.0, 8.0])) * hour
            for a, b in itertools.permutations(mode_names, 2)
        }
        got = transitions_work(ThetaSpec(theta), seq, grid)
        expect = brute_transition_check(seq, grid, theta)
        assert got == expect, f"seed {seed}: {seq}"
        checked += 1
    assert checked == 1000
    report(7, "transition checks agree with the interval simulator on 1000 random fixtures")


def test_criterion_08_rolling_horizon_scaling():
    # scaling fixture: the piped station with a mild demand swell.  The
    # windows are equally sized on every grid; a mild ramp keeps the
    # per-window MIPs out of near-tie branching so the measurement shows
    # the scaling of the method, not data-dependent solver hardness.
    doc = mini_station_pipes()
    flow = [500.0, 515.0, 530.0, 530.0, 515.0, 500.0]
    doc["scenario"]["flowDemand"]["g_in"] = flow
    doc["scenario"]["flowDemand"]["g_out"] = [-(f - 15.0) for f in flow]
    doc["scenario"]["pressureDemand"]["B2"] = [61.0, 61.125, 61.25, 61.25, 61.125, 61.0]
    spec0, scen0 = load_instance(doc)
    weights = load_weights(doc)
    h = 4
    runs = {}
    for steps in ("12", "24", "48", "96"):
        spec, scen = regrid_instance(spec0, scen0, template_grid(steps))
        spec = build_spec_ranges(spec, count=3000)
        solver = StationSolver(spec, scen, weights)
        seq = solver.improvement_heuristic(solver.initial_solution())
        solver.transient_smoothing(seq, h)  # warm-up pass
        runs[steps] = (solver, seq)
    # The host's speed drifts over seconds, and timing the grids one after
    # the other let a slow stretch land on one grid alone.  Two rounds, each
    # symmetric in time, give every grid the same four passes, so a drift
    # linear in time shifts every grid's per-window time alike, and no grid
    # sits lower only because it drew more passes to take the fastest of.
    # A window takes a few ms, so one host stall of a few ms moves a grid's
    # mean; the median of a pass's windows ignores it.  A slow stretch can
    # still cover a whole pass; each grid's fastest pass shows what the
    # method costs it.
    schedule = ("12", "24", "48", "96", "96", "48", "24", "12") * 2
    pass_medians = {steps: [] for steps in runs}
    for steps in schedule:
        solver, seq = runs[steps]
        plan = solver.transient_smoothing(seq, h)
        expected = int(steps) - h + 1
        assert plan.diagnostics["smoothing_solves"] == expected
        assert len(plan.diagnostics["window_wall_times"]) == expected
        pass_medians[steps].append(statistics.median(plan.diagnostics["window_wall_times"]))
    per_window = {steps: min(m) for steps, m in pass_medians.items()}
    ratio = max(per_window.values()) / min(per_window.values())
    assert ratio <= 1.5, pass_medians
    medians = ", ".join(f"{steps}: {median * 1e3:.2f} ms" for steps, median in per_window.items())
    report(
        8,
        "window counts k-h+1 on all four grids; per-window time spread "
        f"x{ratio:.2f} (within the 1.5 linearity factor; fastest pass medians {medians})",
    )


def test_criterion_09_settings_fidelity():
    assert default_settings_for("Ps") == SolveSettings(1e-4, 1e-2, 36000.0)
    assert default_settings_for("Psf") == SolveSettings(1e-4, 1e-2, 36000.0)
    assert default_settings_for("Pf") == SolveSettings(5e-3, 1e-2, 60.0)
    assert default_settings_for("P", 1234.0) == SolveSettings(1e-4, 1e-2, 1234.0)

    def build_lp() -> bytes:
        doc = mini_station()
        spec, scen = load_instance(doc)
        spec = build_spec_ranges(spec, count=3000, base_seed=11)
        inst = build_full(spec, scen, load_weights(doc))
        return inst.model.lp_text().encode()

    assert build_lp() == build_lp()
    report(9, "published solver settings reproduced; LP export byte-identical across runs")


def test_criterion_10_unit_round_trips():
    rng = np.random.default_rng(123)
    values = rng.uniform(-1e4, 1e4, size=1000)
    values = values[values != 0.0]
    for x in values:
        back = pa_to_bar(bar_to_pa(x))
        assert abs(back - x) <= 1e-12 * abs(x)
        back = normvol_to_massflow(massflow_to_normvol(x, 0.785), 0.785)
        assert abs(back - x) <= 1e-12 * abs(x)
    report(10, "bar/Pa and kg/s <-> 1000 m^3/h round trips identity within 1e-12 on 1000 values")
