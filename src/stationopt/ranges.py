"""Feasible operating ranges of compressor-station configurations.

The pipeline mirrors the data preparation used by the optimization model:
lift each unit's 2-D operating range into (p_in, p_out, q), cut it with a
fitted linear power bound, compose parallel units into stages and stages
into serial configurations, and emit the final facet sets F_c.

A station's facet sets depend only on plant data (its units, the stage
sets of its configurations, the gas constants and the lifting caps from
the end-node pressure bounds) and on the sample count and seed, so
:func:`build_station_ranges` builds each distinct station once per
process; re-planning the same plant under another demand scenario costs
no sampling, fit or LP.

All quantities are SI (Pa, kg/s, W).
"""

from __future__ import annotations

import hashlib
from dataclasses import replace
from functools import lru_cache

import numpy as np

from .gas import GasConstants, compression_power
from .network import CompressorStationArc, CompressorUnit, StationSpec
from .polytope import (
    SAMPLE_CHUNK,
    EmptyRegionError,
    HPolytope,
    enumerate_vertices,
    least_squares_hyperplane,
    project_out,
    remove_redundant,
    sample_uniform,
)

DEFAULT_SAMPLE_COUNT = 50_000
# distinct station ranges kept per process; a network has a handful of stations
STATION_RANGE_MEMO_SIZE = 256


def seed_for_unit(unit_id: str, base_seed: int = 0) -> int:
    """Stable per-unit sampling seed (independent of hash randomization)."""
    digest = hashlib.sha256(f"{base_seed}:{unit_id}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def lift_unit_range(
    unit: CompressorUnit, pl_lb: float, pr_ub: float, constants: GasConstants
) -> HPolytope:
    """Lift the 2-D operating range of a unit into (p_in, p_out, q).

    Each facet a0 + a1 Q + a2 (pr/pl) <= 0 becomes
    a0 pl + a2 pr + (a1 R_s T z_l) q <= 0 after multiplying through by the
    (positive) inlet pressure and substituting Q = q R_s T z_l / pl.  The
    absolute pressure-increase cap and the two end-pressure caps bound the
    lifted cone.  The lift is not enumerated here: an unbounded or empty
    range raises :class:`UnboundedRegionError` / :class:`EmptyRegionError`
    from ``enumerate_vertices`` in :func:`linearize_power_bound`, hence in
    :func:`unit_polytope`.
    """
    if not unit.operating_range_2d:
        raise ValueError(f"unit {unit.id!r} has no 2-D operating range facets")
    if pl_lb <= 0.0 or pr_ub <= 0.0 or unit.max_delta_p <= 0.0:
        raise ValueError("lifting caps must be positive")
    rstz = constants.specific_gas_constant * constants.temperature * unit.inlet_z_factor
    facets = np.array(unit.operating_range_2d, dtype=float)
    caps = [(-1.0, 1.0, 0.0), (-1.0, 0.0, 0.0), (0.0, 1.0, 0.0)]  # pr - pl, pl, pr
    A = np.vstack([facets[:, [0, 2, 1]] * (1.0, 1.0, rstz), caps])
    b = np.concatenate([np.zeros(len(facets)), (-unit.max_delta_p, pl_lb, -pr_ub)])
    return HPolytope(A, b)


def linearize_power_bound(
    lifted: HPolytope,
    unit: CompressorUnit,
    constants: GasConstants,
    count: int = DEFAULT_SAMPLE_COUNT,
    seed: int | None = None,
) -> tuple[np.ndarray, float]:
    """Fitted half space a0 + a1 pl + a2 pr + a3 q - P_max <= 0, returned as
    its coefficients (a1, a2, a3) and offset a0 - P_max.

    Samples the lifted range uniformly, evaluates the drive power at every
    point and fits the coefficients by ordinary least squares.  The fit is
    an approximation of the true bound, not a relaxation; no conservative
    shift is applied.

    The samples are drawn straight into columns 1..3 of the one (count, 4)
    design matrix the fit solves, and the powers are evaluated
    ``SAMPLE_CHUNK`` rows at a time into one vector, so besides those two
    arrays and the sampler's picks only chunk-sized temporaries and the
    copy ``lstsq`` makes are held.
    """
    if seed is None:
        seed = seed_for_unit(unit.id)
    design = np.empty((count, 4))
    design[:, 0] = 1.0
    points = sample_uniform(enumerate_vertices(lifted), count, seed, out=design[:, 1:])
    powers = np.empty(count)
    for start in range(0, count, SAMPLE_CHUNK):
        rows = slice(start, start + SAMPLE_CHUNK)
        pl, pr, q = points[rows].T
        powers[rows] = compression_power(
            q, pl, np.maximum(pr, pl), unit.inlet_z_factor, unit.adiabatic_efficiency, constants
        )
    fit = least_squares_hyperplane(design, powers)
    return fit[1:], fit[0] - unit.max_power


def unit_polytope(
    unit: CompressorUnit,
    pl_lb: float,
    pr_ub: float,
    constants: GasConstants,
    count: int = DEFAULT_SAMPLE_COUNT,
    seed: int | None = None,
) -> HPolytope:
    """Lifted range with the power facet appended (composition input)."""
    lifted = lift_unit_range(unit, pl_lb, pr_ub, constants)
    coefficients, offset = linearize_power_bound(lifted, unit, constants, count, seed)
    return HPolytope(np.vstack([lifted.A, coefficients]), np.append(lifted.b, offset))


def stage_polytope(unit_polytopes: list[HPolytope]) -> HPolytope:
    """Parallel composition: shared pressures, flows add up.

    Builds the product over (pl, pr, q, q_1 .. q_{n-1}) with the last unit
    flow substituted by q - sum(q_i), then projects the per-unit flows out.
    Raises :class:`EmptyRegionError` when the shared-pressure region is
    empty (for example disjoint inlet-pressure ranges).
    """
    if not unit_polytopes:
        raise ValueError("a stage needs at least one unit polytope")
    if len(unit_polytopes) == 1:
        return unit_polytopes[0]
    n = len(unit_polytopes)
    blocks = [np.zeros((p.n_rows, 3 + (n - 1))) for p in unit_polytopes]
    for i, (block, poly) in enumerate(zip(blocks, unit_polytopes)):
        block[:, :2] = poly.A[:, :2]
        if i < n - 1:
            block[:, 3 + i] = poly.A[:, 2]
        else:  # the last unit carries q - (q_1 + .. + q_{n-1})
            block[:, 2] = poly.A[:, 2]
            block[:, 3:] = -poly.A[:, 2:]
    return _project_extra(blocks, unit_polytopes)


def configuration_polytope(stage_polytopes: list[HPolytope]) -> HPolytope:
    """Serial composition: equal flow, chained pressures.

    The outgoing pressure of each stage is the incoming pressure of the
    next; the intermediate pressures are projected out, which reduces the
    result to its facets.  A single stage is reduced here.  Stage order
    matters.
    """
    if not stage_polytopes:
        raise ValueError("a configuration needs at least one stage")
    n = len(stage_polytopes)
    if n == 1:
        return remove_redundant(stage_polytopes[0]).normalized()
    blocks = [np.zeros((p.n_rows, 3 + (n - 1))) for p in stage_polytopes]
    for i, (block, poly) in enumerate(zip(blocks, stage_polytopes)):
        col_in = 0 if i == 0 else 3 + (i - 1)
        col_out = 1 if i == n - 1 else 3 + i
        block[:, [col_in, col_out, 2]] += poly.A
    return _project_extra(blocks, stage_polytopes).normalized()


def _project_extra(blocks: list[np.ndarray], members: list[HPolytope]) -> HPolytope:
    """Stack the members' rows, placed in ``blocks`` over (pl, pr, q, extra..),
    and project the extra coordinates out."""
    h = HPolytope(np.vstack(blocks), np.concatenate([p.b for p in members]))
    for _ in range(len(members) - 1):
        h = project_out(h, 3)
    return h


def _lift_caps(spec: StationSpec, station: CompressorStationArc) -> tuple[float, float]:
    """Lifting caps (pl_lb, pr_ub): the tightest lower inlet bound and the
    loosest upper outlet bound over time of the station's end nodes."""
    pl_lb = float(spec.nodes[station.from_node].pressure_lb.min())
    pr_ub = float(spec.nodes[station.to_node].pressure_ub.max())
    return pl_lb, pr_ub


@lru_cache(maxsize=STATION_RANGE_MEMO_SIZE)
def _station_facets(
    station_id: str,
    units: tuple[CompressorUnit, ...],
    stages_by_config: tuple[tuple[str, tuple[frozenset[str], ...]], ...],
    caps: tuple[float, float],
    constants: GasConstants,
    count: int,
    base_seed: int,
) -> tuple[tuple[str, tuple], ...]:
    """(configuration id, F_c facets) pairs of one station.

    Memoised for the life of the process: the station id, its frozen
    units, each configuration's id and ordered stage sets, the lifting
    caps, the constants, ``count`` and ``base_seed`` decide the facets, so
    equal arguments return the same tuples without sampling, fitting or an
    LP.  Exceptions are not cached: a station that cannot be built raises
    again on every call.
    """
    unit_polys = {}
    for u in units:
        try:
            unit_polys[u.id] = unit_polytope(u, *caps, constants, count, seed_for_unit(u.id, base_seed))
        except ValueError as exc:
            raise type(exc)(f"unit {u.id!r} on station {station_id!r}: {exc}") from exc
    out = []
    for config_id, config_stages in stages_by_config:
        where = f"configuration {config_id!r} on station {station_id!r}"
        try:
            stages = [stage_polytope([unit_polys[u] for u in sorted(stage)]) for stage in config_stages]
            if len(config_stages) == 1 and len(config_stages[0]) > 1:
                # project_out has reduced the parallel stage already; only the
                # two normalisations of configuration_polytope's reduction remain
                poly = stages[0].normalized().normalized()
            else:
                poly = configuration_polytope(stages)
        except EmptyRegionError as exc:
            raise EmptyRegionError(f"{where} has an empty operating range") from exc
        except ValueError as exc:
            raise type(exc)(f"{where}: {exc}") from exc
        out.append((config_id, tuple(map(tuple, np.column_stack([poly.A, poly.b]).tolist()))))
    return tuple(out)


def build_station_ranges(
    spec: StationSpec,
    station: CompressorStationArc,
    count: int = DEFAULT_SAMPLE_COUNT,
    base_seed: int = 0,
) -> dict:
    """F_c facet lists for every configuration of one compressor station.

    The lifting caps come from the station's end-node pressure bounds
    (:func:`_lift_caps`).  A unit range that cannot be built raises its
    error with the unit and station named, and a configuration range that
    cannot be composed or reduced raises its error with the configuration
    and station named (an empty one as :class:`EmptyRegionError` "has an
    empty operating range").  The CLI reports both as validation failures.
    Equal stations are built once per process (:func:`_station_facets`).
    """
    facets = _station_facets(
        station.id,
        station.units,
        tuple((c.id, c.stages) for c in station.configurations),
        _lift_caps(spec, station),
        spec.constants,
        count,
        base_seed,
    )
    return dict(facets)


def build_spec_ranges(
    spec: StationSpec, count: int = DEFAULT_SAMPLE_COUNT, base_seed: int = 0
) -> StationSpec:
    """A copy of the spec with F_c facets attached to every configuration."""
    new_stations = {}
    for sid, station in spec.stations.items():
        facets = build_station_ranges(spec, station, count, base_seed)
        new_configs = tuple(c.with_facets(facets[c.id]) for c in station.configurations)
        new_stations[sid] = replace(station, configurations=new_configs)
    return replace(spec, stations=new_stations)
