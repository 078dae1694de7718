"""Command-line surface.

Subcommands: ``validate`` an instance, ``solve`` (runs the three-stage
procedure and writes the plan), and ``report`` (aggregates written plan
documents).  ``validate`` and ``solve`` build the configuration operating
ranges in memory on every run (``DEFAULT_SAMPLE_COUNT`` samples, seed 0);
no range file is read or written.

Exit codes: 0 success, 2 validation failure, 3 abort without solution,
4 backend error.  A bad option, an output path that cannot be written
included, exits 2 before planning.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from .algorithm import InitialSolutionAbort, SmoothingError, StationSolver
from .io import (
    SchemaError,
    load_instance,
    load_weights,
    read_report,
    regrid_instance,
    template_grid,
    write_plan,
)
from .network import validate
from .ranges import build_spec_ranges
from .solve import BackendError

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_ABORT = 3
EXIT_BACKEND = 4


class _ExportingBackend:
    """Backend wrapper that also dumps every solved model as LP text."""

    def __init__(self, directory):
        from .solve import InProcessBackend

        self.inner = InProcessBackend()
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.count = 0

    def solve_raw(self, model, settings):
        path = self.directory / f"{self.count:04d}_{model.name}.lp"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(model.lp_text())
        self.count += 1
        return self.inner.solve_raw(model, settings)


def _prepare(path: str, steps: str | None = None):
    """The instance that ``validate`` and ``solve`` work on.

    Loads the instance and its weights, checks it, re-grids it onto the
    ``steps`` template if one is given and builds the operating ranges.
    Returns (spec, scenario, weights), or None after printing to stderr
    why the instance is rejected (exit code 2).
    """
    try:
        spec, scen = load_instance(path)
        weights = load_weights(path)
        issues = validate(spec, scen)
        if issues:
            return _rejected("\n".join([*map(str, issues), f"{len(issues)} violation(s) found"]))
        if steps is not None:
            spec, scen = regrid_instance(spec, scen, template_grid(steps))
    except SchemaError as exc:
        return _rejected(f"schema error: {exc}")
    except ValueError as exc:  # a bound that cannot be re-gridded
        return _rejected(f"cannot prepare the instance: {exc}")
    try:
        return build_spec_ranges(spec), scen, weights
    except ValueError as exc:  # an empty, unbounded or degenerate range
        return _rejected(f"cannot prepare the instance: operating-range construction failed: {exc}")


def _rejected(message: str) -> None:
    print(message, file=sys.stderr)


def cmd_validate(args) -> int:
    prepared = _prepare(args.instance)
    if prepared is None:
        return EXIT_VALIDATION
    spec = prepared[0]
    print(f"instance {spec.name!r} is well formed "
          f"({len(spec.nodes)} nodes, {len(spec.arcs())} arcs, "
          f"{len(spec.operation_modes)} operation modes)")
    return EXIT_OK


def cmd_solve(args) -> int:
    started = time.perf_counter()
    prepared = _prepare(args.instance, args.steps)
    if prepared is None:
        return EXIT_VALIDATION
    spec, scen, weights = prepared

    backend = _ExportingBackend(args.export_lp) if args.export_lp else None
    solver = StationSolver(spec, scen, weights, backend=backend)
    try:
        plan = solver.solve_station(h=args.h)
    except InitialSolutionAbort as exc:
        print(f"aborted without a solution: {exc}", file=sys.stderr)
        return EXIT_ABORT
    except (SmoothingError, BackendError) as exc:
        print(f"backend failure: {exc}", file=sys.stderr)
        return EXIT_BACKEND

    extra = {}
    if args.lower_bound:
        try:
            bound, gap, res = solver.lower_bound(plan, args.lb_time_limit)
        except BackendError as exc:
            print(f"lower-bound solve failed: {exc}", file=sys.stderr)
            return EXIT_BACKEND
        extra = {"gap": gap, "lowerBound": bound, "lowerBoundStatus": res.status}

    prefix = args.out or str(Path(args.instance).with_suffix(""))
    if args.steps is not None:
        prefix = f"{prefix}.{args.steps}steps"
    json_path, csv_path = write_plan(prefix, spec, scen, plan, extra)
    wall = time.perf_counter() - started
    print(f"plan written to {json_path} and {csv_path}")
    from itertools import groupby

    phases = " -> ".join(mode for mode, _ in groupby(plan.sequence.modes))
    print(
        f"objective {plan.objective:.3f}, modes {phases}"
        + (f", gap {extra['gap']:.4f}" if "gap" in extra else "")
        + f", wall {wall:.2f}s"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    try:
        reports = [read_report(p) for p in args.results]
    except SchemaError as exc:
        _rejected(f"schema error: {exc}")
        return EXIT_VALIDATION
    header = f"{'instance':<14} {'status':<8} {'objective':>12} {'gap':>8} {'wall s':>8}  phase shares (init/improve/smooth)"
    print(header)
    print("-" * len(header))
    for r in sorted(reports, key=lambda r: r["instance"]):
        gap = f"{r['gap']:.4f}" if r.get("gap") is not None else "-"
        wall = f"{r['wallTime']:.2f}" if r.get("wallTime") is not None else "-"
        shares = r.get("phaseShares", {})
        share_text = "/".join(
            f"{shares.get(k, 0.0):.2f}" for k in ("initial", "improvement", "smoothing")
        )
        print(
            f"{r['instance']:<14} {r['status']:<8} {r['objective']:>12.2f} {gap:>8} {wall:>8}  {share_text}"
        )
    return EXIT_OK


def _horizon(text: str) -> int:
    if int(text) < 2:
        raise argparse.ArgumentTypeError(f"the rolling horizon must span at least 2 steps, got {text}")
    return int(text)


def _positive_seconds(text: str) -> float:
    if not float(text) > 0.0:  # NaN too
        raise argparse.ArgumentTypeError(f"the time limit must be positive, got {text}")
    return float(text)


def _output_prefix(text: str) -> str:
    if not Path(text).parent.is_dir():
        raise argparse.ArgumentTypeError(f"cannot write plans under {text}: {Path(text).parent} is not a directory")
    return text


def _export_directory(text: str) -> str:
    path = Path(text)
    existing = next(p for p in (path, *path.parents) if p.exists())
    if not existing.is_dir():
        raise argparse.ArgumentTypeError(f"cannot make the directory {text}: {existing} is not a directory")
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stationopt",
        description="Transient gas-flow control for pipeline network stations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check an instance document")
    p.add_argument("instance")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("solve", help="run the three-stage control algorithm")
    p.add_argument("instance")
    p.add_argument("--steps", choices=["12", "24", "48", "96"], default=None,
                   help="re-grid the scenario onto a named 12 h partition")
    p.add_argument("--h", type=_horizon, default=4, help="rolling-horizon window (future steps, at least 2)")
    p.add_argument("--lower-bound", action="store_true",
                   help="also solve the full model for a lower bound and report the gap")
    p.add_argument("--lb-time-limit", type=_positive_seconds, default=600.0)
    p.add_argument("--export-lp", type=_export_directory, help="directory for LP exports of every solved model")
    p.add_argument("--out", type=_output_prefix, help="output prefix (default: instance path without suffix)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("report", help="aggregate written plan documents")
    p.add_argument("results", nargs="+")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
