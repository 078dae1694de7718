"""Layered benchmark of stationopt's ``solve --lower-bound`` path.

    python3 perfbench/run.py --workload {rolling96,fleet,full24} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout.  Passes run one after another,
each in a fresh interpreter (``one_pass.py``), until the next pass would
end after ``--seconds``; at least three passes run (two untraced and two
traced with ``--trace 1``).  An untraced pass times a fixed reference
loop around each stage of each operation (``one_pass.calibrate``); each
stage's time is scaled to a machine on which that loop takes
REFERENCE_CAL_S.
A timing metric is each operation's median scaled time over the passes,
summed over the operations for ``setup_s`` and averaged over the operations
that returned a plan (``plan_s``) or an answer (``answer_s``) otherwise.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from traced passes, with untraced passes interleaved to measure
the tracing overhead.  The last stdout line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a readable summary.  Per-pass details, machine information
and (traced) spans go to ``perfbench/.work/results/``.

Exit status 2 when the checkout has no ``src/stationopt`` to measure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

from tracing import DETERMINISTIC, LAYERS, STATUSES, VARIANTS, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
# every run must end within 180 s; no pass starts that would end after this
HARD_LIMIT_S = 165.0
# seconds one_pass.calibrate takes on the reference machine; the timing
# metrics are in seconds of that machine
REFERENCE_CAL_S = 0.008

E2E_UNITS = {
    "setup_s": "s",
    "plan_s": "s",
    "answer_s": "s",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict:
    units = {
        "io.load_s": "s", "io.regrid_s": "s", "network.validate_s": "s",
        "ranges.build_s": "s", "ranges.builds": "count", "polytope.linprog_calls": "count",
    }
    for v in VARIANTS:
        units[f"model.build_s.{v}"] = "s"
        units[f"model.builds.{v}"] = "count"
    units.update({"model.rows": "count", "model.cols": "count", "model.nnz": "count"})
    units.update({"solve.handoff_s": "s", "solve.milp_wrapper_s": "s", "solve.check_s": "s", "solve.checks": "count"})
    for s in STATUSES:
        units[f"solve.status.{s}"] = "count"
    units["solve.fallback_used"] = "count"
    units.update({"highs.s": "s", "highs.calls": "count", "highs.nodes": "count", "highs.simplex_iters": "count"})
    units.update({
        "algorithm.initial_s": "s", "algorithm.improvement_s": "s", "algorithm.smoothing_s": "s",
        "algorithm.replay_s": "s",
    })
    for v in VARIANTS[:3]:
        units[f"algorithm.solves.{v}"] = "count"
    units.update({
        "algorithm.psf_lookups": "count", "algorithm.psf_cache_hit_ratio": "ratio",
        "algorithm.window_s_p50": "s", "algorithm.window_s_p90": "s", "algorithm.retried_windows": "count",
    })
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units.update({
        "untraced_s": "s", "pass_s": "s", "trace_overhead_s": "s",
        "plan_objective": "cost", "lb_s": "s", "lb_gap_max": "ratio", "fail_share": "ratio",
    })
    return units


class PassError(RuntimeError):
    pass


def run_pass(manifest: Path, pass_id: int, trace: bool, timeout: float) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, str(HERE / "one_pass.py"), str(manifest), str(pass_id), "1" if trace else "0"]
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"pass {pass_id} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise PassError(f"pass {pass_id} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout)
    result["wall_s"] = time.perf_counter() - started
    return result


def run_passes(manifest: Path, seconds: float, trace: bool) -> list:
    """Alternate traced and untraced passes (trace) or run untraced ones
    until the next pass, at the median pass time so far, would overrun."""
    kinds = [True, False] if trace else [False]
    minimum = 4 if trace else 3
    started = time.perf_counter()
    passes: list = []
    while True:
        elapsed = time.perf_counter() - started
        estimate = median([p["wall_s"] for p in passes]) if passes else 0.0
        if len(passes) >= minimum and elapsed + estimate > seconds:
            break
        if elapsed + estimate > HARD_LIMIT_S:
            if len(passes) < minimum:
                raise PassError(f"only {len(passes)} passes fit in {HARD_LIMIT_S:.0f} s")
            break
        passes.append(run_pass(manifest, len(passes), kinds[len(passes) % len(kinds)], HARD_LIMIT_S - elapsed + 10))
    return passes


def tail(values):
    """(percentile, value) of the highest percentile with ten samples above it, or None."""
    xs = sorted(values)
    if len(xs) < 11:
        return None
    k = len(xs) - 11
    return 100.0 * k / (len(xs) - 1), xs[k]


def op_times(op: dict) -> dict:
    return {"setup_s": op["setup_s"], "plan_s": op["plan_s"], "lb_s": op["lb_s"], "answer_s": op["plan_s"] + op["lb_s"]}


def scaled_times(op: dict) -> dict:
    """An untraced operation's times in seconds of the reference machine;
    a stage that did not run keeps its zero."""
    scaled = {name: op[name] * REFERENCE_CAL_S / op["cal_s"][name] if name in op["cal_s"] else op[name]
              for name in ("setup_s", "plan_s", "lb_s")}
    return op_times(scaled)


# the stage an operation must complete for a timing to count, in order
STAGE_RANK = {None: 0, "setup": 1, "plan": 2, "answer": 3}
METRIC_STAGE = {"setup_s": "setup", "plan_s": "plan", "lb_s": "answer", "answer_s": "answer"}


def completed(passes: list, name: str) -> list:
    """Indices of the operations that completed ``name``'s stage in every pass."""
    rank = STAGE_RANK[METRIC_STAGE[name]]
    count = len(passes[0]["operations"])
    return [i for i in range(count) if all(STAGE_RANK[p["operations"][i]["stage"]] >= rank for p in passes)]


def timing(passes: list, name: str, times=scaled_times) -> float:
    """Each completed operation's median ``name`` time over ``passes``:
    summed for the set-up, averaged per operation otherwise.

    An operation that raises stops early, so summing its partial time would
    make a workload with a failure read faster; ``failed`` counts it."""
    medians = [median([times(p["operations"][i])[name] for p in passes]) for i in completed(passes, name)]
    if not medians:
        raise PassError(f"no operation completed the {METRIC_STAGE[name]} stage")
    return sum(medians) if name == "setup_s" else sum(medians) / len(medians)


def pass_totals(p: dict) -> dict:
    times = [op_times(op) for op in p["operations"]]
    totals = {name: sum(t[name] for t in times) for name in times[0]}
    totals["peak_rss_mb"] = p["peak_rss_mb"]
    return totals


def same(a, b, rel: float = 1e-9) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "stationopt").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def summarize(workload: str, seed: int, trace: bool, passes: list, info: dict) -> tuple:
    """(result line dict, readable lines, detail dict)."""
    untraced = [p for p in passes if not p["trace"]]
    traced = [p for p in passes if p["trace"]]
    ops = [op for p in passes for op in p["operations"]]
    # every pass repeats the workload's operations, so each counts once:
    # attempted and failed do not depend on how many passes fit the time
    attempted = len(passes[0]["operations"])
    failed = sum(any(p["operations"][i]["failure"] for p in passes) for i in range(attempted))
    problems = []

    # the same operation must give the same plan, bound and outcome in every pass
    for i, first in enumerate(passes[0]["operations"]):
        for p in passes[1:]:
            op = p["operations"][i]
            if not (same(first["objective"], op["objective"]) and same(first["bound"], op["bound"])):
                problems.append(f"{first['label']}: pass {p['pass']} gave objective {op['objective']!r} "
                                f"and bound {op['bound']!r}, pass 0 gave {first['objective']!r}, {first['bound']!r}")
            if (first["failure"] is None) != (op["failure"] is None):
                problems.append(f"{first['label']}: pass {p['pass']} failure {op['failure']!r}, "
                                f"pass 0 failure {first['failure']!r}")

    e2e = {name: timing(untraced, name) for name in ("setup_s", "plan_s", "answer_s")}
    e2e["peak_rss_mb"] = median([p["peak_rss_mb"] for p in untraced])
    gaps = [op["gap"] for op in passes[0]["operations"] if op["gap"] is not None]
    objectives = [op["objective"] for op in passes[0]["operations"]]
    results = {
        "plan_objective": sum(o for o in objectives if o is not None),
        "lb_s": timing(untraced, "lb_s"),
        "lb_gap_max": max(gaps) if gaps else 0.0,
        "fail_share": failed / attempted,
    }

    layers: dict = {}
    if trace:
        per_pass = []
        for p in traced:
            m = layer_metrics(p["spans"], p["counts"], p["operations"])
            selfs = sum(v for k, v in m.items() if k.endswith(".self_s")) + m["untraced_s"]
            if abs(selfs - m["pass_s"]) > 1e-9 * max(1.0, m["pass_s"]):
                problems.append(f"pass {p['pass']}: layer self times sum to {selfs!r}, pass took {m['pass_s']!r}")
            per_pass.append(m)
        for key in DETERMINISTIC:
            values = {m[key] for m in per_pass}
            if len(values) != 1:
                problems.append(f"counter {key} differs between traced passes: {sorted(values)}")
        layers = {k: median([m[k] for m in per_pass]) for k in per_pass[0]}
        layers["trace_overhead_s"] = timing(traced, "plan_s", op_times) - timing(untraced, "plan_s", op_times)
        layers.update(results)
        metrics = layers
        units = per_layer_units()
        if set(metrics) != set(units):
            problems.append(f"per-layer metric set mismatch: {sorted(set(metrics) ^ set(units))}")
    else:
        metrics = e2e
        units = E2E_UNITS

    line = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": units.get(k, "?")} for k in sorted(metrics)},
    }

    n = len(untraced)
    cals = [c for p in untraced for op in p["operations"] for c in op["cal_s"].values()]
    lines = [
        f"perfbench {workload} seed={seed} trace={int(trace)}: {len(passes)} passes "
        f"({len(traced)} traced, {n} untraced), {sum(p['wall_s'] for p in passes):.1f} s",
        "machine: " + " ".join(f"{k}={v}" for k, v in info.items()),
        f"timings: each operation's median over n={n} untraced passes, summed over the operations (setup_s) or "
        f"per operation that completed the stage (the others), in seconds of a machine where the calibration "
        f"loop takes {REFERENCE_CAL_S} s (here {min(cals):.4f}-{max(cals):.4f} s), then as measured; "
        "a tail percentile needs at least 11 samples",
    ]
    for name in ("setup_s", "plan_s", "lb_s", "answer_s"):
        per_op = [scaled_times(p["operations"][i])[name] for p in untraced for i in completed(untraced, name)]
        t = tail(per_op)
        tail_text = f"per operation (n={len(per_op)}) p{t[0]:.0f} {t[1]:.4f} s" if t else "no tail (n<11 per operation)"
        value = e2e[name] if name in e2e else results[name]
        lines.append(f"  {name:<14} {value:>12.4f} s      measured {timing(untraced, name, op_times):.4f} s, {tail_text}")
    lines.append(f"  {'plan_objective':<14} {results['plan_objective']:>12.4f} cost   (sum over operations)")
    lines.append(f"  {'lb_gap_max':<14} {results['lb_gap_max']:>12.6f} ratio  (over {len(gaps)} checked bounds)")
    lines.append(f"  {'fail_share':<14} {results['fail_share']:>12.6f} ratio  ({failed} failed / {attempted} attempted)")
    lines.append(f"  {'peak_rss_mb':<14} {e2e['peak_rss_mb']:>12.1f} MB")
    if trace:
        lines.append(f"  trace overhead {layers['trace_overhead_s']:+.4f} s on plan_s (traced minus untraced)")
    for reason in sorted({f"{op['label']}: {op['failure']}" for op in ops if op["failure"]}):
        lines.append(f"  failed: {reason}")
    lines.extend(f"  PROBLEM: {p}" for p in problems)

    detail = {
        "workload": workload, "seed": seed, "trace": trace, "machine": info,
        "metrics": metrics, "results": results, "problems": problems,
        "passes": [
            {k: v for k, v in p.items() if k != "spans"} | {"totals": pass_totals(p)} for p in passes
        ],
    }
    return line, lines, detail


def main(argv=None) -> int:
    from workloads import WORKLOADS, write_documents

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "stationopt" / "__init__.py").is_file():
        print(f"no stationopt sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    trace = bool(args.trace)
    docs = WORK / "docs" / args.workload
    shutil.rmtree(docs, ignore_errors=True)
    manifest = write_documents(workload, args.seed, docs)

    try:
        passes = run_passes(manifest, args.seconds, trace)
        line, lines, detail = summarize(args.workload, args.seed, trace, passes, machine_info(args.seed))
    except PassError as exc:
        print(f"benchmark pass failed: {exc}", file=sys.stderr)
        return 1

    out = WORK / "results"
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    (out / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if trace:
        with open(out / f"{stem}.spans.jsonl", "w", encoding="utf-8") as fh:
            for p in passes:
                for span in p.get("spans", []):
                    fh.write(json.dumps(span) + "\n")
    lines.append(f"details: {(out / stem).relative_to(ROOT)}.json")
    print("\n".join(lines))
    print(json.dumps(line), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
