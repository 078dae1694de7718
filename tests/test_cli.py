import functools
import json
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import pytest

from stationopt.algorithm import StationSolver
from stationopt.cli import main
from stationopt.fixtures import medium_station, mini_station, mini_station_pipes, seeded_instance
from stationopt.io import load_instance, load_weights, regrid_instance, template_grid
from stationopt.model import build_fixed_transient
from stationopt.ranges import build_spec_ranges


@pytest.fixture()
def instance_path(tmp_path):
    path = tmp_path / "mini.json"
    doc = mini_station()
    path.write_text(json.dumps(doc))
    return path


def write_doc(tmp_path, doc, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def disjoint_range_doc():
    doc = mini_station()
    # disjoint 2-D range: Q >= 9 and Q <= 2 at once
    doc["units"][0]["operatingRange2D"] = [
        [1.0, 0.0, -1.0],
        [-1.9, 0.05, 1.0],
        [9.0, -1.0, 0.0],
        [-2.0, 1.0, 0.0],
    ]
    return doc


def bad_initial_pressure_doc(case):
    doc = mini_station_pipes()
    pressures = doc["scenario"]["initialState"]["pressures"]
    if case == "missing":
        del pressures["B1"]
    else:
        pressures["B1"] = 0.0
    return doc


def inverted_inflow_doc():
    doc = mini_station()
    doc["scenario"]["inflowLB"]["B1"] = [-2000.0, -2000.0, 3000.0, -2000.0, -2000.0]  # UB is 2000
    return doc


class TestValidateCommand:
    def test_good_instance(self, instance_path, capsys):
        assert main(["validate", str(instance_path)]) == 0
        assert "well formed" in capsys.readouterr().out

    def test_bad_instance_exits_2(self, tmp_path, capsys):
        doc = mini_station()
        doc["nodes"][0]["pressureLB"] = 90.0
        path = write_doc(tmp_path, doc)
        assert main(["validate", str(path)]) == 2
        assert "violation" in capsys.readouterr().err

    def test_schema_error_exits_2(self, tmp_path, capsys):
        doc = mini_station()
        del doc["scenario"]["timeGrid"]
        path = write_doc(tmp_path, doc)
        assert main(["validate", str(path)]) == 2
        assert "schema error" in capsys.readouterr().err

    def test_malformed_unavailability_exits_2(self, tmp_path, capsys):
        doc = mini_station(unavailability={"U1": [[3600.0]]})
        path = write_doc(tmp_path, doc)
        assert main(["validate", str(path)]) == 2
        assert "schema error: $.unavailability.U1[0]" in capsys.readouterr().err

    def test_empty_operating_range_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, disjoint_range_doc())
        assert main(["validate", str(path)]) == 2
        assert "operating-range construction failed" in capsys.readouterr().err

    def test_unit_range_failure_names_the_unit(self, tmp_path, capsys):
        doc = mini_station()
        doc["units"][0]["operatingRange2D"][0][0] = 0.0  # the ratio >= 1 facet becomes ratio >= 0
        assert main(["validate", str(write_doc(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert "operating-range construction failed: unit 'U1' on station 'CS1': polytope is unbounded" in err

    def test_degenerate_configuration_names_it(self, tmp_path, capsys):
        # U1 ratio <= 1.4 and U2 ratio >= 1.4: the parallel c12 is a flat slice
        doc = medium_station()
        doc["units"][0]["operatingRange2D"].append([-1.4, 0.0, 1.0])
        doc["units"][1]["operatingRange2D"].append([1.4, 0.0, -1.0])
        assert main(["validate", str(write_doc(tmp_path, doc))]) == 2
        err = capsys.readouterr().err
        assert (
            "operating-range construction failed: configuration 'c12' on station 'CS1': "
            "polytope is not full-dimensional"
        ) in err

    @pytest.mark.parametrize("command", ["validate", "solve"])
    def test_inverted_inflow_bounds_exit_2(self, tmp_path, capsys, command):
        path = write_doc(tmp_path, inverted_inflow_doc())
        assert main([command, str(path)]) == 2
        assert "inflow lower bound exceeds upper bound for 'B1'" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "zero"])
    def test_bad_initial_pressure_exits_2(self, tmp_path, capsys, case):
        path = write_doc(tmp_path, bad_initial_pressure_doc(case))
        assert main(["validate", str(path)]) == 2
        assert "schema error: $.scenario.initialState.pressures.B1" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "weights,path",
        [({"bogus": 1.0}, "$.weights.bogus"), ({"slackFlow": -1.0}, "$.weights.slackFlow")],
        ids=["unknown-key", "negative"],
    )
    def test_malformed_weights_exit_2(self, tmp_path, capsys, weights, path):
        doc = dict(mini_station(), weights=weights)
        assert main(["validate", str(write_doc(tmp_path, doc))]) == 2
        assert f"schema error: {path}" in capsys.readouterr().err

    def test_wrong_types_exit_2_without_traceback(self, tmp_path):
        # each document has one value replaced by one of another JSON type
        docs = [mini_station(), mini_station(), mini_station_pipes()]
        docs[0]["transitionTimes"]["o_by"] = 1.5
        docs[1]["unavailability"] = []
        docs[2]["scenario"]["pressureDemand"]["B2"] = 1.5
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for i, doc in enumerate(docs):
            path = write_doc(tmp_path, doc, name=f"inst{i}.json")
            proc = subprocess.run(
                [sys.executable, "-m", "stationopt.cli", "validate", str(path)],
                capture_output=True, text=True, env=env, timeout=300,
            )
            assert proc.returncode == 2 and "Traceback" not in proc.stderr, proc.stderr
            assert proc.stderr.startswith("schema error: $."), proc.stderr


class TestSolveCommand:
    def test_solve_writes_plan(self, instance_path, capsys):
        assert main(["solve", str(instance_path), "--h", "4"]) == 0
        plan_path = instance_path.parent / "mini.plan.json"
        csv_path = instance_path.parent / "mini.plan.csv"
        assert plan_path.exists() and csv_path.exists()
        doc = json.loads(plan_path.read_text())
        assert doc["status"] == "ok"
        assert len(doc["control"]) == 5
        assert doc["control"][1]["operationMode"] in ("o_by", "o_cp")
        header = csv_path.read_text().splitlines()[0]
        assert "p_B1_bar" in header and "q_CS1" in header

    def test_solve_with_steps_and_lower_bound(self, tmp_path, capsys):
        path = write_doc(tmp_path, mini_station_pipes())
        code = main(
            ["solve", str(path), "--steps", "12", "--lower-bound", "--lb-time-limit", "120"]
        )
        assert code == 0
        plan = json.loads((tmp_path / "inst.12steps.plan.json").read_text())
        assert plan["gap"] <= 0.25
        assert len(plan["control"]) == 13

    def test_all_modes_unavailable_aborts_3(self, tmp_path, capsys):
        doc = mini_station(unavailability={"U1": [[10900.0, 21000.0]]})
        doc["operationModes"] = [doc["operationModes"][1]]
        doc["validPairs"] = [["o_cp", "f_fwd"]]
        path = write_doc(tmp_path, doc)
        assert main(["solve", str(path)]) == 3
        assert "abort" in capsys.readouterr().err

    @staticmethod
    def exported_models(instance_path, *flags):
        """Run ``solve --export-lp``; the LP files and the plan's solve counts."""
        lp_dir = instance_path.parent / "lps"
        assert main(["solve", str(instance_path), "--export-lp", str(lp_dir), *flags]) == 0
        files = sorted(lp_dir.glob("*.lp"))
        for f in files:
            name = f.stem.split("_", 1)[1]
            assert f.read_text().startswith(f"\\ model {name}\n"), f.name
        plan = json.loads((instance_path.parent / "mini.plan.json").read_text())
        return files, sum(plan["diagnostics"]["solve_counts"].values())

    def test_export_lp_writes_models(self, instance_path):
        files, solves = self.exported_models(instance_path)
        assert any("Psf" in f.name for f in files)
        assert len(files) == solves

    def test_export_lp_writes_each_distinct_model_once(self, tmp_path):
        # seeded_instance(0) repeats its demand, so three of its four Psf
        # and three of its four Ps models equal one already solved
        path = write_doc(tmp_path, seeded_instance(0), name="mini.json")
        files, solves = self.exported_models(path)
        plan = json.loads((tmp_path / "mini.plan.json").read_text())
        assert plan["diagnostics"]["memo_hits"] == {"Psf": 3, "Ps": 3}
        assert len(files) == solves == 3

    def test_export_lp_window_files_equal_fresh_builds(self, tmp_path):
        # 48 steps give 45 windows of two patterns: two are built, the rest
        # patched from them, and each file is the text of a fresh build.
        # A window whose model repeats one solved before it in the pass is
        # not solved again, so each distinct window is written once
        path = write_doc(tmp_path, mini_station_pipes())
        lp_dir = tmp_path / "lps"
        assert main(["solve", str(path), "--steps", "48", "--export-lp", str(lp_dir)]) == 0
        windows = sorted(lp_dir.glob("*_Pf_*.lp"))
        spec, scen = load_instance(str(path))
        weights = load_weights(str(path))
        spec, scen = regrid_instance(spec, scen, template_grid("48"))
        spec = build_spec_ranges(spec)
        plan = StationSolver(spec, scen, weights).solve_station(h=4)
        seq, retried = plan.sequence, plan.diagnostics["retried_windows"]
        expected, seen = [], set()
        for s in range(1, scen.n_future - 2):
            for w in [weights] + [weights.scaled(10.0)] * (s in retried):
                inst = build_fixed_transient(
                    spec, scen, w, seq.modes[s : s + 4], seq.directions[s : s + 4], plan.states[s - 1]
                )
                a = inst.model.arrays()
                model = (repr(inst.model.objective_terms),) + tuple(getattr(a, f.name).tobytes() for f in fields(a))
                if model not in seen:
                    seen.add(model)
                    expected.append(inst.model.lp_text())
        assert len(windows) == len(expected) == plan.diagnostics["solve_counts"]["Pf"] == 41
        for f, text in zip(windows, expected):
            assert f.read_text() == text, f.name

    def test_export_lp_adds_the_lower_bound_model(self, instance_path):
        files, solves = self.exported_models(instance_path, "--lower-bound")
        assert len(files) == solves + 1
        assert files[-1].stem.split("_", 2)[1] == "P"

    def test_infeasible_configuration_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, disjoint_range_doc())
        assert main(["solve", str(path)]) == 2
        assert "cannot prepare" in capsys.readouterr().err

    @pytest.mark.parametrize("case", ["missing", "zero"])
    def test_bad_initial_pressure_exits_2(self, tmp_path, capsys, case):
        path = write_doc(tmp_path, bad_initial_pressure_doc(case))
        assert main(["solve", str(path)]) == 2
        assert "$.scenario.initialState.pressures.B1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags,cause",
        [
            (["--h", "1"], "at least 2 steps, got 1"),
            (["--h", "0"], "at least 2 steps, got 0"),
            (["--h", "two"], "invalid _horizon value"),
            (["--lower-bound", "--lb-time-limit", "0"], "must be positive, got 0"),
            (["--lower-bound", "--lb-time-limit", "-5"], "must be positive, got -5"),
            (["--lower-bound", "--lb-time-limit", "nan"], "must be positive, got nan"),
            # {dir} is the instance's directory
            (["--out", "{dir}/missing/x"], "under {dir}/missing/x: {dir}/missing is not a directory"),
            (["--export-lp", "{dir}/mini.json"], "{dir}/mini.json is not a directory"),
            (["--export-lp", "{dir}/mini.json/lp"], "{dir}/mini.json is not a directory"),
        ],
    )
    def test_bad_option_exits_2_before_planning(self, instance_path, capsys, flags, cause):
        flags = [flag.format(dir=instance_path.parent) for flag in flags]
        cause = cause.format(dir=instance_path.parent)
        with pytest.raises(SystemExit) as exc:
            main(["solve", str(instance_path), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert cause in err and "Traceback" not in err, err
        assert sorted(p.name for p in instance_path.parent.iterdir()) == ["mini.json"]

    def test_writes_only_the_plan_files(self, tmp_path, capsys):
        path = write_doc(tmp_path, mini_station())
        assert main(["solve", str(path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "inst.json", "inst.plan.csv", "inst.plan.json"
        ]

    def test_stdout_holds_only_the_command_output(self, tmp_path):
        # a subprocess, so the check sees file descriptor 1 of a real
        # `stationopt solve` run through a pipe, exit-time flushes included
        path = write_doc(tmp_path, mini_station_pipes())
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "stationopt.cli", "solve", str(path)],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert len(lines) == 2, proc.stdout
        assert lines[0] == f"plan written to {tmp_path / 'inst.plan.json'} and {tmp_path / 'inst.plan.csv'}"
        assert lines[1].startswith("objective ")


class TestReportCommand:
    def test_aggregates_plans(self, instance_path, capsys):
        main(["solve", str(instance_path)])
        capsys.readouterr()
        plan_path = instance_path.parent / "mini.plan.json"
        assert main(["report", str(plan_path)]) == 0
        out = capsys.readouterr().out
        assert "mini" in out and "objective" in out


class TestUnreadableInput:
    @pytest.mark.parametrize("command", ["validate", "solve", "report"])
    @pytest.mark.parametrize(
        "content,cause",
        [(None, "No such file or directory"), ("{bad", "Expecting property name")],
        ids=["missing-file", "invalid-json"],
    )
    def test_exits_2_with_one_line(self, tmp_path, capsys, command, content, cause):
        path = tmp_path / "inst.json"
        if content is not None:
            path.write_text(content)
        assert main([command, str(path)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and str(path) in err[0] and cause in err[0], err

    def test_report_of_a_non_plan_document_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"instance": "x"}, name="x.plan.json")
        assert main(["report", str(path)]) == 2
        assert f"schema error: {path}: $.objective: required field is missing" in capsys.readouterr().err


def test_bundled_instance_is_loadable():
    from stationopt.io import load_instance
    from stationopt.network import validate

    bundled = Path(__file__).resolve().parents[1] / "src" / "stationopt" / "data" / "mini_station.json"
    spec, scen = load_instance(bundled)
    assert validate(spec, scen) == []
    # the README's ready-to-run instance is the fixture, written out
    assert json.loads(bundled.read_text(encoding="utf-8")) == mini_station()


def test_backend_error_exits_4(tmp_path, capsys, monkeypatch):
    import numpy as np

    from stationopt import solve as solve_mod

    doc = mini_station()
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))

    def broken(self, model, settings):
        return "error", None, None, "backend exploded"

    monkeypatch.setattr(solve_mod.InProcessBackend, "solve_raw", broken)
    assert main(["solve", str(path)]) == 4
    assert "backend failure" in capsys.readouterr().err


def test_lower_bound_reuses_the_replayed_full_model(tmp_path, monkeypatch):
    from stationopt.model import ModelInstance

    kinds = []
    init = ModelInstance.__init__

    def counting(self, kind, *args):
        kinds.append(kind)
        init(self, kind, *args)

    monkeypatch.setattr(ModelInstance, "__init__", counting)
    path = write_doc(tmp_path, mini_station())
    assert main(["solve", str(path), "--lower-bound", "--lb-time-limit", "60"]) == 0
    # the replay inside solve_station also warm-starts the bound solve
    assert kinds.count("P") == 1


def test_lower_bound_fields_are_the_library_call(tmp_path, monkeypatch):
    from stationopt import cli

    monkeypatch.setattr(cli, "build_spec_ranges", functools.partial(build_spec_ranges, count=2000))
    path = write_doc(tmp_path, mini_station())
    assert main(["solve", str(path), "--lower-bound", "--lb-time-limit", "60"]) == 0
    written = json.loads((tmp_path / "inst.plan.json").read_text(encoding="utf-8"))

    spec, scen = load_instance(mini_station())
    solver = StationSolver(build_spec_ranges(spec, count=2000), scen, load_weights(mini_station()))
    bound, gap, res = solver.lower_bound(solver.solve_station(h=4), 60.0)
    assert (written["lowerBound"], written["gap"], written["lowerBoundStatus"]) == (bound, gap, res.status)


def test_bound_above_plan_exits_4(tmp_path, capsys, monkeypatch):
    from stationopt import solve as solve_mod

    path = tmp_path / "inst.json"
    path.write_text(json.dumps(mini_station()))
    honest = solve_mod.InProcessBackend.solve_raw

    def inflated(self, model, settings):
        status, x, bound, message = honest(self, model, settings)
        if model.name.startswith("P_"):  # only the full model's bound
            bound += 100.0
        return status, x, bound, message

    monkeypatch.setattr(solve_mod.InProcessBackend, "solve_raw", inflated)
    assert main(["solve", str(path), "--lower-bound", "--lb-time-limit", "60"]) == 4
    err = capsys.readouterr().err
    assert "lower-bound solve failed" in err and "lies above" in err
    assert not (tmp_path / "inst.plan.json").exists()


def test_bound_above_plan_from_the_solve_exits_4(tmp_path, capsys, monkeypatch):
    # a lower-bound result that claims a bound above the plan reaches the
    # gap computation, which refuses it
    from stationopt import algorithm
    from stationopt.solve import SolveResult

    stage_solve = algorithm.solve

    def above(inst, settings, initial=None, backend=None):
        if initial is None:  # a stage solve
            return stage_solve(inst, settings, backend=backend)
        objective = inst.model.objective_value(initial)
        return SolveResult("optimal", objective, objective + 100.0, initial, 0.0)

    monkeypatch.setattr(algorithm, "solve", above)
    path = write_doc(tmp_path, mini_station())
    assert main(["solve", str(path), "--lower-bound"]) == 4
    err = capsys.readouterr().err
    assert "lower-bound solve failed: lower bound" in err and "lies above the objective" in err
    assert not (tmp_path / "inst.plan.json").exists()


def test_package_root_binds_no_public_names():
    # every library name has one home, its module
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    code = "import stationopt; print(sorted(n for n in vars(stationopt) if not n.startswith('_')))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
