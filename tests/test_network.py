import pytest

from stationopt.fixtures import mini_station, mini_station_pipes, two_unit_station
from stationopt.io import SchemaError, load_instance
from stationopt.network import mode_available, validate


@pytest.fixture(scope="module")
def mini():
    return load_instance(mini_station())


@pytest.fixture(scope="module")
def piped():
    return load_instance(mini_station_pipes())


class TestValidate:
    def test_well_formed_instances_pass(self, mini, piped):
        assert validate(*mini) == []
        assert validate(*piped) == []

    def test_overlapping_flow_direction_sets(self):
        doc = mini_station()
        doc["flowDirections"][0]["outflowNodes"] = ["B1", "B2"]
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("overlap" in s for s in issues)

    def test_mode_missing_valve_assignment(self):
        doc = mini_station()
        del doc["operationModes"][0]["assignment"]["V1"]
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("missing assignment" in s and "'V1'" in s for s in issues)

    def test_violations_name_entity_and_rule(self):
        doc = mini_station()
        doc["nodes"][0]["pressureLB"] = 75.0  # above the 70 bar upper bound
        spec, scen = load_instance(doc)
        issues = validate(spec, scen)
        assert any(v.entity == "node B1" and "exceeds" in v.rule for v in issues)

    def test_validate_is_idempotent(self, mini):
        spec, scen = mini
        assert validate(spec, scen) == validate(spec, scen)

    def test_regulator_flap_trap(self):
        # a single-field rule: the reader rejects it before validate runs
        doc = mini_station_pipes()
        i = next(i for i, arc in enumerate(doc["arcs"]) if arc["id"] == "RG1")
        doc["arcs"][i]["flowLB"] = -10.0
        with pytest.raises(SchemaError, match=rf"\$\.arcs\[{i}\]\.flowLB: .*flap trap"):
            load_instance(doc)

    def test_missing_transition_time(self):
        doc = mini_station()
        del doc["transitionTimes"]["o_by"]["o_cp"]
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("missing entry for 'o_by' -> 'o_cp'" in s for s in issues)

    def test_exit_pressure_above_bound(self):
        doc = mini_station()
        doc["nodes"][1]["exitPressureUB"] = 71.0
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("exit pressure" in s for s in issues)

    def test_valid_pairs_resolve(self, mini):
        spec, scen = mini
        for o, f in spec.valid_pairs:
            assert o in spec.operation_modes
            assert f in spec.flow_directions

    def test_initial_state_must_cover_all_arcs(self):
        doc = mini_station()
        del doc["scenario"]["initialState"]["arcFlows"]["V1"]
        with pytest.raises(Exception):
            load_instance(doc)  # loader requires flows for every arc

    def test_fence_groups_disjoint(self):
        doc = mini_station()
        doc["fenceGroups"][1]["nodes"] = ["B1"]
        spec, scen = load_instance(doc)
        issues = [str(v) for v in validate(spec, scen)]
        assert any("another fence group" in s for s in issues)


class TestModeAvailable:
    def test_no_windows_always_available(self, mini):
        spec, scen = mini
        for o in spec.operation_modes:
            for t in range(scen.n_future + 1):
                assert mode_available(spec, scen.time_grid, o, t)

    def test_interior_window_blocks_only_that_step(self):
        grid_step = 3.0 * 3600.0
        doc = mini_station(unavailability={"U1": [[grid_step + 60.0, 2 * grid_step - 60.0]]})
        spec, scen = load_instance(doc)
        grid = scen.time_grid
        assert mode_available(spec, grid, "o_cp", 0)
        assert not mode_available(spec, grid, "o_cp", 1)
        assert mode_available(spec, grid, "o_cp", 2)

    def test_mode_without_units_unaffected(self):
        doc = mini_station(unavailability={"U1": [[0.0, 1e6]]})
        spec, scen = load_instance(doc)
        for t in range(scen.n_future + 1):
            assert mode_available(spec, scen.time_grid, "o_by", t)
            assert not mode_available(spec, scen.time_grid, "o_cp", t)

    def test_last_step_checks_instant_only(self):
        # window starts just after the final grid instant
        doc = mini_station(unavailability={"U1": [[4 * 3.0 * 3600.0 + 1.0, 1e9]]})
        spec, scen = load_instance(doc)
        k = scen.n_future
        assert mode_available(spec, scen.time_grid, "o_cp", k)
        doc2 = mini_station(unavailability={"U1": [[4 * 3.0 * 3600.0, 1e9]]})
        spec2, scen2 = load_instance(doc2)
        assert not mode_available(spec2, scen2.time_grid, "o_cp", k)

    def test_monotone_in_windows(self):
        base = mini_station()
        spec0, scen0 = load_instance(base)
        more = mini_station(unavailability={"U1": [[100.0, 20000.0]]})
        spec1, scen1 = load_instance(more)
        for t in range(scen0.n_future + 1):
            if not mode_available(spec0, scen0.time_grid, "o_cp", t):
                assert not mode_available(spec1, scen1.time_grid, "o_cp", t)

    def test_unknown_mode_raises(self, mini):
        spec, scen = mini
        with pytest.raises(KeyError):
            mode_available(spec, scen.time_grid, "nope", 0)


class TestSpecServices:
    def test_mode_units(self):
        spec, _ = load_instance(two_unit_station())
        assert spec.mode_units("o_by") == frozenset()
        assert spec.mode_units("o_c1") == {"U1"}
        assert spec.mode_units("o_c12") == {"U1", "U2"}

    def test_transition_time_lookup(self, mini):
        spec, _ = mini
        assert spec.transition_time("o_by", "o_by") == 0.0
        assert spec.transition_time("o_by", "o_cp") == 30.0 * 60.0
        with pytest.raises(KeyError):
            spec.transition_time("o_by", "nope")

    def test_arcs_lookup_covers_all_kinds(self, piped):
        spec, _ = piped
        assert set(spec.arcs()) == {"P1", "CS1", "V1", "RG1"}
        assert set(spec.non_pipe_arcs()) == {"CS1", "V1", "RG1"}
