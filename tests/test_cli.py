import json

import numpy as np
import pytest

from surfnav import (
    PlanParams,
    distance_field,
    load_grid,
    load_surface,
    plan,
    save_point_cloud,
)
from surfnav.cli import EXIT_INPUT, EXIT_OK, EXIT_PIPELINE, TIMING_KEYS, main

COUNTERS = ("pushes", "stale_pops", "heap_peak")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def report(argv, capsys):
    code, out, err = run(argv, capsys)
    assert code == EXIT_OK, err
    return json.loads(out)


def strip_timing(doc):
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k not in TIMING_KEYS}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


@pytest.fixture(scope="module")
def room(tmp_path_factory):
    """table1 preset taken through scenegen + extract once, via the CLI."""
    d = tmp_path_factory.mktemp("room")
    grid = str(d / "room.grid")
    surface = str(d / "room.json")
    assert main(["scenegen", "--preset", "table1_fixture", grid]) == EXIT_OK
    assert main(
        ["extract", grid, surface, "--seed-pos", "8.6,8.6,1.1",
         "--output", str(d / "extract.json")]
    ) == EXIT_OK
    return {"dir": d, "grid": grid, "surface": surface}


class TestVoxelize:
    def test_cloud_to_grid(self, tmp_path, capsys):
        cloud = tmp_path / "pts.xyz"
        cloud.write_text("0.05 0.05 0.05\n0.45 0.05 0.05\n")
        grid_path = tmp_path / "out.grid"
        doc = report(
            ["voxelize", str(cloud), str(grid_path), "--resolution", "0.1"], capsys
        )
        assert doc["points"] == 2
        assert doc["occupied"] == 2
        assert doc["dims"] == [6, 3, 3]
        grid = load_grid(grid_path)
        assert grid.occupied_count == 2

    def test_min_points(self, tmp_path, capsys):
        cloud = tmp_path / "pts.xyz"
        cloud.write_text("0.05 0.05 0.05\n0.45 0.05 0.05\n")
        doc = report(
            ["voxelize", str(cloud), str(tmp_path / "o.grid"), "--min-points", "2"],
            capsys,
        )
        assert doc["occupied"] == 0

    def test_missing_cloud(self, tmp_path, capsys):
        code, _, err = run(
            ["voxelize", str(tmp_path / "absent.xyz"), str(tmp_path / "o.grid")], capsys
        )
        assert code == EXIT_INPUT
        assert err.startswith("error:")

    def test_rebinning_is_stable(self, tmp_path, capsys):
        # exporting a scene's voxel centers and re-voxelizing keeps the
        # occupancy pattern; a second cycle reproduces it exactly
        g0_path = tmp_path / "g0.grid"
        cloud1 = tmp_path / "c1.xyz"
        report(
            ["scenegen", "--preset", "plaza_like", str(g0_path),
             "--export-points", str(cloud1)],
            capsys,
        )
        g1_path = tmp_path / "g1.grid"
        report(["voxelize", str(cloud1), str(g1_path)], capsys)
        g0 = load_grid(g0_path)
        g1 = load_grid(g1_path)
        # centers sit half a voxel inside their cells, so the rebinned grid
        # grows by one voxel per axis and the pattern shifts by one
        assert g1.dims == tuple(d + 1 for d in g0.dims)
        assert np.array_equal(g1.occupancy[1:, 1:, 1:], g0.occupancy)

        cloud2 = tmp_path / "c2.xyz"
        save_point_cloud(g1.occupied_centers(), cloud2)
        g2_path = tmp_path / "g2.grid"
        report(["voxelize", str(cloud2), str(g2_path)], capsys)
        g2 = load_grid(g2_path)
        assert g2.dims == g1.dims
        assert np.array_equal(g2.occupancy, g1.occupancy)


class TestScenegen:
    def test_unknown_preset(self, tmp_path, capsys):
        code, _, _ = run(
            ["scenegen", "--preset", "atlantis", str(tmp_path / "o.grid")], capsys
        )
        assert code == EXIT_INPUT

    def test_save_spec_and_rebuild(self, tmp_path, capsys):
        grid1 = tmp_path / "a.grid"
        spec = tmp_path / "scene.json"
        doc1 = report(
            ["scenegen", "--preset", "plaza_like", str(grid1),
             "--save-spec", str(spec)],
            capsys,
        )
        grid2 = tmp_path / "b.grid"
        doc2 = report(["scenegen", "--spec", str(spec), str(grid2)], capsys)
        assert doc2["dims"] == doc1["dims"]
        assert load_grid(grid1).occupancy.sum() == load_grid(grid2).occupancy.sum()

    def test_spec_with_resolution_override(self, tmp_path, capsys):
        spec = tmp_path / "scene.json"
        report(
            ["scenegen", "--preset", "plaza_like", str(tmp_path / "a.grid"),
             "--save-spec", str(spec)],
            capsys,
        )
        doc = report(
            ["scenegen", "--spec", str(spec), str(tmp_path / "c.grid"),
             "--resolution", "0.4"],
            capsys,
        )
        assert doc["resolution"] == 0.4
        assert doc["dims"] == [50, 50, 8]

    @pytest.mark.parametrize(
        "field, value, named",
        [("extent", 5, "bad scene spec"), ("resolution", "x", "resolution"),
         ("resolution", None, "resolution"), ("seed_hint", [1, 2], "seed_hint"),
         ("primitive", [0.0, 1.0], "primitive"), ("steps", 2.5, "steps"),
         ("z", 1e308, "out of bounds"), ("z", 10**400, "too large")],
        ids=["extent", "resolution_str", "resolution_null", "seed_hint", "primitive",
             "steps", "z_overflow", "z_bigint"],
    )
    def test_bad_spec_fields_are_input_errors(self, tmp_path, capsys, field, value, named):
        spec = tmp_path / "scene.json"
        report(["scenegen", "--preset", "table1_fixture", str(tmp_path / "a.grid"),
                "--save-spec", str(spec)], capsys)
        doc = json.loads(spec.read_text())
        prims = doc["primitives"]
        if field == "primitive":
            prims[0] = value
        elif field == "steps":
            next(p for p in prims if p["type"] == "staircase")["steps"] = value
        elif field == "z":
            next(p for p in prims if p["type"] == "floor_slab")["z"] = value
        else:
            doc[field] = value
        spec.write_text(json.dumps(doc))
        grid = tmp_path / "b.grid"
        code, _, err = run(["scenegen", "--spec", str(spec), str(grid)], capsys)
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert named in err
        assert not grid.exists()

    def test_rng_seed_recorded(self, tmp_path, capsys):
        doc = report(
            ["scenegen", "--preset", "furniture_room", str(tmp_path / "f.grid"),
             "--rng-seed", "7"],
            capsys,
        )
        assert doc["rng_seed"] == 7


class TestExtract:
    def test_report_shape(self, room, capsys):
        doc = json.loads((room["dir"] / "extract.json").read_text())
        assert doc["command"] == "extract"
        assert doc["S_size"] > 0
        assert 0 < doc["reduction"] < 1
        assert doc["params"]["step_voxels"] == 1
        assert doc["params"]["clearance_voxels"] == 8
        assert doc["params"]["inflation_voxels"] == 2
        surface = load_surface(room["surface"])
        assert surface.size == doc["S_size"]

    def test_export_points(self, room, tmp_path, capsys):
        out = tmp_path / "states.xyz"
        report(
            ["extract", room["grid"], str(tmp_path / "s.json"),
             "--seed-pos", "8.6,8.6,1.1", "--export-points", str(out)],
            capsys,
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "# x y z boundary_distance"
        assert len(lines) - 1 == json.loads(
            (room["dir"] / "extract.json").read_text()
        )["S_size"]

    def test_seed_voxel(self, room, tmp_path, capsys):
        surface = load_surface(room["surface"])
        seed = ",".join(str(c) for c in surface.seed)
        doc = report(
            ["extract", room["grid"], str(tmp_path / "s.json"), "--seed-voxel", seed],
            capsys,
        )
        assert doc["S_size"] == surface.size

    def test_seed_snap_failure(self, room, tmp_path, capsys):
        code, _, err = run(
            ["extract", room["grid"], str(tmp_path / "s.json"),
             "--seed-pos", "80,80,1"],
            capsys,
        )
        assert code == EXIT_PIPELINE
        assert "seed snap failed" in err

    @pytest.mark.parametrize("max_snap", ["nan", "-1"])
    def test_bad_max_snap(self, room, tmp_path, capsys, max_snap):
        # with NaN the seed used to snap ~1,700 m off the map and exit 0
        code, _, err = run(
            ["extract", room["grid"], str(tmp_path / "s.json"),
             "--seed-pos", "1000,1000,1000", "--max-snap", max_snap],
            capsys,
        )
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "max_snap" in err
        assert not (tmp_path / "s.json").exists()

    def test_non_candidate_seed_voxel(self, room, tmp_path, capsys):
        code, _, err = run(
            ["extract", room["grid"], str(tmp_path / "s.json"), "--seed-voxel", "0,0,0"],
            capsys,
        )
        assert code == EXIT_PIPELINE
        assert "invalid seed" in err

    def test_fractional_seed_voxel(self, room, tmp_path, capsys):
        code, _, err = run(
            ["extract", room["grid"], str(tmp_path / "s.json"),
             "--seed-voxel", "1.5,2,3"],
            capsys,
        )
        assert code == EXIT_INPUT
        assert "indices must be integers" in err

    def test_missing_grid(self, tmp_path, capsys):
        code, _, err = run(
            ["extract", str(tmp_path / "absent.grid"), str(tmp_path / "s.json"),
             "--seed-pos", "0,0,0"],
            capsys,
        )
        assert code == EXIT_INPUT
        assert err.startswith("error:")

    def test_not_a_grid(self, tmp_path, capsys):
        bad = tmp_path / "bad.grid"
        bad.write_bytes(b"PLY\x00" + b"\x00" * 64)
        code, _, err = run(
            ["extract", str(bad), str(tmp_path / "s.json"), "--seed-pos", "0,0,0"],
            capsys,
        )
        assert code == EXIT_INPUT
        assert "bad magic" in err


class TestPlan:
    def test_pose_to_pose(self, room, tmp_path, capsys):
        path = tmp_path / "path.xyz"
        doc = report(
            ["plan", room["surface"], str(path),
             "--start", "8.6,8.6,1.1", "--goal", "2.0,2.0,1.1"],
            capsys,
        )
        assert doc["success"] is True
        assert doc["cost"] > 0
        assert doc["L"] >= doc["L_xy"]
        assert doc["steps"] >= 1
        lines = [l for l in path.read_text().splitlines() if l]
        assert len(lines) == doc["steps"] + 1

    def test_voxel_endpoints(self, room, tmp_path, capsys):
        surface = load_surface(room["surface"])
        a = ",".join(str(c) for c in surface.states[0])
        b = ",".join(str(c) for c in surface.states[-1])
        doc = report(
            ["plan", room["surface"], str(tmp_path / "p.xyz"),
             "--start-voxel", a, "--goal-voxel", b],
            capsys,
        )
        assert doc["success"] is True

    def test_report_carries_search_counters(self, room, tmp_path, capsys):
        # the report's counters are PathResult's, under the same names
        surface = load_surface(room["surface"])
        a, b = surface.states[0], surface.states[-1]
        doc = report(
            ["plan", room["surface"], str(tmp_path / "p.xyz"),
             "--start-voxel", ",".join(map(str, a)), "--goal-voxel", ",".join(map(str, b))],
            capsys,
        )
        result = plan(surface, distance_field(surface), a, b, PlanParams())
        assert doc["N_s"] == result.expanded
        assert {k: doc[k] for k in COUNTERS} == {k: getattr(result, k) for k in COUNTERS}
        assert doc["pushes"] >= doc["N_s"] + doc["stale_pops"] + 1

    def test_goal_outside_map(self, room, tmp_path, capsys):
        code, _, err = run(
            ["plan", room["surface"], str(tmp_path / "p.xyz"),
             "--start", "8.6,8.6,1.1", "--goal", "20.0,8.6,1.1"],
            capsys,
        )
        assert code == EXIT_PIPELINE
        assert "seed snap failed (goal)" in err

    @pytest.mark.parametrize("max_snap", ["nan", "-1"])
    def test_bad_max_snap(self, room, tmp_path, capsys, max_snap):
        code, _, err = run(
            ["plan", room["surface"], str(tmp_path / "p.xyz"),
             "--start=1000,1000,1000", "--goal", "2.0,2.0,1.1", "--max-snap", max_snap],
            capsys,
        )
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "max_snap" in err
        assert not (tmp_path / "p.xyz").exists()

    def test_infinite_max_snap_is_no_limit(self, room, tmp_path, capsys):
        doc = report(
            ["plan", room["surface"], str(tmp_path / "p.xyz"),
             "--start=1000,1000,1000", "--goal", "2.0,2.0,1.1", "--max-snap", "inf"],
            capsys,
        )
        assert doc["success"] is True

    def test_requires_exactly_one_start(self, room, tmp_path, capsys):
        code, _, err = run(
            ["plan", room["surface"], str(tmp_path / "p.xyz"),
             "--start", "1,1,1", "--start-voxel", "1,1,1", "--goal", "2,2,1"],
            capsys,
        )
        assert code == EXIT_INPUT
        assert "exactly one of --start" in err

    def test_missing_surface(self, tmp_path, capsys):
        code, _, err = run(
            ["plan", str(tmp_path / "absent.json"), str(tmp_path / "p.xyz"),
             "--start", "0,0,0", "--goal", "1,1,1"],
            capsys,
        )
        assert code == EXIT_INPUT

    @pytest.mark.parametrize(
        "tamper", ["negative", "beyond_dims", "duplicate", "cut_off", "empty_states"]
    )
    def test_tampered_states_are_input_errors(self, room, tmp_path, capsys, tamper):
        doc = json.loads(open(room["surface"]).read())
        state = doc["states"][5]
        if tamper == "negative":
            state[0] = -1
        elif tamper == "beyond_dims":
            state[0] = doc["dims"][0] + 3
        elif tamper == "duplicate":
            doc["states"].append(list(state))
        elif tamper == "empty_states":
            # a surface always holds its seed
            doc["states"] = []
        else:
            # a corner voxel at the grid top: no state is within a step of it
            doc["states"].append([0, 0, doc["dims"][2] - 1])
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(
            ["plan", str(bad), str(tmp_path / "p.xyz"),
             "--start", "8.6,8.6,1.1", "--goal", "2.0,2.0,1.1"],
            capsys,
        )
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "tamper, field",
        [("nan_origin", "origin"), ("short_origin", "origin"),
         ("float_state", "states"), ("step_voxels", "step_voxels")],
    )
    def test_tampered_fields_are_input_errors(self, room, tmp_path, capsys, tamper, field):
        doc = json.loads(open(room["surface"]).read())
        if tamper == "nan_origin":
            doc["origin"][0] = float("nan")
        elif tamper == "short_origin":
            doc["origin"] = doc["origin"][:2]
        elif tamper == "float_state":
            doc["states"][5][2] += 0.7
        else:
            doc["params"]["step_voxels"] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(
            ["plan", str(bad), str(tmp_path / "p.xyz"),
             "--start", "8.6,8.6,1.1", "--goal", "2.0,2.0,1.1"],
            capsys,
        )
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert field in err
        assert "Traceback" not in err


class TestBench:
    def test_deterministic_modulo_timing(self, capsys):
        args = ["bench", "--preset", "table1_fixture", "--queries", "5",
                "--rng-seed", "3"]
        a = report(args, capsys)
        b = report(args, capsys)
        assert strip_timing(a) == strip_timing(b)
        assert a != b  # timings did differ somewhere

    def test_report_shape(self, capsys):
        doc = report(
            ["bench", "--preset", "table1_fixture", "--queries", "4"], capsys
        )
        assert doc["queries"] == 4
        assert doc["successes"] == 4
        assert doc["SR"] == 1.0
        assert len(doc["per_query"]) == 4
        assert doc["mode"] == "same_floor"  # one walkable story
        for i, rec in enumerate(doc["per_query"]):
            assert rec["success"] is True
            assert rec["T_s"] >= 0
            assert all(isinstance(rec[k], int) for k in COUNTERS)
            assert 1 <= rec["heap_peak"] <= rec["pushes"]

    def test_auto_mode_goes_mixed_with_two_floors(self, capsys):
        doc = report(
            ["bench", "--preset", "two_story_house", "--queries", "4"], capsys
        )
        assert doc["mode"] == "mixed"
        assert doc["SR"] == 1.0

    def test_repeat_warmup(self, capsys):
        doc = report(
            ["bench", "--preset", "table1_fixture", "--queries", "3",
             "--repeat", "2"],
            capsys,
        )
        assert doc["repeat"] == 2
        assert doc["T_s_total"] >= 0

    def test_grid_input_requires_seed_pos(self, room, capsys):
        code, _, err = run(["bench", "--grid", room["grid"], "--queries", "2"], capsys)
        assert code == EXIT_INPUT
        assert "--seed-pos is required" in err

    def test_grid_input(self, room, capsys):
        doc = report(
            ["bench", "--grid", room["grid"], "--queries", "2",
             "--seed-pos", "8.6,8.6,1.1"],
            capsys,
        )
        assert doc["scene"] == room["grid"]
        assert doc["successes"] == 2

    def test_bad_query_count(self, capsys):
        code, _, err = run(
            ["bench", "--preset", "table1_fixture", "--queries", "0"], capsys
        )
        assert code == EXIT_INPUT


class TestQueries:
    def test_sample_from_surface(self, room, capsys):
        doc = report(["queries", room["surface"], "--count", "7"], capsys)
        assert doc["count"] == 7
        assert len(doc["queries"]) == 7
        surface = load_surface(room["surface"])
        for q in doc["queries"]:
            assert tuple(q["start"]) in surface
            assert tuple(q["goal"]) in surface

    def test_deterministic(self, room, capsys):
        a = report(["queries", room["surface"], "--rng-seed", "5"], capsys)
        b = report(["queries", room["surface"], "--rng-seed", "5"], capsys)
        assert a == b

    def test_cross_floor_on_single_story_fails(self, room, capsys):
        code, _, err = run(
            ["queries", room["surface"], "--mode", "cross_floor"], capsys
        )
        assert code == EXIT_PIPELINE
        assert "insufficient floors" in err

    def test_empty_states_are_input_errors(self, room, tmp_path, capsys):
        doc = json.loads(open(room["surface"]).read())
        doc["states"] = []
        doc["seed"] = [999, 999, 999]  # outside dims as well
        bad = tmp_path / "empty.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(["queries", str(bad)], capsys)
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "seed" in err


class TestHarness:
    def test_timing_keys_are_the_emitted_timers(self, room, tmp_path, capsys):
        def timers(doc):
            if isinstance(doc, dict):
                own = {k for k in doc if k.startswith("T_")}
                return own.union(*(timers(v) for v in doc.values()))
            if isinstance(doc, list):
                return set().union(*(timers(v) for v in doc))
            return set()

        extract = json.loads((room["dir"] / "extract.json").read_text())
        plan = report(
            ["plan", room["surface"], str(tmp_path / "p.xyz"),
             "--start", "8.6,8.6,1.1", "--goal", "2.0,2.0,1.1"],
            capsys,
        )
        bench = report(["bench", "--preset", "table1_fixture", "--queries", "2"], capsys)
        assert timers(extract) | timers(plan) | timers(bench) == TIMING_KEYS

    def test_help_exits_ok(self, capsys):
        assert main(["--help"]) == EXIT_OK

    def test_no_command_is_usage_error(self, capsys):
        assert main([]) == EXIT_INPUT

    def test_output_flag_redirects_report(self, tmp_path, capsys):
        cloud = tmp_path / "c.xyz"
        cloud.write_text("0 0 0\n")
        out = tmp_path / "report.json"
        code, stdout, _ = run(
            ["voxelize", str(cloud), str(tmp_path / "g.grid"), "--output", str(out)],
            capsys,
        )
        assert code == EXIT_OK
        assert stdout == ""
        assert json.loads(out.read_text())["command"] == "voxelize"

    def test_reports_are_sorted_json(self, tmp_path, capsys):
        cloud = tmp_path / "c.xyz"
        cloud.write_text("0 0 0\n")
        _, stdout, _ = run(["voxelize", str(cloud), str(tmp_path / "g.grid")], capsys)
        doc = json.loads(stdout)
        assert stdout == json.dumps(doc, indent=2, sort_keys=True) + "\n"
