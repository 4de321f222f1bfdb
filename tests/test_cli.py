import json
import math
import struct
import time
import tracemalloc

import numpy as np
import pytest

from surfnav import (
    PlanParams,
    distance_field,
    load_grid,
    load_surface,
    plan,
    preset,
    save_point_cloud,
    save_scene_spec,
)
from surfnav.cli import EXIT_INPUT, EXIT_OK, EXIT_PIPELINE, TIMING_KEYS, main

from conftest import built, paid_graph

COUNTERS = ("landmarks", "pushes", "stale_pops", "heap_peak")


def landmarks_held(name):
    """How many landmarks the tables a search graph builds on preset
    ``name`` hold: every query that reads them reads all."""
    b = built(name)
    graph = paid_graph(b.surface, b.dfield)
    plan(b.surface, b.dfield, tuple(b.surface.states[0]), tuple(b.surface.states[-1]),
         graph=graph)
    return len(graph._held.table)


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

    @pytest.mark.parametrize(
        "points, resolution",
        [("1e308 0 0\n-1e308 0 0\n", "0.2"), ("0 0 0\n1 0 0\n", "1e-320"),
         ("1e300 0 0\n0 0 0\n", "1"), ("0 0 0\n200 200 200\n", "0.1")],
        ids=["span_overflow", "subnormal_resolution", "beyond_2_pow_63_voxels",
             "beyond_the_voxel_cap"],
    )
    def test_uncountable_clouds_are_input_errors(self, tmp_path, capsys, points, resolution):
        cloud = tmp_path / "pts.xyz"
        cloud.write_text(points)
        code, _, err = run(["voxelize", str(cloud), str(tmp_path / "o.grid"),
                            "--resolution", resolution], capsys)
        assert code == EXIT_INPUT
        assert err.startswith("error:") and "Traceback" not in err
        assert "extent" in err and f"resolution {float(resolution)}" in err

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
        [("extent", 5, "extent must be a list of 3"), ("resolution", "x", "resolution"),
         ("resolution", None, "resolution"), ("seed_hint", [1, 2], "seed_hint"),
         ("primitive", [0.0, 1.0], "primitive"), ("steps", 2.5, "steps"),
         ("z", 1e308, "out of bounds"), ("z", 10**400, "z must be a finite number"),
         ("extent", [1e308, 10, 10], "extent")],
        ids=["extent", "resolution_str", "resolution_null", "seed_hint", "primitive",
             "steps", "z_overflow", "z_bigint", "extent_overflow"],
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

    def test_too_many_steps_exit_at_once(self, tmp_path, capsys):
        # a staircase paints a box per step: a million sub-nanometre steps
        # fit the voxel cap but are refused before any painting starts
        spec = tmp_path / "scene.json"
        report(["scenegen", "--preset", "table1_fixture", str(tmp_path / "a.grid"),
                "--save-spec", str(spec)], capsys)
        doc = json.loads(spec.read_text())
        stairs = next(p for p in doc["primitives"] if p["type"] == "staircase")
        stairs.update(steps=10**6, tread_depth=1e-9, riser=1e-9)
        spec.write_text(json.dumps(doc))
        grid = tmp_path / "b.grid"
        t0 = time.perf_counter()
        code, _, err = run(["scenegen", "--spec", str(spec), str(grid)], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "steps" in err and "1000000" in err
        assert not grid.exists()

    def test_too_many_boxes_exit_at_once(self, tmp_path, capsys):
        # each staircase is within MAX_STAIR_STEPS; 200 of them are 2e6
        # boxes, refused by the spec before any painting starts
        spec = tmp_path / "scene.json"
        report(["scenegen", "--preset", "table1_fixture", str(tmp_path / "a.grid"),
                "--save-spec", str(spec)], capsys)
        doc = json.loads(spec.read_text())
        stairs = next(p for p in doc["primitives"] if p["type"] == "staircase")
        stairs.update(steps=10_000, tread_depth=1e-9, riser=1e-9)
        doc["primitives"] += [stairs] * 199
        spec.write_text(json.dumps(doc))
        grid = tmp_path / "b.grid"
        t0 = time.perf_counter()
        code, _, err = run(["scenegen", "--spec", str(spec), str(grid)], capsys)
        assert time.perf_counter() - t0 < 1.0
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "MAX_SPEC_BOXES" in err
        assert not grid.exists()

    @pytest.mark.parametrize("source", ["preset", "spec"])
    def test_zero_resolution_is_an_input_error(self, tmp_path, capsys, source):
        # 0 is a resolution given, not a default: SceneSpec refuses it
        spec = tmp_path / "scene.json"
        report(["scenegen", "--preset", "table1_fixture", str(tmp_path / "a.grid"),
                "--save-spec", str(spec)], capsys)
        scene = ["--preset", "table1_fixture"] if source == "preset" else ["--spec", str(spec)]
        grid = tmp_path / "b.grid"
        code, _, err = run(["scenegen", *scene, str(grid), "--resolution", "0"], capsys)
        assert code == EXIT_INPUT
        assert err.startswith("error:")
        assert "resolution" in err
        assert not grid.exists()

    def test_memory_error_is_a_pipeline_error(self, tmp_path, capsys, monkeypatch):
        # a grid under the voxel cap can still be larger than memory
        def build_scene(spec):
            raise MemoryError("Unable to allocate 2.00 GiB")

        monkeypatch.setattr("surfnav.cli.build_scene", build_scene)
        code, _, err = run(["scenegen", "--preset", "table1_fixture",
                            str(tmp_path / "b.grid")], capsys)
        assert code == EXIT_PIPELINE
        assert err.startswith("error:")
        assert "Traceback" not in err

    def test_rng_seed_recorded(self, tmp_path, capsys):
        doc = report(
            ["scenegen", "--preset", "furniture_room", str(tmp_path / "f.grid"),
             "--rng-seed", "7"],
            capsys,
        )
        assert doc["rng_seed"] == 7


class TestVoxelCap:
    """Inputs that ask for more than MAX_VOXELS voxels end in exit 2 before
    anything grid-sized is allocated."""

    @staticmethod
    def spec_over_the_cap(d, extent, resolution):
        spec = d / "big.spec.json"
        save_scene_spec(preset("table1_fixture"), spec)
        doc = json.loads(spec.read_text())
        doc["extent"], doc["resolution"] = extent, resolution
        spec.write_text(json.dumps(doc))
        return ["scenegen", "--spec", str(spec), str(d / "o.grid")]

    @staticmethod
    def cloud_over_the_cap(d):
        (d / "far.xyz").write_text("0 0 0\n200 200 200\n")
        return ["voxelize", str(d / "far.xyz"), str(d / "o.grid"), "--resolution", "0.1"]

    @staticmethod
    def grid_over_the_cap(d, room):
        data = bytearray(open(room["grid"], "rb").read())
        struct.pack_into("<3I", data, 8, 2**11, 2**10, 2**10 + 1)
        (d / "big.grid").write_bytes(bytes(data))
        return ["extract", str(d / "big.grid"), str(d / "o.json"), "--seed-pos", "8.6,8.6,1.1"]

    @pytest.mark.parametrize("case", ["spec_1e5", "spec_just_over", "cloud_200m", "grid_header"])
    def test_refused_in_a_few_megabytes(self, room, tmp_path, capsys, case):
        argv = {
            "spec_1e5": lambda: self.spec_over_the_cap(tmp_path, [1e5, 1e5, 1e5], 0.2),
            # 2048 * 1024 * 1025 voxels: 2**21 over the cap
            "spec_just_over": lambda: self.spec_over_the_cap(tmp_path, [1024, 512, 512.5], 0.5),
            "cloud_200m": lambda: self.cloud_over_the_cap(tmp_path),
            "grid_header": lambda: self.grid_over_the_cap(tmp_path, room),
        }[case]()
        tracemalloc.start()
        try:
            code, _, err = run(argv, capsys)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == EXIT_INPUT, err
        assert err.startswith("error:") and "Traceback" not in err
        assert "voxels; a grid holds 1 to 2**31" in err
        assert peak < 4 * 2**20, peak


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

    def test_version_1_grid_is_an_input_error(self, room, tmp_path, capsys):
        # version 1 held the same bits x-fastest; its version field is 1
        data = bytearray(open(room["grid"], "rb").read())
        struct.pack_into("<I", data, 4, 1)
        old = tmp_path / "v1.grid"
        old.write_bytes(bytes(data))
        code, _, err = run(
            ["extract", str(old), str(tmp_path / "s.json"), "--seed-pos", "8.6,8.6,1.1"],
            capsys,
        )
        assert code == EXIT_INPUT
        assert err.startswith("error:") and "version 1" in err
        assert "scenegen" in err and "Traceback" not in err

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
        assert doc["landmarks"] == 0  # one query does not pay for tables
        assert doc["pushes"] >= doc["N_s"] + doc["stale_pops"] + 1
        assert doc["h_ratio"] == result.h_ratio

    def test_state_ahead_of_its_neighbors_is_an_input_error(self, room, tmp_path, capsys):
        # a reachable state moved just after the seed: the file's order
        # does not prove it reachable, so the surface is refused
        doc = json.loads(open(room["surface"]).read())
        key = doc["keys"].pop()
        doc["keys"].insert(1, key)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _, err = run(
            ["plan", str(bad), str(tmp_path / "p.xyz"),
             "--start", "8.6,8.6,1.1", "--goal", "2.0,2.0,1.1"],
            capsys,
        )
        assert code == EXIT_INPUT
        state = [int(c) for c in np.unravel_index(key, doc["dims"])]
        assert f"state {state} is not reachable" in err
        assert not (tmp_path / "p.xyz").exists()

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
        keys = doc["keys"]
        if tamper == "negative":
            keys[5] = -1
        elif tamper == "beyond_dims":
            keys[5] = math.prod(doc["dims"])
        elif tamper == "duplicate":
            keys.append(keys[5])
        elif tamper == "empty_states":
            # a surface always holds its seed
            doc["keys"] = []
        else:
            # the top corner voxel: no state is within a step of it
            keys.append(math.prod(doc["dims"]) - 1)
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

    def test_version_1_file_is_an_input_error(self, room, tmp_path, capsys):
        doc = json.loads(open(room["surface"]).read())
        doc["version"] = 1
        doc["states"] = np.stack(np.unravel_index(doc.pop("keys"), doc["dims"]), axis=1).tolist()
        old = tmp_path / "v1.json"
        old.write_text(json.dumps(doc))
        code, _, err = run(
            ["plan", str(old), str(tmp_path / "p.xyz"),
             "--start", "8.6,8.6,1.1", "--goal", "2.0,2.0,1.1"],
            capsys,
        )
        assert code == EXIT_INPUT
        assert err.startswith("error:") and "version 1" in err.splitlines()[0]
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "tamper, field",
        [("nan_origin", "origin"), ("short_origin", "origin"),
         ("float_key", "keys"), ("step_voxels", "step_voxels"),
         ("fractional_dims", "dims"), ("fractional_step", "step_voxels"),
         ("string_resolution", "resolution"), ("string_step_height", "step_height"),
         ("string_origin", "origin"), ("bool_origin", "origin"),
         ("null_clearance_height", "all three, or none")],
    )
    def test_tampered_fields_are_input_errors(self, room, tmp_path, capsys, tamper, field):
        doc = json.loads(open(room["surface"]).read())
        if tamper == "nan_origin":
            doc["origin"][0] = float("nan")
        elif tamper == "short_origin":
            doc["origin"] = doc["origin"][:2]
        elif tamper == "float_key":
            doc["keys"][5] += 0.7
        elif tamper == "fractional_dims":
            doc["dims"][2] += 0.9
        elif tamper == "fractional_step":
            doc["params"]["step_voxels"] += 0.5
        elif tamper == "string_resolution":
            doc["resolution"] = str(doc["resolution"])
        elif tamper == "string_step_height":
            doc["params"]["step_height"] = str(doc["params"]["step_height"])
        elif tamper == "string_origin":
            doc["origin"][0] = "0.0"
        elif tamper == "bool_origin":
            doc["origin"][1] = True
        elif tamper == "null_clearance_height":
            doc["params"]["clearance_height"] = None
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

    def test_long_batch_turns_landmarks_on(self, capsys):
        # the batch shares one graph: once its searches have expanded
        # BUILD_PRICE states per state, the next query builds the tables
        # and the rest read every landmark; costs do not change
        doc = report(["bench", "--preset", "table1_fixture", "--queries", "100"], capsys)
        used = [rec["landmarks"] for rec in doc["per_query"]]
        held = landmarks_held("table1_fixture")
        paid = next(i for i, u in enumerate(used) if u)
        assert paid > 0
        for rec in doc["per_query"][paid:]:
            if rec["start"] != rec["goal"]:
                assert rec["landmarks"] == held
        b = built("table1_fixture")
        assert doc["S_size"] == b.surface.size
        for rec in doc["per_query"]:
            assert rec["cost"] == plan(b.surface, b.dfield, rec["start"], rec["goal"]).cost

    def test_auto_mode_goes_mixed_with_two_floors(self, capsys):
        doc = report(
            ["bench", "--preset", "two_story_house", "--queries", "4"], capsys
        )
        assert doc["mode"] == "mixed"
        assert doc["SR"] == 1.0

    def test_repeat_warmup(self, capsys):
        # the passes before the last warm up and pay for the graph's
        # landmark tables, so every query of the last pass, the one
        # reported, reads them
        doc = report(["bench", "--preset", "two_story_house", "--queries", "50",
                      "--repeat", "3"], capsys)
        assert doc["repeat"] == 3
        records = doc["per_query"]
        held = landmarks_held("two_story_house")
        assert all(rec["landmarks"] == held for rec in records if rec["start"] != rec["goal"])
        assert doc["N_s_mean"] == np.mean([rec["N_s"] for rec in records])
        assert doc["T_s_total"] == pytest.approx(sum(rec["T_s"] for rec in records))

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
        doc["keys"] = []
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
