import dataclasses
import json
import math

import numpy as np
import pytest

from surfnav import (
    CeilingCavity,
    FloorSlab,
    Hole,
    LowCabinet,
    PRESET_NAMES,
    QuerySamplingError,
    SceneSpec,
    SceneSpecError,
    Staircase,
    Table,
    Wall,
    build_scene,
    load_scene_spec,
    preset,
    sample_queries,
    save_scene_spec,
)
from surfnav.cli import EXIT_INPUT, main
from surfnav.grid import MAX_VOXELS
from surfnav.scenegen import MAX_SPEC_BOXES, MAX_STAIR_STEPS

# A value of the wrong JSON type for each primitive field, written out here
# rather than read from the dataclass annotations.
NUMBER_FIELDS = {
    "z", "thickness", "height", "z0", "z1", "tread_depth", "width", "riser", "top_z",
    "top_thickness", "base_z", "leg_size", "underside_z", "floor_z", "ceiling_z",
    "shell_thickness",
}
WRONG_VALUES = {
    "name": [7], "direction": [7], "steps": [5.0], "region": [[True, 0.0, 10.0, 0.4]],
    "origin": [[1.0, True, 1.0]], "legs": [[[6.0]]],
    **{f: [True, "1.0"] for f in NUMBER_FIELDS},
}
FIRST_OF_EACH_TYPE = {type(p): i for i, p in reversed(
    list(enumerate(preset("table1_fixture").primitives)))}
WRONG_FIELDS = [
    pytest.param(i, cls.__name__, f.name, value, id=f"{cls.__name__}.{f.name}={json.dumps(value)}")
    for cls, i in FIRST_OF_EACH_TYPE.items()
    for f in dataclasses.fields(cls)
    for value in WRONG_VALUES[f.name]
]


class TestPrimitiveValidation:
    def test_floor_slab(self):
        with pytest.raises(SceneSpecError):
            FloorSlab((0, 0, 1, 1), z=0.0, thickness=0.0)
        with pytest.raises(SceneSpecError):
            FloorSlab((1, 0, 0, 1), z=0.0, thickness=0.2)  # inverted region

    def test_wall(self):
        with pytest.raises(SceneSpecError):
            Wall((0, 0, 1, 1), height=-1.0)

    def test_staircase(self):
        with pytest.raises(SceneSpecError):
            Staircase((0, 0, 0), "up", tread_depth=0.4, width=1.0, riser=0.1, steps=3)
        with pytest.raises(SceneSpecError):
            Staircase((0, 0, 0), "+x", tread_depth=0.4, width=1.0, riser=0.1, steps=0)
        Staircase((0, 0, 0), "+x", tread_depth=0.4, width=1.0, riser=0.1,
                  steps=MAX_STAIR_STEPS)
        with pytest.raises(SceneSpecError, match="steps must be 1 to 10000"):
            Staircase((0, 0, 0), "+x", tread_depth=0.4, width=1.0, riser=0.1,
                      steps=MAX_STAIR_STEPS + 1)

    def test_table(self):
        with pytest.raises(SceneSpecError):
            Table((0, 0, 1, 1), top_z=0.5, top_thickness=0.2, base_z=0.4)

    def test_cabinet_and_cavity_and_hole(self):
        with pytest.raises(SceneSpecError):
            LowCabinet((0, 0, 1, 1), underside_z=2.0, top_z=1.0)
        with pytest.raises(SceneSpecError):
            CeilingCavity((0, 0, 1, 1), floor_z=3.0, ceiling_z=2.0)
        with pytest.raises(SceneSpecError):
            Hole((0, 0, 1, 1), z0=1.0, z1=1.0)

    def test_spec_extent(self):
        with pytest.raises(SceneSpecError):
            SceneSpec("x", (0.0, 1.0, 1.0), 0.2, ())

    def test_box_budget_is_per_spec(self):
        stairs = Staircase((0, 0, 0), "+x", tread_depth=0.4, width=1.0, riser=0.1,
                           steps=MAX_STAIR_STEPS)
        table = Table((0, 0, 1, 1), top_z=0.5, top_thickness=0.2,
                      legs=((0.0, 0.0),) * (MAX_STAIR_STEPS - 1))
        fill = (stairs,) * (MAX_SPEC_BOXES // MAX_STAIR_STEPS - 1) + (table,)
        assert sum(p.box_count for p in fill) == MAX_SPEC_BOXES
        SceneSpec("x", (1.0, 1.0, 1.0), 0.2, fill)
        for extra in (Hole((0, 0, 1, 1), z0=0.0, z1=1.0),
                      CeilingCavity((0, 0, 1, 1), floor_z=0.5, ceiling_z=0.9)):
            with pytest.raises(SceneSpecError, match=f"more than MAX_SPEC_BOXES = {MAX_SPEC_BOXES}"):
                SceneSpec("x", (1.0, 1.0, 1.0), 0.2, fill + (extra,))

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_are_within_the_box_budget(self, name):
        for resolution in (0.1, 0.2):
            prims = preset(name, resolution=resolution).primitives
            for p in prims:
                assert p.box_count == len(list(p.boxes()))
            assert sum(p.box_count for p in prims) <= MAX_SPEC_BOXES


class TestBuildScene:
    def test_out_of_bounds_primitive(self):
        spec = SceneSpec(
            "x", (2.0, 2.0, 2.0), 0.2,
            (FloorSlab((0.0, 0.0, 3.0, 1.0), z=0.0, thickness=0.2),),
        )
        with pytest.raises(SceneSpecError, match="spec out of bounds"):
            build_scene(spec)

    def test_deterministic(self):
        a = build_scene(preset("table1_fixture"))
        b = build_scene(preset("table1_fixture"))
        assert np.array_equal(a.grid.occupancy, b.grid.occupancy)
        for name in ("floor", "wall", "stairs", "table"):
            assert np.array_equal(a.solid_mask(name), b.solid_mask(name))

    def test_later_primitives_overwrite(self):
        # the hole carves the slab it overlaps
        spec = SceneSpec(
            "x", (2.0, 2.0, 2.0), 0.2,
            (
                FloorSlab((0.0, 0.0, 2.0, 2.0), z=0.0, thickness=0.4),
                Hole((0.8, 0.8, 1.2, 1.2), z0=0.0, z1=0.4),
            ),
        )
        scene = build_scene(spec)
        assert not scene.grid.is_occupied(5, 5, 0)
        assert scene.grid.is_occupied(0, 0, 0)

    def test_solid_mask(self):
        scene = build_scene(preset("table1_fixture"))
        assert scene.solid_mask("table").any()
        assert scene.solid_mask("stairs").any()
        with pytest.raises(SceneSpecError):
            scene.solid_mask("swimming_pool")

    def test_solid_mask_is_what_a_name_set_last(self):
        # a later wall of another name and a hole each take voxels out of
        # the floor's mask; the grid is the union of what stays solid
        spec = SceneSpec(
            "x", (2.0, 2.0, 2.0), 0.2,
            (
                FloorSlab((0.0, 0.0, 2.0, 2.0), z=0.0, thickness=0.4),
                Wall((0.0, 0.0, 0.4, 2.0), height=1.0, name="wall"),
                Hole((1.6, 1.6, 2.0, 2.0), z0=0.0, z1=0.4),
            ),
        )
        scene = build_scene(spec)
        floor, wall = scene.solid_mask("floor"), scene.solid_mask("wall")
        assert not scene.solid_mask("hole").any()
        assert wall[:2, :, :5].all() and wall.sum() == 2 * 10 * 5
        assert not floor[:2].any() and not floor[8:, 8:].any()
        assert floor.sum() == 8 * 10 * 2 - 2 * 2 * 2
        assert not (floor & wall).any()
        assert np.array_equal(floor | wall, scene.grid.occupancy)

    def test_more_names_than_int16_holds(self):
        # more distinct names than an int16 can number
        walls = tuple(Wall((0.0, 0.0, 1.0, 1.0), height=1.0, z0=float(i), name=f"w{i}")
                      for i in range(32800))
        scene = build_scene(SceneSpec("names", (1.0, 1.0, 32800.0), 1.0, walls))
        assert scene.grid.occupancy.all()
        mask = scene.solid_mask("w32799")
        assert mask.sum() == 1 and mask[0, 0, 32799]

    def test_table_leaves_knee_room(self):
        spec = SceneSpec(
            "x", (4.0, 4.0, 3.0), 0.2,
            (
                FloorSlab((0.0, 0.0, 4.0, 4.0), z=0.0, thickness=0.2),
                Table((1.0, 1.0, 2.6, 2.6), top_z=1.0, top_thickness=0.2, base_z=0.2),
            ),
        )
        scene = build_scene(spec)
        # center of the table footprint: open between floor and top slab
        assert scene.grid.is_occupied(9, 9, 4)  # top
        assert not scene.grid.is_occupied(9, 9, 2)  # under
        assert scene.grid.is_occupied(5, 5, 2)  # leg


class TestPresets:
    def test_names(self):
        assert PRESET_NAMES == (
            "table1_fixture",
            "two_story_house",
            "furniture_room",
            "plaza_like",
            "spiral_ramp",
        )

    def test_unknown_preset(self):
        with pytest.raises(SceneSpecError, match="unknown preset"):
            preset("escher_stairwell")

    def test_table1_has_every_structure_class(self):
        scene = build_scene(preset("table1_fixture"))
        for label in ("floor", "subfloor", "wall", "stairs", "table", "cabinet", "cavity"):
            assert scene.solid_mask(label).any(), label
        # so the wrong-type cases below reach every primitive type
        assert set(FIRST_OF_EACH_TYPE) == {
            CeilingCavity, FloorSlab, Hole, LowCabinet, Staircase, Table, Wall}

    def test_furniture_room_varies_with_rng_seed(self):
        a = build_scene(preset("furniture_room", rng_seed=0))
        b = build_scene(preset("furniture_room", rng_seed=1))
        assert not np.array_equal(a.grid.occupancy, b.grid.occupancy)

    def test_furniture_room_stable_for_one_seed(self):
        a = build_scene(preset("furniture_room", rng_seed=3))
        b = build_scene(preset("furniture_room", rng_seed=3))
        assert np.array_equal(a.grid.occupancy, b.grid.occupancy)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_every_preset_builds_at_both_resolutions(self, name):
        for resolution in (0.1, 0.2):
            scene = build_scene(preset(name, resolution=resolution))
            assert scene.grid.occupied_count > 0

    def test_spiral_ramp_climbs_contiguously(self, spiral):
        zs = np.unique(spiral.surface.states[:, 2])
        assert zs.min() == 2  # ground level on the 0.4 m slab
        assert zs.max() - zs.min() == spiral.surface.z_span()
        assert np.array_equal(zs, np.arange(zs.min(), zs.max() + 1))
        assert spiral.surface.z_span() >= spiral.surface.params.clearance_voxels


class TestSpecFile:
    def test_round_trip(self, tmp_path):
        spec = preset("table1_fixture", resolution=0.1, rng_seed=4)
        p = tmp_path / "spec.json"
        save_scene_spec(spec, p)
        back = load_scene_spec(p)
        assert back == spec
        assert np.array_equal(
            build_scene(back).grid.occupancy, build_scene(spec).grid.occupancy
        )

    def test_not_a_spec(self, tmp_path):
        p = tmp_path / "spec.json"
        p.write_text("[1, 2, 3]")
        with pytest.raises(SceneSpecError):
            load_scene_spec(p)

    def test_unknown_primitive_type(self, tmp_path):
        spec = preset("plaza_like")
        p = tmp_path / "spec.json"
        save_scene_spec(spec, p)
        p.write_text(p.read_text().replace('"type": "wall"', '"type": "moat"'))
        with pytest.raises(SceneSpecError, match="unknown primitive"):
            load_scene_spec(p)

    @pytest.mark.parametrize(
        "field, value",
        [("resolution", True), ("extent", ["10", "10", "6.4"]),
         ("seed_hint", ["8.6", "8.6", "1.1"]), ("rng_seed", True), ("name", 5),
         ("extent", [10, True, 6.4])],
        ids=["bool_resolution", "string_extent", "string_seed_hint", "bool_rng_seed",
             "number_name", "bool_extent"],
    )
    def test_fields_of_the_wrong_type(self, tmp_path, field, value):
        p = tmp_path / "spec.json"
        save_scene_spec(preset("table1_fixture"), p)
        doc = json.loads(p.read_text())
        doc[field] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(SceneSpecError, match=field):
            load_scene_spec(p)

    @pytest.mark.parametrize("index, kind, field, value", WRONG_FIELDS)
    def test_primitive_fields_of_the_wrong_type(self, tmp_path, capsys, index, kind, field,
                                                value):
        p = tmp_path / "spec.json"
        save_scene_spec(preset("table1_fixture"), p)
        doc = json.loads(p.read_text())
        prim = doc["primitives"][index]
        prim[field] = value
        p.write_text(json.dumps(doc))
        with pytest.raises(SceneSpecError, match=rf"bad {kind} .*: {field}\b"):
            load_scene_spec(p)
        assert main(["scenegen", "--spec", str(p), str(tmp_path / "o.grid")]) == EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err and "Traceback" not in err

    def test_voxel_cap(self):
        # 2048 * 1024 * 1024 voxels is the cap itself; half a meter more is over
        spec = dataclasses.replace(preset("table1_fixture"), resolution=0.5,
                                   extent=(1024.0, 512.0, 512.0))
        assert math.prod(int(e / spec.resolution) for e in spec.extent) == MAX_VOXELS
        with pytest.raises(SceneSpecError, match=r"extent \(1024.0, 512.0, 512.5\) at "
                           r"resolution 0.5 asks for 2.15e\+09 voxels"):
            dataclasses.replace(spec, extent=(1024.0, 512.0, 512.5))


class TestSampleQueries:
    def test_deterministic(self, two_story):
        a = sample_queries(two_story.surface, 10, mode="mixed", rng_seed=42)
        b = sample_queries(two_story.surface, 10, mode="mixed", rng_seed=42)
        assert a == b
        c = sample_queries(two_story.surface, 10, mode="mixed", rng_seed=43)
        assert a != c

    def test_same_floor_bound(self, two_story):
        k = two_story.surface.params.step_voxels
        pairs = sample_queries(two_story.surface, 20, mode="same_floor", rng_seed=1)
        assert len(pairs) == 20
        for s, g in pairs:
            assert abs(s[2] - g[2]) <= k

    def test_cross_floor_bound(self, two_story):
        kc = two_story.surface.params.clearance_voxels
        pairs = sample_queries(two_story.surface, 20, mode="cross_floor", rng_seed=1)
        for s, g in pairs:
            assert abs(s[2] - g[2]) >= kc

    def test_mixed_split(self, two_story):
        k = two_story.surface.params.step_voxels
        kc = two_story.surface.params.clearance_voxels
        pairs = sample_queries(two_story.surface, 9, mode="mixed", rng_seed=0)
        assert len(pairs) == 9
        same = sum(1 for s, g in pairs if abs(s[2] - g[2]) <= k)
        cross = sum(1 for s, g in pairs if abs(s[2] - g[2]) >= kc)
        assert same == 5 and cross == 4

    def test_endpoints_distinct_and_on_surface(self, two_story):
        for s, g in sample_queries(two_story.surface, 15, rng_seed=2):
            assert s != g
            assert s in two_story.surface
            assert g in two_story.surface

    def test_single_floor_rejects_cross_queries(self, furniture):
        with pytest.raises(QuerySamplingError, match="insufficient floors"):
            sample_queries(furniture.surface, 4, mode="cross_floor")

    def test_bad_arguments(self, furniture):
        with pytest.raises(ValueError):
            sample_queries(furniture.surface, 0)
        with pytest.raises(ValueError):
            sample_queries(furniture.surface, 5, mode="diagonal")
