import json
import math
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surfnav import (
    CandidateSet,
    DerivedVoxelParams,
    ExtractionParams,
    InvalidSeedError,
    NoCandidatesError,
    OccupancyGrid,
    SearchGraph,
    SeedSnapError,
    Surface,
    SurfaceFormatError,
    candidate_set,
    collision_filter,
    distance_field,
    extract_pipeline,
    extract_surface,
    levels_at,
    load_surface,
    reduction_stats,
    save_surface,
    select_seed,
    step_offsets,
)
from surfnav.oracle import _adjacent, _column_map, boundary_distance_reference


def dv(k=1, kc=3, rad=0, res=0.2):
    return DerivedVoxelParams(
        step_voxels=k, clearance_voxels=kc, inflation_voxels=rad, resolution=res
    )


def grid_from(occ, res=0.2):
    return OccupancyGrid(res, np.zeros(3), np.asarray(occ, dtype=bool))


def floor_grid(nx=10, ny=10, nz=10):
    occ = np.zeros((nx, ny, nz), dtype=bool)
    occ[:, :, 0] = True
    return grid_from(occ)


def table_grid():
    """Flat floor with a detached tabletop slab four voxels up."""
    occ = np.zeros((12, 12, 10), dtype=bool)
    occ[:, :, 0] = True
    occ[4:8, 4:8, 4] = True
    return grid_from(occ)


def candidate_reference(occ, kc):
    """The candidate definition, one voxel at a time: free, on in-bounds
    occupied support, with (z, z + kc] free and inside the grid."""
    nz = occ.shape[2]
    expect = np.zeros(occ.shape, dtype=bool)
    for x, y, z in np.ndindex(occ.shape):
        expect[x, y, z] = (
            not occ[x, y, z]
            and z >= 1
            and occ[x, y, z - 1]
            and z + kc < nz
            and not occ[x, y, z + 1 : z + kc + 1].any()
        )
    return expect


def assert_adjacency_prebuilt(surface):
    """The adjacency extraction hands the surface equals the one the
    surface would build from its own column index, dtypes included."""
    for got, want in zip(surface._csr, surface._adjacency(surface.states), strict=True):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


def collision_reference(cands):
    """The collision filter's definition, one body voxel at a time."""
    g, kc, rad = cands.grid, cands.params.clearance_voxels, cands.params.inflation_voxels
    expect = np.zeros_like(cands.mask)
    for x, y, z in cands.triples():
        hit = False
        for dx in range(-rad, rad + 1):
            for dy in range(-rad, rad + 1):
                if (dx, dy) == (0, 0) or dx * dx + dy * dy > rad * rad:
                    continue
                for zz in range(z + 1, z + kc + 1):
                    if g.is_occupied(x + dx, y + dy, zz):
                        hit = True
        expect[x, y, z] = not hit
    return expect


class TestDerivedParams:
    def test_defaults_at_coarse_resolution(self):
        d = DerivedVoxelParams.from_params(ExtractionParams(), 0.2)
        assert (d.step_voxels, d.clearance_voxels, d.inflation_voxels) == (1, 8, 2)

    def test_defaults_at_fine_resolution(self):
        d = DerivedVoxelParams.from_params(ExtractionParams(), 0.1)
        assert (d.step_voxels, d.clearance_voxels, d.inflation_voxels) == (3, 16, 3)

    def test_zero_step_and_zero_inflation_are_legal(self):
        d = DerivedVoxelParams.from_params(
            ExtractionParams(step_height=0.0, inflation_radius=0.0), 0.2
        )
        assert d.step_voxels == 0
        assert d.inflation_voxels == 0

    def test_subnormal_resolution_is_refused(self):
        # the thresholds overflow to inf voxels
        with pytest.raises(ValueError, match="too small"):
            DerivedVoxelParams.from_params(ExtractionParams(), 2.2e-311)

    def test_step_must_stay_below_clearance(self):
        with pytest.raises(ValueError):
            dv(k=3, kc=3)

    def test_extraction_params_validation(self):
        with pytest.raises(ValueError):
            ExtractionParams(step_height=-0.1)
        with pytest.raises(ValueError):
            ExtractionParams(clearance_height=0.0)
        with pytest.raises(ValueError):
            ExtractionParams(inflation_radius=float("nan"))


class TestCandidateSet:
    def test_flat_floor(self):
        cands = candidate_set(floor_grid(), dv())
        assert cands.count == 100
        zs = np.argwhere(cands.mask)[:, 2]
        assert np.all(zs == 1)

    def test_bottom_layer_never_stands(self):
        # support must be an in-bounds occupied voxel, so z = 0 is out even
        # though below-grid reads as occupied
        occ = np.zeros((4, 4, 6), dtype=bool)
        cands = candidate_set(grid_from(occ), dv())
        assert cands.count == 0

    def test_clearance_blocks_near_grid_top(self):
        g = floor_grid(nz=4)  # standing at z=1 needs free z in [2, 4]
        assert candidate_set(g, dv(kc=3)).count == 0
        assert candidate_set(g, dv(kc=2)).count == 100

    def test_table_scene(self):
        cands = candidate_set(table_grid(), dv())
        # floor everywhere except under the slab, plus the tabletop itself
        floor = [(x, y, 1) for x in range(12) for y in range(12)]
        for x, y, z in floor:
            expected = not (4 <= x < 8 and 4 <= y < 8)
            assert ((x, y, z) in cands) == expected
        for x in range(4, 8):
            for y in range(4, 8):
                assert (x, y, 5) in cands
        assert cands.count == 144 - 16 + 16

    @given(
        occ=arrays(bool, st.tuples(st.integers(1, 5), st.integers(1, 5), st.integers(1, 9))),
        kc=st.integers(1, 5),
    )
    @example(occ=np.zeros((3, 4, 8), dtype=bool), kc=2)
    @example(occ=np.ones((3, 4, 8), dtype=bool), kc=2)
    @example(occ=np.eye(4, 9, dtype=bool)[None].repeat(3, axis=0), kc=3)
    @example(occ=np.ones((2, 3, 4), dtype=bool), kc=3)  # zmax = 0
    @example(occ=np.eye(2, 3, dtype=bool)[None], kc=5)  # zmax < 0
    def test_matches_voxel_reference(self, occ, kc):
        cands = candidate_set(grid_from(occ), dv(k=0, kc=kc))
        assert np.array_equal(cands.mask, candidate_reference(occ, kc))

    def test_mask_shape_must_match_grid(self):
        g = floor_grid(4, 4, 6)
        with pytest.raises(ValueError):
            CandidateSet(np.zeros((3, 3, 3), dtype=bool), g, dv())


class TestCollisionFilter:
    def test_zero_radius_is_identity(self):
        cands = candidate_set(floor_grid(), dv(rad=0))
        assert collision_filter(cands) is cands

    def test_boundary_columns_read_occupied(self):
        cands = collision_filter(candidate_set(floor_grid(), dv(rad=2)))
        coords = np.argwhere(cands.mask)
        assert cands.count == 36
        assert coords[:, 0].min() == 2 and coords[:, 0].max() == 7
        assert coords[:, 1].min() == 2 and coords[:, 1].max() == 7

    def test_post_clears_a_disk(self):
        occ = np.zeros((11, 11, 12), dtype=bool)
        occ[:, :, 0] = True
        occ[5, 5, 1:8] = True
        g = grid_from(occ)
        params = dv(kc=3, rad=2)
        cands = collision_filter(candidate_set(g, params))
        assert (3, 5, 1) not in cands  # XY distance 2 from the post
        assert (4, 4, 1) not in cands
        assert (2, 5, 1) in cands  # distance 3
        assert (3, 3, 1) in cands  # distance sqrt(8) > 2

    @pytest.mark.parametrize("seed", [3, 5, 11])
    @pytest.mark.parametrize("rad", [1, 2, 3, 4])
    def test_matches_brute_force(self, rad, seed):
        rng = np.random.default_rng(seed)
        occ = np.zeros((9, 9, 9), dtype=bool)
        occ[:, :, 0] = True
        blocks = rng.integers(0, 9, size=(12, 2))
        for x, y in blocks:
            occ[x, y, 1 : rng.integers(2, 8)] = True
        g = grid_from(occ)
        params = dv(kc=3, rad=rad)
        cands = candidate_set(g, params)
        assert np.array_equal(collision_filter(cands).mask, collision_reference(cands))

        # masks no candidate_set would give: voxels inside posts, on all
        # four edges, and with clearance windows past the grid top
        mask = rng.random(occ.shape) < 0.2
        mask[[0, 8, 4, 4], [4, 4, 0, 8], 1] = True
        mask[4, 4, 5:] = True
        hand = CandidateSet(mask, g, params)
        assert np.array_equal(collision_filter(hand).mask, collision_reference(hand))

    def test_own_column_is_not_in_the_disk(self):
        occ = np.zeros((11, 11, 12), dtype=bool)
        occ[:, :, 0] = True
        occ[5, 5, 1:8] = True
        mask = np.zeros(occ.shape, dtype=bool)
        mask[5, 5, 1] = mask[3, 5, 1] = True
        hand = CandidateSet(mask, grid_from(occ), dv(kc=3, rad=2))
        got = collision_filter(hand)
        assert (5, 5, 1) in got  # only its own column is occupied
        assert (3, 5, 1) not in got
        assert np.array_equal(got.mask, collision_reference(hand))

    def test_window_past_grid_top_hits(self):
        # the window (4, 6] leaves a 5-voxel-tall grid: it reads occupied
        occ = np.zeros((6, 6, 5), dtype=bool)
        occ[:, :, 0] = True
        mask = np.zeros(occ.shape, dtype=bool)
        mask[3, 3, 4] = mask[3, 3, 1] = True
        hand = CandidateSet(mask, grid_from(occ), dv(kc=2, rad=1))
        got = collision_filter(hand)
        assert (3, 3, 4) not in got
        assert (3, 3, 1) in got
        assert np.array_equal(got.mask, collision_reference(hand))

    def test_standing_plane_never_collides(self):
        # a one-voxel curb inside the disk sits at standing height, below
        # the checked window, so neighbors keep their footing
        occ = np.zeros((12, 12, 10), dtype=bool)
        occ[:, :, 0] = True
        occ[6, 6, 1] = True
        cands = collision_filter(candidate_set(grid_from(occ), dv(kc=3, rad=2)))
        assert (5, 6, 1) in cands
        assert (6, 6, 2) in cands  # standing on the curb itself


class TestSelectSeed:
    def test_exact_center(self):
        cands = candidate_set(floor_grid(), dv())
        g = cands.grid
        center = g.origin + (np.array([4, 7, 1]) + 0.5) * g.resolution
        assert select_seed(center, cands, 2.0) == (4, 7, 1)

    def test_lexicographic_tie(self):
        mask = np.zeros((6, 6, 4), dtype=bool)
        mask[2, 3, 1] = True
        mask[3, 2, 1] = True
        cands = CandidateSet(mask, grid_from(np.zeros((6, 6, 4))), dv())
        # pose equidistant from both centers
        assert select_seed((0.6, 0.6, 0.3), cands, 2.0) == (2, 3, 1)

    def test_snap_failure(self):
        cands = candidate_set(floor_grid(), dv())
        with pytest.raises(SeedSnapError) as err:
            select_seed((50.0, 0.0, 0.0), cands, 2.0)
        assert "seed snap failed" in str(err.value)
        assert err.value.distance > 2.0

    def test_no_candidates(self):
        g = grid_from(np.zeros((4, 4, 6)))
        cands = candidate_set(g, dv())
        with pytest.raises(NoCandidatesError):
            select_seed((0.0, 0.0, 0.0), cands, 2.0)

    def test_bad_pose(self):
        cands = candidate_set(floor_grid(), dv())
        with pytest.raises(ValueError):
            select_seed((np.nan, 0.0, 0.0), cands, 2.0)

    @pytest.mark.parametrize("max_snap", [math.nan, -1.0, -math.inf])
    def test_bad_max_snap(self, max_snap):
        # NaN compares false with every distance, so it used to mean no limit
        cands = candidate_set(floor_grid(), dv())
        with pytest.raises(ValueError, match="max_snap must be"):
            select_seed((50.0, 0.0, 0.0), cands, max_snap)
        with pytest.raises(ValueError, match="max_snap must be"):
            select_seed((0.9, 1.5, 0.3), cands, max_snap)

    def test_infinite_max_snap_is_no_limit(self):
        cands = candidate_set(floor_grid(), dv())
        assert select_seed((50.0, 0.0, 0.0), cands, math.inf) == (9, 0, 1)

    def test_overflowed_distance_is_no_match(self):
        # every squared distance overflows to inf, so all candidates would
        # tie and row 0 would win whatever the pose
        occ = np.zeros((6, 6, 6), dtype=bool)
        occ[:, :, 0] = True
        cands = candidate_set(OccupancyGrid(0.2, np.array([1e300, 0.0, 0.0]), occ), dv())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeedSnapError, match="seed snap failed") as err:
                select_seed((0.0, 1.1, 0.3), cands, math.inf)
        assert err.value.distance == math.inf


class TestStepOffsets:
    def test_order(self):
        assert step_offsets(1).tolist() == [
            [1, 0, 0], [1, 0, 1], [1, 0, -1],
            [-1, 0, 0], [-1, 0, 1], [-1, 0, -1],
            [0, 1, 0], [0, 1, 1], [0, 1, -1],
            [0, -1, 0], [0, -1, 1], [0, -1, -1],
        ]

    def test_zero_step(self):
        assert step_offsets(0).tolist() == [
            [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]
        ]

    def test_dz_scan_is_flat_first(self):
        offs = step_offsets(3)
        assert offs[:7].tolist() == [
            [1, 0, 0], [1, 0, 1], [1, 0, -1], [1, 0, 2], [1, 0, -2],
            [1, 0, 3], [1, 0, -3],
        ]


def bfs_fifo(mask, seed, k):
    """Sequential reference BFS over the bounded-step relation."""
    offsets = step_offsets(k).tolist()
    nx, ny, nz = mask.shape
    order = [seed]
    seen = {seed}
    queue = deque([seed])
    while queue:
        x, y, z = queue.popleft()
        for dx, dy, dz in offsets:
            n = (x + dx, y + dy, z + dz)
            if not (0 <= n[0] < nx and 0 <= n[1] < ny and 0 <= n[2] < nz):
                continue
            if mask[n] and n not in seen:
                seen.add(n)
                queue.append(n)
                order.append(n)
    return order


class TestExtractSurface:
    def staircase(self):
        """Ascending columns along x, one voxel of rise per column."""
        occ = np.zeros((6, 3, 12), dtype=bool)
        for x in range(6):
            occ[x, :, : x + 1] = True
        return grid_from(occ)

    def test_staircase_single_component(self):
        cands = candidate_set(self.staircase(), dv(k=1))
        surface = extract_surface(cands, [(0, 1, 1)])
        assert surface.size == 18
        for x in range(6):
            for y in range(3):
                assert (x, y, x + 1) in surface

    def test_zero_step_confines_to_level(self):
        cands = candidate_set(self.staircase(), dv(k=0, kc=3))
        surface = extract_surface(cands, [(0, 1, 1)])
        assert surface.size == 3
        assert np.all(surface.states[:, 0] == 0)

    def test_detached_patch_excluded(self):
        cands = candidate_set(table_grid(), dv())
        surface = extract_surface(cands, [(0, 0, 1)])
        assert surface.size == 128
        assert np.all(surface.states[:, 2] == 1)

    def test_seed_on_patch_keeps_only_patch(self):
        cands = candidate_set(table_grid(), dv())
        surface = extract_surface(cands, [(5, 5, 5)])
        assert surface.size == 16
        assert np.all(surface.states[:, 2] == 5)
        # the candidates' adjacency, cut to a patch of 16 of 144
        assert_adjacency_prebuilt(surface)

    def test_invalid_seed(self):
        cands = candidate_set(table_grid(), dv())
        with pytest.raises(InvalidSeedError):
            extract_surface(cands, [(4, 4, 1)])  # under the slab
        with pytest.raises(InvalidSeedError):
            extract_surface(cands, [])

    def test_multiple_seeds_union_components(self):
        cands = candidate_set(table_grid(), dv())
        surface = extract_surface(cands, [(0, 0, 1), (5, 5, 5)])
        assert surface.size == 144
        assert surface.seed == (0, 0, 1)

    def test_duplicate_component_seeds_dedupe(self):
        cands = candidate_set(table_grid(), dv())
        a = extract_surface(cands, [(0, 0, 1)])
        b = extract_surface(cands, [(0, 0, 1), (11, 11, 1)])
        assert a.size == b.size

    def test_ordinals_are_discovery_order(self):
        cands = candidate_set(self.staircase(), dv(k=1))
        surface = extract_surface(cands, [(0, 1, 1)])
        expected = bfs_fifo(cands.mask, (0, 1, 1), 1)
        assert [tuple(s) for s in surface.states.tolist()] == expected
        for i, s in enumerate(expected):
            assert surface.ordinal(s) == i

    @given(
        bits=st.lists(st.integers(0, 1), min_size=245, max_size=245),
        k=st.integers(0, 2),
    )
    def test_matches_fifo_reference(self, bits, k):
        mask = np.array(bits, dtype=bool).reshape((7, 7, 5))
        assume(mask.any())
        seed = tuple(int(c) for c in np.argwhere(mask)[0])
        grid = grid_from(np.zeros((7, 7, 5)))
        cands = CandidateSet(mask, grid, dv(k=k, kc=k + 1))
        surface = extract_surface(cands, [seed])
        assert [tuple(s) for s in surface.states.tolist()] == bfs_fifo(mask, seed, k)
        assert_adjacency_prebuilt(surface)
        # random masks put several heights of a neighbor column inside the
        # step window, which no preset does: check the adjacency runs here
        assert np.array_equal(
            distance_field(surface).distances, boundary_distance_reference(surface)
        )
        graph = SearchGraph.build(surface)
        cols = _column_map(surface)
        for i, state in enumerate(surface.states.tolist()):
            row = graph.targets[graph.indptr[i] : graph.indptr[i + 1]]
            got = [tuple(surface.states[j]) for j in row.tolist()]
            assert got == list(_adjacent(cols, tuple(state), k))


def test_adjacency_prebuilt_on_presets(all_presets):
    for b in all_presets.values():
        assert_adjacency_prebuilt(b.surface)


class TestSurfaceAccessors:
    def two_level(self):
        occ = np.zeros((8, 8, 12), dtype=bool)
        occ[:, :, 0] = True
        occ[2:5, 2:5, 5] = True  # slab with walkable top and free underside
        cands = candidate_set(grid_from(occ), dv())
        return extract_surface(cands, [(0, 0, 1), (3, 3, 6)])

    def test_levels_at(self):
        surface = self.two_level()
        assert levels_at(surface, 3, 3) == [1, 6]
        assert levels_at(surface, 0, 0) == [1]
        assert levels_at(surface, 7, 9) == []

    def test_z_span(self):
        assert self.two_level().z_span() == 5

    def test_membership_and_centers(self):
        surface = self.two_level()
        assert (3, 3, 6) in surface
        assert (3, 3, 4) not in surface
        centers = surface.state_centers()
        assert centers.shape == (surface.size, 3)
        i = surface.ordinal((3, 3, 6))
        assert centers[i] == pytest.approx((0.7, 0.7, 1.3))

    def test_reduction_stats(self):
        surface = self.two_level()
        stats = reduction_stats(grid_from(np.zeros((8, 8, 12))), surface)
        assert stats.total_voxels == 768
        assert stats.surface_size == surface.size
        assert stats.reduction == pytest.approx(1.0 - surface.size / 768)


class TestPipeline:
    def test_pose_and_voxel_seeding_agree(self):
        g = table_grid()
        s1, _ = extract_pipeline(g, ExtractionParams(inflation_radius=0.0),
                                 seed_pose=(0.1, 0.1, 0.3))
        s2, _ = extract_pipeline(g, ExtractionParams(inflation_radius=0.0),
                                 seed_voxel=(0, 0, 1))
        assert np.array_equal(s1.states, s2.states)

    def test_requires_exactly_one_seed_argument(self):
        g = table_grid()
        with pytest.raises(ValueError):
            extract_pipeline(g, ExtractionParams())
        with pytest.raises(ValueError):
            extract_pipeline(
                g, ExtractionParams(), seed_pose=(0, 0, 0), seed_voxel=(0, 0, 1)
            )

    def test_timings_cover_stages(self):
        g = table_grid()
        _, timings = extract_pipeline(
            g, ExtractionParams(inflation_radius=0.0), seed_voxel=(0, 0, 1)
        )
        assert timings.candidate_seconds >= 0
        assert timings.collision_seconds >= 0
        assert timings.bfs_seconds > 0
        assert timings.total_seconds == pytest.approx(
            timings.candidate_seconds + timings.collision_seconds + timings.bfs_seconds
        )


class TestSurfaceFile:
    def build(self):
        surface, _ = extract_pipeline(
            table_grid(), ExtractionParams(inflation_radius=0.0), seed_voxel=(0, 0, 1)
        )
        return surface

    def test_round_trip(self, tmp_path):
        surface = self.build()
        p = tmp_path / "s.json"
        save_surface(surface, p)
        back = load_surface(p)
        assert isinstance(back, Surface)
        assert np.array_equal(back.states, surface.states)
        assert back.seed == surface.seed
        assert back.dims == surface.dims
        assert back.resolution == surface.resolution
        assert back.params == surface.params
        assert back.extraction == surface.extraction
        assert back.ordinal((0, 0, 1)) == surface.ordinal((0, 0, 1))

    def test_not_json(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text("RNAV????")
        with pytest.raises(SurfaceFormatError):
            load_surface(p)

    def test_missing_marker(self, tmp_path):
        p = tmp_path / "s.json"
        p.write_text('{"version": 1}')
        with pytest.raises(SurfaceFormatError):
            load_surface(p)

    def test_bad_version(self, tmp_path):
        surface = self.build()
        p = tmp_path / "s.json"
        save_surface(surface, p)
        doc = p.read_text().replace('"version": 1', '"version": 7')
        p.write_text(doc)
        with pytest.raises(SurfaceFormatError):
            load_surface(p)

    def test_seed_must_be_a_state(self, tmp_path):
        surface = self.build()
        p = tmp_path / "s.json"
        save_surface(surface, p)
        doc = json.loads(p.read_text())
        doc["seed"] = [5, 5, 5]
        p.write_text(json.dumps(doc))
        with pytest.raises(SurfaceFormatError):
            load_surface(p)

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["states"][5].__setitem__(0, -1),
            lambda doc: doc["states"][5].__setitem__(0, doc["dims"][0] + 3),
            lambda doc: doc["states"].append(doc["states"][5]),
        ],
        ids=["negative", "beyond_dims", "duplicate"],
    )
    def test_states_the_index_cannot_hold(self, tmp_path, edit):
        # an out-of-range state's flat key aliases another column
        p = tmp_path / "s.json"
        save_surface(self.build(), p)
        doc = json.loads(p.read_text())
        edit(doc)
        p.write_text(json.dumps(doc))
        with pytest.raises(SurfaceFormatError):
            load_surface(p)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.__setitem__("origin", [float("nan"), 0.0, 0.0]), "origin"),
            (lambda doc: doc.__setitem__("origin", [0.0, 0.0]), "origin"),
            (lambda doc: doc["states"][5].__setitem__(2, doc["states"][5][2] + 0.7), "states"),
            (lambda doc: doc["params"].__setitem__("step_voxels", 0), "step_voxels"),
            (lambda doc: doc["seed"].__setitem__(0, doc["seed"][0] + 0.7), "seed"),
        ],
        ids=["nan_origin", "short_origin", "float_state", "step_voxels", "float_seed"],
    )
    def test_fields_that_cannot_be_trusted(self, tmp_path, edit, field):
        p = tmp_path / "s.json"
        save_surface(self.build(), p)
        doc = json.loads(p.read_text())
        edit(doc)
        p.write_text(json.dumps(doc))
        with pytest.raises(SurfaceFormatError, match=field):
            load_surface(p)

    def test_state_cut_off_from_the_seed(self, table1, tmp_path):
        p = tmp_path / "s.json"
        save_surface(table1.surface, p)
        doc = json.loads(p.read_text())
        # a corner voxel at the grid top: no state is within a step of it
        doc["states"].append([0, 0, doc["dims"][2] - 1])
        p.write_text(json.dumps(doc))
        with pytest.raises(SurfaceFormatError, match=rf"state \[0, 0, {doc['dims'][2] - 1}\]"):
            load_surface(p)

    def test_loads_the_indented_layout(self, tmp_path):
        # files written with indent=2 before the compact layout still load
        surface = self.build()
        p = tmp_path / "s.json"
        save_surface(surface, p)
        p.write_text(json.dumps(json.loads(p.read_text()), indent=2, sort_keys=True))
        assert np.array_equal(load_surface(p).states, surface.states)
