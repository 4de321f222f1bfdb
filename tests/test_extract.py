import importlib
import io
import json
import math
import tracemalloc
import warnings
from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import built, seeded_surface, two_level_grid, voxel_sets
from surfnav import (
    CandidateSet,
    DerivedVoxelParams,
    ExtractionParams,
    InvalidSeedError,
    NoCandidatesError,
    OccupancyGrid,
    PRESET_NAMES,
    SearchGraph,
    SeedSnapError,
    Surface,
    SurfaceFormatError,
    candidate_set,
    collision_filter,
    distance_field,
    extract_pipeline,
    extract_surface,
    OffSurfaceError,
    load_surface,
    plan,
    reduction_stats,
    save_surface,
    select_seed,
)
from surfnav.extract import _bfs, _column_adjacency

extract_module = importlib.import_module("surfnav.extract")
from surfnav.oracle import _adjacent, _column_map, boundary_distance_reference


def dv(k=1, kc=3, rad=0):
    return DerivedVoxelParams(step_voxels=k, clearance_voxels=kc, inflation_voxels=rad)


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


def mask_of(cands):
    """The candidates as a boolean mask over their grid."""
    mask = np.zeros(cands.grid.dims, dtype=bool)
    mask.reshape(-1)[cands.keys] = True
    return mask


def from_mask(mask, grid, params):
    """A candidate set holding the voxels of a boolean mask over ``grid``."""
    return CandidateSet(np.flatnonzero(mask), grid, params)


def assert_same_csr(got, want):
    """Two surfaces hold the same adjacency arrays, dtypes included."""
    for a, b in zip(got._csr, want._csr, strict=True):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


def assert_adjacency_prebuilt(surface):
    """The adjacency extraction hands the surface equals the one a copy
    made with the constructor builds from its own keys."""
    assert_same_csr(surface, Surface(
        keys=surface.keys,
        dims=surface.dims,
        resolution=surface.resolution,
        origin=surface.origin,
        params=surface.params,
        extraction=surface.extraction,
    ))


def collision_reference(cands):
    """The collision filter's definition, one body voxel at a time."""
    g, kc, rad = cands.grid, cands.params.clearance_voxels, cands.params.inflation_voxels
    expect = np.zeros(g.dims, dtype=bool)
    for x, y, z in np.argwhere(mask_of(cands)).tolist():
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
        zs = np.argwhere(mask_of(cands))[:, 2]
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
        assert np.array_equal(mask_of(cands), candidate_reference(occ, kc))

    def test_keys_must_index_the_grid(self):
        g = floor_grid(4, 4, 6)  # 96 voxels
        cases = [
            (np.zeros(4, dtype=bool), "must be integers"),
            (np.array([0.0, 1.0]), "must be integers"),
            (np.array([[0, 1], [2, 3]]), "must be 1-D"),
            (np.array(5), "must be 1-D"),
            (np.array([0, 2, 2]), "strictly increasing"),
            (np.array([3, 1]), "strictly increasing"),
            (np.array([-1, 0]), "in the grid"),
            (np.array([0, 96]), "in the grid"),
        ]
        for keys, match in cases:
            with pytest.raises(ValueError, match=match):
                CandidateSet(keys, g, dv())

    def test_keys_are_a_read_only_copy(self):
        keys = np.array([1, 7, 95])
        cands = CandidateSet(keys, floor_grid(4, 4, 6), dv())
        keys[0] = 0
        assert cands.keys.tolist() == [1, 7, 95]
        assert cands.keys.dtype == np.int64 and not cands.keys.flags.writeable
        assert (0, 0, 1) in cands and (3, 3, 5) in cands and (0, 0, 0) not in cands


class TestCollisionFilter:
    def test_zero_radius_is_identity(self):
        cands = candidate_set(floor_grid(), dv(rad=0))
        assert collision_filter(cands) is cands

    def test_boundary_columns_read_occupied(self):
        cands = collision_filter(candidate_set(floor_grid(), dv(rad=2)))
        coords = np.argwhere(mask_of(cands))
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
        assert np.array_equal(mask_of(collision_filter(cands)), collision_reference(cands))

        # masks no candidate_set would give: voxels inside posts, on all
        # four edges, and with clearance windows past the grid top
        mask = rng.random(occ.shape) < 0.2
        mask[[0, 8, 4, 4], [4, 4, 0, 8], 1] = True
        mask[4, 4, 5:] = True
        hand = from_mask(mask, g, params)
        assert np.array_equal(mask_of(collision_filter(hand)), collision_reference(hand))

    @given(data=st.data(), rad=st.integers(1, 4), kc=st.integers(1, 4))
    def test_matches_brute_force_on_sparse_levels(self, data, rad, kc):
        # a level's box is its candidates' extent grown by rad: two opposite
        # candidates rad in from the corners make it the whole grid, and a
        # third lies anywhere between
        nx = data.draw(st.integers(2 * rad + 1, 2 * rad + 8))
        ny = data.draw(st.integers(2 * rad + 1, 2 * rad + 8))
        nz = data.draw(st.integers(1, kc + 5))
        # a few occupied voxels: a dense grid would hit every disk
        occ = np.zeros((nx, ny, nz), dtype=bool)
        voxel = st.tuples(st.integers(0, nx - 1), st.integers(0, ny - 1), st.integers(0, nz - 1))
        for v in data.draw(st.lists(voxel, max_size=8)):
            occ[v] = True
        mask = np.zeros(occ.shape, dtype=bool)
        for z in data.draw(st.sets(st.integers(0, nz - 1), min_size=1)):
            x = data.draw(st.integers(rad, nx - 1 - rad))
            y = data.draw(st.integers(rad, ny - 1 - rad))
            mask[[rad, nx - 1 - rad, x], [rad, ny - 1 - rad, y], z] = True
        hand = from_mask(mask, grid_from(occ), dv(k=0, kc=kc, rad=rad))
        assert np.array_equal(mask_of(collision_filter(hand)), collision_reference(hand))

    def test_own_column_is_not_in_the_disk(self):
        occ = np.zeros((11, 11, 12), dtype=bool)
        occ[:, :, 0] = True
        occ[5, 5, 1:8] = True
        mask = np.zeros(occ.shape, dtype=bool)
        mask[5, 5, 1] = mask[3, 5, 1] = True
        hand = from_mask(mask, grid_from(occ), dv(kc=3, rad=2))
        got = collision_filter(hand)
        assert (5, 5, 1) in got  # only its own column is occupied
        assert (3, 5, 1) not in got
        assert np.array_equal(mask_of(got), collision_reference(hand))

    def test_window_past_grid_top_hits(self):
        # the window (4, 6] leaves a 5-voxel-tall grid: it reads occupied
        occ = np.zeros((6, 6, 5), dtype=bool)
        occ[:, :, 0] = True
        mask = np.zeros(occ.shape, dtype=bool)
        mask[3, 3, 4] = mask[3, 3, 1] = True
        hand = from_mask(mask, grid_from(occ), dv(kc=2, rad=1))
        got = collision_filter(hand)
        assert (3, 3, 4) not in got
        assert (3, 3, 1) in got
        assert np.array_equal(mask_of(got), collision_reference(hand))

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
        cands = from_mask(mask, grid_from(np.zeros((6, 6, 4))), dv())
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

    def test_overflowed_distance_is_no_match_within_a_finite_limit(self):
        occ = np.zeros((6, 6, 6), dtype=bool)
        occ[:, :, 0] = True
        cands = candidate_set(OccupancyGrid(0.2, np.array([1e300, 0.0, 0.0]), occ), dv())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SeedSnapError, match="seed snap failed") as err:
                select_seed((0.0, 1.1, 0.3), cands, 2.0)
        assert err.value.distance == math.inf

    def test_huge_origin_absorbs_the_x_offsets(self):
        # at x = 1e300 every center's x rounds to the pose's, so the slab
        # of rows near the pose must not stop short of row 6
        mask = np.zeros((8, 1, 4), dtype=bool)
        mask[0, 0, 2] = True
        mask[6, 0, 1] = True
        grid = OccupancyGrid(0.2, np.array([1e300, 0.0, 0.0]), np.zeros(mask.shape, dtype=bool))
        cands = from_mask(mask, grid, dv())
        assert select_seed((1e300, 0.1, 0.3), cands, 0.4) == (6, 0, 1)

    @given(
        data=st.data(),
        dims=st.tuples(*[st.integers(1, 8)] * 3),
        origin=st.sampled_from([0.0, -3.7, 1e300]),
        res=st.sampled_from([0.2, 0.05, 1.5]),
    )
    def test_matches_brute_force(self, data, dims, origin, res):
        bits = data.draw(arrays(bool, dims).filter(np.any), label="bits")
        grid = OccupancyGrid(res, np.array([origin, -origin, 0.0]), np.zeros(dims, dtype=bool))
        cands = from_mask(bits, grid, dv())
        # on a half-voxel lattice around the grid, so exact ties are common
        half = [data.draw(st.integers(-6, 2 * d + 6), label="half") for d in dims]
        pose = grid.origin + np.array(half) * res / 2
        max_snap = data.draw(st.sampled_from([0.0, math.inf, res / 2, res])
                             | st.floats(0, 4 * res), label="max_snap")
        if data.draw(st.booleans(), label="on the slab edge"):
            # pose x exactly max_snap from a candidate's center along x
            x = int(np.argwhere(bits)[0][0])
            pose[0] = origin + (x + 0.5) * res + data.draw(st.sampled_from([-1, 1])) * max_snap
            assume(math.isfinite(pose[0]))
        want = snap_reference(cands, pose)
        if math.isfinite(want[1]) and want[1] <= max_snap:
            assert select_seed(pose, cands, max_snap) == want[0]
        else:
            with pytest.raises(SeedSnapError) as err:
                select_seed(pose, cands, max_snap)
            assert err.value.distance == want[1]


def snap_reference(cands, pose):
    """(nearest candidate, its distance), one candidate at a time, the
    lexicographically first on ties: centers and squared offsets in the
    order voxel_to_world and the snap take them. An overflowing offset
    reads inf."""
    g = cands.grid
    best = None
    for v in sorted(map(tuple, np.argwhere(mask_of(cands)).tolist())):
        d2 = 0.0
        for c, o, p in zip(v, g.origin.tolist(), np.asarray(pose).tolist()):
            d = o + (c + 0.5) * g.resolution - p
            d2 += d * d
        if best is None or d2 < best[1]:
            best = (v, d2)
    return best[0], math.sqrt(best[1])


def step_offsets(k):
    """Neighbor offsets in step order, the order of a
    :func:`_column_adjacency` row and so of the BFS: directions +x, -x,
    +y, -y, and within each dz = -k, ..., +k ascending."""
    return np.array([(dx, dy, dz) for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1))
                     for dz in range(-k, k + 1)], dtype=np.int64)


class TestStepOffsets:
    def test_order(self):
        assert step_offsets(1).tolist() == [
            [1, 0, -1], [1, 0, 0], [1, 0, 1],
            [-1, 0, -1], [-1, 0, 0], [-1, 0, 1],
            [0, 1, -1], [0, 1, 0], [0, 1, 1],
            [0, -1, -1], [0, -1, 0], [0, -1, 1],
        ]

    def test_zero_step(self):
        assert step_offsets(0).tolist() == [
            [1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]
        ]

    def test_dz_scan_ascends(self):
        # the z-ascending order of a direction's run in the column CSR
        offs = step_offsets(3)
        assert offs[:7].tolist() == [
            [1, 0, -3], [1, 0, -2], [1, 0, -1], [1, 0, 0], [1, 0, 1],
            [1, 0, 2], [1, 0, 3],
        ]


def adjacency_reference(keys, dims, k):
    """The bounded-step adjacency of a voxel set, from its (x, y, z)
    triples one move at a time: (indptr, targets, boundary)."""
    _, ny, nz = dims
    triples = [(key // (ny * nz), key // nz % ny, key % nz) for key in keys.tolist()]
    at = {v: i for i, v in enumerate(triples)}
    rows, boundary = [], []
    for x, y, z in triples:
        row, empty = [], False
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            hits = [at[(x + dx, y + dy, z + dz)] for dz in range(-k, k + 1)
                    if (x + dx, y + dy, z + dz) in at]
            row += hits
            empty |= not hits
        rows.append(row)
        boundary.append(empty)
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([len(r) for r in rows], out=indptr[1:])
    return indptr, np.array([t for r in rows for t in r], dtype=np.int64), np.array(boundary, dtype=bool)


class TestColumnAdjacency:
    @given(voxel_sets, st.integers(0, 4))
    # (0, 2, 0) and (1, 0, 0): consecutive columns of the keys, not neighbors
    @example(((2, 3, 1), np.array([0, 0, 1, 1, 0, 0], dtype=bool)), 0)
    # stacked voxels: windows of two and three
    @example(((2, 1, 6), np.array([0, 1, 1, 0, 1, 0, 1, 1, 1, 1, 0, 0], dtype=bool)), 2)
    def test_matches_triples(self, voxel_set, k):
        dims, bits = voxel_set
        keys = np.flatnonzero(bits)
        got = _column_adjacency(keys, dims, k)
        for a, b in zip(got, adjacency_reference(keys, dims, k), strict=True):
            assert a.dtype == b.dtype
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_build_peak_stays_within_eight_times_the_csr(self, name):
        # a surface made with the constructor builds its CSR for the order
        # proof, as a loaded one does: over its sorted keys, then cut
        s = built(name, resolution=0.1).surface
        tracemalloc.start()
        try:
            fresh = Surface(keys=s.keys, dims=s.dims, resolution=s.resolution,
                            origin=s.origin, params=s.params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * sum(a.nbytes for a in fresh.__dict__["_csr"])


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


def bfs_rounds_fifo(rows, sources):
    """The rounds of a FIFO breadth-first search over adjacency lists: the
    states of each depth, in the order the queue discovers them."""
    depth = {}
    order = []
    for s in sources:
        if s not in depth:
            depth[s] = 0
            order.append(s)
    queue = deque(order)
    while queue:
        u = queue.popleft()
        for v in rows[u]:
            if v not in depth:
                depth[v] = depth[u] + 1
                queue.append(v)
                order.append(v)
    return [[v for v in order if depth[v] == d] for d in range(max(depth.values()) + 1)]


def csr_of(rows):
    """Adjacency lists as (indptr, targets), both int64."""
    indptr = np.concatenate(([0], np.cumsum([len(r) for r in rows]))).astype(np.int64)
    return indptr, np.array([v for r in rows for v in r], dtype=np.int64)


class TestBfs:
    def test_duplicates_within_a_round(self):
        # both sources are listed twice; round 1 lists 1 four times and 3
        # three times, eight targets over six rows, and 1 comes first
        # because row 2 is walked before row 0
        rows = [[3, 3, 1, 3], [5], [1, 4, 1, 1], [5, 5], [0], []]
        indptr, targets = csr_of(rows)
        got = [r.tolist() for r in _bfs(indptr, targets, [2, 0, 2, 0])]
        assert got == [[2, 0], [1, 4, 3], [5]]
        assert got == bfs_rounds_fifo(rows, [2, 0, 2, 0])

    @given(data=st.data())
    def test_matches_fifo_reference(self, data):
        n = data.draw(st.integers(1, 12))
        node = st.integers(0, n - 1)
        rows = data.draw(st.lists(st.lists(node, max_size=3 * n), min_size=n, max_size=n))
        sources = data.draw(st.lists(node, min_size=1, max_size=2 * n))
        indptr, targets = csr_of(rows)
        got = _bfs(indptr, targets, sources)
        assert all(r.dtype == np.int64 for r in got)
        assert [r.tolist() for r in got] == bfs_rounds_fifo(rows, sources)


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
        # one seed, never none or several, even in one component
        for seeds in ([], [(0, 0, 1), (5, 5, 5)], [(0, 0, 1), (11, 11, 1)]):
            with pytest.raises(InvalidSeedError, match="one seed is required"):
                extract_surface(cands, seeds)

    def test_constructor_refuses_a_second_component(self):
        cands = candidate_set(table_grid(), dv())
        floor, top = extract_surface(cands, [(0, 0, 1)]), extract_surface(cands, [(5, 5, 5)])
        assert (floor.size, top.size) == (128, 16)
        # the floor's keys, then the tabletop's: the seed does not reach it
        with pytest.raises(ValueError, match=r"state \[5, 5, 5\] is not reachable from seed "
                                             r"\(0, 0, 1\)"):
            Surface(keys=np.concatenate((floor.keys, top.keys)), dims=floor.dims,
                    resolution=floor.resolution, origin=floor.origin, params=floor.params)

    def test_constructor_refuses_an_order_no_bfs_gives(self):
        a = extract_surface(candidate_set(table_grid(), dv()), [(0, 0, 1)])
        # the far corner moved to ordinal 1: every state is reachable, but
        # this order does not prove it
        far = a.ordinal((11, 11, 1))
        order = [0, far] + [i for i in range(1, a.size) if i != far]
        with pytest.raises(ValueError, match=r"state \[11, 11, 1\] is not reachable from "
                                             r"seed \(0, 0, 1\) in ordinal order"):
            Surface(keys=a.keys[order], dims=a.dims, resolution=a.resolution,
                    origin=a.origin, params=a.params)

    def test_builds_one_adjacency_and_proves_its_order(self, monkeypatch):
        # the constructor's order proof reads the candidates' CSR, cut, so
        # extraction builds the adjacency once and proves the order once
        calls = []

        def counted(fn):
            def run(*args):
                calls.append(fn.__name__)
                return fn(*args)
            return run

        for name in ("_column_adjacency", "_check_order"):
            monkeypatch.setattr(extract_module, name, counted(getattr(extract_module, name)))
        surface = extract_surface(candidate_set(table_grid(), dv()), [(0, 0, 1)])
        assert sorted(calls) == ["_check_order", "_column_adjacency"]
        assert_adjacency_prebuilt(surface)

    def test_two_neighbors_in_one_direction_go_up(self):
        # the +x column offers the seed two voxels within the step: the
        # lower one is discovered first, then the upper one
        mask = np.zeros((3, 1, 5), dtype=bool)
        mask[0, 0, 2] = mask[1, 0, 1] = mask[1, 0, 3] = mask[2, 0, 2] = True
        cands = from_mask(mask, grid_from(np.zeros(mask.shape)), dv(k=1, kc=2))
        surface = extract_surface(cands, [(0, 0, 2)])
        states = [tuple(s) for s in surface.states.tolist()]
        assert states == bfs_fifo(mask, (0, 0, 2), 1)
        assert states == [(0, 0, 2), (1, 0, 1), (1, 0, 3), (2, 0, 2)]
        assert_adjacency_prebuilt(surface)

    def test_ordinals_are_discovery_order(self):
        cands = candidate_set(self.staircase(), dv(k=1))
        surface = extract_surface(cands, [(0, 1, 1)])
        expected = bfs_fifo(mask_of(cands), (0, 1, 1), 1)
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
        cands = from_mask(mask, grid, dv(k=k, kc=k + 1))
        surface = extract_surface(cands, [seed])
        assert surface.seed == seed == tuple(surface.states[0])
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
        # a file read back cuts its own CSR and checks reachability by BFS:
        # the same keys, adjacency and distance field, bit for bit
        buf = io.StringIO()
        save_surface(surface, buf)
        loaded = load_surface(io.StringIO(buf.getvalue()))
        assert np.array_equal(loaded.keys, surface.keys)
        assert_same_csr(loaded, surface)
        assert np.array_equal(
            distance_field(loaded).distances, distance_field(surface).distances
        )


def test_adjacency_prebuilt_on_presets(all_presets):
    for b in all_presets.values():
        assert_adjacency_prebuilt(b.surface)


def test_every_preset_round_trips(all_presets):
    for b in all_presets.values():
        buf = io.StringIO()
        save_surface(b.surface, buf)
        loaded = load_surface(io.StringIO(buf.getvalue()))
        assert np.array_equal(loaded.keys, b.surface.keys)
        assert loaded.seed == b.surface.seed
        assert_same_csr(loaded, b.surface)


class TestSurfaceAccessors:
    def two_level(self):
        return extract_surface(candidate_set(two_level_grid(), dv()), [(0, 0, 1)])

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
        stats = reduction_stats(two_level_grid(), surface)
        assert stats.total_voxels == 1152
        assert stats.surface_size == surface.size
        assert stats.reduction == pytest.approx(1.0 - surface.size / 1152)


class TestSurfaceConstructor:
    def meters(self, **changes):
        """Thresholds in meters that give dv() at 0.2 m, or not, changed."""
        return ExtractionParams(**{"step_height": 0.3, "clearance_height": 0.5,
                                   "inflation_radius": 0.0, **changes})

    def args(self, **changes):
        s = extract_surface(candidate_set(table_grid(), dv()), [(0, 0, 1)])
        args = dict(keys=s.keys, dims=s.dims, resolution=s.resolution, origin=s.origin,
                    params=s.params, extraction=self.meters())
        return {**args, **changes}

    def test_seed_is_the_first_state(self):
        keys = self.args()["keys"]
        surface = Surface(**self.args(keys=keys[::-1]))
        assert surface.seed == tuple(np.unravel_index(keys[-1], surface.dims))
        assert surface.ordinal(surface.seed) == 0

    @pytest.mark.parametrize("rng_seed", [0, 1, 2])
    def test_a_permutation_is_refused(self, rng_seed):
        # a random order of one component's keys: the first state none of
        # whose neighbors comes before it, found here by the oracle's column
        # map, is the one named
        keys = self.args()["keys"]
        keys = keys[np.random.default_rng(rng_seed).permutation(keys.size)]
        states = [tuple(v) for v in np.stack(np.unravel_index(keys, (12, 12, 10)), 1).tolist()]
        cols = _column_map(extract_surface(candidate_set(table_grid(), dv()), [(0, 0, 1)]))
        seen = {states[0]}
        for state in states[1:]:
            if seen.isdisjoint(_adjacent(cols, state, 1)):
                break
            seen.add(state)
        x, y, z = state
        sx, sy, sz = states[0]
        with pytest.raises(ValueError, match=rf"state \[{x}, {y}, {z}\] is not reachable from "
                                             rf"seed \({sx}, {sy}, {sz}\)"):
            Surface(**self.args(keys=keys))

    @pytest.mark.parametrize("res", [float("nan"), float("inf"), 0.0, -0.2])
    def test_resolution_must_be_finite_and_positive(self, res):
        with pytest.raises(ValueError, match="resolution must be finite and > 0"):
            Surface(**self.args(resolution=res, extraction=None))

    def test_empty_keys_are_refused(self):
        with pytest.raises(ValueError, match="seed"):
            Surface(**self.args(keys=np.empty(0, dtype=np.int64)))

    def test_thresholds_must_give_the_voxel_params(self):
        Surface(**self.args())
        with pytest.raises(ValueError, match=r"params\.step_voxels is 1, but the thresholds "
                                             r"in meters give 2 at resolution 0\.2"):
            Surface(**self.args(extraction=self.meters(step_height=0.5)))
        with pytest.raises(ValueError, match=r"params\.inflation_voxels is 0, but the "
                                             r"thresholds in meters give 2"):
            Surface(**self.args(extraction=self.meters(inflation_radius=0.3)))

    def test_extraction_refuses_thresholds_its_candidates_do_not_use(self, table1):
        # the surface would save, but its file would never load
        cands = collision_filter(candidate_set(table1.grid, table1.surface.params))
        with pytest.raises(ValueError, match=r"params\.step_voxels is 1, but the thresholds "
                                             r"in meters give 2"):
            extract_surface(cands, [table1.surface.seed],
                            extraction=ExtractionParams(step_height=0.5))


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


# (44.7, 42, 5) is not a voxel: its integer part, (44, 42, 5), is a state
# of table1_fixture, and no lookup may read it as that state
FRACTIONAL = (44.7, 42, 5)


def test_a_fractional_coordinate_is_not_in_a_voxel_set(table1):
    cands = collision_filter(candidate_set(table1.grid, table1.surface.params))
    for voxels in (table1.surface, cands):
        assert (44, 42, 5) in voxels and (44.0, 42, 5.0) in voxels
        assert FRACTIONAL not in voxels


@pytest.mark.parametrize("error, call", [
    (KeyError, lambda b: b.surface.ordinal(FRACTIONAL)),
    (KeyError, lambda b: b.dfield.at(FRACTIONAL)),
    (OffSurfaceError, lambda b: plan(b.surface, b.dfield, FRACTIONAL, b.surface.seed)),
    (OffSurfaceError, lambda b: plan(b.surface, b.dfield, b.surface.seed, FRACTIONAL)),
    (InvalidSeedError, lambda b: extract_surface(
        collision_filter(candidate_set(b.grid, b.surface.params)), [FRACTIONAL])),
    (InvalidSeedError, lambda b: extract_pipeline(b.grid, ExtractionParams(),
                                                  seed_voxel=FRACTIONAL)),
], ids=["ordinal", "at", "plan-start", "plan-goal", "extract_surface", "extract_pipeline"])
def test_a_fractional_coordinate_is_refused(table1, error, call):
    with pytest.raises(error):
        call(table1)


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
        doc = p.read_text().replace('"version": 2', '"version": 7')
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
            lambda doc: doc["keys"].__setitem__(5, -1),
            lambda doc: doc["keys"].__setitem__(5, math.prod(doc["dims"])),
            lambda doc: doc["keys"].append(doc["keys"][5]),
        ],
        ids=["negative", "beyond_dims", "duplicate"],
    )
    def test_states_the_index_cannot_hold(self, tmp_path, edit):
        p = tmp_path / "s.json"
        save_surface(self.build(), p)
        doc = json.loads(p.read_text())
        edit(doc)
        p.write_text(json.dumps(doc))
        with pytest.raises(SurfaceFormatError, match="key"):
            load_surface(p)

    @pytest.mark.parametrize(
        "edit, field",
        [
            (lambda doc: doc.__setitem__("origin", [float("nan"), 0.0, 0.0]), "origin"),
            (lambda doc: doc.__setitem__("origin", [0.0, 0.0]), "origin"),
            (lambda doc: doc["keys"].__setitem__(5, doc["keys"][5] + 0.7), "keys"),
            (lambda doc: doc["params"].__setitem__("step_voxels", 0), "step_voxels"),
            (lambda doc: doc["seed"].__setitem__(0, doc["seed"][0] + 0.7), "seed"),
            (lambda doc: doc["dims"].__setitem__(2, doc["dims"][2] + 0.9), "dims"),
            (lambda doc: doc["params"].__setitem__("inflation_voxels", False),
             "inflation_voxels"),
            (lambda doc: doc.__setitem__("resolution", str(doc["resolution"])), "resolution"),
            (lambda doc: doc.__setitem__("resolution", True), "resolution"),
            (lambda doc: doc["params"].__setitem__("step_height", "0.3"), "step_height"),
            (lambda doc: doc["params"].__setitem__("inflation_radius", True),
             "inflation_radius"),
            # a threshold is checked even where another is absent
            (lambda doc: doc["params"].update(clearance_height=None, step_height="0.3"),
             "step_height"),
            # the thresholds in meters are all three, or none
            (lambda doc: doc["params"].update(clearance_height=None),
             r"without params\.clearance_height: give all three, or none"),
            (lambda doc: doc["params"].update(step_height=None, inflation_radius=None),
             r"without params\.step_height and params\.inflation_radius"),
            (lambda doc: doc.__setitem__("resolution", 0), "resolution must be finite and > 0"),
            (lambda doc: doc.__setitem__("resolution", -0.2), "resolution must be finite and > 0"),
            (lambda doc: doc["origin"].__setitem__(1, "0.0"), "origin"),
            (lambda doc: doc["origin"].__setitem__(2, False), "origin"),
            (lambda doc: doc.__setitem__("origin", True), "origin"),
            (lambda doc: doc["seed"].__setitem__(2, True), "seed"),
        ],
        ids=["nan_origin", "short_origin", "float_key", "step_voxels", "float_seed",
             "fractional_dims", "bool_inflation", "string_resolution", "bool_resolution",
             "string_step_height", "bool_inflation_radius", "lone_string_step_height",
             "one_threshold_null", "two_thresholds_null", "zero_resolution",
             "negative_resolution",
             "string_origin", "bool_origin",
             "bool_origin_list", "bool_seed"],
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
        # the top corner voxel: no state is within a step of it
        nx, ny, nz = doc["dims"]
        doc["keys"].append(nx * ny * nz - 1)
        p.write_text(json.dumps(doc))
        with pytest.raises(SurfaceFormatError,
                           match=rf"state \[{nx - 1}, {ny - 1}, {nz - 1}\] is not reachable"):
            load_surface(p)

    def test_state_ahead_of_its_neighbors(self, table1, tmp_path):
        # the last state, moved to just after the seed: it is reachable,
        # but no neighbor comes before it, so the file proves nothing
        surface = table1.surface
        indptr, targets, _ = surface._csr
        assert 0 not in targets[indptr[-2] :].tolist()  # not the seed's neighbor
        p = tmp_path / "s.json"
        save_surface(surface, p)
        doc = json.loads(p.read_text())
        doc["keys"].insert(1, doc["keys"].pop())
        p.write_text(json.dumps(doc))
        x, y, z = surface.states[-1].tolist()
        sx, sy, sz = surface.seed
        with pytest.raises(SurfaceFormatError,
                           match=rf"state \[{x}, {y}, {z}\] is not reachable from seed "
                                 rf"\({sx}, {sy}, {sz}\) in ordinal order: no neighbor"):
            load_surface(p)

    def test_seed_must_come_first(self, table1, tmp_path):
        p = tmp_path / "s.json"
        save_surface(table1.surface, p)
        doc = json.loads(p.read_text())
        doc["keys"][:2] = doc["keys"][1::-1]
        p.write_text(json.dumps(doc))
        with pytest.raises(SurfaceFormatError,
                           match=r"seed \(\d+, \d+, \d+\) is not the first state"):
            load_surface(p)

    @settings(max_examples=60)
    @given(voxel_sets, st.integers(0, 3), st.data())
    def test_every_surface_the_constructor_accepts_round_trips(self, voxel_set, k, data):
        # keys in a seed's BFS order, or in any order, which the constructor
        # may refuse: what it accepts saves, and loads back equal
        dims, bits = voxel_set
        keys = np.flatnonzero(bits)
        assume(keys.size)
        params = dv(k=k, kc=k + 1)
        order = data.draw(st.one_of(st.none(), st.permutations(range(keys.size))))
        if order is None:
            seed = np.unravel_index(data.draw(st.sampled_from(keys.tolist())), dims)
            surface = seeded_surface(keys, dims, seed, params)
        else:
            try:
                surface = Surface(keys=keys[order], dims=dims, resolution=0.2,
                                  origin=np.zeros(3), params=params)
            except ValueError as exc:
                assert "no neighbor comes before it" in str(exc)
                return
        buf = io.StringIO()
        save_surface(surface, buf)
        back = load_surface(io.StringIO(buf.getvalue()))
        assert np.array_equal(back.keys, surface.keys)
        assert np.array_equal(back.states, surface.states)
        assert_same_csr(back, surface)

    def test_loads_the_indented_layout(self, tmp_path):
        # a version-2 file indented by hand loads like the compact one
        surface = self.build()
        p = tmp_path / "s.json"
        save_surface(surface, p)
        p.write_text(json.dumps(json.loads(p.read_text()), indent=2, sort_keys=True))
        assert np.array_equal(load_surface(p).states, surface.states)

    def test_save_load_save_is_byte_identical(self, table1, tmp_path):
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        save_surface(table1.surface, first)
        save_surface(load_surface(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_states_are_read_only_and_bit_identical(self, table1):
        surface = table1.surface
        states = surface.states
        assert states.dtype == np.int64 and states.dtype.isnative
        assert states.flags.c_contiguous and not states.flags.writeable
        assert not surface.keys.flags.writeable
        with pytest.raises(ValueError):
            states[0, 0] = 0
        # the extraction's states, in the reference BFS's discovery order
        cands = collision_filter(candidate_set(table1.grid, surface.params))
        want = bfs_fifo(mask_of(cands), surface.seed, surface.params.step_voxels)
        assert states.tobytes() == np.array(want, dtype=np.int64).tobytes()
