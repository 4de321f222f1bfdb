import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from surfnav import (
    EmptyInputError,
    GridFormatError,
    InvalidPointError,
    OccupancyGrid,
    build_scene,
    load_grid,
    load_point_cloud,
    preset,
    save_grid,
    save_point_cloud,
    voxel_to_world,
    voxelize,
    world_to_voxel,
)
from surfnav.grid import HEADER_SIZE, MAX_VOXELS, ceil_voxels, floor_voxels


def make_grid(occ, resolution=0.2, origin=(0.0, 0.0, 0.0)):
    return OccupancyGrid(
        resolution=resolution,
        origin=np.asarray(origin, dtype=np.float64),
        occupancy=np.asarray(occ, dtype=bool),
    )


class TestQuantizers:
    def test_floor(self):
        assert floor_voxels(3.0) == 3
        assert floor_voxels(2.999999999999) == 3  # half-ulp noise snaps up
        assert floor_voxels(2.9) == 2
        assert floor_voxels(-0.3) == -1
        assert floor_voxels(0.3 / 0.1) == 3

    def test_ceil(self):
        assert ceil_voxels(3.0) == 3
        assert ceil_voxels(3.000000000001) == 3
        assert ceil_voxels(3.1) == 4
        assert ceil_voxels(1.6 / 0.1) == 16


class TestCoordinateMaps:
    def test_world_to_voxel_examples(self):
        g = make_grid(np.zeros((4, 4, 4)))
        assert world_to_voxel(g, (0.0, 0.0, 0.0)) == (0, 0, 0)
        assert world_to_voxel(g, (0.39, 0.2, 0.61)) == (1, 1, 3)
        g2 = make_grid(np.zeros((4, 4, 4)), resolution=0.5, origin=(-1.0, -1.0, 0.0))
        assert world_to_voxel(g2, (-0.9, 0.4, 0.0)) == (0, 2, 0)

    def test_voxel_to_world_examples(self):
        g = make_grid(np.zeros((4, 4, 4)))
        assert voxel_to_world(g, (0, 0, 0)) == pytest.approx((0.1, 0.1, 0.1))
        assert voxel_to_world(g, (3, 1, 0)) == pytest.approx((0.7, 0.3, 0.1))

    @given(
        v=st.tuples(st.integers(0, 30), st.integers(0, 30), st.integers(0, 30)),
        res=st.sampled_from([0.05, 0.1, 0.2, 0.25, 0.5]),
        origin=st.tuples(
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
            st.floats(-5, 5, allow_nan=False),
        ),
    )
    def test_center_round_trip(self, v, res, origin):
        g = make_grid(np.zeros((31, 31, 31)), resolution=res, origin=origin)
        assert world_to_voxel(g, voxel_to_world(g, v)) == v

    def test_non_finite_point_rejected(self):
        g = make_grid(np.zeros((2, 2, 2)))
        with pytest.raises(InvalidPointError):
            world_to_voxel(g, (float("nan"), 0.0, 0.0))


class TestOccupancyQueries:
    def test_out_of_bounds_is_occupied(self):
        g = make_grid(np.zeros((2, 2, 2)))
        assert g.is_occupied(-1, 0, 0)
        assert g.is_occupied(0, 0, 2)
        assert not g.is_occupied(1, 1, 1)

    def test_in_bounds(self):
        g = make_grid(np.zeros((2, 3, 4)))
        assert g.in_bounds(1, 2, 3)
        assert not g.in_bounds(2, 0, 0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            make_grid(np.zeros((2, 2, 2)), resolution=-0.1)
        with pytest.raises(ValueError):
            make_grid(np.zeros((2, 2)))


def dense_voxelize_reference(pts, resolution, min_points):
    """voxelize's binning with a dense count grid: (dims, origin, occupancy)."""
    pmin, pmax = pts.min(axis=0), pts.max(axis=0)
    dims = tuple(max(1, ceil_voxels(e / resolution)) + 2 for e in pmax - pmin)
    origin = pmin - resolution
    t = (pts - origin) / resolution
    idx = np.floor(t + 1e-9 + np.abs(t) * 1e-12).astype(np.int64)
    idx = np.clip(idx, 0, np.asarray(dims) - 1)
    counts = np.zeros(dims, dtype=np.int64)
    np.add.at(counts, (idx[:, 0], idx[:, 1], idx[:, 2]), 1)
    return dims, origin, counts >= min_points


# quarter-meter steps put several points in one voxel, floats fall anywhere
coordinates = st.integers(-4, 4).map(lambda i: i / 4) | st.floats(-1.0, 1.0)


class TestVoxelize:
    @given(
        pts=st.lists(st.tuples(coordinates, coordinates, coordinates), min_size=1, max_size=40),
        resolution=st.sampled_from([0.1, 0.25, 0.5]),
        min_points=st.integers(1, 3),
    )
    def test_matches_dense_count(self, pts, resolution, min_points):
        pts = np.array(pts, dtype=np.float64)
        g = voxelize(pts, resolution, min_points=min_points)
        dims, origin, occ = dense_voxelize_reference(pts, resolution, min_points)
        assert g.dims == dims
        assert np.array_equal(g.origin, origin)
        assert np.array_equal(g.occupancy, occ)

    def test_single_point(self):
        g = voxelize(np.array([[0.05, 0.05, 0.05]]), 0.1)
        assert g.dims == (3, 3, 3)
        assert g.occupied_count == 1
        assert g.is_occupied(1, 1, 1)

    def test_cube_corners(self):
        pts = np.array(
            [[x, y, z] for x in (0.0, 1.0) for y in (0.0, 1.0) for z in (0.0, 1.0)]
        )
        g = voxelize(pts, 0.5)
        assert g.dims == (4, 4, 4)
        assert g.occupied_count == 8

    def test_min_points_threshold(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        g = voxelize(pts, 0.2, min_points=2)
        assert g.occupied_count == 0

    def test_empty_cloud(self):
        with pytest.raises(EmptyInputError):
            voxelize(np.zeros((0, 3)), 0.2)

    def test_non_finite_point(self):
        with pytest.raises(InvalidPointError):
            voxelize(np.array([[0.0, np.inf, 0.0]]), 0.2)

    def test_bad_resolution(self):
        with pytest.raises(ValueError):
            voxelize(np.array([[0.0, 0.0, 0.0]]), 0.0)

    def test_center_cloud_rebins_stably(self):
        # voxel centers regenerated from one grid must bin back onto the
        # same occupancy pattern, cycle after cycle
        rng = np.random.default_rng(7)
        pts = rng.uniform(-1, 1, size=(60, 3))
        g1 = voxelize(pts, 0.2)
        g2 = voxelize(g1.occupied_centers(), 0.2)
        g3 = voxelize(g2.occupied_centers(), 0.2)
        assert g2.dims == g3.dims
        assert np.array_equal(g2.occupancy, g3.occupancy)


class TestGridFile:
    def test_minimal_grid_file_size(self, tmp_path):
        # 52-byte header (4 magic + 4 version + 12 dims + 8 resolution +
        # 24 origin) plus 1 payload byte for the single voxel
        g = make_grid(np.zeros((1, 1, 1)))
        p = tmp_path / "g.grid"
        save_grid(g, p)
        assert p.stat().st_size == 53

    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(0)
        occ = rng.random((16, 16, 16)) < 0.3
        g = make_grid(occ, resolution=0.1, origin=(-1.0, 2.0, 0.5))
        p = tmp_path / "g.grid"
        save_grid(g, p)
        g2 = load_grid(p)
        assert g2.dims == g.dims
        assert g2.resolution == g.resolution
        assert np.array_equal(g2.origin, g.origin)
        assert np.array_equal(g2.occupancy, g.occupancy)

    def test_save_is_bit_stable(self, tmp_path):
        rng = np.random.default_rng(1)
        g = make_grid(rng.random((5, 7, 3)) < 0.5)
        a, b = tmp_path / "a.grid", tmp_path / "b.grid"
        save_grid(g, a)
        save_grid(g, b)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_magic(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_bytes(b"XXXX" + b"\x00" * 60)
        with pytest.raises(GridFormatError) as err:
            load_grid(p)
        assert err.value.offset == 0

    def test_wrong_version(self, tmp_path):
        p = tmp_path / "bad.grid"
        p.write_bytes(
            struct.pack("<4sI3Id3d", b"RNAV", 9, 1, 1, 1, 0.2, 0.0, 0.0, 0.0) + b"\x00"
        )
        with pytest.raises(GridFormatError) as err:
            load_grid(p)
        assert err.value.offset == 4

    @pytest.mark.parametrize("dims", [(2**11, 2**10, 2**10 + 1), (2**32 - 1,) * 3])
    def test_dims_over_the_voxel_cap(self, tmp_path, dims):
        # refused at the dims, before the payload length is compared
        p = tmp_path / "big.grid"
        p.write_bytes(struct.pack("<4sI3Id3d", b"RNAV", 2, *dims, 0.2, 0.0, 0.0, 0.0))
        with pytest.raises(GridFormatError, match="a grid holds 1 to 2\\*\\*31") as err:
            load_grid(p)
        assert err.value.offset == 8

    def test_dims_at_the_voxel_cap_reach_the_payload_test(self, tmp_path):
        p = tmp_path / "big.grid"
        p.write_bytes(struct.pack("<4sI3Id3d", b"RNAV", 2, 2**11, 2**10, 2**10, 0.2, 0, 0, 0))
        assert 2**31 == MAX_VOXELS
        with pytest.raises(GridFormatError, match=f"expected {2**28}"):
            load_grid(p)

    def test_truncated_payload(self, tmp_path):
        g = make_grid(np.zeros((4, 4, 4)))
        p = tmp_path / "g.grid"
        save_grid(g, p)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(GridFormatError):
            load_grid(p)

    def test_payload_is_flat_key_little_bit_order(self, tmp_path):
        occ = np.zeros((3, 2, 2), dtype=bool)
        occ[0, 0, 1] = True  # key (0 * 2 + 0) * 2 + 1 = 1 -> bit 1 of byte 0
        occ[0, 1, 1] = True  # key (0 * 2 + 1) * 2 + 1 = 3 -> bit 3 of byte 0
        occ[2, 0, 1] = True  # key (2 * 2 + 0) * 2 + 1 = 9 -> bit 1 of byte 1
        g = make_grid(occ)
        p = tmp_path / "g.grid"
        save_grid(g, p)
        payload = p.read_bytes()[HEADER_SIZE:]
        assert payload == bytes([(1 << 1) | (1 << 3), 1 << 1])
        assert load_grid(p).occupancy.flags.c_contiguous

    def test_version_1_is_refused(self, tmp_path):
        # version 1 stored its bits x-fastest: the same bytes, another grid
        p = tmp_path / "g.grid"
        save_grid(make_grid(np.zeros((4, 4, 4))), p)
        data = bytearray(p.read_bytes())
        struct.pack_into("<I", data, 4, 1)
        p.write_bytes(bytes(data))
        with pytest.raises(GridFormatError, match="version 1.*regenerate") as err:
            load_grid(p)
        assert err.value.offset == 4


class TestOneGridInMemory:
    """A ~1 MB grid goes through save, load and a scene build holding one
    grid-sized array: the peak traced memory, counting the grid itself,
    stays within 1.25x its bytes plus the packed payload."""

    @staticmethod
    def grid():
        occ = np.zeros((100, 100, 100), dtype=bool)
        occ[::3, :, ::2] = True
        return make_grid(occ)

    @staticmethod
    def traced(step):
        """step() and the peak bytes traced while it ran."""
        tracemalloc.start()
        try:
            return step(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    @staticmethod
    def assert_one_grid(peak, grid):
        occ = grid.occupancy
        assert peak <= 1.25 * occ.nbytes + (occ.size + 7) // 8, peak

    def test_save_grid(self, tmp_path):
        def step():
            grid = self.grid()  # made inside the trace, so the peak counts it
            save_grid(grid, tmp_path / "g.grid")
            return grid

        grid, peak = self.traced(step)
        self.assert_one_grid(peak, grid)

    def test_load_grid(self, tmp_path):
        save_grid(self.grid(), tmp_path / "g.grid")
        grid, peak = self.traced(lambda: load_grid(tmp_path / "g.grid"))
        self.assert_one_grid(peak, grid)
        assert np.array_equal(grid.occupancy, self.grid().occupancy)

    def test_build_scene(self):
        scene, peak = self.traced(lambda: build_scene(preset("table1_fixture", resolution=0.08)))
        assert scene.grid.dims == (125, 125, 80)
        self.assert_one_grid(peak, scene.grid)


class TestPointCloudFile:
    def test_round_trip(self, tmp_path):
        pts = np.array([[0.1, 0.2, 0.3], [-1.0, 2.5, 0.0]])
        p = tmp_path / "c.xyz"
        save_point_cloud(pts, p)
        assert load_point_cloud(p) == pytest.approx(pts)

    def test_comments_and_blanks_skipped(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("# header\n\n0.1 0.2 0.3\n")
        assert load_point_cloud(p).shape == (1, 3)

    def test_bad_line(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("0.1 0.2\n")
        with pytest.raises(InvalidPointError):
            load_point_cloud(p)

    def test_empty_file(self, tmp_path):
        p = tmp_path / "c.xyz"
        p.write_text("# nothing\n")
        with pytest.raises(EmptyInputError):
            load_point_cloud(p)
