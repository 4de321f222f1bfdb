"""The oracles themselves get sanity tests on fixtures small enough to
check by hand; the acceptance suite then holds the fast modules to them."""

import numpy as np
import pytest

from surfnav import (
    DerivedVoxelParams,
    OccupancyGrid,
    PlanParams,
    candidate_set,
    collision_filter,
    distance_field,
    extract_surface,
)
from surfnav.oracle import (
    OracleReport,
    boundary_distance_reference,
    dijkstra_reference,
    flood_fill_reference,
    recheck_surface_states,
)

from conftest import built


def dv(k=1, kc=3, rad=0):
    return DerivedVoxelParams(step_voxels=k, clearance_voxels=kc, inflation_voxels=rad)


def floor_setup(n=6):
    occ = np.zeros((n, n, 10), dtype=bool)
    occ[:, :, 0] = True
    grid = OccupancyGrid(0.2, np.zeros(3), occ)
    cands = candidate_set(grid, dv())
    surface = extract_surface(cands, [(0, 0, 1)])
    return grid, cands, surface


class TestFloodFill:
    def test_flat_floor_fully_reached(self):
        _, cands, _ = floor_setup(6)
        reached = flood_fill_reference(cands, (0, 0, 1), 1)
        assert len(reached) == 36
        assert reached == {(x, y, 1) for x in range(6) for y in range(6)}

    def test_detached_patch_stays_out(self):
        occ = np.zeros((12, 12, 10), dtype=bool)
        occ[:, :, 0] = True
        occ[4:8, 4:8, 4] = True
        grid = OccupancyGrid(0.2, np.zeros(3), occ)
        cands = candidate_set(grid, dv())
        reached = flood_fill_reference(cands, (0, 0, 1), 1)
        assert (5, 5, 5) not in reached
        assert len(reached) == 128

    def test_single_candidate(self):
        occ = np.zeros((3, 3, 10), dtype=bool)
        occ[1, 1, 0] = True
        grid = OccupancyGrid(0.2, np.zeros(3), occ)
        cands = candidate_set(grid, dv())
        assert flood_fill_reference(cands, (1, 1, 1), 1) == {(1, 1, 1)}

    def test_zero_step_keeps_levels_apart(self):
        occ = np.zeros((5, 3, 10), dtype=bool)
        for x in range(5):
            occ[x, :, : x + 1] = True  # ascending columns
        grid = OccupancyGrid(0.2, np.zeros(3), occ)
        cands = candidate_set(grid, dv(k=1))
        assert len(flood_fill_reference(cands, (0, 1, 1), 1)) == 15
        assert flood_fill_reference(cands, (0, 1, 1), 0) == {
            (0, 0, 1), (0, 1, 1), (0, 2, 1)
        }

    def test_rejects_non_candidate_seed(self):
        _, cands, _ = floor_setup(4)
        with pytest.raises(ValueError):
            flood_fill_reference(cands, (0, 0, 5), 1)


class TestBoundaryDistanceReference:
    def test_flat_square_by_hand(self):
        _, _, surface = floor_setup(5)
        ref = boundary_distance_reference(surface)
        # ring distance: min hops to the edge of the 5 x 5 patch
        for i, (x, y, z) in enumerate(surface.states.tolist()):
            assert ref[i] == min(x, y, 4 - x, 4 - y)

    def test_agrees_with_fast_field(self):
        _, _, surface = floor_setup(7)
        assert np.array_equal(
            boundary_distance_reference(surface), distance_field(surface).distances
        )


class TestDijkstraReference:
    def test_source_distance_zero(self):
        _, _, surface = floor_setup(5)
        dfield = distance_field(surface)
        dist = dijkstra_reference(surface, dfield, (2, 2, 1), PlanParams())
        assert dist[surface.ordinal((2, 2, 1))] == 0.0

    def test_flat_corner_distance_without_bias(self):
        _, _, surface = floor_setup(10)
        dfield = distance_field(surface)
        params = PlanParams(w_obstacle=0.0)
        dist = dijkstra_reference(surface, dfield, (0, 0, 1), params)
        assert dist[surface.ordinal((9, 9, 1))] == pytest.approx(18 * 0.2, abs=1e-12)

    def test_forward_reverse_symmetry_on_flat_ground(self):
        # without the bias term every flat edge is its own mirror, so the
        # two orientations must agree (the bias breaks this: it charges
        # the entered state, which flips with the direction)
        _, _, surface = floor_setup(6)
        dfield = distance_field(surface)
        params = PlanParams(w_obstacle=0.0)
        fwd = dijkstra_reference(surface, dfield, (2, 3, 1), params)
        rev = dijkstra_reference(surface, dfield, (2, 3, 1), params, reverse=True)
        assert fwd == pytest.approx(rev, rel=1e-12)

    def test_reverse_mode_orients_climb_penalty(self):
        occ = np.zeros((4, 1, 10), dtype=bool)
        for x in range(4):
            occ[x, :, : x + 1] = True
        grid = OccupancyGrid(0.2, np.zeros(3), occ)
        cands = candidate_set(grid, dv())
        surface = extract_surface(cands, [(0, 0, 1)])
        dfield = distance_field(surface)
        params = PlanParams(w_obstacle=0.0)
        # forward from the bottom means climbing; reverse means the cost
        # of walking back down to the bottom
        fwd = dijkstra_reference(surface, dfield, (0, 0, 1), params)
        rev = dijkstra_reference(surface, dfield, (0, 0, 1), params, reverse=True)
        top = surface.ordinal((3, 0, 4))
        climb = 3 * (0.2 * np.sqrt(2.0) + 0.2 * params.w_up)
        descend = 3 * (0.2 * np.sqrt(2.0) + 0.2 * params.w_down)
        assert fwd[top] == pytest.approx(climb, rel=1e-12)
        assert rev[top] == pytest.approx(descend, rel=1e-12)

    def test_bad_source(self):
        _, _, surface = floor_setup(4)
        dfield = distance_field(surface)
        with pytest.raises(ValueError):
            dijkstra_reference(surface, dfield, (9, 9, 9), PlanParams())


class TestRecheck:
    def test_clean_surface_passes(self):
        grid, _, surface = floor_setup(6)
        report = recheck_surface_states(surface, grid)
        assert report.ok
        assert report.checked == surface.size
        assert "ok" in str(report)

    def test_catches_planted_violation(self):
        grid, _, surface = floor_setup(6)
        # corrupt the grid after extraction: occupy a state's clearance
        occ = np.array(grid.occupancy)
        occ[2, 2, 3] = True
        bad_grid = OccupancyGrid(grid.resolution, grid.origin, occ)
        report = recheck_surface_states(surface, bad_grid)
        assert not report.ok
        assert any(state == (2, 2, 1) for state, _ in report.mismatches)

    def test_report_str(self):
        report = OracleReport(subject="x", checked=3, mismatches=((1, "y"),))
        assert "1 mismatches" in str(report)


# (44.7, 42, 5) is not a voxel: its integer part, (44, 42, 5), is a state
# of table1_fixture, and neither oracle may read it as that state
@pytest.mark.parametrize("call", [
    lambda b: flood_fill_reference(collision_filter(candidate_set(b.grid, b.surface.params)),
                                   (44.7, 42, 5), b.surface.params.step_voxels),
    lambda b: dijkstra_reference(b.surface, b.dfield, (44.7, 42, 5), PlanParams()),
], ids=["flood_fill", "dijkstra"])
def test_a_fractional_voxel_is_refused(call):
    b = built("table1_fixture")
    assert (44, 42, 5) in b.surface
    with pytest.raises(ValueError, match=r"\(44\.7, 42, 5\) is not"):
        call(b)
