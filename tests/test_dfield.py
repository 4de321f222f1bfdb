import numpy as np

from surfnav import (
    ExtractionParams,
    boundary_states,
    distance_field,
    extract_pipeline,
)
from surfnav.oracle import boundary_distance_reference


def flat_surface(n=5):
    occ = np.zeros((n, n, 10), dtype=bool)
    occ[:, :, 0] = True
    from surfnav import OccupancyGrid

    grid = OccupancyGrid(0.2, np.zeros(3), occ)
    surface, _ = extract_pipeline(
        grid, ExtractionParams(inflation_radius=0.0), seed_voxel=(0, 0, 1)
    )
    return surface


class TestBoundary:
    def test_flat_square_boundary_ring(self):
        surface = flat_surface(5)
        ring = boundary_states(surface)
        assert ring.shape[0] == 16
        coords = surface.states[ring]
        on_edge = (
            (coords[:, 0] == 0) | (coords[:, 0] == 4)
            | (coords[:, 1] == 0) | (coords[:, 1] == 4)
        )
        assert np.all(on_edge)

    def test_boundary_iff_distance_zero(self):
        surface = flat_surface(6)
        dfield = distance_field(surface)
        ring = set(boundary_states(surface).tolist())
        for i in range(surface.size):
            assert (dfield.distances[i] == 0) == (i in ring)


class TestDistanceField:
    def test_flat_square_center(self):
        surface = flat_surface(5)
        dfield = distance_field(surface)
        assert dfield.at((2, 2, 1)) == 2
        assert dfield.at((1, 2, 1)) == 1
        assert dfield.at((0, 2, 1)) == 0

    def test_single_state_surface(self):
        occ = np.zeros((3, 3, 10), dtype=bool)
        occ[1, 1, 0] = True
        from surfnav import OccupancyGrid

        grid = OccupancyGrid(0.2, np.zeros(3), occ)
        surface, _ = extract_pipeline(
            grid, ExtractionParams(inflation_radius=0.0), seed_voxel=(1, 1, 1)
        )
        assert surface.size == 1
        dfield = distance_field(surface)
        assert dfield.distances.tolist() == [0]

    def test_matches_per_state_reference(self):
        surface = flat_surface(7)
        dfield = distance_field(surface)
        expected = boundary_distance_reference(surface)
        assert np.array_equal(dfield.distances, expected)
