import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surfnav import (
    ExtractionParams,
    OccupancyGrid,
    PlanParams,
    SearchGraph,
    Surface,
    build_scene,
    distance_field,
    extract_pipeline,
    preset,
)
from surfnav.extract import _bfs, _column_adjacency
from surfnav.plan import BUILD_PRICE

settings.register_profile(
    "suite", deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
settings.load_profile("suite")

# grid dims up to 8 voxels a side, with any set of their voxels
voxel_sets = st.tuples(*[st.integers(1, 8)] * 3).flatmap(
    lambda dims: st.tuples(st.just(dims), arrays(bool, math.prod(dims)))
)


class Built:
    """One preset taken through the full pipeline, shared across tests."""

    def __init__(self, name, resolution=0.2, rng_seed=0):
        self.spec = preset(name, resolution=resolution, rng_seed=rng_seed)
        self.scene = build_scene(self.spec)
        self.grid = self.scene.grid
        self.surface, self.timings = extract_pipeline(
            self.grid, ExtractionParams(), seed_pose=self.spec.seed_hint
        )
        self._dfield = None
        self._graph = None

    @property
    def dfield(self):
        if self._dfield is None:
            self._dfield = distance_field(self.surface)
        return self._dfield

    @property
    def graph(self):
        if self._graph is None:
            self._graph = SearchGraph.build(self.surface)
        return self._graph


def seeded_surface(keys, dims, seed, params):
    """The surface ``seed`` grows over any voxel set, made with the Surface
    constructor: the voxels of ``keys``, sorted flat keys over ``dims``,
    that the voxel ``seed`` among them reaches in steps of up to
    ``params.step_voxels``, in BFS discovery order from it."""
    keys = np.asarray(keys, dtype=np.int64)
    at = np.searchsorted(keys, np.ravel_multi_index(seed, dims))
    csr = _column_adjacency(keys, dims, params.step_voxels)
    order = np.concatenate(_bfs(csr[0], csr[1], [at]))
    return Surface(keys=keys[order], dims=dims, resolution=0.2, origin=np.zeros(3),
                   params=params)


def two_level_grid():
    """An 8 x 12 floor at z = 0 and a 3 x 3 slab at z = 5 over x, y = 2..4,
    free beneath, so columns (2..4, 2..4) stand at z = 1 and z = 6, and a
    stair along x = 3 that stands one voxel higher at each of y = 8, 7, 6
    and 5 climbs from the floor to the slab top. At step 1 and clearance 3,
    one seed reaches both levels."""
    occ = np.zeros((8, 12, 12), dtype=bool)
    occ[:, :, 0] = True
    occ[2:5, 2:5, 5] = True
    for y in range(5, 9):
        occ[3, y, : 10 - y] = True  # stands at z = 10 - y
    return OccupancyGrid(0.2, np.zeros(3), occ)


def paid_graph(surface, dfield, params=PlanParams()):
    """A new graph of ``surface`` holding the state for ``params``' weights,
    whose exact searches have paid for landmark tables: the next exact
    query with those weights builds them."""
    graph = SearchGraph.build(surface)
    graph._costs(dfield, params).expanded = BUILD_PRICE * surface.size
    return graph


@functools.lru_cache(maxsize=None)
def built(name, resolution=0.2, rng_seed=0):
    return Built(name, resolution=resolution, rng_seed=rng_seed)


@pytest.fixture(scope="session")
def table1():
    return built("table1_fixture")


@pytest.fixture(scope="session")
def two_story():
    return built("two_story_house")


@pytest.fixture(scope="session")
def furniture():
    return built("furniture_room")


@pytest.fixture(scope="session")
def plaza():
    return built("plaza_like")


@pytest.fixture(scope="session")
def spiral():
    return built("spiral_ramp")


@pytest.fixture(scope="session")
def all_presets(table1, two_story, furniture, plaza, spiral):
    return {
        "table1_fixture": table1,
        "two_story_house": two_story,
        "furniture_room": furniture,
        "plaza_like": plaza,
        "spiral_ramp": spiral,
    }
