import functools
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from surfnav import (
    ExtractionParams,
    PlanParams,
    SearchGraph,
    Surface,
    build_scene,
    distance_field,
    extract_pipeline,
    extract_surface,
    preset,
)
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


def union_surface(candidates, seed, other):
    """A surface of two components, made with the Surface constructor: the
    keys of ``seed``'s surface, then those of ``other``'s. Its seed is
    ``seed``, which does not reach ``other``, so save_surface refuses it."""
    a, b = extract_surface(candidates, [seed]), extract_surface(candidates, [other])
    return Surface(keys=np.concatenate((a.keys, b.keys)), dims=a.dims,
                   resolution=a.resolution, origin=a.origin, params=a.params)


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
