"""Surface-interior distance field.

A state is a boundary state when some cardinal direction offers it no
connected neighbor: every height in the adjacent column is either absent
from the surface or beyond the step bound. Both read off the surface's
one CSR adjacency: a direction's neighbors are one run of the sorted
keys, and the CSR flags each state with an empty run as a boundary
state. The distance field is the hop count to the nearest boundary
state: the round in which the one frontier BFS of :mod:`surfnav.extract`,
started from every boundary state, reaches it over the same CSR the
search graph uses. Its memory scales with the surface, not the grid.
Planning derives from it, per search graph, a bias away from edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .extract import Surface, _bfs

__all__ = ["DistanceField", "boundary_states", "distance_field"]


@dataclass(frozen=True, eq=False)
class DistanceField:
    """Per-state boundary distances of ``surface``, indexed by ordinal:
    the rounds of a BFS from every boundary state."""

    surface: Surface
    distances: np.ndarray = field(init=False)

    def __post_init__(self):
        indptr, targets, _ = self.surface._csr
        dist = np.full(self.surface.size, -1, dtype=np.int64)
        for hops, frontier in enumerate(_bfs(indptr, targets, boundary_states(self.surface))):
            dist[frontier] = hops
        # a connected surface with any state has a boundary, so all reachable
        # states get a distance; isolated anomalies would surface here
        if np.any(dist < 0):
            raise AssertionError("distance field left states unreached")
        dist.setflags(write=False)
        object.__setattr__(self, "distances", dist)

    def at(self, state) -> int:
        return int(self.distances[self.surface.ordinal(state)])


def boundary_states(surface: Surface) -> np.ndarray:
    """Ordinals of states missing a connected neighbor in some direction."""
    _, _, boundary = surface._csr
    return np.flatnonzero(boundary)


def distance_field(surface: Surface) -> DistanceField:
    """Multi-source BFS from the boundary over surface connectivity."""
    return DistanceField(surface)
