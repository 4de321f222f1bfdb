"""Reference implementations for cross-checking the pipeline.

Everything here recomputes results from first principles with plain
Python containers: no shared traversal code, no shared cost code, no
vectorized shortcuts. Deliberately slow and obvious; tests compare the
fast modules against these on small scenes.
"""

from __future__ import annotations

import heapq
import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .dfield import DistanceField
from .extract import CandidateSet, Surface
from .grid import OccupancyGrid
from .plan import PlanParams

__all__ = [
    "OracleReport",
    "boundary_distance_reference",
    "dijkstra_reference",
    "flood_fill_reference",
    "recheck_surface_states",
]


@dataclass(frozen=True)
class OracleReport:
    """Outcome of an oracle sweep: what was checked and what disagreed."""

    subject: str
    checked: int
    mismatches: tuple

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def __str__(self) -> str:
        state = "ok" if self.ok else f"{len(self.mismatches)} mismatches"
        return f"{self.subject}: {self.checked} checked, {state}"


def flood_fill_reference(
    candidates: CandidateSet, seed, step_voxels: int
) -> set[tuple[int, int, int]]:
    """Reachable set by fixed-point sweep over a plain set of triples.

    Repeatedly adds any candidate cardinally adjacent (height difference
    at most step_voxels) to an already reached voxel until nothing
    changes. Order-free, so it cannot accidentally mirror BFS bookkeeping.
    """
    xs, ys, zs = np.unravel_index(candidates.keys, candidates.grid.dims)
    remaining = set(zip(xs.tolist(), ys.tolist(), zs.tolist()))
    seed = tuple(seed)  # as given: a fractional coordinate equals no voxel's
    if seed not in remaining:
        raise ValueError(f"seed {seed} is not a candidate")
    seed = tuple(int(c) for c in seed)
    reached = {seed}
    remaining.discard(seed)
    changed = True
    while changed:
        changed = False
        for v in list(remaining):
            x, y, z = v
            for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                hit = False
                for dz in range(-step_voxels, step_voxels + 1):
                    if (x + dx, y + dy, z + dz) in reached:
                        hit = True
                        break
                if hit:
                    reached.add(v)
                    remaining.discard(v)
                    changed = True
                    break
    return reached


def _column_map(surface: Surface) -> dict:
    cols = defaultdict(list)
    for x, y, z in surface.states.tolist():
        cols[(x, y)].append(z)
    for zs in cols.values():
        zs.sort()
    return cols


def _adjacent(cols: dict, state, k: int):
    x, y, z = state
    for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        for zz in cols.get((x + dx, y + dy), ()):
            if abs(zz - z) <= k:
                yield (x + dx, y + dy, zz)


def boundary_distance_reference(surface: Surface) -> np.ndarray:
    """Hop distance to the nearest boundary state, one early-exit BFS per
    state. A state is boundary when some cardinal direction offers no
    neighbor within the step bound."""
    cols = _column_map(surface)
    k = surface.params.step_voxels

    def is_boundary(state) -> bool:
        x, y, z = state
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            if not any(abs(zz - z) <= k for zz in cols.get((x + dx, y + dy), ())):
                return True
        return False

    out = np.empty(surface.size, dtype=np.int64)
    for i, state in enumerate(map(tuple, surface.states.tolist())):
        if is_boundary(state):
            out[i] = 0
            continue
        seen = {state}
        frontier = [state]
        d = 0
        found = False
        while not found:
            d += 1
            nxt = []
            for s in frontier:
                for nb in _adjacent(cols, s, k):
                    if nb in seen:
                        continue
                    seen.add(nb)
                    if is_boundary(nb):
                        found = True
                        break
                    nxt.append(nb)
                if found:
                    break
            frontier = nxt
            if not found and not frontier:
                raise AssertionError(f"no boundary reachable from {state}")
        out[i] = d
    return out


def dijkstra_reference(
    surface: Surface,
    dfield: DistanceField,
    source,
    params: PlanParams,
    reverse: bool = False,
) -> np.ndarray:
    """Exact single-source distances over the surface move graph.

    Forward: cost of leaving ``source``, i.e. dist[v] = cheapest
    source -> v. With ``reverse`` the edge direction flips, giving
    dist[v] = cheapest v -> source; vertical penalty and target bias then
    apply to the original orientation of each edge.
    """
    cols = _column_map(surface)
    k = surface.params.step_voxels
    r = surface.resolution
    dist_to_boundary = dfield.distances
    index = {tuple(state): i for i, state in enumerate(surface.states.tolist())}

    def weight(u, v) -> float:
        # cost of the original-graph edge; (u, v) is the relaxation
        # direction, which under reverse is the original edge (v, u)
        a, b = (v, u) if reverse else (u, v)
        dz = b[2] - a[2]
        base = r * math.sqrt(1.0 + dz * dz)
        if dz > 0:
            vert = r * dz * params.w_up
        elif dz < 0:
            vert = r * -dz * params.w_down
        else:
            vert = 0.0
        return base + vert + params.w_obstacle * r / (int(dist_to_boundary[index[b]]) + 1)

    source = tuple(source)  # as given: a fractional coordinate equals no state's
    if source not in index:
        raise ValueError(f"source {source} is not on the surface")
    source = tuple(int(c) for c in source)
    dist = np.full(surface.size, np.inf)
    dist[index[source]] = 0.0
    heap = [(0.0, source)]
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v in _adjacent(cols, u, k):
            nd = d + weight(u, v)
            j = index[v]
            if nd < dist[j]:
                dist[j] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def recheck_surface_states(surface: Surface, grid: OccupancyGrid) -> OracleReport:
    """Re-verify every surface state against the raw grid.

    Checks standing support, the free clearance column, and the lateral
    collision disk voxel by voxel through grid.is_occupied, with nothing
    cached or vectorized.
    """
    k_clear = surface.params.clearance_voxels
    rad = surface.params.inflation_voxels
    mismatches = []
    for x, y, z in surface.states.tolist():
        if grid.is_occupied(x, y, z):
            mismatches.append(((x, y, z), "state voxel occupied"))
            continue
        if z < 1 or not grid.in_bounds(x, y, z - 1) or not grid.occupancy[x, y, z - 1]:
            mismatches.append(((x, y, z), "no in-bounds support below"))
            continue
        bad = None
        for dz in range(1, k_clear + 1):
            if grid.is_occupied(x, y, z + dz):
                bad = f"clearance blocked at dz={dz}"
                break
        if bad is None and rad > 0:
            for dx in range(-rad, rad + 1):
                for dy in range(-rad, rad + 1):
                    if (dx, dy) == (0, 0) or dx * dx + dy * dy > rad * rad:
                        continue
                    for dz in range(1, k_clear + 1):
                        if grid.is_occupied(x + dx, y + dy, z + dz):
                            bad = f"collision at offset ({dx}, {dy}, {dz})"
                            break
                    if bad:
                        break
                if bad:
                    break
        if bad:
            mismatches.append(((x, y, z), bad))
    return OracleReport(
        subject="surface state recheck", checked=surface.size, mismatches=tuple(mismatches)
    )
