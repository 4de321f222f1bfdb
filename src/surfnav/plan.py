"""Clearance-aware weighted A* over an extracted surface.

Moves connect a state to surface states in the four adjacent columns
within the step bound. Edge cost is metric length plus an asymmetric
vertical penalty plus a boundary-proximity bias, so equal-length paths
prefer descending over climbing and corridor centers over walls. The
heuristic underestimates every term it models and is consistent, which
keeps plain A* (epsilon = 1) exact; epsilon > 1 trades cost for speed
with the usual bounded-suboptimality guarantee.

The search is written once, as plain Python over indexable arrays and a
heapq of tuples (tie-break: min f, then max g, then lexicographic
coordinates, as the flat keys (x * ny + y) * nz + z order them), and so
is the heuristic it calls. Where numba imports,
both are compiled and the search reads the numpy arrays; otherwise it is
interpreted over memoryviews of the same arrays: indexing a memoryview
yields a plain int or float with no copy, where indexing an ndarray
boxes a numpy scalar. The values are the same IEEE doubles and integers
either way, so the results do not depend on which of the two runs. The
choice is made once, at import, and ``PathResult.engine`` names it.
"""

from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass

import numpy as np

from .dfield import DistanceField
from .errors import NoPathError, OffSurfaceError
from .extract import Surface, _int64

__all__ = [
    "PathResult",
    "PlanParams",
    "SearchGraph",
    "edge_cost",
    "heuristic",
    "plan",
    "successors",
]

@dataclass(frozen=True)
class PlanParams:
    """Search weights.

    epsilon: heuristic inflation, >= 1; 1 searches exactly.
    w_up / w_down: per-voxel vertical penalty factors for climbing and
    descending. Consistency of the heuristic needs w_up >= w_down.
    w_obstacle: boundary-proximity bias scale; each entered state adds
    w_obstacle * resolution / (boundary_distance + 1).
    """

    epsilon: float = 1.0
    w_up: float = 2.0
    w_down: float = 1.0
    w_obstacle: float = 0.5

    def __post_init__(self):
        for name in ("epsilon", "w_up", "w_down", "w_obstacle"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise ValueError(f"{name} must be finite, got {v}")
        if self.epsilon < 1.0:
            raise ValueError(f"epsilon must be >= 1, got {self.epsilon}")
        if self.w_down < 0.0 or self.w_up < self.w_down:
            raise ValueError(
                f"need w_up >= w_down >= 0, got w_up={self.w_up} w_down={self.w_down}"
            )
        if self.w_obstacle < 0.0:
            raise ValueError(f"w_obstacle must be >= 0, got {self.w_obstacle}")


def successors(surface: Surface, state) -> list[tuple[int, int, int]]:
    """Connected neighbors of the surface state ``state``, direction-major,
    ascending height."""
    indptr, targets, _ = surface._csr
    i = surface.ordinal(state)
    row = targets[indptr[i] : indptr[i + 1]]
    return [tuple(s) for s in surface.states[row].tolist()]


def _move_cost(dx, dy, dz, params: PlanParams, resolution: float) -> float:
    """Metric length of a move plus |dz| * resolution * (w_up rising,
    w_down falling): every edge-cost term except the target's bias."""
    base = resolution * math.sqrt(dx * dx + dy * dy + dz * dz)
    if dz > 0:
        vert = resolution * dz * params.w_up
    elif dz < 0:
        vert = resolution * -dz * params.w_down
    else:
        vert = 0.0
    return base + vert


def edge_cost(src, dst, dst_boundary_distance: int, params: PlanParams, resolution: float) -> float:
    """Cost of the move src -> dst.

    metric length + |dz| * resolution * (w_up rising, w_down falling)
    + w_obstacle * resolution / (boundary distance of dst + 1).
    """
    move = _move_cost(dst[0] - src[0], dst[1] - src[1], dst[2] - src[2], params, resolution)
    return move + params.w_obstacle * resolution / (dst_boundary_distance + 1)


def _heuristic(dx, dy, dz, res, w_down):
    """:func:`heuristic` from the offset to the goal in voxels; the search
    calls it, and numba compiles it along with the search."""
    return res * math.sqrt(dx * dx + dy * dy + dz * dz) + res * abs(dz) * w_down


def heuristic(state, goal, params: PlanParams, resolution: float) -> float:
    """Admissible cost lower bound: straight-line length plus the cheapest
    possible vertical penalty (w_down per voxel of net height change)."""
    return _heuristic(state[0] - goal[0], state[1] - goal[1], state[2] - goal[2],
                      resolution, params.w_down)


@dataclass(frozen=True, eq=False)
class SearchGraph:
    """CSR adjacency of a surface: edges sorted by (source ordinal,
    direction, height). Independent of planning weights, so one graph
    serves any number of queries. The arrays are held as native,
    C-contiguous int64, the layout the search reads compiled or not."""

    indptr: np.ndarray
    targets: np.ndarray
    dz: np.ndarray
    surface: Surface

    def __post_init__(self):
        for name in ("indptr", "targets", "dz"):
            object.__setattr__(self, name, _int64(getattr(self, name), name))

    @property
    def edge_count(self) -> int:
        return int(self.targets.shape[0])

    @classmethod
    def build(cls, surface: Surface) -> "SearchGraph":
        indptr, targets, _ = surface._csr
        zs = surface.states[:, 2]
        dz = zs[targets] - np.repeat(zs, np.diff(indptr))
        return cls(indptr=indptr, targets=targets, dz=dz, surface=surface)


@dataclass(frozen=True)
class PathResult:
    """A* output: states in path order (start first), accumulated cost,
    metric lengths in meters, and search effort: states expanded, heap
    pushes (the start's included), stale pops (entries of closed states or
    superseded g) and the largest heap size."""

    states: np.ndarray
    cost: float
    metric_length: float
    metric_length_xy: float
    expanded: int
    pushes: int
    stale_pops: int
    heap_peak: int
    search_seconds: float
    engine: str


def _astar(indptr, targets, dzs, cost_by_dz, bias, xs, ys, zs, keys, g, parent,
           closed, start, goal, epsilon, res, w_down, k):
    """A* over the CSR graph from ordinal ``start`` to ``goal``.

    ``g`` (all inf), ``parent`` (all -1) and ``closed`` (all False) are the
    caller's per-state search state, written in place. Heap entries are
    (f, -g, flat key, ordinal): min f, then max g, then lexicographic
    coordinates. Pushes of one state carry strictly
    decreasing g, so that order is total over live entries and no insertion
    counter is needed. Returns (expanded, pushes, stale_pops, heap_peak,
    found).
    """
    gx, gy, gz = xs[goal], ys[goal], zs[goal]
    g[start] = 0.0
    # alone in the heap and popped first, the start needs no f or key
    heap = [(0.0, -0.0, 0, start)]
    expanded = 0
    pushes = 1
    stale_pops = 0
    heap_peak = 1
    found = False
    while heap:
        _f, neg_g, _key, u = heapq.heappop(heap)
        pg = -neg_g
        if closed[u] or pg != g[u]:
            stale_pops += 1
            continue
        if u == goal:
            found = True
            break
        closed[u] = True
        expanded += 1
        for e in range(indptr[u], indptr[u + 1]):
            v = targets[e]
            if closed[v]:
                continue
            ng = pg + cost_by_dz[dzs[e] + k] + bias[v]
            if ng < g[v]:
                g[v] = ng
                parent[v] = u
                h = _heuristic(xs[v] - gx, ys[v] - gy, zs[v] - gz, res, w_down)
                heapq.heappush(heap, (ng + epsilon * h, -ng, keys[v], v))
                pushes += 1
        # pops happen only at the loop head, so this sees every peak
        if len(heap) > heap_peak:
            heap_peak = len(heap)
    return expanded, pushes, stale_pops, heap_peak, found


def _interpreted(*args):
    """:func:`_astar` over memoryviews: plain Python scalars, no copies."""
    return _astar(*(memoryview(a) if isinstance(a, np.ndarray) else a for a in args))


try:
    from numba import njit
    from numba.extending import register_jitable
except ImportError:
    _search, _ENGINE = _interpreted, "python"
else:
    register_jitable(_heuristic)  # lets the compiled _astar call it
    _search, _ENGINE = njit(cache=True)(_astar), "numba"


def _cost_table(params: PlanParams, resolution: float, k: int) -> np.ndarray:
    """Edge cost by height change, excluding the per-target bias."""
    return np.array(
        [_move_cost(1, 0, dz, params, resolution) for dz in range(-k, k + 1)],
        dtype=np.float64,
    )


def _metric_lengths(states: np.ndarray, resolution: float) -> tuple[float, float]:
    if states.shape[0] < 2:
        return 0.0, 0.0
    d = np.diff(states, axis=0).astype(np.float64)
    full = resolution * float(np.sqrt((d**2).sum(axis=1)).sum())
    xy = resolution * float(np.sqrt((d[:, :2] ** 2).sum(axis=1)).sum())
    return full, xy


def plan(
    surface: Surface,
    dfield: DistanceField,
    start,
    goal,
    params: PlanParams | None = None,
    graph: SearchGraph | None = None,
) -> PathResult:
    """Search a path between two surface states.

    ``start`` and ``goal`` are voxel triples that must lie on the surface.
    Pass a prebuilt ``graph`` to amortize adjacency construction across
    queries. The result's ``engine`` names the search that ran.
    """
    if params is None:
        params = PlanParams()
    if dfield.surface is not surface:
        raise ValueError("distance field belongs to a different surface")
    if graph is not None and graph.surface is not surface:
        raise ValueError("graph belongs to a different surface")
    start = tuple(int(c) for c in start)
    goal = tuple(int(c) for c in goal)
    if start not in surface:
        raise OffSurfaceError(f"state {start} is not on the surface (start)")
    if goal not in surface:
        raise OffSurfaceError(f"state {goal} is not on the surface (goal)")

    if start == goal:
        return PathResult(
            states=np.array([start], dtype=np.int64),
            cost=0.0,
            metric_length=0.0,
            metric_length_xy=0.0,
            expanded=0,
            pushes=0,
            stale_pops=0,
            heap_peak=0,
            search_seconds=0.0,
            engine=_ENGINE,
        )

    if graph is None:
        graph = SearchGraph.build(surface)
    k = surface.params.step_voxels
    res = surface.resolution
    cost_by_dz = _cost_table(params, res, k)
    s = surface.ordinal(start)
    t = surface.ordinal(goal)

    states = surface.states
    n = surface.size
    g = np.full(n, np.inf)
    parent = np.full(n, -1, np.int64)
    closed = np.zeros(n, np.bool_)
    t0 = time.perf_counter()
    expanded, pushes, stale_pops, heap_peak, found = _search(
        graph.indptr,
        graph.targets,
        graph.dz,
        cost_by_dz,
        dfield._bias(params.w_obstacle),
        states[:, 0],
        states[:, 1],
        states[:, 2],
        surface.keys,
        g,
        parent,
        closed,
        s,
        t,
        params.epsilon,
        res,
        params.w_down,
        k,
    )
    elapsed = time.perf_counter() - t0

    if not found:
        # unreachable on a seed-connected surface, but the graph is caller
        # input and the contract needs a typed failure
        raise NoPathError(f"no path from {start} to {goal}")

    chain = [t]
    while chain[-1] != s:
        chain.append(int(parent[chain[-1]]))
    chain.reverse()
    path_states = surface.states[np.array(chain, dtype=np.int64)]
    full, xy = _metric_lengths(path_states, res)
    return PathResult(
        states=path_states,
        cost=float(g[t]),
        metric_length=full,
        metric_length_xy=xy,
        expanded=int(expanded),
        pushes=int(pushes),
        stale_pops=int(stale_pops),
        heap_peak=int(heap_peak),
        search_seconds=elapsed,
        engine=_ENGINE,
    )
