"""Clearance-aware weighted A* over an extracted surface.

Moves connect a state to surface states in the four adjacent columns
within the step bound. Edge cost is metric length plus an asymmetric
vertical penalty plus a boundary-proximity bias, so equal-length paths
prefer descending over climbing and corridor centers over walls. The
heuristic underestimates every term it models and is consistent, which
keeps plain A* (epsilon = 1) exact; epsilon > 1 trades cost for speed
with the usual bounded-suboptimality guarantee.

The bound is xy-Manhattan: every move changes x or y by exactly one
voxel, so a path to a goal H = |dx| + |dy| columns and dz levels away
has length at least res * sqrt(H^2 + dz^2), and pays at least
res * |dz| * w_down for the height change. It has no floor for the
boundary bias: with one, an edge could pay exactly the bound's drop, and
the path rule below needs every edge to pay strictly more. With
w_obstacle > 0 each edge pays its target's bias beyond the drop, so the
bound is strictly consistent: A* expands every state at its final g, in
the order of its heap key.

The search keeps no parents. The path is read off the final g-values:
walking back from the goal, a predecessor of v is a neighbour u with
g[u] + cost(u -> v) == g[v] bit for bit. The start wins if it is one;
otherwise the one a Euclidean-bound search would have popped first
wins, the smallest (g + epsilon * euclid(u -> goal), -g, flat key).
With a strictly consistent bound that is the parent such a search
records, so paths stay those of the Euclidean search while the Manhattan
bound expands fewer states. With w_obstacle = 0, ties are not strict and
an equally cheap path may be returned; its cost is g[goal] either way.

The search and the path walk are each written once, as plain Python over
indexable arrays (the search over a heapq of tuples: min f, then max g,
then lexicographic coordinates, as the flat keys (x * ny + y) * nz + z
order them), and so are the bounds they call. Where numba imports, all
are compiled and read the numpy arrays; otherwise they are interpreted
over memoryviews of the same arrays: indexing a memoryview yields a
plain int or float with no copy, where indexing an ndarray boxes a numpy
scalar. The values are the same IEEE doubles and integers either way, so
the results do not depend on which of the two runs. The choice is made
once, at import, and ``PathResult.engine`` names it.
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
    h = abs(dx) + abs(dy)
    return res * math.sqrt(h * h + dz * dz) + res * abs(dz) * w_down


def _euclid(dx, dy, dz, res, w_down):
    """The Euclidean bound, straight-line length plus res * |dz| * w_down:
    no search uses it; :func:`_chain` orders tied predecessors by it."""
    return res * math.sqrt(dx * dx + dy * dy + dz * dz) + res * abs(dz) * w_down


def heuristic(state, goal, params: PlanParams, resolution: float) -> float:
    """Admissible, consistent cost lower bound: a path takes at least
    H = |dx| + |dy| unit xy moves, which climb |dz| in all, so its length
    is at least sqrt(H^2 + dz^2) voxels; plus the cheapest possible
    vertical penalty (w_down per voxel of net height change)."""
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
    superseded g), the largest heap size, and ``h_ratio``, the bound at
    the start over the cost (1.0 when start equals goal): the nearer to 1,
    the fewer states the bound lets the search expand."""

    states: np.ndarray
    cost: float
    metric_length: float
    metric_length_xy: float
    expanded: int
    pushes: int
    stale_pops: int
    heap_peak: int
    h_ratio: float
    search_seconds: float
    engine: str


def _astar(indptr, targets, dzs, cost_by_dz, bias, xs, ys, zs, keys, g, start, goal,
           epsilon, res, w_down, k, closed):
    """A* over the CSR graph from ordinal ``start`` to ``goal``.

    ``g`` (all inf) and ``closed`` (all False) are the caller's per-state
    search state, written in place. Heap entries are (f, -g, flat key,
    ordinal): min f, then max g, then lexicographic coordinates. Pushes of
    one state carry strictly decreasing g, so that order is total over
    live entries and no insertion counter is needed. Returns (expanded,
    pushes, stale_pops, heap_peak, found).
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
                h = _heuristic(xs[v] - gx, ys[v] - gy, zs[v] - gz, res, w_down)
                heapq.heappush(heap, (ng + epsilon * h, -ng, keys[v], v))
                pushes += 1
        # pops happen only at the loop head, so this sees every peak
        if len(heap) > heap_peak:
            heap_peak = len(heap)
    return expanded, pushes, stale_pops, heap_peak, found


def _chain(indptr, targets, dzs, cost_by_dz, bias, xs, ys, zs, keys, g, start, goal,
           epsilon, res, w_down, k):
    """Ordinals of the path from ``goal`` back to ``start``, read off the
    final ``g`` of :func:`_astar`.

    A predecessor u of v is a neighbour with g[u] + cost(u -> v) == g[v],
    summed as the search sums it; the start wins if it is one, else the
    smallest (g[u] + epsilon * euclid(u -> goal), -g[u], flat key). On a
    graph whose edges are not symmetric a state can lack a predecessor, or
    the walk can loop; it then stops, short of ``start``, at no more
    states than the graph holds.
    """
    gx, gy, gz = xs[goal], ys[goal], zs[goal]
    n = len(g)
    v = goal
    chain = [v]
    while v != start and len(chain) < n:
        bv = bias[v]
        gv = g[v]
        best = -1
        best_f = 0.0
        best_g = 0.0
        best_key = 0
        for e in range(indptr[v], indptr[v + 1]):
            u = targets[e]
            gu = g[u]
            # the move u -> v climbs -dz of the move v -> u
            if gu + cost_by_dz[k - dzs[e]] + bv != gv:
                continue
            if u == start:
                best = u
                break
            f = gu + epsilon * _euclid(xs[u] - gx, ys[u] - gy, zs[u] - gz, res, w_down)
            key = keys[u]
            if best < 0 or f < best_f:
                better = True
            elif f > best_f:
                better = False
            elif gu != best_g:
                better = gu > best_g
            else:
                better = key < best_key
            if better:
                best = u
                best_f = f
                best_g = gu
                best_key = key
        if best < 0:
            break
        v = best
        chain.append(v)
    return chain


def _interpreted(fn):
    """``fn`` over memoryviews: plain Python scalars, no copies."""
    def run(*args):
        return fn(*(memoryview(a) if isinstance(a, np.ndarray) else a for a in args))
    return run


try:
    from numba import njit
    from numba.extending import register_jitable
except ImportError:
    _search, _walk, _ENGINE = _interpreted(_astar), _interpreted(_chain), "python"
else:
    # lets the compiled _astar and _chain call them
    register_jitable(_heuristic)
    register_jitable(_euclid)
    _search, _walk, _ENGINE = njit(cache=True)(_astar), njit(cache=True)(_chain), "numba"


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
            h_ratio=1.0,
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
    args = (
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
        s,
        t,
        params.epsilon,
        res,
        params.w_down,
        k,
    )
    closed = np.zeros(n, np.bool_)
    t0 = time.perf_counter()
    expanded, pushes, stale_pops, heap_peak, found = _search(*args, closed)
    elapsed = time.perf_counter() - t0

    # unreachable on a seed-connected surface, but the graph is caller
    # input and the contract needs a typed failure
    if not found:
        raise NoPathError(f"no path from {start} to {goal}")
    chain = _walk(*args)
    if chain[-1] != s:
        raise NoPathError(f"no path from {start} to {goal}: the graph's edges are not symmetric")
    chain.reverse()
    path_states = states[np.array(chain, dtype=np.int64)]
    full, xy = _metric_lengths(path_states, res)
    cost = float(g[t])
    return PathResult(
        states=path_states,
        cost=cost,
        metric_length=full,
        metric_length_xy=xy,
        expanded=int(expanded),
        pushes=int(pushes),
        stale_pops=int(stale_pops),
        heap_peak=int(heap_peak),
        h_ratio=heuristic(start, goal, params, res) / cost,
        search_seconds=elapsed,
        engine=_ENGINE,
    )
