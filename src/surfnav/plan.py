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

A search graph that has served many queries adds landmark (ALT) bounds
(Goldberg and Harrelson, "Computing the shortest path: A* search meets
graph theory", SODA 2005). With the potential
phi(v) = res * (w_up - w_down) * z(v) / 2 + bias(v) / 2, every edge cost
splits as c(u -> v) = s(u, v) + phi(v) - phi(u), where
s(u, v) = (c(u -> v) + c(v -> u)) / 2 is symmetric. The tables hold
D[a, v], the distance under s from each landmark a to state v, so the
triangle inequality bounds the cost to the goal t by
|D[a, v] - D[a, t]| + phi(t) - phi(v), and that bound is consistent.
Times a slack of 1 - 1e-9, less for tables of values that round by more,
it is strictly consistent: the path rule above holds, and paths and
costs are those of the Manhattan search. A surface's seed reaches every
state, so every row covers every state, and a query reads every row, not
the Manhattan bound (with 16, taking the maximum with it cut the plaza's
expansions by under 1%); with no rows, the search is the Manhattan one,
counters included.

A query that reads landmarks first computes that bound for every state,
one float64 array in numpy with the float operations of a per-push
bound, so each value is the same bit for bit; the search reads bound[v]
per push. On the 121,137-state plaza the array takes ~2 ms and 16 * n
bytes at its peak. A search without tables starts on the Manhattan bound
computed per push, and buys the array only once renting has cost as much
(the ski-rental rule; Karlin, Manasse, Rudolph and Sleator, "Competitive
snoopy caching", Algorithmica 1988): after n // PUSH_PRICE pushes it
pauses before its next pop, computes the Manhattan bound of every state
in numpy (:func:`_manhattan`, bit for bit the per-push values, 24 * n
bytes at its peak) and resumes on it. The heap holds the same entries
either way, so the counters and the path do not change. Short probes
never pause and build nothing; a long search pays for the array about
once. PUSH_PRICE was measured on the interpreted engine; the compiled
one computes a per-push bound far more cheaply, and how the trade falls
there is unmeasured. A search that reads landmarks never pauses: its
bound holds other values from the first push, and a change of bound
mid-search would change the expansion order.

A :class:`SearchGraph` holds what :func:`plan` derives for the weights
(w_up, w_down, w_obstacle) of its last query, once: the cost by height
change, the bias, and the landmark tables, min(LANDMARKS, n - 1)
float64 rows of n, one per sweep, up to 128 * n bytes, plus 8 * n for phi.
:func:`plan` builds the tables once that state's exact searches (epsilon
= 1 and w_obstacle > 0, where the bound cannot change the path; no others
read or pay for tables) have expanded BUILD_PRICE * n states, about what
the build costs (~0.7 s on the plaza): one numpy label-correcting sweep
per landmark, and one from ordinal 0 that picks the first,
farthest-first. So a graph that serves a few queries never pays for
tables, a long stream with one set of weights pays once, inside the query
that crosses the trigger, and a call without a graph never builds them.
Other weights replace the held state, tables and all, so a caller that
alternates weight sets pays for tables per set; a new, equal distance
field reads it. The search counters, ``h_ratio`` and ``landmarks`` thus
depend on how many queries a graph has served; paths, costs and lengths
do not.

The path rule needs each edge to raise g: a walk back from the goal then
ends at the start. :func:`plan` refuses weights under which a path's g
could reach 2^52 times the cheapest edge, where adding an edge may not
change it, and keeps the held state.

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
from dataclasses import dataclass, field

import numpy as np

from .dfield import DistanceField
from .errors import NoPathError, OffSurfaceError
from .extract import Surface, _find, _runs

__all__ = [
    "PathResult",
    "PlanParams",
    "SearchGraph",
    "edge_cost",
    "heuristic",
    "plan",
]

LANDMARKS = 16  # landmarks in a search graph's tables, all read by each query
# exact searches pay for tables by expanding BUILD_PRICE states per state,
# about what the LANDMARKS + 1 sweeps cost: a sweep costs ~0.14 * n expansions
# on the plaza (~39 ms, at ~2.2 us each) and ~0.23-0.54 * n on 0.1 m maps
BUILD_PRICE = 8
# scales the landmark bound, so that rounding in the tables never lifts
# it above a true cost, and every edge pays more than the bound drops
_SLACK = 1.0 - 1e-9
# a search without tables computes the Manhattan bound per push, at
# ~0.3-0.4 us a call against ~0.03 us to read it from an array, which
# numpy writes at ~6-10 ns a state (interpreted engine, 2-core x86-64):
# the array costs about as much as n / 33 to n / 43 per-push bounds, so
# such a search switches to it after n // PUSH_PRICE pushes
PUSH_PRICE = 32
_NO_BUDGET = 2**63 - 1  # a push budget no search reaches


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


def _manhattan(states: np.ndarray, t: int, res: float, w_down: float) -> np.ndarray:
    """:func:`_heuristic` from every state to ordinal ``t``, as one (n,)
    float64 array with the same float operations, so each value is the
    same bit for bit. Exact while H^2 + dz^2 fits in int64."""
    # three n-sized buffers, each used as int64, then as float64 (ints
    # become floats by copyto, which needs no cast buffer)
    hh, h, dz = (np.subtract(c, c[t]) for c in states.T)
    for b in (hh, h, dz):
        np.abs(b, out=b)
    hh += h
    hh *= hh
    hh += np.multiply(dz, dz, out=h)  # H^2 + dz^2
    h, m = h.view(np.float64), hh.view(np.float64)
    np.copyto(h, hh)
    np.sqrt(h, out=h)
    h *= res
    np.copyto(m, dz)
    m *= res
    m *= w_down
    h += m  # res * sqrt(H^2 + dz^2) + res * |dz| * w_down
    return h


@dataclass(eq=False)
class _Costs:
    """What a search graph holds for one set of weights: the costs, the
    expansions of its exact searches, and the tables those pay for."""

    weights: tuple  # (w_up, w_down, w_obstacle)
    cost_by_dz: np.ndarray  # edge cost by height change, excluding the target's bias
    bias: np.ndarray  # (n,): w_obstacle * res / (boundary distance + 1), read-only
    expanded: int = 0  # by exact searches
    table: list | None = None  # L rows of (n,): D[a, v], distances under the symmetric cost
    phi: np.ndarray | None = None  # (n,): the potential that splits the cost
    slack: float = _SLACK  # scales the bound: _SLACK, or less for tables of large values

    @classmethod
    def of(cls, dfield: DistanceField, params: PlanParams) -> "_Costs":
        """The state for ``params``' weights, with no tables; unchecked."""
        surface = dfield.surface
        res = surface.resolution
        bias = params.w_obstacle * res / (dfield.distances.astype(np.float64) + 1.0)
        bias.setflags(write=False)
        return cls((params.w_up, params.w_down, params.w_obstacle),
                   _cost_table(params, res, surface.params.step_voxels), bias)

    def build(self, graph: "SearchGraph") -> None:
        """Build the landmark tables of ``graph`` under these weights."""
        res = graph.surface.resolution
        w_up, w_down, _ = self.weights
        phi = (res * (w_up - w_down) / 2) * graph.surface.states[:, 2] + self.bias / 2
        table = _landmark_tables(graph, self.cost_by_dz + self.cost_by_dz[::-1], self.bias)
        # the bound's drop along an edge rounds by under 8 ulps of top: the
        # slack takes 16 off the cheapest edge, res, or no landmark is kept
        top = float(max((row.max() for row in table), default=0.0) + 2 * np.abs(phi).max())
        slack = min(_SLACK, 1.0 - 2.0**-48 * top / res)
        if slack <= 0.0:
            table = table[:0]
        self.table, self.phi, self.slack = table, phi, slack

    def bound(self, t: int) -> np.ndarray:
        """The bound :func:`_astar` reads on a search to ordinal ``t``, from
        every held row: per state v,
        slack * (max_a |D[a, v] - D[a, t]| + phi(t) - phi(v)); empty with
        no rows or no tables."""
        if not self.table:
            return _NO_BOUND
        m, d = np.zeros_like(self.phi), np.empty_like(self.phi)
        for row in self.table:
            np.abs(np.subtract(row, row[t], out=d), out=d)
            np.maximum(m, d, out=m)
        m += np.subtract(self.phi[t], self.phi, out=d)
        m *= self.slack
        return m


_NO_BOUND = np.empty(0)  # the bound of a search that reads no tables


@dataclass(frozen=True, eq=False)
class SearchGraph:
    """CSR adjacency of a surface: edges sorted by (source ordinal,
    direction, height), with each edge's height change ``dz``. ``indptr``
    and ``targets`` are the surface's own adjacency arrays, native int64.
    Independent of planning weights, so one graph serves any number of
    queries; every edge has its reverse, with -dz.

    The graph also holds what :func:`plan` derives for the weights of its
    last query, landmark tables included (see the module docstring)."""

    surface: Surface
    indptr: np.ndarray = field(init=False)
    targets: np.ndarray = field(init=False)
    dz: np.ndarray = field(init=False)
    _held: _Costs | None = field(default=None, init=False, repr=False)

    def __post_init__(self):
        indptr, targets, _ = self.surface._csr
        zs = self.surface.states[:, 2]
        object.__setattr__(self, "indptr", indptr)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "dz", zs[targets] - np.repeat(zs, np.diff(indptr)))

    @property
    def edge_count(self) -> int:
        return int(self.targets.shape[0])

    @classmethod
    def build(cls, surface: Surface) -> "SearchGraph":
        return cls(surface)

    def _costs(self, dfield: DistanceField, params: PlanParams) -> _Costs:
        """The held state for ``params``' weights, or a new one made from
        ``dfield`` that replaces it. Weights under which a path's cost
        could absorb a step raise ValueError and replace nothing."""
        held = self._held
        if held is None or held.weights != (params.w_up, params.w_down, params.w_obstacle):
            held = _Costs.of(dfield, params)
            n, res = self.surface.size, self.surface.resolution
            # a path's g is at most n - 1 edges of the largest cost; below 2^52
            # times the smallest, res, each edge's cost exceeds g's rounding step
            if (n - 1) * (float(held.cost_by_dz.max()) + params.w_obstacle * res) >= 2.0**52 * res:
                raise ValueError(f"weights {params} give edge costs too far apart for {n} "
                                 "states: a path's cost would not grow with each step")
            object.__setattr__(self, "_held", held)
        return held


def _sweep(graph: SearchGraph, pair_cost: np.ndarray, bias: np.ndarray, source: int) -> np.ndarray:
    """Distances from ordinal ``source`` under the symmetric cost
    s(u, v) = (c(u -> v) + c(v -> u)) / 2 = (pair_cost[dz + k] + bias[u]
    + bias[v]) / 2, summed alike both ways, so s(u, v) == s(v, u) bit for
    bit. The seed reaches every state, so every distance is finite.

    A frontier label-correcting search: each round relaxes the edges of
    the states whose distance fell in the round before, with the weights
    gathered for that frontier only, until no distance falls. A state
    that several edges lowered to the same value enters the next frontier
    once: each writes its position to ``slot``, and whichever write lands
    keeps that one.
    """
    k = (pair_cost.size - 1) // 2
    n = graph.surface.size
    dist = np.full(n, np.inf)
    dist[source] = 0.0
    slot = np.empty(n, dtype=np.int64)
    frontier = np.array([source], dtype=np.int64)
    while frontier.size:
        lo = graph.indptr[frontier]
        hi = graph.indptr[frontier + 1]
        edges = _runs(lo, hi)
        u = np.repeat(frontier, hi - lo)
        v = graph.targets[edges]
        d = dist[u] + (pair_cost[graph.dz[edges] + k] + (bias[u] + bias[v])) * 0.5
        fell = d < dist[v]
        v, d = v[fell], d[fell]
        np.minimum.at(dist, v, d)
        v = v[dist[v] == d]
        at = np.arange(v.size)
        slot[v] = at
        frontier = v[slot[v] == at]
    return dist


def _landmark_tables(graph: SearchGraph, pair_cost: np.ndarray, bias: np.ndarray) -> list:
    """The distance rows of min(LANDMARKS, n - 1) landmarks, farthest-first
    from ordinal 0, under the symmetric cost of :func:`_sweep`: a row's one
    zero is its landmark. Each is the array its sweep returns, which reuses
    freed heap where one (L, n) array is mapped afresh (+12 MB peak RSS on
    the 0.048 m plaza)."""
    # distance to the nearest landmark chosen so far, or to ordinal 0
    nearest = _sweep(graph, pair_cost, bias, 0)
    # ordinal 0 stays at 0 and is never picked: every pick is a new state
    table = []
    for _ in range(min(LANDMARKS, graph.surface.size - 1)):
        table.append(_sweep(graph, pair_cost, bias, int(np.argmax(nearest))))
        np.minimum(nearest, table[-1], out=nearest)
    return table


@dataclass(frozen=True)
class PathResult:
    """A* output: states in path order (start first), accumulated cost,
    metric lengths in meters, and search effort: states expanded, heap
    pushes (the start's included), stale pops (entries of closed states or
    superseded g), the largest heap size, ``h_ratio``, the bound the search
    used at the start over the cost (1.0 when start equals goal): the
    nearer to 1, the fewer states the bound lets the search expand, and
    ``landmarks``, the number of landmark rows that bound read, every row
    the graph holds (0: the Manhattan bound alone). ``search_seconds`` times the
    search and any bound array it reads, the landmark one or the Manhattan
    one a long search without tables switches to, but not a landmark table
    build the call paid for."""

    states: np.ndarray
    cost: float
    metric_length: float
    metric_length_xy: float
    expanded: int
    pushes: int
    stale_pops: int
    heap_peak: int
    h_ratio: float
    landmarks: int
    search_seconds: float
    engine: str


def _astar(indptr, targets, dzs, cost_by_dz, bias, xs, ys, zs, keys, g, goal, epsilon, res,
           w_down, k, closed, bound, heap, counters, budget):
    """A* over the CSR graph to ordinal ``goal``, resumed from ``heap``.

    ``g`` and ``closed`` are the caller's per-state search state, and
    ``heap`` its open list, all written in place: the caller starts a
    search with g inf but at the start, 0.0, closed all False and the
    start alone on the heap. Heap entries are (f, -g, flat key, ordinal):
    min f, then max g, then lexicographic coordinates. Pushes of one state
    carry strictly decreasing g, so that order is total over live entries
    and no insertion counter is needed. The bound of a state v is
    ``bound[v]`` (see :func:`_manhattan` and :meth:`_Costs.bound`); with
    ``bound`` empty it is the Manhattan one, computed per push.

    ``counters`` holds (expanded, pushes, stale_pops, heap_peak), read at
    entry and written back at exit. The search pauses at the head of its
    loop, before a pop, once ``pushes >= budget``; calling it again on the
    same state, with any bound of the same values, resumes it as if it had
    never paused. Returns whether the goal was popped: if not, a non-empty
    heap means the search paused, an empty one that the goal is out of
    reach.
    """
    gx, gy, gz = xs[goal], ys[goal], zs[goal]
    held = len(bound) > 0
    expanded = counters[0]
    pushes = counters[1]
    stale_pops = counters[2]
    heap_peak = counters[3]
    found = False
    while heap:
        if pushes >= budget:
            break
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
                if held:
                    h = bound[v]
                else:
                    h = _heuristic(xs[v] - gx, ys[v] - gy, zs[v] - gz, res, w_down)
                heapq.heappush(heap, (ng + epsilon * h, -ng, keys[v], v))
                pushes += 1
        # pops happen only at the loop head, so this sees every peak
        if len(heap) > heap_peak:
            heap_peak = len(heap)
    counters[0] = expanded
    counters[1] = pushes
    counters[2] = stale_pops
    counters[3] = heap_peak
    return found


def _chain(indptr, targets, dzs, cost_by_dz, bias, xs, ys, zs, keys, g, goal, epsilon, res,
           w_down, k, start):
    """Ordinals of the path from ``goal`` back to ``start``, read off the
    final ``g`` of :func:`_astar`.

    A predecessor u of v is a neighbour with g[u] + cost(u -> v) == g[v],
    summed as the search sums it; the start wins if it is one, else the
    smallest (g[u] + epsilon * euclid(u -> goal), -g[u], flat key). Every
    edge raises g, as :func:`plan` ensures, so each step lowers it and the
    walk ends at ``start``; it stops all the same after as many states as
    the graph holds, a guard for the compiled walk.
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
    Pass a prebuilt ``graph`` to amortize adjacency construction, and the
    state derived for the weights, across queries. The result's
    ``engine`` names the search that ran. Weights under which a path's
    cost could absorb a step raise ValueError.
    """
    if params is None:
        params = PlanParams()
    if dfield.surface is not surface:
        raise ValueError("distance field belongs to a different surface")
    if graph is not None and graph.surface is not surface:
        raise ValueError("graph belongs to a different surface")
    at_start = _find(surface._sorted, surface.dims, start)
    if at_start < 0:
        raise OffSurfaceError(f"state {tuple(start)} is not on the surface (start)")
    at_goal = _find(surface._sorted, surface.dims, goal)
    if at_goal < 0:
        raise OffSurfaceError(f"state {tuple(goal)} is not on the surface (goal)")
    start = tuple(int(c) for c in start)
    goal = tuple(int(c) for c in goal)

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
            landmarks=0,
            search_seconds=0.0,
            engine=_ENGINE,
        )

    # tables only where the bound cannot change the path: an exact search
    # with strict ties. A graph built here serves one search, which expands
    # at most n states, so it never pays for tables.
    exact = params.epsilon == 1.0 and params.w_obstacle > 0.0
    k = surface.params.step_voxels
    res = surface.resolution
    n = surface.size
    if graph is None:
        graph = SearchGraph.build(surface)
    costs = graph._costs(dfield, params)
    if exact and costs.table is None and costs.expanded >= BUILD_PRICE * n:
        costs.build(graph)
    s, t = int(surface._ordinals[at_start]), int(surface._ordinals[at_goal])

    states = surface.states
    g = np.full(n, np.inf)
    args = (
        graph.indptr,
        graph.targets,
        graph.dz,
        costs.cost_by_dz,
        costs.bias,
        states[:, 0],
        states[:, 1],
        states[:, 2],
        surface.keys,
        g,
        t,
        params.epsilon,
        res,
        params.w_down,
        k,
    )
    closed = np.zeros(n, np.bool_)
    g[s] = 0.0
    # alone in the heap and popped first, the start needs no f or key
    heap = [(0.0, -0.0, 0, s)]
    counters = np.array([0, 1, 0, 1], np.int64)  # expanded, pushes, stale pops, heap peak
    t0 = time.perf_counter()
    bound = costs.bound(t) if exact else _NO_BOUND
    landmarks = len(costs.table) if bound.size else 0
    # a search on per-push Manhattan bounds pauses once they have cost
    # about as much as their array, and resumes on it
    budget = _NO_BUDGET if bound.size else n // PUSH_PRICE
    found = _search(*args, closed, bound, heap, counters, budget)
    if not found and heap:
        bound = _manhattan(states, t, res, params.w_down)
        found = _search(*args, closed, bound, heap, counters, _NO_BUDGET)
    elapsed = time.perf_counter() - t0
    expanded, pushes, stale_pops, heap_peak = counters.tolist()
    if exact:
        costs.expanded += expanded

    # guards: the seed reaches every state of a surface, so the search
    # finds the goal and the walk back from it ends at the start
    if not found:
        raise NoPathError(f"no path from {start} to {goal}")
    chain = _walk(*args, s)
    if chain[-1] != s:
        raise NoPathError(f"no path from {start} to {goal} recovered: the walk back "
                          "from the goal did not reach the start")
    chain.reverse()
    path_states = states[np.array(chain, dtype=np.int64)]
    full, xy = _metric_lengths(path_states, res)
    cost = float(g[t])
    h_start = float(bound[s]) if bound.size else heuristic(start, goal, params, res)
    return PathResult(
        states=path_states,
        cost=cost,
        metric_length=full,
        metric_length_xy=xy,
        expanded=expanded,
        pushes=pushes,
        stale_pops=stale_pops,
        heap_peak=heap_peak,
        h_ratio=h_start / cost,
        landmarks=landmarks,
        search_seconds=elapsed,
        engine=_ENGINE,
    )
