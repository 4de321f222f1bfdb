import heapq
import importlib
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from surfnav import (
    ExtractionParams,
    OccupancyGrid,
    OffSurfaceError,
    PRESET_NAMES,
    PlanParams,
    SearchGraph,
    distance_field,
    edge_cost,
    extract_pipeline,
    candidate_set,
    DerivedVoxelParams,
    heuristic,
    plan,
    sample_queries,
)
from surfnav.oracle import (
    _adjacent, _column_map, boundary_distance_reference, dijkstra_reference,
)
from surfnav.extract import Surface
from surfnav.plan import (
    BUILD_PRICE, LANDMARKS, PUSH_PRICE, _ENGINE, _NO_BOUND, _NO_BUDGET, _SLACK, _Costs,
    _astar, _chain, _cost_table, _heuristic, _interpreted, _manhattan, _search, _walk,
)
from conftest import built, paid_graph, seeded_surface, two_level_grid, voxel_sets

plan_module = importlib.import_module("surfnav.plan")
needs_numba = pytest.mark.skipif(_ENGINE != "numba", reason="numba is not importable")


def flat(n=10, post=None):
    """n x n floor, optionally with a full-height post removing one column."""
    occ = np.zeros((n, n, 12), dtype=bool)
    occ[:, :, 0] = True
    if post is not None:
        occ[post[0], post[1], 1:10] = True
    grid = OccupancyGrid(0.2, np.zeros(3), occ)
    surface, _ = extract_pipeline(
        grid, ExtractionParams(inflation_radius=0.0), seed_voxel=(0, 0, 1)
    )
    return surface, distance_field(surface)


def strip(base, seed):
    """A flat 3 x 10 strip at y = base .. base + 9, its ordinals in BFS
    order from the voxel ``seed``, made with the Surface constructor on a
    grid 2^21 + 16 wide in y that is never allocated."""
    dims = (3, 2**21 + 16, 3)
    xs, ys = np.meshgrid(np.arange(3), np.arange(base, base + 10), indexing="ij")
    keys = np.ravel_multi_index((xs.ravel(), ys.ravel(), np.ones(30, np.int64)), dims)
    surface = seeded_surface(keys, dims, seed, DerivedVoxelParams(
        step_voxels=1, clearance_voxels=2, inflation_voxels=0))
    return surface, distance_field(surface)


class TestCostModel:
    def test_flat_edge(self):
        c = edge_cost((0, 0, 0), (1, 0, 0), 3, PlanParams(), 0.2)
        assert c == pytest.approx(0.225, abs=1e-15)

    def test_climbing_edge(self):
        c = edge_cost((0, 0, 0), (0, 1, 1), 9, PlanParams(), 0.2)
        assert c == pytest.approx(0.692842712474619, abs=1e-15)

    def test_descent_cheaper_than_climb(self):
        up = edge_cost((0, 0, 0), (1, 0, 1), 5, PlanParams(), 0.2)
        down = edge_cost((0, 0, 1), (1, 0, 0), 5, PlanParams(), 0.2)
        assert down < up

    def test_heuristic_values(self):
        # xy-Manhattan: 3 + 4 unit steps, not the straight line of 5
        assert heuristic((0, 0, 0), (3, 4, 0), PlanParams(), 0.2) == pytest.approx(1.4)
        assert heuristic((0, 0, 0), (0, 0, 2), PlanParams(), 0.2) == pytest.approx(0.8)

    @pytest.mark.parametrize("d", [0, 1, 2, 7, 40])
    def test_cost_table_matches_edge_cost(self, d):
        # the search adds the table entry and the bias as two terms; their
        # sum must equal edge_cost exactly, not merely to a tolerance
        for params, res, k in itertools.product(
            (PlanParams(), PlanParams(w_up=3.5, w_down=0.25, w_obstacle=1.3)),
            (0.2, 0.048, 0.1),
            (1, 2, 6),
        ):
            table = _cost_table(params, res, k)
            for dz in range(-k, k + 1):
                bias = params.w_obstacle * res / (d + 1)
                assert table[dz + k] + bias == edge_cost((3, 4, 5), (4, 4, 5 + dz), d, params, res)

    def test_params_validation(self):
        with pytest.raises(ValueError):
            PlanParams(epsilon=0.9)
        with pytest.raises(ValueError):
            PlanParams(w_up=0.5, w_down=1.0)
        with pytest.raises(ValueError):
            PlanParams(w_obstacle=-0.1)
        with pytest.raises(ValueError):
            PlanParams(epsilon=float("inf"))


def successors(surface, state):
    """The neighbors of ``state`` in its row of the surface's own
    adjacency: direction-major, ascending height."""
    indptr, targets, _ = surface._csr
    i = surface.ordinal(state)
    row = targets[indptr[i] : indptr[i + 1]]
    return [tuple(s) for s in surface.states[row].tolist()]


class TestSuccessors:
    def layered(self, seed=(0, 0, 1)):
        cands = candidate_set(
            two_level_grid(),
            DerivedVoxelParams(step_voxels=1, clearance_voxels=3, inflation_voxels=0),
        )
        return seeded_surface(cands.keys, cands.grid.dims, seed, cands.params)

    def test_direction_major_order(self):
        surface, _ = flat(5)
        assert successors(surface, (2, 2, 1)) == [
            (3, 2, 1), (1, 2, 1), (2, 3, 1), (2, 1, 1)
        ]

    def test_step_bound_excludes_far_levels(self):
        surface = self.layered()
        # neighbor column (3, 3) holds z = 1 and z = 6; from z = 1 only the
        # low level is within one step
        assert successors(surface, (2, 3, 1)) == [
            (3, 3, 1), (1, 3, 1), (2, 4, 1), (2, 2, 1)
        ]
        assert (3, 3, 6) not in successors(surface, (2, 3, 1))

    def test_graph_matches_successors(self):
        # the graph and the surface's adjacency are one, so both are held
        # to the oracle's independent column map
        surface = self.layered()
        graph = SearchGraph.build(surface)
        cols = _column_map(surface)
        k = surface.params.step_voxels
        for i in range(surface.size):
            state = tuple(surface.states[i].tolist())
            expected = list(_adjacent(cols, state, k))
            row = graph.targets[graph.indptr[i] : graph.indptr[i + 1]]
            assert [tuple(surface.states[j]) for j in row.tolist()] == expected
            assert successors(surface, state) == expected

    @pytest.mark.parametrize("rng_seed", [0, 1, 2])
    def test_shuffled_constructor_cut_matches_oracle(self, rng_seed):
        # ordinals in BFS order from a random seed, not in key order: the
        # constructor's CSR is the sorted keys' CSR cut to ordinal order, so
        # every row must still be the state's own neighbors in the oracle's
        # order
        base = self.layered()
        seed = tuple(base.states[np.random.default_rng(rng_seed).integers(base.size)])
        surface = self.layered(seed)
        assert surface.seed == seed and not np.all(np.diff(surface.keys) > 0)
        indptr, targets, _ = surface._csr
        cols = _column_map(surface)
        k = surface.params.step_voxels
        for i, state in enumerate(surface.states.tolist()):
            expected = list(_adjacent(cols, tuple(state), k))
            row = targets[indptr[i] : indptr[i + 1]]
            assert [tuple(s) for s in surface.states[row].tolist()] == expected
            assert successors(surface, state) == expected
        assert np.array_equal(
            distance_field(surface).distances, boundary_distance_reference(surface)
        )

    def test_graph_dz_matches_geometry(self):
        surface = self.layered()
        graph = SearchGraph.build(surface)
        for i in range(surface.size):
            lo, hi = graph.indptr[i], graph.indptr[i + 1]
            for e in range(lo, hi):
                j = graph.targets[e]
                assert graph.dz[e] == surface.states[j, 2] - surface.states[i, 2]


def tables_for(surface, dfield, params):
    """The state a graph of ``surface`` holds for ``params``' weights, with
    its landmark tables built: made directly, so without :func:`plan`'s
    check of the weights."""
    costs = _Costs.of(dfield, params)
    costs.build(SearchGraph.build(surface))
    return costs


def search_args(fixture, b, params):
    """The arguments :func:`_astar` and :func:`_chain` share, to ordinal
    ``b``, with a fresh ``g``."""
    surface, graph = fixture.surface, fixture.graph
    costs = _Costs.of(fixture.dfield, params)
    states = surface.states
    return (
        graph.indptr, graph.targets, graph.dz, costs.cost_by_dz, costs.bias,
        states[:, 0], states[:, 1], states[:, 2], surface.keys,
        np.full(surface.size, np.inf), b, params.epsilon, surface.resolution,
        params.w_down, surface.params.step_voxels,
    )


def run_search(search, walk, fixture, a, b, params=PlanParams(), bound=_NO_BOUND,
               budget=_NO_BUDGET):
    """Call ``search`` (an :func:`_astar` variant) directly from ordinal
    ``a`` to ``b``, reading ``bound`` (by default none: the Manhattan bound
    per push), and if it pauses after ``budget`` pushes, resume it on the
    Manhattan array, as :func:`plan` does; then ``walk`` (the matching
    :func:`_chain`). Return the search's counters and whether it found the
    goal, ``g`` as bytes and the walked chain."""
    args = search_args(fixture, b, params)
    g = args[9]
    g[a] = 0.0
    heap = [(0.0, -0.0, 0, a)]
    counters = np.array([0, 1, 0, 1], np.int64)
    closed = np.zeros(fixture.surface.size, np.bool_)
    found = search(*args, closed, bound, heap, counters, budget)
    if not found and heap:
        surface = fixture.surface
        bound = _manhattan(surface.states, b, surface.resolution, params.w_down)
        found = search(*args, closed, bound, heap, counters, _NO_BUDGET)
    chain = [int(c) for c in walk(*args, a)]
    return (*counters.tolist(), bool(found)), g.tobytes(), chain


def bounds(tables, b):
    """(bound, budget) for :func:`run_search` to ordinal ``b``, one of each
    kind: the Manhattan bound per push, the Manhattan array from the first
    pop, and the landmark array of ``tables``."""
    return [(_NO_BOUND, _NO_BUDGET), (_NO_BOUND, 0), (tables.bound(b), _NO_BUDGET)]


def reference_plan(fixture, a, b, params):
    """The Euclidean-bound search with a parent per state, as the planner
    ran before it read paths off the final g: kept here as the reference
    its paths must match. Returns (cost, path ordinals)."""
    args = search_args(fixture, b, params)
    indptr, targets, dzs, cost_by_dz, bias, xs, ys, zs, keys, g = (
        memoryview(x) for x in args[:10])
    _, epsilon, res, w_down, k = args[10:]
    n = fixture.surface.size
    parent = [-1] * n
    closed = [False] * n

    def h(v):
        dx, dy, dz = xs[v] - xs[b], ys[v] - ys[b], zs[v] - zs[b]
        return res * math.sqrt(dx * dx + dy * dy + dz * dz) + res * abs(dz) * w_down

    g[a] = 0.0
    heap = [(0.0, -0.0, 0, a)]
    while heap:
        _f, neg_g, _key, u = heapq.heappop(heap)
        pg = -neg_g
        if closed[u] or pg != g[u]:
            continue
        if u == b:
            break
        closed[u] = True
        for e in range(indptr[u], indptr[u + 1]):
            v = targets[e]
            if closed[v]:
                continue
            ng = pg + cost_by_dz[dzs[e] + k] + bias[v]
            if ng < g[v]:
                g[v] = ng
                parent[v] = u
                heapq.heappush(heap, (ng + epsilon * h(v), -ng, keys[v], v))
    path = [b]
    while path[-1] != a:
        path.append(parent[path[-1]])
    return g[b], path[::-1]


class TestPlan:
    def test_corner_to_corner_flat(self):
        surface, dfield = flat(10)
        params = PlanParams(w_obstacle=0.0)
        result = plan(surface, dfield, (0, 0, 1), (9, 9, 1), params)
        assert result.cost == pytest.approx(18 * 0.2, abs=1e-12)
        assert result.metric_length == pytest.approx(3.6, abs=1e-12)
        assert result.metric_length_xy == result.metric_length
        assert result.states.shape == (19, 3)
        assert tuple(result.states[0]) == (0, 0, 1)
        assert tuple(result.states[-1]) == (9, 9, 1)
        # compiled where numba imports, interpreted otherwise
        assert result.engine == _ENGINE

    def test_start_equals_goal(self):
        surface, dfield = flat(5)
        result = plan(surface, dfield, (2, 2, 1), (2, 2, 1))
        assert result.cost == 0.0
        assert result.states.shape == (1, 3)
        assert result.expanded == 0

    def test_off_surface_endpoints(self):
        surface, dfield = flat(5)
        with pytest.raises(OffSurfaceError, match=r"\(start\)"):
            plan(surface, dfield, (0, 0, 5), (2, 2, 1))
        with pytest.raises(OffSurfaceError, match=r"\(goal\)"):
            plan(surface, dfield, (2, 2, 1), (0, 0, 5))

    def test_no_path_across_components(self):
        # a surface is one component: keys that hold a second one are
        # refused, and a state of the other one is off the surface
        occ = np.zeros((12, 12, 10), dtype=bool)
        occ[:, :, 0] = True
        occ[4:8, 4:8, 4] = True  # detached tabletop
        grid = OccupancyGrid(0.2, np.zeros(3), occ)
        cands = candidate_set(
            grid, DerivedVoxelParams(step_voxels=1, clearance_voxels=3, inflation_voxels=0)
        )
        floor = seeded_surface(cands.keys, grid.dims, (0, 0, 1), cands.params)
        top = seeded_surface(cands.keys, grid.dims, (5, 5, 5), cands.params)
        with pytest.raises(ValueError, match=r"state \[5, 5, 5\] is not reachable from seed"):
            Surface(keys=np.concatenate((floor.keys, top.keys)), dims=grid.dims,
                    resolution=0.2, origin=np.zeros(3), params=cands.params)
        with pytest.raises(OffSurfaceError, match=r"\(goal\)"):
            plan(floor, distance_field(floor), (0, 0, 1), (5, 5, 5))

    def test_cost_is_sum_of_edge_costs(self):
        surface, dfield = flat(9, post=(4, 4))
        params = PlanParams()
        result = plan(surface, dfield, (1, 1, 1), (7, 7, 1), params)
        total = 0.0
        for a, b in zip(result.states[:-1], result.states[1:]):
            total += edge_cost(a, b, dfield.at(b), params, surface.resolution)
        assert result.cost == pytest.approx(total, rel=1e-12)

    def test_obstacle_weight_pushes_path_off_walls(self):
        surface, dfield = flat(11, post=(5, 5))
        lax = plan(surface, dfield, (5, 2, 1), (5, 8, 1), PlanParams(w_obstacle=0.0))
        strict = plan(surface, dfield, (5, 2, 1), (5, 8, 1), PlanParams(w_obstacle=5.0))
        def min_clearance(result):
            return min(dfield.at(s) for s in result.states)
        assert min_clearance(strict) >= min_clearance(lax)
        assert strict.metric_length >= lax.metric_length

    def test_epsilon_bounded_suboptimality(self, table1):
        surface, dfield, graph = table1.surface, table1.dfield, table1.graph
        rng = np.random.default_rng(11)
        idx = rng.integers(0, surface.size, size=(8, 2))
        for a, b in idx:
            start = tuple(surface.states[a])
            goal = tuple(surface.states[b])
            exact = plan(surface, dfield, start, goal, PlanParams(), graph=graph)
            eager = plan(
                surface, dfield, start, goal, PlanParams(epsilon=1.5), graph=graph
            )
            assert exact.cost <= eager.cost + 1e-12
            assert eager.cost <= 1.5 * exact.cost + 1e-12

    @needs_numba
    def test_engines_bit_identical(self, table1):
        rng = np.random.default_rng(5)
        interpreted = _interpreted(_astar), _interpreted(_chain)
        tables = tables_for(table1.surface, table1.dfield, PlanParams())
        for a, b in rng.integers(0, table1.surface.size, size=(10, 2)).tolist():
            for bound, budget in bounds(tables, b):
                # counters, then g bit for bit, then the path
                assert (run_search(_search, _walk, table1, a, b, PlanParams(), bound, budget)
                        == run_search(*interpreted, table1, a, b, PlanParams(), bound, budget))

    @pytest.mark.parametrize("w_obstacle", [0.5, 0.0])
    def test_arrays_and_memoryviews_search_alike(self, table1, w_obstacle):
        # numba calls _astar on the ndarrays, reading numpy scalars as its
        # typed arrays do; the interpreted search wraps them in memoryviews.
        # Without numba, calling _astar directly keeps the compiled
        # search's calling convention under test.
        params = PlanParams(w_obstacle=w_obstacle)
        rng = np.random.default_rng(5)  # the pairs of test_engines_bit_identical
        engines = [(_astar, _chain), (_interpreted(_astar), _interpreted(_chain))]
        tables = tables_for(table1.surface, table1.dfield, params)
        for a, b in rng.integers(0, table1.surface.size, size=(10, 2)).tolist():
            for bound, budget in bounds(tables, b):
                runs = [run_search(*engine, table1, a, b, params, bound, budget)
                        for engine in engines]
                assert runs[0] == runs[1]  # counters, then g bit for bit, then the path
                expanded, pushes, stale_pops, heap_peak, found = runs[0][0]
                assert found
                # every pop is an expansion, a stale entry or the goal
                assert pushes >= expanded + stale_pops + (a != b)
                assert 1 <= heap_peak <= pushes

    def test_search_pauses_at_its_budget(self, table1):
        # the search stops at the loop head once its pushes reach the
        # budget, before any further pop, and leaves the heap and the
        # counters to resume from
        a, b = 0, table1.surface.size - 1
        args = search_args(table1, b, PlanParams())
        args[9][a] = 0.0
        heap = [(0.0, -0.0, 0, a)]
        counters = np.array([0, 1, 0, 1], np.int64)
        closed = np.zeros(table1.surface.size, np.bool_)
        assert not _search(*args, closed, _NO_BOUND, heap, counters, 0)
        assert heap == [(0.0, -0.0, 0, a)] and counters.tolist() == [0, 1, 0, 1]
        assert not _search(*args, closed, _NO_BOUND, heap, counters, 20)
        expanded, pushes, _, _ = counters.tolist()
        assert heap and 20 <= pushes < 20 + 4 * (2 * table1.surface.params.step_voxels + 1)
        assert np.count_nonzero(closed) == expanded

    def test_long_searches_alone_switch_to_the_array(self, monkeypatch):
        # a search without tables builds the Manhattan array once its
        # pushes reach n // PUSH_PRICE, a short one never; a search with
        # tables reads its landmark bound alone, never builds the Manhattan
        # one, and never pauses
        b = built("plaza_like")
        surface = b.surface
        built_for = []

        def counted(states, t, res, w_down):
            built_for.append(t)
            return _manhattan(states, t, res, w_down)

        monkeypatch.setattr(plan_module, "_manhattan", counted)
        indptr, targets, _ = surface._csr
        start, near, far = (tuple(surface.states[i])
                            for i in (0, int(targets[indptr[0]]), surface.size - 1))
        budget = surface.size // PUSH_PRICE
        short = plan(surface, b.dfield, start, near, graph=SearchGraph.build(surface))
        assert short.pushes < budget and built_for == []
        long = plan(surface, b.dfield, start, far, graph=SearchGraph.build(surface))
        assert long.pushes > budget and built_for == [surface.size - 1]
        paid = plan(surface, b.dfield, start, far, graph=paid_graph(surface, b.dfield))
        assert paid.landmarks == LANDMARKS and built_for == [surface.size - 1]
        assert (paid.cost, paid.states.tobytes()) == (long.cost, long.states.tobytes())

    def test_interleaved_queries_match_fresh_ones(self, table1):
        # one graph and distance field serve alternating queries; no search
        # state may leak from one call into the next. The graph is new, so
        # its searches stay below the landmark trigger (see TestLandmarks).
        surface, dfield = table1.surface, table1.dfield
        graph = SearchGraph.build(surface)
        states = [tuple(s) for s in surface.states[[0, -1, 7, surface.size // 2]].tolist()]
        queries = [(states[0], states[1], PlanParams()),
                   (states[2], states[3], PlanParams(w_obstacle=0.0)),
                   (states[1], states[0], PlanParams(epsilon=1.5))]

        def key(r):
            return (r.cost, r.states.tobytes(), r.expanded, r.pushes, r.stale_pops,
                    r.heap_peak)

        shared = [key(plan(surface, dfield, a, b, p, graph=graph))
                  for a, b, p in queries + queries[::-1]]
        fresh = []
        for a, b, p in queries + queries[::-1]:
            d = distance_field(surface)
            fresh.append(key(plan(surface, d, a, b, p, graph=SearchGraph.build(surface))))
        assert shared == fresh

    def test_bias_built_once_per_weight(self, table1):
        # a graph derives the bias once per set of weights: a query with
        # another epsilon or a new, equal distance field reuses it
        surface, dfield = table1.surface, table1.dfield
        graph = SearchGraph.build(surface)
        a, z = tuple(surface.states[0]), tuple(surface.states[-1])
        for w in (0.5, 1.3):
            plan(surface, dfield, a, z, PlanParams(w_obstacle=w), graph=graph)
            bias = graph._held.bias
            plan(surface, distance_field(surface), z, a, PlanParams(epsilon=1.5, w_obstacle=w),
                 graph=graph)
            assert graph._held.bias is bias
            assert not bias.flags.writeable
            expected = w * surface.resolution / (dfield.distances.astype(np.float64) + 1.0)
            assert bias.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "w_obstacle, start, goal, expanded, path",
        [
            (0.0, (0, 0, 1), (5, 5, 1), 10, "0,0 0,1 1,1 1,2 1,3 1,4 1,5 2,5 3,5 4,5 5,5"),
            (0.5, (0, 0, 1), (5, 5, 1), 35, "0,0 0,1 1,1 1,2 2,2 2,3 3,3 3,4 4,4 4,5 5,5"),
            (0.0, (5, 0, 1), (0, 5, 1), 10, "5,0 4,0 4,1 3,1 2,1 1,1 0,1 0,2 0,3 0,4 0,5"),
            (0.5, (5, 0, 1), (0, 5, 1), 35, "5,0 4,0 4,1 3,1 3,2 2,2 2,3 1,3 1,4 0,4 0,5"),
            (0.0, (2, 2, 1), (4, 5, 1), 5, "2,2 2,3 2,4 3,4 3,5 4,5"),
            (0.5, (2, 2, 1), (4, 5, 1), 11, "2,2 2,3 3,3 3,4 4,4 4,5"),
        ],
        ids=["diag-w0", "diag-w0.5", "antidiag-w0", "antidiag-w0.5", "short-w0", "short-w0.5"],
    )
    def test_tie_break_pinned(self, w_obstacle, start, goal, expanded, path):
        # On an open floor many paths share the optimal cost, so the
        # expansion count and the path are fixed only by the tie-break rule
        # (min f, then max g, then lexicographic coordinates, in the search
        # and in the path walk). The w0.5 values were recorded from a
        # separately written heapq engine; flipping max g to min g changes
        # the counts, and reversing the coordinate order changes the paths.
        # With w_obstacle = 0 the bound is not strictly consistent, so the
        # w0 paths are the walk's pick among equally cheap ones.
        surface, dfield = flat(6)
        result = plan(surface, dfield, start, goal, PlanParams(w_obstacle=w_obstacle))
        assert result.expanded == expanded
        expected = [tuple(map(int, xy.split(","))) + (1,) for xy in path.split()]
        assert [tuple(st) for st in result.states.tolist()] == expected

    @pytest.mark.parametrize("w_obstacle", [0.0, 0.5])
    def test_tie_break_past_2_pow_21(self, w_obstacle):
        # the tie-break orders coordinates lexicographically at any y: the
        # same strip far up the y axis plans the same paths, translated
        params = PlanParams(w_obstacle=w_obstacle)
        for (x0, y0), (x1, y1) in [((0, 0), (2, 9)), ((2, 0), (0, 9)),
                                   ((0, 9), (2, 0)), ((2, 9), (0, 0))]:
            runs = []
            for base in (0, 2**21):
                # a seed mid-strip: ordinals != key order
                surface, dfield = strip(base, (1, base + 4, 1))
                assert not np.all(np.diff(surface.keys) > 0)
                result = plan(surface, dfield, (x0, base + y0, 1), (x1, base + y1, 1), params)
                runs.append((
                    result.cost,
                    (result.states - [0, base, 0]).tolist(),
                    (result.expanded, result.pushes, result.stale_pops, result.heap_peak),
                ))
            assert runs[0] == runs[1]

    def test_deterministic(self, table1):
        surface, dfield, graph = table1.surface, table1.dfield, table1.graph
        start = tuple(surface.states[0])
        goal = tuple(surface.states[-1])
        r1 = plan(surface, dfield, start, goal, graph=graph)
        r2 = plan(surface, dfield, start, goal, graph=graph)
        assert r1.cost == r2.cost
        assert np.array_equal(r1.states, r2.states)

    def test_foreign_dfield_rejected(self):
        surface_a, dfield_a = flat(5)
        surface_b, dfield_b = flat(5)
        with pytest.raises(ValueError):
            plan(surface_a, dfield_b, (0, 0, 1), (1, 1, 1))

    def test_foreign_graph_rejected(self):
        surface_a, dfield_a = flat(5)
        surface_b, _ = flat(5)
        graph_b = SearchGraph.build(surface_b)
        with pytest.raises(ValueError):
            plan(surface_a, dfield_a, (0, 0, 1), (1, 1, 1), graph=graph_b)

    def test_path_steps_stay_connected(self, table1):
        surface, dfield, graph = table1.surface, table1.dfield, table1.graph
        start = tuple(surface.states[3])
        goal = tuple(surface.states[surface.size // 2])
        result = plan(surface, dfield, start, goal, graph=graph)
        k = surface.params.step_voxels
        diffs = np.diff(result.states, axis=0)
        assert np.all(np.abs(diffs[:, 0]) + np.abs(diffs[:, 1]) == 1)
        assert np.all(np.abs(diffs[:, 2]) <= k)


WEIGHTS = [PlanParams(), PlanParams(w_obstacle=5.0),
           PlanParams(w_up=3.5, w_down=0.25, w_obstacle=1.3)]


def query_pairs(fixture, count=100):
    rng = np.random.default_rng(18)
    return rng.integers(0, fixture.surface.size, size=(count, 2)).tolist()


class TestPathsFromFinalG:
    """The search keeps no parents: the path is read off the final g. With
    w_obstacle > 0 the bound is strictly consistent, and the path must be
    the one a parent-pointer search under the Euclidean bound returns."""

    @staticmethod
    def assert_paths_match(b, params, graph):
        """Plan 100 queries on ``graph``; return the landmarks each one
        with a goal apart from its start read."""
        surface = b.surface
        landmarks = []
        for a, z in query_pairs(b):
            cost, path = reference_plan(b, a, z, params)
            result = plan(surface, b.dfield, tuple(surface.states[a]),
                          tuple(surface.states[z]), params, graph=graph)
            assert result.cost == cost
            assert result.states.tobytes() == surface.states[path].tobytes()
            if a != z:
                landmarks.append(result.landmarks)
        return landmarks

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_paths_and_costs_match_parent_pointer_search(self, name):
        b = built(name)
        for params in WEIGHTS:
            self.assert_paths_match(b, params, b.graph)

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_paths_and_costs_match_with_landmarks(self, name):
        # every preset is one component, so every query that moves reads
        # all LANDMARKS landmarks
        b = built(name)
        for params in WEIGHTS:
            landmarks = self.assert_paths_match(b, params, paid_graph(b.surface, b.dfield, params))
            assert set(landmarks) == {LANDMARKS}

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_paused_search_resumes_alike(self, name):
        # a search without tables that pauses and resumes on the Manhattan
        # array, at once, after n // PUSH_PRICE pushes, or never, gives the
        # same counters, the same g bit for bit and the same path
        b = built(name)
        budget = b.surface.size // PUSH_PRICE
        paused = 0
        for params in WEIGHTS:
            for a, t in query_pairs(b, 8):
                runs = [run_search(_search, _walk, b, a, t, params, budget=at)
                        for at in (0, budget, _NO_BUDGET)]
                assert runs[0] == runs[1] == runs[2]
                paused += runs[0][0][1] > budget
        assert paused  # some searches did pass the budget

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_manhattan_array_is_the_per_push_bound(self, name):
        b = built(name)
        surface = b.surface
        res = surface.resolution
        xs, ys, zs = surface.states.T.tolist()
        for params in WEIGHTS:
            for _, t in query_pairs(b, 3):
                got = _manhattan(surface.states, t, res, params.w_down)
                want = [_heuristic(xs[v] - xs[t], ys[v] - ys[t], zs[v] - zs[t], res,
                                   params.w_down) for v in range(surface.size)]
                assert got.dtype == np.float64
                assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_bound_strictly_consistent(self, name):
        # the equivalence above needs h(u) < edge cost + h(v) on every edge
        b = built(name)
        surface, graph = b.surface, b.graph
        res, k = surface.resolution, surface.params.step_voxels
        sources = np.repeat(np.arange(surface.size), np.diff(graph.indptr))
        for params in WEIGHTS:
            costs = _Costs.of(b.dfield, params)
            cost = costs.cost_by_dz[graph.dz + k] + costs.bias[graph.targets]
            for _, z in query_pairs(b, 10):
                goal = tuple(surface.states[z])
                h = np.array([heuristic(s, goal, params, res) for s in surface.states.tolist()])
                assert np.all(h[sources] < cost + h[graph.targets])

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_unbiased_costs_are_path_sums(self, name):
        # with w_obstacle = 0 ties are not strict and an equally cheap path
        # may differ from the reference; its edge costs must still add up to
        # the reported cost exactly, and at epsilon = 1 that cost is the
        # reference's
        b = built(name)
        surface, dfield, res = b.surface, b.dfield, b.surface.resolution
        for params in (PlanParams(w_obstacle=0.0), PlanParams(epsilon=1.5, w_obstacle=0.0)):
            for a, z in query_pairs(b, 30):
                result = plan(surface, dfield, tuple(surface.states[a]),
                              tuple(surface.states[z]), params, graph=b.graph)
                total = 0.0
                for u, v in zip(result.states[:-1].tolist(), result.states[1:].tolist()):
                    total += edge_cost(u, v, dfield.at(v), params, res)
                assert total == result.cost
                if params.epsilon == 1.0:
                    assert result.cost == reference_plan(b, a, z, params)[0]

    @pytest.mark.parametrize("walk", [_chain, _interpreted(_chain), _walk],
                             ids=["arrays", "memoryviews", "engine"])
    @pytest.mark.parametrize("start_linked", [False, True])
    def test_walk_tie_rule(self, walk, start_linked):
        # hand-built g-values: goal 3 has predecessors 1 and 2, tied on
        # f = g + euclid(-> goal) at 4 + 3 = 2 + 5; the larger g wins over
        # the smaller flat key (state 2's). The start wins whenever it is a
        # predecessor, though its f of 100 is the largest.
        rows = [[], [(0, 0)], [(0, 0)], [(2, -1), (1, 0)]]  # (target, dz)
        if start_linked:
            rows[3].insert(0, (0, 1))
        indptr = np.cumsum([0] + [len(r) for r in rows])
        targets, dz = (np.array([e[i] for r in rows for e in r], np.int64) for i in (0, 1))
        cost_by_dz = np.array([6.0, 2.0, 4.0])  # dz -1, 0, +1 of the move into a state
        bias = np.array([0.0, 2.0, 0.0, 0.0])
        xs, ys, zs = np.array([100, 3, 3, 0]), np.array([0, 0, 4, 0]), np.zeros(4, np.int64)
        keys = np.array([9, 8, 7, 6])
        g = np.array([0.0, 4.0, 2.0, 6.0])
        chain = walk(indptr, targets, dz, cost_by_dz, bias, xs, ys, zs, keys, g,
                     3, 1.0, 1.0, 0.0, 1, 0)
        assert [int(c) for c in chain] == ([3, 0] if start_linked else [3, 1, 0])

    @pytest.mark.parametrize("name, weights", [
        ("spiral_ramp", {"w_up": 1e15}),
        ("two_story_house", {"w_up": 1e16}),
        ("two_story_house", {"w_up": 1e16, "w_down": 1e16}),
    ])
    def test_weights_that_round_a_step_away_are_refused(self, name, weights):
        # a climb costs so much more than a flat step that a path's g could
        # absorb a step: the walk back would stall, so plan() refuses
        b = built(name)
        for start, goal in sample_queries(b.surface, 20, "mixed", rng_seed=1):
            if start != goal:
                with pytest.raises(ValueError, match="too far apart"):
                    plan(b.surface, b.dfield, start, goal, PlanParams(**weights),
                         graph=b.graph)

    @pytest.mark.parametrize("paid", [False, True], ids=["manhattan", "landmarks"])
    def test_large_weights_below_the_bound_stay_exact(self, paid):
        # with tables, the bound's slack grows with their values, so it
        # stays strictly consistent: paths and costs are those of a new
        # graph's Manhattan search, bit for bit
        b = built("spiral_ramp")
        params = PlanParams(w_up=1e12)
        graph = paid_graph(b.surface, b.dfield, params) if paid else SearchGraph.build(b.surface)
        for start, goal in sample_queries(b.surface, 20, "mixed", rng_seed=1):
            got = plan(b.surface, b.dfield, start, goal, params, graph=graph)
            want = dijkstra_reference(b.surface, b.dfield, start, params)
            assert math.isclose(got.cost, want[b.surface.ordinal(goal)], rel_tol=1e-12)
            assert tuple(got.states[0]) == start and tuple(got.states[-1]) == goal
            assert got.landmarks == (LANDMARKS if paid and start != goal else 0)
            fresh = plan(b.surface, b.dfield, start, goal, params)
            assert (got.cost, got.states.tobytes()) == (fresh.cost, fresh.states.tobytes())

    def test_h_ratio(self, table1):
        # a new graph reads no landmarks: the bound is the Manhattan one
        surface, dfield = table1.surface, table1.dfield
        graph = SearchGraph.build(surface)
        for a, z in query_pairs(table1, 10):
            start, goal = tuple(surface.states[a]), tuple(surface.states[z])
            result = plan(surface, dfield, start, goal, graph=graph)
            assert result.landmarks == 0
            if start == goal:
                assert result.h_ratio == 1.0
            else:
                h = heuristic(start, goal, PlanParams(), surface.resolution)
                assert result.h_ratio == h / result.cost
                assert 0.0 < result.h_ratio <= 1.0
        state = tuple(surface.states[0])
        assert plan(surface, dfield, state, state).h_ratio == 1.0


def result_key(r):
    return (r.cost, r.states.tobytes(), r.metric_length, r.expanded, r.pushes, r.stale_pops,
            r.heap_peak, r.h_ratio, r.landmarks)


class TestLandmarks:
    """ALT bounds: the tables a search graph builds once its searches have
    expanded BUILD_PRICE states per state, the bound they give, and when a
    graph builds and keeps them."""

    @staticmethod
    def assert_strictly_consistent(b, params):
        """h(u) < c(u -> v) + h(v) on every edge and h(t) == 0, h the array
        the search reads: the slackened landmark bound alone, of every
        landmark. Returns the tables' slack."""
        surface, graph = b.surface, b.graph
        res, k = surface.resolution, surface.params.step_voxels
        sources = np.repeat(np.arange(surface.size), np.diff(graph.indptr))
        tables = tables_for(surface, b.dfield, params)
        assert len(tables.table) == LANDMARKS
        cost = tables.cost_by_dz[graph.dz + k] + tables.bias[graph.targets]
        for _, t in query_pairs(b, 6):
            h = tables.bound(t)
            assert h.shape == (surface.size,) and h.dtype == np.float64
            assert np.all(h[sources] < cost + h[graph.targets])
            assert h[t] == 0.0
        return tables.slack

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_bound_strictly_consistent(self, name):
        for params in WEIGHTS:
            assert self.assert_strictly_consistent(built(name), params) == _SLACK

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_bound_alone_strictly_consistent_at_a_steep_climb_weight(self, name):
        # with w_up = 1e12, phi and the tables reach ~1e11 per level climbed
        # while a flat edge costs ~0.2: their rounding exceeds 1e-9 of an
        # edge, and the slack grows to match
        slack = self.assert_strictly_consistent(built(name), PlanParams(w_up=1e12))
        assert 0.5 < slack < _SLACK

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_bound_is_the_per_state_formula(self, name):
        # the array holds, bit for bit, a bound computed per state in plain
        # Python floats, as a search without the array would per push: the
        # slackened landmark bound of every landmark, with no Manhattan term
        b = built(name)
        surface = b.surface
        for params in WEIGHTS + [PlanParams(w_up=1e12)]:
            tables = tables_for(surface, b.dfield, params)
            table, phi = [row.tolist() for row in tables.table], tables.phi.tolist()
            assert len(table) == LANDMARKS
            for _, t in query_pairs(b, 3):
                got = tables.bound(t)
                want = []
                for v in range(surface.size):
                    m = 0.0
                    for row in table:
                        d = abs(row[v] - row[t])
                        if d > m:
                            m = d
                    want.append(tables.slack * (m + (phi[t] - phi[v])))
                assert got.tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_tables_are_true_costs(self, name):
        # D[v, a] + phi(v) - phi(a) is the cost of the cheapest path from
        # landmark a to v
        b = built(name)
        surface = b.surface
        for params in WEIGHTS[:2]:
            tables = tables_for(surface, b.dfield, params)
            table = np.array(tables.table)
            assert table.shape == (LANDMARKS, surface.size)
            # a row's one zero is its landmark: LANDMARKS states, none ordinal 0
            ordinals = [int(a) for a in np.argmin(table, axis=1)]
            assert np.count_nonzero(table == 0.0) == LANDMARKS
            assert len(set(ordinals) | {0}) == LANDMARKS + 1
            for j, a in enumerate(ordinals):
                want = dijkstra_reference(surface, b.dfield, tuple(surface.states[a]), params)
                got = table[j] + tables.phi - tables.phi[a]
                np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)

    def test_counters_match_a_fresh_graph_until_the_trigger(self, table1):
        surface, dfield = table1.surface, table1.dfield
        graph = SearchGraph.build(surface)
        served = 0
        built_at = None
        for q, (a, z) in enumerate(query_pairs(table1, 60)):
            start, goal = tuple(surface.states[a]), tuple(surface.states[z])
            got = plan(surface, dfield, start, goal, graph=graph)
            fresh = plan(surface, dfield, start, goal, graph=SearchGraph.build(surface))
            if served < BUILD_PRICE * surface.size:
                assert result_key(got) == result_key(fresh)
            else:
                built_at = q if built_at is None else built_at
                assert (got.cost, got.states.tobytes(), got.metric_length) == (
                    fresh.cost, fresh.states.tobytes(), fresh.metric_length)
                assert got.landmarks == (0 if a == z else LANDMARKS)
                assert fresh.h_ratio <= got.h_ratio <= 1.0
            served += got.expanded
        # the trigger fell within the batch, and the tables were kept
        assert built_at is not None and graph._held.table is not None

    def test_tables_are_kept_per_weights(self, table1):
        surface, dfield = table1.surface, table1.dfield
        graph = paid_graph(surface, dfield)
        a, z = tuple(surface.states[0]), tuple(surface.states[-1])
        assert plan(surface, dfield, a, z, graph=graph).landmarks == LANDMARKS
        held = graph._held
        table = held.table
        # held: the same weights read the same tables
        assert plan(surface, dfield, z, a, graph=graph).landmarks == LANDMARKS
        assert graph._held is held and held.table is table
        # new weights: a new held state, with no tables until its searches
        # pay for them, then new ones
        other = PlanParams(w_obstacle=1.3)
        assert plan(surface, dfield, a, z, other, graph=graph).landmarks == 0
        assert graph._held.weights == (2.0, 1.0, 1.3) and graph._held.table is None
        graph._held.expanded = BUILD_PRICE * surface.size
        assert plan(surface, dfield, a, z, other, graph=graph).landmarks == LANDMARKS
        assert not np.array_equal(graph._held.table, table)
        # switching back drops those: the first weights start over
        assert plan(surface, dfield, a, z, graph=graph).landmarks == 0
        assert graph._held.weights == (2.0, 1.0, 0.5) and graph._held.table is None

    def test_an_equal_distance_field_reads_the_held_tables(self, table1, monkeypatch):
        # a distance field is a function of its surface: a new one reads the
        # tables built under the first, which are built once
        sweeps = []

        def counted(*args):
            sweeps.append(args)
            return landmark_tables(*args)

        landmark_tables = plan_module._landmark_tables
        monkeypatch.setattr(plan_module, "_landmark_tables", counted)
        surface, dfield = table1.surface, table1.dfield
        graph = paid_graph(surface, dfield)
        a, z = tuple(surface.states[0]), tuple(surface.states[-1])
        first = plan(surface, dfield, a, z, graph=graph)
        again = plan(surface, distance_field(surface), a, z, graph=graph)
        assert first.landmarks == again.landmarks == LANDMARKS
        assert len(sweeps) == 1
        assert result_key(again) == result_key(first)

    def test_refused_weights_keep_the_held_tables(self, table1):
        # weights refused by the 2^52 check replace nothing: the next query
        # with the held weights still reads their tables
        surface, dfield = table1.surface, table1.dfield
        graph = paid_graph(surface, dfield)
        a, z = tuple(surface.states[0]), tuple(surface.states[-1])
        assert plan(surface, dfield, a, z, graph=graph).landmarks == LANDMARKS
        held = graph._held
        with pytest.raises(ValueError, match="too far apart"):
            plan(surface, dfield, a, z, PlanParams(w_up=1e16), graph=graph)
        assert graph._held is held and held.table is not None
        assert plan(surface, dfield, a, z, graph=graph).landmarks == LANDMARKS

    def test_exact_strict_searches_alone_pay_and_read(self, table1):
        # epsilon > 1 or w_obstacle = 0: the bound could change the path,
        # so those searches neither read tables nor count toward them
        surface, dfield = table1.surface, table1.dfield
        a, z = tuple(surface.states[0]), tuple(surface.states[-1])
        graphs = []
        for params in (PlanParams(epsilon=1.5), PlanParams(w_obstacle=0.0)):
            graph = paid_graph(surface, dfield, params)
            held = graph._held
            assert plan(surface, dfield, a, z, params, graph=graph).landmarks == 0
            assert graph._held is held and held.table is None
            assert held.expanded == BUILD_PRICE * surface.size
            graphs.append(graph)
        # epsilon = 1.5 ran under the default weights, whose tables the
        # next exact search builds and reads
        assert plan(surface, dfield, a, z, graph=graphs[0]).landmarks == LANDMARKS

    def test_no_graph_never_builds(self, table1, monkeypatch):
        # a graph plan() builds for itself serves one query: no tables,
        # however many such queries run
        def refuse(*args):
            raise AssertionError("tables built for a graph=None call")

        monkeypatch.setattr(plan_module, "_landmark_tables", refuse)
        surface, dfield = table1.surface, table1.dfield
        expanded = 0
        for a, z in query_pairs(table1, 60):
            r = plan(surface, dfield, tuple(surface.states[a]), tuple(surface.states[z]))
            assert r.landmarks == 0
            expanded += r.expanded
        assert expanded >= BUILD_PRICE * surface.size

    def test_a_query_reads_every_landmark_that_reaches_both_ends(self):
        # the seed reaches every state, so every landmark reaches both ends
        # of every query: on the 16-state tabletop the tables hold its 15
        # states other than ordinal 0, and every query reads all 15
        occ = np.zeros((12, 12, 10), dtype=bool)
        occ[:, :, 0] = True
        occ[4:8, 4:8, 4] = True  # detached tabletop
        cands = candidate_set(OccupancyGrid(0.2, np.zeros(3), occ), DerivedVoxelParams(
            step_voxels=1, clearance_voxels=3, inflation_voxels=0))
        surface = seeded_surface(cands.keys, cands.grid.dims, (5, 5, 5), cands.params)
        dfield = distance_field(surface)
        graph = paid_graph(surface, dfield)
        states = [tuple(v) for v in surface.states.tolist()]
        read = [plan(surface, dfield, states[a], states[z], graph=graph).landmarks
                for a, z in [(0, 1), (0, 15), (15, 3), (7, 12)]]
        table = np.array(graph._held.table)
        assert table.shape == (15, 16) and np.all(np.isfinite(table))
        assert read == [15, 15, 15, 15]

    def test_tables_too_coarse_for_any_slack_hold_no_landmark(self):
        # a strip at z = 2^20 under w_up = 2^30: phi holds ~res * 2^49, so
        # its rounding exceeds every edge's cost, and no slack makes the
        # bound strictly consistent; the tables keep no landmark, and the
        # search runs on the Manhattan bound alone
        dims = (3, 10, 2**20 + 2)
        xs, ys = np.meshgrid(np.arange(3), np.arange(10), indexing="ij")
        keys = np.ravel_multi_index((xs.ravel(), ys.ravel(), np.full(30, 2**20)), dims)
        surface = Surface(keys=keys, dims=dims, resolution=0.2, origin=np.zeros(3),
                          params=DerivedVoxelParams(step_voxels=1, clearance_voxels=2,
                                                    inflation_voxels=0))
        dfield = distance_field(surface)
        params = PlanParams(w_up=2.0**30)
        tables = tables_for(surface, dfield, params)
        assert tables.slack <= 0.0 and tables.table == []
        a, z = (tuple(v) for v in surface.states[[0, -1]].tolist())
        got = plan(surface, dfield, a, z, params, graph=paid_graph(surface, dfield, params))
        fresh = plan(surface, dfield, a, z, params)
        assert got.landmarks == 0 and result_key(got) == result_key(fresh)

    @settings(max_examples=40)
    @given(voxel_sets, st.integers(0, 3), st.data())
    def test_paid_tables_keep_costs_and_paths(self, voxel_set, k, data):
        # the surface a random seed grows over a random voxel set: queries
        # run until they have paid for tables, then each cost is Dijkstra's
        # and each path a new graph's
        dims, bits = voxel_set
        keys = np.flatnonzero(bits)
        assume(keys.size)
        seed = np.unravel_index(data.draw(st.sampled_from(keys.tolist())), dims)
        surface = seeded_surface(keys, dims, seed, DerivedVoxelParams(
            step_voxels=k, clearance_voxels=k + 1, inflation_voxels=0))
        assume(surface.size >= 2)
        dfield = distance_field(surface)
        graph = SearchGraph.build(surface)
        states = [tuple(s) for s in surface.states.tolist()]
        pairs = itertools.cycle(itertools.permutations(range(surface.size), 2))
        while graph._held is None or graph._held.table is None:
            a, z = next(pairs)
            plan(surface, dfield, states[a], states[z], graph=graph)
        end = st.integers(0, surface.size - 1)
        for a, z in data.draw(st.lists(st.tuples(end, end), min_size=1, max_size=12)):
            want = dijkstra_reference(surface, dfield, states[a], PlanParams())[z]
            got = plan(surface, dfield, states[a], states[z], graph=graph)
            assert math.isclose(got.cost, want, rel_tol=1e-9, abs_tol=1e-12)
            fresh = plan(surface, dfield, states[a], states[z])
            assert (got.cost, got.states.tobytes()) == (fresh.cost, fresh.states.tobytes())

    @settings(max_examples=40)
    @given(voxel_sets, st.integers(0, 3), st.none() | st.randoms())
    # two components in key order: no surface holds both
    @example(((4, 1, 1), np.array([1, 1, 0, 1], dtype=bool)), 0, None)
    def test_every_exact_query_reads_every_held_row(self, voxel_set, k, shuffle):
        # keys in key order or shuffled, wherever the constructor accepts
        # them: on a paid graph, each exact query that moves reads every row
        # the graph holds
        dims, bits = voxel_set
        keys = np.flatnonzero(bits).tolist()
        assume(len(keys) >= 2)
        if shuffle is not None:
            shuffle.shuffle(keys)
        try:
            surface = Surface(keys=keys, dims=dims, resolution=0.2, origin=np.zeros(3),
                              params=DerivedVoxelParams(step_voxels=k, clearance_voxels=k + 1,
                                                        inflation_voxels=0))
        except ValueError as exc:
            assert "no neighbor comes before it" in str(exc)
            return
        dfield = distance_field(surface)
        graph = paid_graph(surface, dfield)
        states = [tuple(s) for s in surface.states.tolist()]
        for a, z in itertools.permutations(range(min(surface.size, 6)), 2):
            for start, goal in ((states[a], states[z]), (states[-1 - a], states[-1 - z])):
                got = plan(surface, dfield, start, goal, graph=graph)
                assert got.landmarks == len(graph._held.table)


class TestQueryMemory:
    """The tracemalloc peak of one plan() call on a graph built earlier.
    A short query on the plaza_like preset, the largest at 0.2 m, keeps the
    heap and the path small, so the peak is the per-state arrays plus a
    few KiB: any further float64 or int64 array of n entries (8n = 58 KB
    here) would exceed the allowance. A long query's heap is small while
    it builds the Manhattan array, and grows into the room the build's
    two temporary buffers free."""

    SLACK_BYTES = 16 * 1024  # Python objects, the heap, the path

    def peak(self, graph, long=False):
        # short: ordinal 0 to its first neighbour; long: to the state its
        # breadth-first search reached last
        b = built("plaza_like")
        surface = b.surface
        indptr, targets, _ = surface._csr
        goal = surface.size - 1 if long else int(targets[indptr[0]])
        start, goal = (tuple(surface.states[i]) for i in (0, goal))
        plan(surface, b.dfield, start, goal, graph=graph)  # the bias, and any tables
        tracemalloc.start()
        try:
            result = plan(surface, b.dfield, start, goal, graph=graph)
            return tracemalloc.get_traced_memory()[1], result, surface.size
        finally:
            tracemalloc.stop()

    def test_without_tables_only_g_and_closed(self):
        # a short search with no tables builds nothing n-sized but g (8n
        # bytes) and closed (n): probes stay below the push budget, so they
        # never build the Manhattan array
        peak, result, n = self.peak(SearchGraph.build(built("plaza_like").surface))
        assert result.landmarks == 0 and result.pushes < n // PUSH_PRICE
        assert peak <= 9 * n + self.SLACK_BYTES

    def test_long_without_tables_g_closed_and_the_manhattan_array(self):
        # a long search with no tables pauses at n // PUSH_PRICE pushes and
        # builds the Manhattan array in three n-sized buffers, then resumes
        # on one of them: 4.125 * 8n in all
        peak, result, n = self.peak(SearchGraph.build(built("plaza_like").surface), long=True)
        assert result.landmarks == 0 and result.pushes > n // PUSH_PRICE
        assert peak <= 4.125 * 8 * n + self.SLACK_BYTES

    def test_with_tables_g_closed_and_the_bound(self):
        # with tables held, the bound adds two n-sized float64 buffers, one
        # of them the array the search reads: 3.125 * 8n in all
        b = built("plaza_like")
        peak, result, n = self.peak(paid_graph(b.surface, b.dfield))
        assert result.landmarks == LANDMARKS
        assert peak <= 3.125 * 8 * n + self.SLACK_BYTES


class TestArrayLayout:
    """Surfaces hold native int64 whatever keys they are built from, and
    so do the graphs and distance fields built from them, so the compiled
    and interpreted search can read them; non-integer keys are refused."""

    def rebuilt(self, surface, dtype):
        again = Surface(
            keys=surface.keys.astype(dtype),
            dims=surface.dims,
            resolution=surface.resolution,
            origin=surface.origin,
            params=surface.params,
        )
        return again, distance_field(again), SearchGraph.build(again)

    @pytest.mark.parametrize("dtype", ["<i4", ">i8", ">i4"])
    def test_other_integer_layouts_plan_identically(self, dtype):
        surface, dfield = flat(9, post=(4, 4))
        again, dfield2, graph2 = self.rebuilt(surface, dtype)
        for arr in (again.keys, again.states, graph2.indptr, graph2.targets, graph2.dz,
                    dfield2.distances):
            assert arr.dtype == np.int64 and arr.dtype.isnative
            assert arr.flags.c_contiguous
        for start, goal in [((1, 1, 1), (7, 7, 1)), ((8, 0, 1), (0, 8, 1))]:
            want = plan(surface, dfield, start, goal)
            got = plan(again, dfield2, start, goal, graph=graph2)
            assert got.cost == want.cost
            assert np.array_equal(got.states, want.states)
            assert (got.expanded, got.pushes, got.stale_pops, got.heap_peak) == (
                want.expanded, want.pushes, want.stale_pops, want.heap_peak)

    def test_int64_arrays_are_kept_not_copied(self):
        surface, _ = flat(5)
        graph = SearchGraph.build(surface)
        indptr, targets, _ = surface._csr
        assert graph.indptr is indptr and graph.targets is targets

    def test_float_states_are_refused(self):
        surface, _ = flat(5)
        with pytest.raises(ValueError, match="keys must be integers"):
            Surface(
                keys=surface.keys.astype(np.float64),
                dims=surface.dims,
                resolution=surface.resolution,
                origin=surface.origin,
                params=surface.params,
            )
