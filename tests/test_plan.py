import itertools

import numpy as np
import pytest

from surfnav import (
    DistanceField,
    ExtractionParams,
    NoPathError,
    OccupancyGrid,
    OffSurfaceError,
    PlanParams,
    SearchGraph,
    distance_field,
    edge_cost,
    extract_pipeline,
    extract_surface,
    candidate_set,
    DerivedVoxelParams,
    heuristic,
    plan,
    successors,
)
from surfnav.oracle import _adjacent, _column_map
from surfnav.extract import Surface
from surfnav.plan import _ENGINE, _astar, _cost_table, _interpreted, _search

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
        assert heuristic((0, 0, 0), (3, 4, 0), PlanParams(), 0.2) == pytest.approx(1.0)
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


class TestSuccessors:
    def layered(self):
        occ = np.zeros((8, 8, 12), dtype=bool)
        occ[:, :, 0] = True
        occ[2:5, 2:5, 5] = True
        grid = OccupancyGrid(0.2, np.zeros(3), occ)
        cands = candidate_set(
            grid,
            DerivedVoxelParams(
                step_voxels=1, clearance_voxels=3, inflation_voxels=0, resolution=0.2
            ),
        )
        return extract_surface(cands, [(0, 0, 1), (3, 3, 6)])

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
        # graph and successors() share one adjacency, so both are held to
        # the oracle's independent column map
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

    def test_graph_dz_matches_geometry(self):
        surface = self.layered()
        graph = SearchGraph.build(surface)
        for i in range(surface.size):
            lo, hi = graph.indptr[i], graph.indptr[i + 1]
            for e in range(lo, hi):
                j = graph.targets[e]
                assert graph.dz[e] == surface.states[j, 2] - surface.states[i, 2]


def run_search(search, fixture, a, b, params=PlanParams()):
    """Call ``search`` (an :func:`_astar` variant) directly from ordinal
    ``a`` to ``b``; return its counters, then ``g`` and ``parent`` as bytes."""
    surface, dfield, graph = fixture.surface, fixture.dfield, fixture.graph
    res, k, n = surface.resolution, surface.params.step_voxels, surface.size
    states = surface.states
    g = np.full(n, np.inf)
    parent = np.full(n, -1, np.int64)
    closed = np.zeros(n, np.bool_)
    out = search(
        graph.indptr, graph.targets, graph.dz, _cost_table(params, res, k),
        dfield._bias(params.w_obstacle), states[:, 0], states[:, 1], states[:, 2],
        g, parent, closed, a, b, params.epsilon, res, params.w_down, k,
    )
    return tuple(int(c) for c in out), g.tobytes(), parent.tobytes()


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
        occ = np.zeros((12, 12, 10), dtype=bool)
        occ[:, :, 0] = True
        occ[4:8, 4:8, 4] = True  # detached tabletop
        grid = OccupancyGrid(0.2, np.zeros(3), occ)
        cands = candidate_set(
            grid,
            DerivedVoxelParams(
                step_voxels=1, clearance_voxels=3, inflation_voxels=0, resolution=0.2
            ),
        )
        surface = extract_surface(cands, [(0, 0, 1), (5, 5, 5)])
        dfield = distance_field(surface)
        with pytest.raises(NoPathError):
            plan(surface, dfield, (0, 0, 1), (5, 5, 5))

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
        for a, b in rng.integers(0, table1.surface.size, size=(10, 2)).tolist():
            # counters, then g and parent bit for bit
            assert run_search(_search, table1, a, b) == run_search(_interpreted, table1, a, b)

    @pytest.mark.parametrize("w_obstacle", [0.5, 0.0])
    def test_arrays_and_memoryviews_search_alike(self, table1, w_obstacle):
        # numba calls _astar on the ndarrays, reading numpy scalars as its
        # typed arrays do; the interpreted search wraps them in memoryviews.
        # Without numba, calling _astar directly keeps the compiled
        # search's calling convention under test.
        params = PlanParams(w_obstacle=w_obstacle)
        rng = np.random.default_rng(5)  # the pairs of test_engines_bit_identical
        for a, b in rng.integers(0, table1.surface.size, size=(10, 2)).tolist():
            runs = [run_search(search, table1, a, b, params) for search in (_astar, _interpreted)]
            assert runs[0] == runs[1]  # counters, then g and parent bit for bit
            expanded, pushes, stale_pops, heap_peak, found = runs[0][0]
            assert found
            # every pop is an expansion, a stale entry or the goal
            assert pushes >= expanded + stale_pops + (a != b)
            assert 1 <= heap_peak <= pushes

    def test_interleaved_queries_match_fresh_ones(self, table1):
        # one graph and distance field serve alternating queries; no search
        # state may leak from one call into the next
        surface, dfield, graph = table1.surface, table1.dfield, table1.graph
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
        surface, dfield = table1.surface, table1.dfield
        for w in (0.5, 1.3):
            bias = dfield._bias(w)
            assert dfield._bias(w) is bias
            assert not bias.flags.writeable
            expected = w * surface.resolution / (dfield.distances.astype(np.float64) + 1.0)
            assert bias.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "w_obstacle, start, goal, expanded, path",
        [
            (0.0, (0, 0, 1), (5, 5, 1), 26, "0,0 0,1 1,1 1,2 2,2 2,3 3,3 3,4 4,4 4,5 5,5"),
            (0.5, (0, 0, 1), (5, 5, 1), 35, "0,0 0,1 1,1 1,2 2,2 2,3 3,3 3,4 4,4 4,5 5,5"),
            (0.0, (5, 0, 1), (0, 5, 1), 26, "5,0 4,0 4,1 3,1 3,2 2,2 2,3 1,3 1,4 0,4 0,5"),
            (0.5, (5, 0, 1), (0, 5, 1), 35, "5,0 4,0 4,1 3,1 3,2 2,2 2,3 1,3 1,4 0,4 0,5"),
            (0.0, (2, 2, 1), (4, 5, 1), 7, "2,2 2,3 2,4 3,4 3,5 4,5"),
            (0.5, (2, 2, 1), (4, 5, 1), 14, "2,2 2,3 3,3 3,4 4,4 4,5"),
        ],
        ids=["diag-w0", "diag-w0.5", "antidiag-w0", "antidiag-w0.5", "short-w0", "short-w0.5"],
    )
    def test_tie_break_pinned(self, w_obstacle, start, goal, expanded, path):
        # On an open floor many paths share the optimal cost, so the
        # expansion count and the path are fixed only by the tie-break rule
        # (min f, then max g, then lexicographic coordinates). The values
        # were recorded from a separately written heapq engine; flipping
        # max g to min g changes the counts, and reversing the coordinate
        # order changes the paths.
        surface, dfield = flat(6)
        result = plan(surface, dfield, start, goal, PlanParams(w_obstacle=w_obstacle))
        assert result.expanded == expanded
        expected = [tuple(map(int, xy.split(","))) + (1,) for xy in path.split()]
        assert [tuple(st) for st in result.states.tolist()] == expected

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


class TestArrayLayout:
    """Surfaces and graphs hold native int64 whatever they are built from,
    so the compiled and interpreted search can read them; non-integer
    arrays are refused."""

    def rebuilt(self, surface, dfield, dtype):
        again = Surface(
            states=surface.states.astype(dtype),
            seed=surface.seed,
            dims=surface.dims,
            resolution=surface.resolution,
            origin=surface.origin,
            params=surface.params,
        )
        graph = SearchGraph.build(surface)
        graph = SearchGraph(
            graph.indptr.astype(dtype),
            graph.targets.astype(dtype),
            graph.dz.astype(dtype),
            again,
        )
        return again, DistanceField(dfield.distances.astype(dtype), again), graph

    @pytest.mark.parametrize("dtype", ["<i4", ">i8", ">i4"])
    def test_other_integer_layouts_plan_identically(self, dtype):
        surface, dfield = flat(9, post=(4, 4))
        again, dfield2, graph2 = self.rebuilt(surface, dfield, dtype)
        for arr in (again.states, graph2.indptr, graph2.targets, graph2.dz, dfield2.distances):
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
        with pytest.raises(ValueError, match="states must be integers"):
            Surface(
                states=surface.states.astype(np.float64),
                seed=surface.seed,
                dims=surface.dims,
                resolution=surface.resolution,
                origin=surface.origin,
                params=surface.params,
            )

    @pytest.mark.parametrize("name", ["indptr", "targets", "dz"])
    def test_float_graph_arrays_are_refused(self, name):
        surface, _ = flat(5)
        graph = SearchGraph.build(surface)
        arrays = {"indptr": graph.indptr, "targets": graph.targets, "dz": graph.dz}
        arrays[name] = arrays[name].astype(np.float64)
        with pytest.raises(ValueError, match=f"{name} must be integers"):
            SearchGraph(surface=surface, **arrays)
