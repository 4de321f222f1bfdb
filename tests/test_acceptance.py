"""Acceptance suite: one test per claim the package stands on.

Each test is a single pass/fail line under pytest -v. Tolerances are
pinned here and nowhere else; the performance claim (criterion 10) lives
in test_benchmark.py behind the benchmark marker because it measures the
machine as much as the code.
"""

import json
import time

import numpy as np
import pytest

from surfnav import (
    DerivedVoxelParams,
    ExtractionParams,
    FloorSlab,
    PlanParams,
    SceneSpec,
    Wall,
    build_scene,
    candidate_set,
    collision_filter,
    distance_field,
    edge_cost,
    extract_pipeline,
    extract_surface,
    heuristic,
    plan,
    preset,
    reduction_stats,
    sample_queries,
    select_seed,
)
from surfnav.cli import TIMING_KEYS, main
from surfnav.oracle import (
    boundary_distance_reference,
    dijkstra_reference,
    flood_fill_reference,
    recheck_surface_states,
)

from conftest import built


def _resolve_mode(surface):
    if surface.z_span() >= surface.params.clearance_voxels:
        return "mixed"
    return "same_floor"


def test_criterion_01_filter_matrix():
    """table1_fixture: each structure class lands in the right filter bin."""
    t0 = time.perf_counter()
    spec = preset("table1_fixture")
    scene = build_scene(spec)
    dv = DerivedVoxelParams.from_params(ExtractionParams(), 0.2)
    cands = collision_filter(candidate_set(scene.grid, dv))
    seed = select_seed(spec.seed_hint, cands, 2.0)
    surface = extract_surface(cands, [seed])

    cmask = np.zeros(scene.grid.dims, dtype=bool)
    cmask.reshape(-1)[cands.keys] = True
    smask = np.zeros_like(cmask)
    s = surface.states
    smask[s[:, 0], s[:, 1], s[:, 2]] = True

    def supported_by(name):
        """Masks of candidates / surface states standing on `name` voxels."""
        sup = np.zeros_like(cmask)
        sup[:, :, 1:] = scene.solid_mask(name)[:, :, :-1]
        return cmask & sup, smask & sup

    floor_c, floor_s = supported_by("floor")
    stairs_c, stairs_s = supported_by("stairs")
    wall_c, _ = supported_by("wall")
    cavity_c, cavity_s = supported_by("cavity")
    table_c, table_s = supported_by("table")
    pit_c, pit_s = supported_by("subfloor")  # exposed through the hole
    cab_x, cab_y = slice(10, 18), slice(32, 40)  # cabinet footprint columns

    assert floor_s.any(), "floor in S"
    assert stairs_s.any(), "stairs in S"
    assert not wall_c.any(), "wall not in candidates"
    assert cavity_c.any() and not cavity_s.any(), "cavity in candidates, not in S"
    assert table_c.any() and not table_s.any(), "tabletop in candidates, not in S"
    assert pit_c.any() and not pit_s.any(), "hole floor in candidates, not in S"
    assert not cmask[cab_x, cab_y, 5].any(), "under-cabinet not in candidates"
    assert time.perf_counter() - t0 < 1.0, "filter matrix must run in under 1 s"


def test_criterion_02_reachability_250_of_250(all_presets):
    """50 sampled queries per preset, every one of the 250 must plan."""
    planned = 0
    for name, b in all_presets.items():
        mode = _resolve_mode(b.surface)
        pairs = sample_queries(b.surface, 50, mode=mode, rng_seed=0)
        for start, goal in pairs:
            result = plan(b.surface, b.dfield, start, goal, graph=b.graph)
            assert result.cost >= 0.0, (name, start, goal)
            planned += 1
    assert planned == 250


def test_criterion_03_optimality_matches_dijkstra():
    """epsilon = 1 search cost equals exact Dijkstra on 100 seeded queries."""
    t0 = time.perf_counter()
    params = PlanParams()
    checked = 0
    for rng_seed in range(5):
        b = built("furniture_room", rng_seed=rng_seed)
        assert b.surface.size <= 10_000
        pairs = sample_queries(b.surface, 20, mode="same_floor", rng_seed=rng_seed)
        for start, goal in pairs:
            result = plan(b.surface, b.dfield, start, goal, params, graph=b.graph)
            exact = dijkstra_reference(b.surface, b.dfield, start, params)
            reference = float(exact[b.surface.ordinal(goal)])
            assert abs(result.cost - reference) <= 1e-9 * reference, (
                rng_seed, start, goal, result.cost, reference,
            )
            checked += 1
    assert checked == 100
    assert time.perf_counter() - t0 < 30.0


@pytest.mark.parametrize("scene_name", ["table1_fixture", "two_story_house"])
def test_criterion_04_heuristic_admissible_and_consistent(scene_name):
    """h never overestimates the exact cost-to-goal and obeys the triangle
    inequality on every edge. Zero violations allowed."""
    b = built(scene_name)
    surface, dfield, graph = b.surface, b.dfield, b.graph
    params = PlanParams()
    res = surface.resolution
    states = [tuple(s) for s in surface.states.tolist()]
    for goal in (states[0], states[len(states) // 2], states[-1]):
        to_goal = dijkstra_reference(surface, dfield, goal, params, reverse=True)
        h = np.array([heuristic(s, goal, params, res) for s in states])
        assert np.all(h <= to_goal + 1e-12), "admissibility"
        for u in range(surface.size):
            hu = h[u]
            for e in range(int(graph.indptr[u]), int(graph.indptr[u + 1])):
                v = int(graph.targets[e])
                c = edge_cost(states[u], states[v], int(dfield.distances[v]), params, res)
                assert hu <= c + h[v] + 1e-12, "consistency"


def test_criterion_05_extraction_matches_flood_fill(all_presets):
    """The BFS surface set-equals an order-free flood fill, and every state
    re-verifies against the raw grid voxel by voxel."""
    for name, b in all_presets.items():
        dv = b.surface.params
        cands = collision_filter(candidate_set(b.grid, dv))
        flood = flood_fill_reference(cands, b.surface.seed, dv.step_voxels)
        assert {tuple(s) for s in b.surface.states.tolist()} == flood, name
        report = recheck_surface_states(b.surface, b.grid)
        assert report.ok, (name, report.mismatches[:3])


def test_criterion_06_distance_field_exact(all_presets):
    for name, b in all_presets.items():
        assert b.surface.size <= 10_000, name
        reference = boundary_distance_reference(b.surface)
        assert np.array_equal(b.dfield.distances, reference), name


def test_criterion_07_multi_level_columns_and_cross_floor_path(two_story):
    surface = two_story.surface
    k = surface.params.step_voxels
    levels = {}
    for x, y, z in surface.states.tolist():
        levels.setdefault((x, y), []).append(z)
    multi = {col: sorted(zs) for col, zs in levels.items() if len(zs) >= 2}
    assert len(multi) >= 1, "at least one column holds two walkable levels"

    # plan between the two levels of one column: same (x, y), different
    # floors, so any height-collapsing representation would alias them
    (x, y), zs = sorted(multi.items())[0]
    low, high = (x, y, zs[0]), (x, y, zs[-1])
    assert zs[-1] - zs[0] >= surface.params.clearance_voxels
    result = plan(surface, two_story.dfield, low, high, graph=two_story.graph)
    diffs = np.diff(result.states, axis=0)
    assert np.all(np.abs(diffs[:, 0]) + np.abs(diffs[:, 1]) == 1)
    assert np.all(np.abs(diffs[:, 2]) <= k)
    # floor-aliasing check: no step may jump within a column across levels
    same_column = (diffs[:, 0] == 0) & (diffs[:, 1] == 0)
    assert not np.any(same_column & (np.abs(diffs[:, 2]) > k))


def test_criterion_08_reduction_beats_empty_room_control(furniture):
    stats = reduction_stats(furniture.grid, furniture.surface)
    assert stats.reduction > 0.6
    # pinned from the rng_seed=0 run: 1 - 2462/75600
    assert stats.reduction == pytest.approx(0.9674338624338624, abs=1e-12)

    ex, ey, ez = furniture.spec.extent
    t = 0.4
    control_spec = SceneSpec(
        "control",
        (ex, ey, ez),
        furniture.spec.resolution,
        (
            FloorSlab((0.0, 0.0, ex, ey), z=0.0, thickness=t, name="floor"),
            Wall((0.0, 0.0, ex, t), 2.8, z0=t),
            Wall((0.0, ey - t, ex, ey), 2.8, z0=t),
            Wall((0.0, t, t, ey - t), 2.8, z0=t),
            Wall((ex - t, t, ex, ey - t), 2.8, z0=t),
            FloorSlab((0.0, 0.0, ex, ey), z=3.2, thickness=t, name="ceiling"),
        ),
        seed_hint=furniture.spec.seed_hint,
    )
    control_grid = build_scene(control_spec).grid
    assert control_grid.total_voxels == furniture.grid.total_voxels
    control_surface, _ = extract_pipeline(
        control_grid, ExtractionParams(), seed_pose=control_spec.seed_hint
    )
    control = reduction_stats(control_grid, control_surface)
    assert control.reduction == pytest.approx(0.9573544973544974, abs=1e-12)
    assert stats.reduction > control.reduction


def strip_timing(doc):
    if isinstance(doc, dict):
        return {k: strip_timing(v) for k, v in doc.items() if k not in TIMING_KEYS}
    if isinstance(doc, list):
        return [strip_timing(v) for v in doc]
    return doc


def test_criterion_09_bench_byte_identical_modulo_timing(tmp_path):
    args = ["bench", "--preset", "two_story_house", "--queries", "10",
            "--rng-seed", "0"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    canon_a = json.dumps(strip_timing(json.loads(a.read_text())),
                         indent=2, sort_keys=True).encode()
    canon_b = json.dumps(strip_timing(json.loads(b.read_text())),
                         indent=2, sort_keys=True).encode()
    assert canon_a == canon_b
