"""Command-line front end.

Subcommands wire the pipeline stages together: voxelize a point cloud,
generate a scene, extract a surface, plan a path, benchmark query
batches, or sample query pairs. Every command prints a JSON report to
stdout (or --output); repeated runs with the same inputs produce
byte-identical reports except for the timing fields listed in
TIMING_KEYS.

Exit codes: 0 success; 1 pipeline failures (seed snap, off-surface
endpoints, unsolvable sampling); 2 input problems (bad files, bad
arguments, out-of-range parameters).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
import time

import numpy as np

from .dfield import distance_field
from .errors import (
    EmptyInputError,
    GridFormatError,
    InvalidPointError,
    InvalidSeedError,
    NoCandidatesError,
    NoPathError,
    OffSurfaceError,
    QuerySamplingError,
    SceneSpecError,
    SeedSnapError,
    SurfaceFormatError,
)
from .extract import (
    ExtractionParams,
    _params_doc,
    _snap,
    extract_pipeline,
    load_surface,
    reduction_stats,
    save_surface,
)
from .grid import load_grid, load_point_cloud, save_grid, save_point_cloud, voxelize
from .plan import PlanParams, SearchGraph, plan
from .scenegen import (
    PRESET_NAMES,
    build_scene,
    load_scene_spec,
    preset,
    sample_queries,
    save_scene_spec,
)

__all__ = ["EXIT_INPUT", "EXIT_OK", "EXIT_PIPELINE", "TIMING_KEYS", "main"]

EXIT_OK = 0
EXIT_PIPELINE = 1
EXIT_INPUT = 2

# Report fields that legitimately differ between identical runs. Strip
# these (recursively) before comparing reports for determinism.
TIMING_KEYS = frozenset(
    {
        "T_p",
        "T_e",
        "T_e_candidates",
        "T_e_collision",
        "T_e_bfs",
        "T_dfield",
        "T_graph",
        "T_s",
        "T_s_mean",
        "T_s_std",
        "T_s_total",
        "T_all",
    }
)

_PIPELINE_ERRORS = (
    SeedSnapError,
    NoCandidatesError,
    InvalidSeedError,
    OffSurfaceError,
    NoPathError,
    QuerySamplingError,
)
_INPUT_ERRORS = (
    SceneSpecError,
    GridFormatError,
    SurfaceFormatError,
    InvalidPointError,
    EmptyInputError,
    OSError,
    ValueError,
)


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _triple(text: str, kind: str = "pose") -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise InvalidPointError(f"invalid {kind} {text!r}: expected x,y,z")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError as exc:
        raise InvalidPointError(f"invalid {kind} {text!r}: {exc}") from exc
    if not all(math.isfinite(v) for v in vals):
        raise InvalidPointError(f"invalid {kind} {text!r}: non-finite coordinate")
    if kind == "voxel":
        ints = tuple(int(v) for v in vals)
        if any(i != v for i, v in zip(ints, vals)):
            raise InvalidPointError(f"invalid voxel {text!r}: indices must be integers")
        return ints
    return vals


def _snap_to_surface(surface, pose, max_snap: float, role: str) -> tuple[int, int, int]:
    """Nearest surface state to a world pose, within max_snap meters;
    exact ties go to the lowest ordinal."""
    best = _snap(surface.state_centers(), pose, max_snap,
                 f"seed snap failed ({role}): nearest surface state")
    return tuple(int(c) for c in surface.states[best])


def _resolve_mode(surface, mode: str) -> str:
    """auto picks mixed when two walkable levels exist, else same_floor."""
    if mode != "auto":
        return mode
    if surface.z_span() >= surface.params.clearance_voxels:
        return "mixed"
    return "same_floor"


def _export_states(surface, dfield, path: str) -> None:
    centers = surface.state_centers()
    with open(path, "w") as fh:
        fh.write("# x y z boundary_distance\n")
        for row, d in zip(centers.tolist(), dfield.distances.tolist()):
            fh.write(f"{row[0]} {row[1]} {row[2]} {d}\n")


def _add_extract_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--t-conn", type=float, default=0.3, metavar="M",
                   help="max traversable rise/drop between adjacent columns (m)")
    p.add_argument("--h-clear", type=float, default=1.6, metavar="M",
                   help="required free height above a standing voxel (m)")
    p.add_argument("--r-inf", type=float, default=0.3, metavar="M",
                   help="lateral collision radius (m)")
    p.add_argument("--max-snap", type=float, default=2.0, metavar="M",
                   help="max seed snap distance (m)")


def _add_plan_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--epsilon", type=float, default=1.0, help="heuristic inflation, >= 1")
    p.add_argument("--w-up", type=float, default=2.0, help="climb penalty per voxel")
    p.add_argument("--w-down", type=float, default=1.0, help="descent penalty per voxel")
    p.add_argument("--w-obs", type=float, default=0.5, help="boundary proximity bias")


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="surfnav",
        description="Traversable-surface extraction and clearance-aware A* planning "
        "on dense occupancy grids.",
        epilog="exit codes: 0 ok, 1 pipeline failure, 2 input error",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("voxelize", help="bin a text point cloud into a grid file")
    p.add_argument("cloud", help="text file, one 'x y z' per line")
    p.add_argument("grid", help="output grid file")
    p.add_argument("--resolution", type=float, default=0.2, metavar="M")
    p.add_argument("--min-points", type=int, default=1, metavar="N",
                   help="points required before a voxel counts as occupied")
    p.add_argument("--output", metavar="FILE", help="write the JSON report here")

    p = sub.add_parser("scenegen", help="compile a preset or scene spec to a grid file")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES)
    src.add_argument("--spec", metavar="FILE", help="scene spec JSON")
    p.add_argument("grid", help="output grid file")
    p.add_argument("--resolution", type=float, default=None, metavar="M",
                   help="voxel size (default 0.2, or the spec file's value)")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--save-spec", metavar="FILE", help="also write the scene spec JSON")
    p.add_argument("--export-points", metavar="FILE",
                   help="write occupied voxel centers as a text cloud")
    p.add_argument("--output", metavar="FILE")

    p = sub.add_parser("extract", help="extract the traversable surface from a grid")
    p.add_argument("grid", help="input grid file")
    p.add_argument("surface", help="output surface JSON")
    seed = p.add_mutually_exclusive_group(required=True)
    seed.add_argument("--seed-pos", metavar="X,Y,Z", help="world seed pose to snap")
    seed.add_argument("--seed-voxel", metavar="X,Y,Z", help="exact candidate voxel")
    _add_extract_flags(p)
    p.add_argument("--export-points", metavar="FILE",
                   help="write surface state centers with boundary distances")
    p.add_argument("--output", metavar="FILE")

    p = sub.add_parser("plan", help="plan a path between two poses on a surface")
    p.add_argument("surface", help="surface JSON from extract")
    p.add_argument("path", help="output polyline file (world points)")
    p.add_argument("--start", metavar="X,Y,Z", help="world start pose")
    p.add_argument("--goal", metavar="X,Y,Z", help="world goal pose")
    p.add_argument("--start-voxel", metavar="X,Y,Z", help="exact start state")
    p.add_argument("--goal-voxel", metavar="X,Y,Z", help="exact goal state")
    p.add_argument("--max-snap", type=float, default=2.0, metavar="M")
    _add_plan_flags(p)
    p.add_argument("--output", metavar="FILE")

    p = sub.add_parser("bench", help="extract once, then time a batch of queries")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", choices=PRESET_NAMES)
    src.add_argument("--grid", metavar="FILE", help="grid file instead of a preset")
    p.add_argument("--resolution", type=float, default=0.2, metavar="M",
                   help="preset resolution (ignored with --grid)")
    p.add_argument("--queries", type=int, default=50, metavar="N")
    p.add_argument("--mode", choices=("auto", "mixed", "same_floor", "cross_floor"),
                   default="auto")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--repeat", type=int, default=1, metavar="R",
                   help="timing repetitions; with R > 1 the first pass is warmup")
    p.add_argument("--seed-pos", metavar="X,Y,Z",
                   help="world seed pose (default: the preset's hint)")
    _add_extract_flags(p)
    _add_plan_flags(p)
    p.add_argument("--output", metavar="FILE")

    p = sub.add_parser("queries", help="sample start/goal pairs from a surface")
    p.add_argument("surface", help="surface JSON from extract")
    p.add_argument("--count", type=int, default=50, metavar="N")
    p.add_argument("--mode", choices=("auto", "mixed", "same_floor", "cross_floor"),
                   default="auto")
    p.add_argument("--rng-seed", type=int, default=0)
    p.add_argument("--output", metavar="FILE")
    return ap


def _cmd_voxelize(args) -> int:
    points = load_point_cloud(args.cloud)
    grid = voxelize(points, args.resolution, min_points=args.min_points)
    save_grid(grid, args.grid)
    _emit(
        {
            "command": "voxelize",
            "points": int(points.shape[0]),
            "V": grid.total_voxels,
            "dims": list(grid.dims),
            "occupied": grid.occupied_count,
            "resolution": grid.resolution,
            "origin": [float(c) for c in grid.origin],
            "grid": args.grid,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_scenegen(args) -> int:
    if args.preset:
        spec = preset(args.preset, resolution=args.resolution or 0.2, rng_seed=args.rng_seed)
    else:
        spec = load_scene_spec(args.spec)
        if args.resolution:
            spec = dataclasses.replace(spec, resolution=args.resolution)
    scene = build_scene(spec)
    save_grid(scene.grid, args.grid)
    if args.save_spec:
        save_scene_spec(spec, args.save_spec)
    if args.export_points:
        save_point_cloud(scene.grid.occupied_centers(), args.export_points)
    _emit(
        {
            "command": "scenegen",
            "scene": spec.name,
            "V": scene.grid.total_voxels,
            "dims": list(scene.grid.dims),
            "occupied": scene.grid.occupied_count,
            "resolution": spec.resolution,
            "rng_seed": spec.rng_seed,
            "seed_hint": list(spec.seed_hint),
            "grid": args.grid,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_extract(args) -> int:
    t0 = time.perf_counter()
    grid = load_grid(args.grid)
    t_load = time.perf_counter() - t0
    params = ExtractionParams(args.t_conn, args.h_clear, args.r_inf)
    seed_pose = _triple(args.seed_pos) if args.seed_pos else None
    seed_voxel = _triple(args.seed_voxel, kind="voxel") if args.seed_voxel else None
    surface, timings = extract_pipeline(
        grid, params, seed_pose=seed_pose, seed_voxel=seed_voxel, max_snap=args.max_snap
    )
    t1 = time.perf_counter()
    dfield = distance_field(surface)
    t_dfield = time.perf_counter() - t1
    save_surface(surface, args.surface)
    if args.export_points:
        _export_states(surface, dfield, args.export_points)
    stats = reduction_stats(grid, surface)
    _emit(
        {
            "command": "extract",
            "V": stats.total_voxels,
            "S_size": stats.surface_size,
            "reduction": stats.reduction,
            "seed": list(surface.seed),
            "dims": list(surface.dims),
            "resolution": surface.resolution,
            "params": _params_doc(surface),
            "surface": args.surface,
            "T_p": t_load,
            "T_e_candidates": timings.candidate_seconds,
            "T_e_collision": timings.collision_seconds,
            "T_e_bfs": timings.bfs_seconds,
            "T_e": timings.total_seconds,
            "T_dfield": t_dfield,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_plan(args) -> int:
    if bool(args.start) == bool(args.start_voxel):
        raise InvalidPointError("exactly one of --start or --start-voxel is required")
    if bool(args.goal) == bool(args.goal_voxel):
        raise InvalidPointError("exactly one of --goal or --goal-voxel is required")
    surface = load_surface(args.surface)
    dfield = distance_field(surface)
    plan_params = PlanParams(args.epsilon, args.w_up, args.w_down, args.w_obs)

    if args.start_voxel:
        start = _triple(args.start_voxel, kind="voxel")
    else:
        start = _snap_to_surface(surface, _triple(args.start), args.max_snap, "start")
    if args.goal_voxel:
        goal = _triple(args.goal_voxel, kind="voxel")
    else:
        goal = _snap_to_surface(surface, _triple(args.goal), args.max_snap, "goal")

    t0 = time.perf_counter()
    graph = SearchGraph.build(surface)
    t_graph = time.perf_counter() - t0
    result = plan(surface, dfield, start, goal, params=plan_params, graph=graph)
    centers = surface.origin + (result.states + 0.5) * surface.resolution
    save_point_cloud(centers, args.path)
    _emit(
        {
            "command": "plan",
            "start": list(start),
            "goal": list(goal),
            "success": True,
            "cost": result.cost,
            "L": result.metric_length,
            "L_xy": result.metric_length_xy,
            "N_s": result.expanded,
            "pushes": result.pushes,
            "stale_pops": result.stale_pops,
            "heap_peak": result.heap_peak,
            "steps": int(result.states.shape[0] - 1),
            "engine": result.engine,
            "epsilon": plan_params.epsilon,
            "path": args.path,
            "T_graph": t_graph,
            "T_s": result.search_seconds,
            "T_all": time.perf_counter() - t0,
        },
        args.output,
    )
    return EXIT_OK


def _cmd_bench(args) -> int:
    if args.queries < 1:
        raise ValueError(f"--queries must be >= 1, got {args.queries}")
    if args.repeat < 1:
        raise ValueError(f"--repeat must be >= 1, got {args.repeat}")
    params = ExtractionParams(args.t_conn, args.h_clear, args.r_inf)
    plan_params = PlanParams(args.epsilon, args.w_up, args.w_down, args.w_obs)

    t0 = time.perf_counter()
    if args.preset:
        spec = preset(args.preset, resolution=args.resolution, rng_seed=args.rng_seed)
        grid = build_scene(spec).grid
        scene_id = args.preset
        seed_pose = _triple(args.seed_pos) if args.seed_pos else spec.seed_hint
    else:
        grid = load_grid(args.grid)
        scene_id = args.grid
        if not args.seed_pos:
            raise InvalidPointError("--seed-pos is required with --grid")
        seed_pose = _triple(args.seed_pos)
    t_build = time.perf_counter() - t0

    surface, timings = extract_pipeline(grid, params, seed_pose=seed_pose,
                                        max_snap=args.max_snap)
    t1 = time.perf_counter()
    dfield = distance_field(surface)
    t_dfield = time.perf_counter() - t1
    t2 = time.perf_counter()
    graph = SearchGraph.build(surface)
    t_graph = time.perf_counter() - t2

    mode = _resolve_mode(surface, args.mode)
    pairs = sample_queries(surface, args.queries, mode=mode, rng_seed=args.rng_seed)

    records = []
    times = np.zeros(len(pairs), dtype=np.float64)
    timed_reps = 0
    for rep in range(args.repeat):
        warmup = args.repeat > 1 and rep == 0
        rep_records = []
        for start, goal in pairs:
            try:
                r = plan(surface, dfield, start, goal, params=plan_params, graph=graph)
                rep_records.append(
                    {
                        "start": list(start),
                        "goal": list(goal),
                        "success": True,
                        "cost": r.cost,
                        "L": r.metric_length,
                        "L_xy": r.metric_length_xy,
                        "N_s": r.expanded,
                        "pushes": r.pushes,
                        "stale_pops": r.stale_pops,
                        "heap_peak": r.heap_peak,
                        "T_s": r.search_seconds,
                    }
                )
            except NoPathError:
                rep_records.append(
                    {
                        "start": list(start),
                        "goal": list(goal),
                        "success": False,
                        "cost": None,
                        "L": None,
                        "L_xy": None,
                        "N_s": None,
                        "pushes": None,
                        "stale_pops": None,
                        "heap_peak": None,
                        "T_s": None,
                    }
                )
        if rep == 0:
            records = rep_records
        if not warmup:
            for i, rec in enumerate(rep_records):
                times[i] += rec["T_s"] or 0.0
            timed_reps += 1
    times /= max(timed_reps, 1)
    for rec, t in zip(records, times.tolist()):
        if rec["success"]:
            rec["T_s"] = t

    successes = sum(1 for rec in records if rec["success"])
    ok = [rec for rec in records if rec["success"]]
    t_search_total = float(times.sum())
    stats = reduction_stats(grid, surface)
    report = {
        "command": "bench",
        "scene": scene_id,
        "V": stats.total_voxels,
        "S_size": stats.surface_size,
        "reduction": stats.reduction,
        "resolution": surface.resolution,
        "seed": list(surface.seed),
        "params": _params_doc(surface),
        "plan_params": {
            "epsilon": plan_params.epsilon,
            "w_up": plan_params.w_up,
            "w_down": plan_params.w_down,
            "w_obstacle": plan_params.w_obstacle,
        },
        "mode": mode,
        "rng_seed": args.rng_seed,
        "repeat": args.repeat,
        "queries": len(pairs),
        "successes": successes,
        "SR": successes / len(pairs),
        "N_s_mean": float(np.mean([r["N_s"] for r in ok])) if ok else None,
        "L_mean": float(np.mean([r["L"] for r in ok])) if ok else None,
        "cost_mean": float(np.mean([r["cost"] for r in ok])) if ok else None,
        "per_query": records,
        "T_p": t_build,
        "T_e_candidates": timings.candidate_seconds,
        "T_e_collision": timings.collision_seconds,
        "T_e_bfs": timings.bfs_seconds,
        "T_e": timings.total_seconds,
        "T_dfield": t_dfield,
        "T_graph": t_graph,
        "T_s_mean": float(times.mean()) if len(pairs) else 0.0,
        "T_s_std": float(times.std()) if len(pairs) else 0.0,
        "T_s_total": t_search_total,
        "T_all": t_build + timings.total_seconds + t_dfield + t_graph + t_search_total,
    }
    _emit(report, args.output)
    return EXIT_OK


def _cmd_queries(args) -> int:
    surface = load_surface(args.surface)
    mode = _resolve_mode(surface, args.mode)
    pairs = sample_queries(surface, args.count, mode=mode, rng_seed=args.rng_seed)
    _emit(
        {
            "command": "queries",
            "surface": args.surface,
            "mode": mode,
            "rng_seed": args.rng_seed,
            "count": len(pairs),
            "queries": [{"start": list(s), "goal": list(g)} for s, g in pairs],
        },
        args.output,
    )
    return EXIT_OK


_COMMANDS = {
    "voxelize": _cmd_voxelize,
    "scenegen": _cmd_scenegen,
    "extract": _cmd_extract,
    "plan": _cmd_plan,
    "bench": _cmd_bench,
    "queries": _cmd_queries,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 for --help
        return EXIT_INPUT if exc.code not in (0, None) else EXIT_OK
    try:
        return _COMMANDS[args.command](args)
    except _PIPELINE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PIPELINE
    except _INPUT_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
