"""The three benchmark workloads, their seeded inputs and their checks.

Every map goes the way a command-line user takes it: a scene is written
to a grid file, the grid file is extracted to a surface file, and a
planner (distance field plus search graph) is built before queries run.
Each layer is called through ``Runner.call`` on the library's public
functions only; results are read from public fields only.

- ``plaza_ingest``: the ~1.1e7-voxel plaza, grid file -> ready planner +
  saved surface, then surface file -> ready planner. Each fresh planner
  answers short probe queries, ~2% of the pass, so the query metrics
  exist here too; a search-only change should move nothing else.
- ``plaza_queries``: the same plaza surface, built in set-up; the timed
  part is a fixed batch of long same-floor queries. Search is ~99% of it.
- ``multistory_churn``: six small maps at 0.1 m, each built from its grid
  file and given a few queries. The only workload with stairs, ramps,
  multi-level columns and cross-floor paths; per-map preparation is
  nearly half its time, so per-surface precompute shows here.
"""

from __future__ import annotations

import hashlib
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from surfnav import (
    DerivedVoxelParams,
    ExtractionParams,
    PlanParams,
    SearchGraph,
    build_scene,
    candidate_set,
    collision_filter,
    distance_field,
    edge_cost,
    extract_surface,
    load_grid,
    load_surface,
    plan,
    preset,
    save_grid,
    save_surface,
    select_seed,
)
from surfnav.errors import SceneSpecError
from surfnav.oracle import dijkstra_reference

from harness import Runner

EXTRACTION = ExtractionParams()
PARAMS = PlanParams()  # epsilon = 1: exact search
MAX_SNAP = 2.0  # meters, as in extract_pipeline
BASE_SEED = 0  # seed of the base query pairs; the workload seed moves their ends


@dataclass(frozen=True)
class Scale:
    """Sizes of one benchmark scale. ``full`` is the benchmark; ``tiny`` is
    the smoke test of the same code paths."""

    plaza: tuple  # (preset, resolution)
    plaza_queries: int
    probes: int  # probe queries per fresh planner on plaza_ingest
    probe_radius: int  # voxels
    references: int  # digest-checked queries per plaza workload
    jitter: float  # meters the workload seed may move a base pair's ends
    churn_res: float
    churn_furniture: int
    churn_queries: int  # per map


SCALES = {
    "full": Scale(("plaza_like", 0.048), 150, 48, 16, 8, 0.5, 0.1, 3, 12),
    "tiny": Scale(("table1_fixture", 0.2), 12, 4, 6, 4, 0.6, 0.2, 1, 3),
}


@dataclass
class Planner:
    surface: object
    dfield: object
    graph: SearchGraph


# -- inputs ----------------------------------------------------------------


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def stratified_pairs(states, n, rng, want, pool_factor=16) -> np.ndarray:
    """``n`` index pairs whose straight-line lengths cover the length
    distribution of random pairs evenly.

    A pool of random pairs accepted by ``want(dz)`` is sorted by length and
    cut into ``n`` equal strata; one pair is drawn from each.
    """
    m = len(states)
    pool = np.empty((0, 2), dtype=np.int64)
    while len(pool) < n * pool_factor:
        ij = rng.integers(0, m, size=(8 * n * pool_factor, 2))
        dz = np.abs(states[ij[:, 0], 2] - states[ij[:, 1], 2])
        ij = ij[(ij[:, 0] != ij[:, 1]) & want(dz)]
        pool = np.concatenate([pool, ij])
    pool = pool[: n * pool_factor]
    length = np.linalg.norm((states[pool[:, 0]] - states[pool[:, 1]]).astype(float), axis=1)
    strata = np.array_split(np.argsort(length, kind="stable"), n)
    picks = np.array([s[rng.integers(0, len(s))] for s in strata])
    return pool[picks[rng.permutation(n)]]


def _near(states, i, radius, k, rng) -> int:
    """A random state within ``radius`` columns and ``k`` voxels of height of
    state ``i`` (possibly ``i`` itself)."""
    d = np.abs(states - states[i])
    near = np.nonzero((d[:, 0] <= radius) & (d[:, 1] <= radius) & (d[:, 2] <= k))[0]
    return int(near[rng.integers(0, near.size)])


def short_pairs(states, n, rng, radius, k) -> np.ndarray:
    """``n`` index pairs whose goal lies within ``radius`` columns of the start."""
    out = []
    while len(out) < n:
        i = int(rng.integers(0, len(states)))
        j = _near(states, i, radius, k, rng)
        if j != i:
            out.append((i, j))
    return np.array(out, dtype=np.int64)


def seeded(states, base, rng, radius, k, want):
    """Move both ends of every base pair to a random state within
    ``radius`` columns, keeping ``want(dz)``; return state triples.

    The base pairs come from a fixed seed and the workload seed only moves
    their ends, so every input changes with the seed while each query keeps
    its length and surroundings. Query cost spans two orders of magnitude
    across pairs; with freshly drawn pairs the p90 of a 150-query plaza
    batch spread by 20-30% over five seeds, with moved base pairs its
    expansion counts stay within 1.5%.
    """
    out = []
    for i, j in base.tolist():
        while True:
            a, b = _near(states, i, radius, k, rng), _near(states, j, radius, k, rng)
            if a != b and want(abs(int(states[a, 2]) - int(states[b, 2]))):
                break
        out.append(_pair(states, a, b))
    return out


def jitter_voxels(scale: Scale, surface) -> int:
    return max(1, round(scale.jitter / surface.resolution))


def _pair(states, i, j):
    return tuple(int(c) for c in states[i]), tuple(int(c) for c in states[j])


def query_mix(surface, n, base_rng, rng, radius):
    """``mixed`` (half cross-floor) on two-floor surfaces, else ``same_floor``."""
    states = surface.states
    k = surface.params.step_voxels
    kc = surface.params.clearance_voxels
    two_floors = surface.z_span() >= kc
    same = lambda dz: dz <= k  # noqa: E731
    out = seeded(states, stratified_pairs(states, n - n // 2 if two_floors else n,
                                          base_rng, same), rng, radius, k, same)
    if two_floors:
        cross = lambda dz: dz >= kc  # noqa: E731
        out += seeded(states, stratified_pairs(states, n // 2, base_rng, cross),
                      rng, radius, k, cross)
    return out


# -- verification ----------------------------------------------------------


def digest(array) -> str:
    a = np.ascontiguousarray(np.asarray(array, dtype=np.int64))
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def planner_digests(p: Planner) -> dict:
    g = p.graph
    return {
        "states": digest(p.surface.states),
        "distances": digest(p.dfield.distances),
        "indptr": digest(g.indptr),
        "targets": digest(g.targets),
        "dz": digest(g.dz),
    }


def pair_key(start, goal) -> str:
    return "{},{},{}>{},{},{}".format(*start, *goal)


def path_ok(p: Planner, start, goal, result) -> bool:
    """Path runs start -> goal along graph edges and its recomputed cost
    equals the reported cost within 1e-9 relative."""
    states = [tuple(int(c) for c in s) for s in result.states]
    if not states or states[0] != start or states[-1] != goal:
        return False
    surface, g = p.surface, p.graph
    dist = p.dfield.distances
    res = surface.resolution
    cost = 0.0
    prev = surface.ordinal(states[0])
    for a, b in zip(states, states[1:]):
        if b not in surface:
            return False
        nxt = surface.ordinal(b)
        if nxt not in g.targets[g.indptr[prev]:g.indptr[prev + 1]]:
            return False
        cost += edge_cost(a, b, int(dist[nxt]), PARAMS, res)
        prev = nxt
    return math.isclose(cost, result.cost, rel_tol=1e-9, abs_tol=1e-12)


# -- the pipeline, one public call per layer ---------------------------------


def write_scene(r: Runner, name, res, rng_seed, path):
    spec = preset(name, resolution=res, rng_seed=rng_seed)
    grid = r.call("scenegen.build_scene", build_scene, spec).grid
    r.call("grid.save_grid", save_grid, grid, path)
    return spec.seed_hint


def extract_to_surface(r: Runner, grid_path, seed_pose):
    grid = r.call("grid.load_grid", load_grid, grid_path)
    derived = DerivedVoxelParams.from_params(EXTRACTION, grid.resolution)
    cands = r.call("extract.candidate_set", candidate_set, grid, derived)
    kept = r.call("extract.collision_filter", collision_filter, cands)
    seed = r.call("extract.select_seed", select_seed, seed_pose, kept, MAX_SNAP)
    surface = r.call("extract.extract_surface", extract_surface, kept, [seed],
                     extraction=EXTRACTION)
    r.count("extract.candidates", lambda: cands.count)
    r.count("extract.collision_kept", lambda: kept.count)
    r.count("extract.surface_states", surface.size)
    return surface


def save(r: Runner, surface, path):
    r.call("extract.save_surface", save_surface, surface, path)
    r.count("extract.surface_file_bytes", lambda: os.path.getsize(path))


def make_planner(r: Runner, surface) -> Planner:
    dfield = r.call("dfield.distance_field", distance_field, surface)
    graph = r.call("plan.graph_build", SearchGraph.build, surface)
    k = surface.params.step_voxels
    r.count("dfield.boundary_states", lambda: int(np.count_nonzero(dfield.distances == 0)))
    r.count("plan.edges", graph.edge_count)
    r.count("plan.edge_probes", surface.size * 4 * (2 * k + 1))
    return Planner(surface, dfield, graph)


def run_query(r: Runner, p: Planner, start, goal):
    result = r.call("plan.plan", plan, p.surface, p.dfield, start, goal, PARAMS, graph=p.graph)
    r.engine = result.engine
    if r.tracing:
        r.queries.append((r.last_span_seconds, result.search_seconds, result.expanded))
    return result


# -- workloads -------------------------------------------------------------


class Workload:
    setups = 9  # set-ups per untraced run; setup_s is their median

    def __init__(self, scale: Scale, seed: int, workdir: str, expected: dict):
        self.scale = scale
        self.seed = seed
        self.workdir = workdir
        self.expected = expected  # stored digests, by map key
        self.observed = {}  # digests seen in this run, same layout
        self.checked_paths = 0

    def _check_planner(self, key: str, p: Planner) -> bool:
        got = planner_digests(p)
        self.observed.setdefault(key, {}).update(got)
        want = self.expected.get(key, {})
        return all(want.get(name) == value for name, value in got.items())

    def _path_digest_ok(self, key, start, goal, result, required: bool) -> bool:
        """Compare the path with the stored digest for this map and pair.
        Timed queries come from the run's seed and are compared when the
        pair is stored; reference queries are always stored."""
        d = digest(result.states)
        pk = pair_key(start, goal)
        self.observed.setdefault(key, {}).setdefault("paths", {})[pk] = d
        want = self.expected.get(key, {}).get("paths", {}).get(pk)
        if want is None:
            return not required
        self.checked_paths += 1
        return want == d

    def _query_op(self, r, p, key, start, goal, op_id, first, extra_check=None):
        """One timed plan() call. ``key`` names the map whose stored path
        digests apply; None for maps that change with the seed. The garbage
        collector is emptied before the ``first`` query of a batch, so pauses
        inside the batch come from the batch's own allocations."""

        def verify(result):
            ok = path_ok(p, start, goal, result)
            if key is not None:
                ok = self._path_digest_ok(key, start, goal, result, required=False) and ok
            return ok and (extra_check is None or extra_check(result))

        return r.op("query", op_id, lambda: run_query(r, p, start, goal), verify,
                    collect=first)

    def _reference(self, r, p, key, start, goal, what):
        result = run_query(r, p, start, goal)
        ok = path_ok(p, start, goal, result)
        r.check(self._path_digest_ok(key, start, goal, result, required=True) and ok, what)

    def warm_up(self, r: Runner, state) -> None:
        """Off-clock work between the last set-up and the timed loop."""

    def finish(self, r: Runner, state) -> None:
        """Off-clock checks after the timed loop."""


class PlazaIngest(Workload):
    name = "plaza_ingest"

    def setup(self, r: Runner):
        grid_path = os.path.join(self.workdir, "plaza.grid")
        pose = write_scene(r, *self.scale.plaza, 0, grid_path)
        return {"grid": grid_path, "pose": pose, "probes": {}}

    def _key(self):
        return "{}@{}".format(*self.scale.plaza)

    def _base_probes(self, p: Planner, stream):
        sc = self.scale
        return short_pairs(p.surface.states, sc.probes, _rng(BASE_SEED, 1, stream),
                           sc.probe_radius, p.surface.params.step_voxels)

    def _probes(self, state, stream, p: Planner):
        if stream not in state["probes"]:
            k = p.surface.params.step_voxels
            state["probes"][stream] = seeded(
                p.surface.states, self._base_probes(p, stream), _rng(self.seed, 1, stream),
                jitter_voxels(self.scale, p.surface), k, lambda dz: dz <= k)
        return state["probes"][stream]

    def run_pass(self, r: Runner, state, index, cap=None):
        key = self._key()
        surface_path = os.path.join(self.workdir, "plaza.surface")

        def ingest():
            surface = extract_to_surface(r, state["grid"], state["pose"])
            planner = make_planner(r, surface)
            save(r, surface, surface_path)
            return planner

        def reload():
            surface = r.call("extract.load_surface", load_surface, surface_path)
            return make_planner(r, surface)

        for stream, (which, build) in enumerate((("ingest", ingest), ("reload", reload))):
            p = r.op(which, f"{which}-{index}", build,
                     lambda planner: self._check_planner(key, planner))
            if p is None:
                return
            for q, (s, g) in enumerate(self._probes(state, stream, p)[:cap]):
                self._query_op(r, p, key, s, g, f"{which}-{index}-probe-{q}", q == 0)
            state["last"] = p

    def finish(self, r: Runner, state):
        p = state.get("last")
        if p is None:
            return
        self._references(r, p, self._base_probes(p, 0))

    def _references(self, r, p, base):
        """The first base pairs, unmoved: their paths are stored."""
        for q, (i, j) in enumerate(base[: self.scale.references].tolist()):
            s, g = _pair(p.surface.states, i, j)
            self._reference(r, p, self._key(), s, g, f"reference-{q}")


class PlazaQueries(PlazaIngest):
    name = "plaza_queries"
    setups = 3

    def setup(self, r: Runner):
        grid_path = os.path.join(self.workdir, "plaza.grid")
        surface_path = os.path.join(self.workdir, "plaza.surface")
        pose = write_scene(r, *self.scale.plaza, 0, grid_path)
        save(r, extract_to_surface(r, grid_path, pose), surface_path)
        surface = r.call("extract.load_surface", load_surface, surface_path)
        p = make_planner(r, surface)
        return {"planner": p, "queries": seeded(
            surface.states, self._base_queries(p), _rng(self.seed, 2),
            jitter_voxels(self.scale, surface), surface.params.step_voxels,
            lambda dz: dz <= surface.params.step_voxels)}

    def _base_queries(self, p: Planner):
        k = p.surface.params.step_voxels
        return stratified_pairs(p.surface.states, self.scale.plaza_queries,
                                _rng(BASE_SEED, 2), lambda dz: dz <= k)

    def run_pass(self, r: Runner, state, index, cap=None):
        p = state["planner"]
        for q, (s, g) in enumerate(state["queries"][:cap]):
            self._query_op(r, p, self._key(), s, g, f"query-{q}", q == 0)

    def warm_up(self, r: Runner, state):
        # the first queries after a set-up run 10-20% slower; the reference
        # queries absorb that before the timed batch starts
        p = state["planner"]
        r.check(self._check_planner(self._key(), p), "set-up planner digests")
        self._references(r, p, self._base_queries(p))


class MultistoryChurn(Workload):
    name = "multistory_churn"

    def _maps(self):
        sc = self.scale
        maps = [("two_story_house", 0), ("spiral_ramp", 0)]
        rng = _rng(self.seed, 3)
        while len(maps) < 2 + sc.churn_furniture:
            rs = int(rng.integers(0, 2**31))
            try:  # clutter placement can fail for a draw; take the next one
                preset("furniture_room", resolution=sc.churn_res, rng_seed=rs)
            except SceneSpecError:
                continue
            maps.append(("furniture_room", rs))
        maps.append(("plaza_like", 0))
        return maps

    def setup(self, r: Runner):
        maps = []
        for i, (name, rs) in enumerate(self._maps()):
            path = os.path.join(self.workdir, f"map{i}.grid")
            pose = write_scene(r, name, self.scale.churn_res, rs, path)
            maps.append({"name": name, "grid": path, "pose": pose})
        return {"maps": maps, "queries": {}, "costs": {}}

    def run_pass(self, r: Runner, state, index, cap=None):
        for i, m in enumerate(state["maps"]):
            surface_path = os.path.join(self.workdir, f"map{i}.surface")

            def build():
                save(r, extract_to_surface(r, m["grid"], m["pose"]), surface_path)
                surface = r.call("extract.load_surface", load_surface, surface_path)
                return make_planner(r, surface)

            p = r.op("map", f"map-{index}-{i}", build)
            if p is None:
                continue
            if i not in state["queries"]:
                state["queries"][i] = query_mix(
                    p.surface, self.scale.churn_queries, _rng(BASE_SEED, 4, i),
                    _rng(self.seed, 4, i), jitter_voxels(self.scale, p.surface))
            for q, (s, g) in enumerate(state["queries"][i][:cap]):
                self._query_op(r, p, None, s, g, f"map-{index}-{i}-query-{q}", q == 0,
                               self._cost_check(state, p, i, q, s, g))

    def _cost_check(self, state, p, i, q, start, goal):
        """Cost equals the reference Dijkstra's (first time each query runs)
        and repeats exactly afterwards."""

        def check(result):
            known = state["costs"].get((i, q))
            if known is None:
                ref = dijkstra_reference(p.surface, p.dfield, start, PARAMS)
                want = float(ref[p.surface.ordinal(goal)])
                if not math.isclose(result.cost, want, rel_tol=1e-9, abs_tol=1e-12):
                    print(f"cost {result.cost!r} != dijkstra {want!r}", file=sys.stderr)
                    return False
                state["costs"][(i, q)] = result.cost
                return True
            return result.cost == known

        return check


WORKLOADS = {w.name: w for w in (PlazaIngest, PlazaQueries, MultistoryChurn)}
