"""Traversable-surface extraction.

Standing candidates are free voxels with an in-bounds occupied voxel
directly below and a fully free clearance column above. The collision
filter removes candidates whose body volume (a lateral disk over the
clearance column, support plane excluded) touches any raw-occupied voxel.
The surface is the set of candidates reachable from a seed through
cardinal column moves whose height change stays within the step bound:
|dx| + |dy| = 1 and |dz| <= step_voxels.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    InvalidSeedError,
    NoCandidatesError,
    SeedSnapError,
    SurfaceFormatError,
)
from .grid import OccupancyGrid, ceil_voxels, floor_voxels, voxel_to_world

__all__ = [
    "CandidateSet",
    "DerivedVoxelParams",
    "ExtractionParams",
    "ExtractionTimings",
    "ReductionStats",
    "Surface",
    "candidate_set",
    "collision_filter",
    "extract_pipeline",
    "extract_surface",
    "levels_at",
    "load_surface",
    "reduction_stats",
    "save_surface",
    "select_seed",
    "step_offsets",
]


@dataclass(frozen=True)
class ExtractionParams:
    """Physical extraction thresholds, in meters.

    step_height: tallest rise/drop traversable between adjacent columns.
    clearance_height: free column required above a standing voxel.
    inflation_radius: lateral collision radius of the robot body.
    """

    step_height: float = 0.3
    clearance_height: float = 1.6
    inflation_radius: float = 0.3

    def __post_init__(self):
        for name in ("step_height", "inflation_radius"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {v}")
        if not (math.isfinite(self.clearance_height) and self.clearance_height > 0):
            raise ValueError(
                f"clearance_height must be finite and > 0, got {self.clearance_height}"
            )


@dataclass(frozen=True)
class DerivedVoxelParams:
    """Extraction thresholds converted to voxel units at one resolution.

    step_voxels = floor(step_height / r); clearance_voxels =
    ceil(clearance_height / r); inflation_voxels = ceil(inflation_radius / r).
    """

    step_voxels: int
    clearance_voxels: int
    inflation_voxels: int
    resolution: float

    def __post_init__(self):
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be finite and > 0, got {self.resolution}")
        if self.step_voxels < 0:
            raise ValueError(f"step_voxels must be >= 0, got {self.step_voxels}")
        if self.clearance_voxels < 1:
            raise ValueError(f"clearance_voxels must be >= 1, got {self.clearance_voxels}")
        if self.inflation_voxels < 0:
            raise ValueError(f"inflation_voxels must be >= 0, got {self.inflation_voxels}")
        if self.step_voxels >= self.clearance_voxels:
            # A step taller than the robot's clearance column is not a step.
            raise ValueError(
                f"step_voxels ({self.step_voxels}) must be smaller than "
                f"clearance_voxels ({self.clearance_voxels})"
            )

    @classmethod
    def from_params(cls, params: ExtractionParams, resolution: float) -> "DerivedVoxelParams":
        if not (math.isfinite(resolution) and resolution > 0):
            raise ValueError(f"resolution must be finite and > 0, got {resolution}")
        meters = (params.step_height, params.clearance_height, params.inflation_radius)
        if not math.isfinite(max(meters) / resolution):
            raise ValueError(f"resolution {resolution} is too small to count the thresholds in voxels")
        return cls(
            step_voxels=floor_voxels(params.step_height / resolution),
            clearance_voxels=ceil_voxels(params.clearance_height / resolution),
            inflation_voxels=ceil_voxels(params.inflation_radius / resolution),
            resolution=resolution,
        )


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Standing candidates as a boolean mask aligned with the source grid."""

    mask: np.ndarray
    grid: OccupancyGrid
    params: DerivedVoxelParams

    def __post_init__(self):
        mask = np.asarray(self.mask)
        if mask.shape != self.grid.dims:
            raise ValueError(
                f"mask shape {mask.shape} does not match grid dims {self.grid.dims}"
            )
        mask = np.ascontiguousarray(mask.astype(bool))
        mask.setflags(write=False)
        object.__setattr__(self, "mask", mask)

    @property
    def count(self) -> int:
        return int(self.mask.sum())

    def __contains__(self, voxel) -> bool:
        x, y, z = voxel
        if not self.grid.in_bounds(x, y, z):
            return False
        return bool(self.mask[x, y, z])

    def triples(self) -> list[tuple[int, int, int]]:
        """Candidate voxels as tuples, lexicographic order."""
        return [tuple(v) for v in np.argwhere(self.mask).tolist()]


def candidate_set(grid: OccupancyGrid, params: DerivedVoxelParams) -> CandidateSet:
    """Free voxels with in-bounds support below and a free clearance column.

    Support must come from a real occupied voxel: the out-of-bounds-reads-
    occupied convention does not manufacture a floor below the grid.
    Clearance treats out-of-bounds as occupied, so voxels within
    clearance_voxels of the grid top are excluded.

    Works on flat keys (x * ny + y) * nz + z: a free voxel on support is
    kept when the next occupied key above it lies past key + kc. Besides
    the mask and one boolean scan of the grid, memory scales with the
    occupied voxels, not with the grid.
    """
    occ = grid.occupancy
    nz = occ.shape[2]
    kc = params.clearance_voxels
    mask = np.zeros(occ.shape, dtype=bool)
    zmax = nz - 1 - kc  # last z whose clearance column is fully in bounds
    if zmax >= 1:
        standing = ~occ[:, :, 1 : zmax + 1]
        standing &= occ[:, :, :zmax]
        flat = np.flatnonzero(standing)
        del standing
        keys = flat // zmax * nz + flat % zmax + 1
        occupied = np.flatnonzero(occ)
        above = np.searchsorted(occupied, keys)
        nxt = occupied[np.minimum(above, occupied.size - 1)]
        # z <= zmax keeps key + kc inside the voxel's own column, so an
        # occupied key in a later column, or none at all, leaves it clear
        clear = (above == occupied.size) | (nxt > keys + kc)
        mask.reshape(-1)[keys[clear]] = True
    return CandidateSet(mask, grid, params)


def collision_filter(candidates: CandidateSet) -> CandidateSet:
    """Drop candidates whose body volume intersects a raw-occupied voxel.

    The body volume of candidate (x, y, z) is every voxel (x', y', z') with
    XY Euclidean distance <= inflation_voxels, (x', y') != (x, y), and
    z' in [z+1, z+clearance_voxels]. The candidate's own column is already
    covered by the clearance test; the support plane never collides.
    Voxels outside the grid read as occupied, so a window that passes the
    grid top always hits.

    Candidates are taken one height level at a time. At level z, a column
    is blocked when its window (z, z + kc] holds an occupied voxel; the
    disk count of a candidate is then a sum of 1-D row windows
    [y - w, y + w], w = isqrt(rad^2 - dx^2), over a prefix sum of the
    blocked map along y, cropped to the level's candidates grown by rad.
    """
    params = candidates.params
    rad = params.inflation_voxels
    if rad == 0:
        return candidates
    occ = candidates.grid.occupancy
    nx, ny, nz = occ.shape
    kc = params.clearance_voxels

    keys = np.flatnonzero(candidates.mask)
    if keys.size == 0:
        return candidates
    xs, ys, zs = np.unravel_index(keys, occ.shape)
    hit = np.empty(xs.size, dtype=bool)
    order = np.argsort(zs, kind="stable")
    levels, starts = np.unique(zs[order], return_index=True)
    for z, idx in zip(levels.tolist(), np.split(order, starts[1:])):
        x, y = xs[idx], ys[idx]
        x0, y0 = int(x.min()) - rad, int(y.min()) - rad
        x1, y1 = int(x.max()) + rad + 1, int(y.max()) + rad + 1
        # padding outside the grid reads occupied
        blocked = np.ones((x1 - x0, y1 - y0), dtype=bool)
        if z + kc < nz:
            gx0, gy0 = max(x0, 0), max(y0, 0)
            gx1, gy1 = min(x1, nx), min(y1, ny)
            blocked[gx0 - x0 : gx1 - x0, gy0 - y0 : gy1 - y0] = occ[
                gx0:gx1, gy0:gy1, z + 1 : z + kc + 1
            ].any(axis=2)
        rows = np.zeros((x1 - x0, y1 - y0 + 1), dtype=np.int32)
        np.cumsum(blocked, axis=1, out=rows[:, 1:])
        lx, ly = x - x0, y - y0
        count = -blocked[lx, ly].astype(np.int32)  # the disk excludes (0, 0)
        for dx in range(-rad, rad + 1):
            w = math.isqrt(rad * rad - dx * dx)
            count += rows[lx + dx, ly + w + 1] - rows[lx + dx, ly - w]
        hit[idx] = count > 0
    mask = candidates.mask.copy()
    mask.reshape(-1)[keys[hit]] = False
    return CandidateSet(mask, candidates.grid, params)


def select_seed(pose, candidates: CandidateSet, max_snap: float) -> tuple[int, int, int]:
    """Candidate whose world center is nearest the pose.

    Exact distance ties resolve to the lexicographically smallest voxel.
    Raises if the candidate set is empty or the nearest candidate is
    farther than ``max_snap`` meters, and ValueError if ``max_snap`` is
    NaN or negative (``inf`` means no limit).
    """
    pose = np.asarray(pose, dtype=np.float64)
    if pose.shape != (3,) or not np.all(np.isfinite(pose)):
        raise ValueError(f"pose must be 3 finite coordinates, got {pose!r}")
    mask = candidates.mask
    coords = np.stack(np.unravel_index(np.flatnonzero(mask), mask.shape), axis=1)
    if coords.shape[0] == 0:
        raise NoCandidatesError("no candidates: every voxel failed the geometric filters")
    centers = voxel_to_world(candidates.grid, coords)
    x, y, z = coords[_snap(centers, pose, max_snap, "seed snap failed: nearest candidate")]
    return (int(x), int(y), int(z))


def _snap(centers: np.ndarray, pose, max_snap: float, what: str) -> int:
    """Row of ``centers`` nearest ``pose``, the first one on exact ties.

    Raises SeedSnapError, its message starting with ``what``, when that
    row is farther than ``max_snap`` meters or its distance overflows (all
    rows would tie at inf), and ValueError when ``max_snap`` is NaN or
    negative.
    """
    if not max_snap >= 0:
        raise ValueError(f"max_snap must be >= 0 meters (inf for no limit), got {max_snap}")
    with np.errstate(over="ignore"):
        d2 = ((centers - np.asarray(pose, dtype=np.float64)) ** 2).sum(axis=1)
    best = int(np.argmin(d2))
    dist = math.sqrt(float(d2[best]))
    if not (math.isfinite(dist) and dist <= max_snap):
        raise SeedSnapError(
            f"{what} is {dist:.3f} m from pose, max_snap is {max_snap} m",
            distance=dist,
        )
    return best


_DIRECTIONS = ((1, 0), (-1, 0), (0, 1), (0, -1))


def step_offsets(step_voxels: int) -> np.ndarray:
    """Neighbor offsets in deterministic expansion order.

    Directions +x, -x, +y, -y; within each direction dz scans
    0, +1, -1, ..., +k, -k so flat motion is discovered before climbs.
    """
    dz_order = [0]
    for d in range(1, step_voxels + 1):
        dz_order.extend((d, -d))
    out = []
    for dx, dy in _DIRECTIONS:
        for dz in dz_order:
            out.append((dx, dy, dz))
    return np.array(out, dtype=np.int64)


def _runs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of the index runs [lo[i], hi[i]), in run order."""
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    return np.repeat(lo - starts, counts) + np.arange(counts.sum())


def _hops(indptr: np.ndarray, targets: np.ndarray, sources) -> np.ndarray:
    """Hop count from the nearest of ``sources`` over a CSR adjacency, by
    frontier-at-a-time BFS; -1 where no source reaches."""
    dist = np.full(indptr.size - 1, -1, dtype=np.int64)
    frontier = np.asarray(sources, dtype=np.int64)
    dist[frontier] = 0
    d = 0
    while frontier.size:
        d += 1
        nxt = targets[_runs(indptr[frontier], indptr[frontier + 1])]
        dist[nxt[dist[nxt] < 0]] = d
        frontier = np.flatnonzero(dist == d)
    return dist


def _int64(a, name: str) -> np.ndarray:
    """``a`` as a native, C-contiguous int64 array, copied only if it is not
    one already; ValueError if it does not hold integers."""
    a = np.asarray(a)
    if a.dtype.kind not in "iu":
        raise ValueError(f"{name} must be integers, got dtype {a.dtype}")
    return np.ascontiguousarray(a, dtype=np.int64)


def _neighbor_ranges(keys: np.ndarray, coords: np.ndarray, dims, k: int):
    """The bounded-step adjacency, as runs of a sorted column index.

    ``keys`` are the sorted flat keys (x * ny + y) * nz + z of a voxel set,
    so each column is a contiguous, z-ascending run. For every voxel of
    ``coords`` and every direction of :func:`step_offsets`, returns the run
    [lo, hi) of ``keys`` holding the adjacent column's voxels within k of
    its height, as two (n, 4) arrays. An empty run means no neighbor.
    """
    nx, ny, nz = dims
    x, y, z = coords.T
    col = (x * ny + y) * nz  # key of the voxel's own column at z = 0
    # clipped so a window never spills into the next or previous column
    zlo = col + np.clip(z - k, 0, nz)
    zhi = col + np.clip(z + k, -1, nz - 1)
    dx, dy = np.array(_DIRECTIONS).T[:, :, None]  # (4, 1): broadcast per direction
    shift = (dx * ny + dy) * nz
    lo = np.searchsorted(keys, zlo + shift, side="left")
    hi = np.searchsorted(keys, zhi + shift, side="right")
    cx, cy = x + dx, y + dy
    off_grid = (cx < 0) | (cx >= nx) | (cy < 0) | (cy >= ny)
    hi[off_grid] = lo[off_grid]
    return lo.T, hi.T


def _column_adjacency(keys: np.ndarray, coords: np.ndarray, dims, k: int):
    """:func:`_neighbor_ranges` as a CSR: (indptr, targets, missing).

    ``targets`` holds, for every voxel of ``coords``, the positions in
    ``keys`` of its neighbors, by direction and z-ascending within one;
    ``missing`` is the (n, 4) mask of the directions without a neighbor.
    """
    lo, hi = _neighbor_ranges(keys, coords, dims, k)
    indptr = np.concatenate(([0], np.cumsum((hi - lo).sum(axis=1))))
    return indptr, _runs(lo.ravel(), hi.ravel()), lo == hi


@dataclass(frozen=True, eq=False)
class Surface:
    """Seed-reachable standing voxels with stable ordinals.

    ``states[i]`` is the i-th voxel in BFS discovery order. The column
    index inverts it: the states' flat keys (x * ny + y) * nz + z, sorted,
    with the ordinal of each. A column (x, y) is a contiguous, z-ascending
    run of the keys, so multi-story columns keep every level, and lookups
    and ``levels`` are binary searches. A state's neighbors in one
    direction are one run too, and a state with an empty run in some
    direction is a boundary state. Nothing grid-sized survives extraction:
    memory scales with the surface. ``states`` is held as native,
    C-contiguous int64. Building the index rejects non-integer states,
    states outside ``dims``, duplicate states and a seed that is not a
    state with ValueError: a surface always holds its seed. The
    adjacency of all states comes from :func:`extract_surface`, which
    builds it anyway; a surface made otherwise (:func:`load_surface`, or
    the constructor) builds it on first use. Either way it is kept.
    """

    states: np.ndarray
    seed: tuple[int, int, int]
    dims: tuple[int, int, int]
    resolution: float
    origin: np.ndarray
    params: DerivedVoxelParams
    extraction: ExtractionParams | None = None
    _keys: np.ndarray = field(init=False, repr=False)
    _ordinals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        states = _int64(self.states, "states")
        object.__setattr__(self, "states", states)
        outside = np.any((states < 0) | (states >= self.dims), axis=1)
        if outside.any():
            bad = states[outside][0].tolist()
            raise ValueError(f"state {bad} lies outside dims {self.dims}")
        keys = np.ravel_multi_index(tuple(states.T), self.dims)
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        twice = np.nonzero(keys[1:] == keys[:-1])[0]
        if twice.size:
            raise ValueError(f"state {states[order[twice[0]]].tolist()} appears twice")
        object.__setattr__(self, "_keys", keys)
        object.__setattr__(self, "_ordinals", order)
        if self._position(self.seed) < 0:
            raise ValueError(f"seed {tuple(self.seed)} is not among the states")

    @property
    def size(self) -> int:
        return int(self.states.shape[0])

    def _position(self, state) -> int:
        """Index of ``state`` in the sorted keys, or -1 if it is absent."""
        x, y, z = map(int, state)
        nx, ny, nz = self.dims
        if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
            return -1
        key = (x * ny + y) * nz + z
        i = int(self._keys.searchsorted(key))
        return i if i < self._keys.size and self._keys[i] == key else -1

    def __contains__(self, state) -> bool:
        return self._position(state) >= 0

    def ordinal(self, state) -> int:
        i = self._position(state)
        if i < 0:
            raise KeyError(tuple(state))
        return int(self._ordinals[i])

    @property
    def levels(self) -> dict:
        """Column (x, y) -> z-ascending standing heights, built on access."""
        ny, nz = self.dims[1], self.dims[2]
        columns, starts = np.unique(self._keys // nz, return_index=True)
        heights = np.split(self._keys % nz, starts[1:])
        return {
            (c // ny, c % ny): zs for c, zs in zip(columns.tolist(), heights)
        }

    def _adjacency(self, coords: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR of the moves out of ``coords``, plus the empty directions.

        Returns (indptr, targets, missing): target ordinals per voxel of
        ``coords``, sorted by (direction, height), and an (n, 4) mask of
        the directions without a neighbor.
        """
        indptr, at, missing = _column_adjacency(
            self._keys, coords, self.dims, self.params.step_voxels
        )
        return indptr, self._ordinals[at], missing

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """:meth:`_adjacency` of every state, in ordinal order; set by
        :func:`extract_surface` to the same arrays."""
        return self._adjacency(self.states)

    def state_centers(self) -> np.ndarray:
        """World centers of all states, ordinal order, (N, 3)."""
        return self.origin + (self.states + 0.5) * self.resolution

    def z_span(self) -> int:
        """Height difference in voxels between lowest and highest state."""
        zs = self.states[:, 2]
        return int(zs.max() - zs.min())


def extract_surface(
    candidates: CandidateSet,
    seeds: Sequence,
    extraction: ExtractionParams | None = None,
) -> Surface:
    """BFS closure of the seeds over the bounded-step column relation.

    Expansion follows :func:`step_offsets` order and ordinals are assigned
    in discovery order, so the output is identical across runs and
    platforms. Seeds landing in one component deduplicate; the first seed
    is recorded as canonical.

    The adjacency of all candidates is built once, as a CSR over their
    sorted flat keys, and each BFS round only gathers its frontier's runs.
    That CSR, cut to the reached states, becomes the surface's adjacency,
    so the distance field and search graph do not build it again. Memory
    scales with the candidates, not with the grid.
    """
    dims = candidates.mask.shape
    seed_list = [tuple(int(c) for c in s) for s in seeds]
    if not seed_list:
        raise InvalidSeedError("invalid seed: no seeds given")
    for s in seed_list:
        if s not in candidates:
            raise InvalidSeedError(f"invalid seed: {s} is not a candidate voxel")

    # the candidates' own column index: flatnonzero keys come out sorted
    keys = np.flatnonzero(candidates.mask)
    xs, ys, zs = np.unravel_index(keys, dims)
    coords = np.stack((xs, ys, zs), axis=1)
    k = candidates.params.step_voxels
    indptr, targets, missing = _column_adjacency(keys, coords, dims, k)
    # the BFS takes each voxel's moves in step_offsets order: by direction
    # (+x, -x, +y, -y), then dz = 0, +1, -1, ..., +k, -k; the CSR runs are
    # z-ascending within a direction. The direction index is 2 [same x] +
    # [neighbor column before the voxel's own], and keys sort by column.
    source = np.repeat(np.arange(keys.size), np.diff(indptr))
    dz = zs[targets] - zs[source]
    step = 4 * source + 2 * (xs[targets] == xs[source]) + (targets < source)
    del source
    step *= 2 * k + 1
    step += 2 * np.abs(dz) - (dz > 0)
    del dz
    stepped = targets[np.argsort(step, kind="stable")]
    del step

    seen = np.zeros(keys.size, dtype=bool)
    nb = np.searchsorted(keys, np.ravel_multi_index(tuple(np.array(seed_list).T), dims))
    chunks = []
    while nb.size:
        # keep the first occurrence of each voxel: rows are in (parent
        # ordinal, step offset) sequence, i.e. discovery order
        _, idx = np.unique(nb, return_index=True)
        frontier = nb[np.sort(idx)]
        seen[frontier] = True
        chunks.append(frontier)
        nb = stepped[_runs(indptr[frontier], indptr[frontier + 1])]
        nb = nb[~seen[nb]]
    order = np.concatenate(chunks)
    del stepped

    surface = Surface(
        states=coords[order],
        seed=seed_list[0],
        dims=dims,
        resolution=candidates.grid.resolution,
        origin=candidates.grid.origin,
        params=candidates.params,
        extraction=extraction,
    )
    # the candidates' CSR cut to the surface: a reached voxel's neighbors
    # are all reached, so every target has an ordinal
    ordinal = np.empty(keys.size, dtype=np.int64)
    ordinal[order] = np.arange(order.size)
    object.__setattr__(surface, "_csr", (
        np.concatenate(([0], np.cumsum(np.diff(indptr)[order]))),
        ordinal[targets[_runs(indptr[order], indptr[order + 1])]],
        missing[order],
    ))
    return surface


def levels_at(surface: Surface, x: int, y: int) -> list[int]:
    """Sorted standing heights of column (x, y); empty if off the surface."""
    nx, ny, nz = surface.dims
    if not (0 <= x < nx and 0 <= y < ny):
        return []
    base = (int(x) * ny + int(y)) * nz
    lo, hi = surface._keys.searchsorted((base, base + nz))
    return [key - base for key in surface._keys[lo:hi].tolist()]


@dataclass(frozen=True)
class ReductionStats:
    total_voxels: int
    surface_size: int
    reduction: float


def reduction_stats(grid: OccupancyGrid, surface: Surface) -> ReductionStats:
    """Search-space reduction 1 - |surface| / |grid|."""
    total = grid.total_voxels
    n = surface.size
    return ReductionStats(total_voxels=total, surface_size=n, reduction=1.0 - n / total)


@dataclass(frozen=True)
class ExtractionTimings:
    """Stage wall seconds, timed by :func:`extract_pipeline`. ``bfs_seconds``
    is the whole :func:`extract_surface` call, building the column index too."""

    candidate_seconds: float
    collision_seconds: float
    bfs_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.candidate_seconds + self.collision_seconds + self.bfs_seconds


def extract_pipeline(
    grid: OccupancyGrid,
    params: ExtractionParams,
    seed_pose=None,
    seed_voxel=None,
    max_snap: float = 2.0,
) -> tuple[Surface, ExtractionTimings]:
    """candidate_set -> collision_filter -> select_seed -> extract_surface.

    Exactly one of ``seed_pose`` (world, snapped within ``max_snap``) or
    ``seed_voxel`` (must already be a candidate) selects the seed.
    """
    if (seed_pose is None) == (seed_voxel is None):
        raise ValueError("exactly one of seed_pose or seed_voxel is required")
    derived = DerivedVoxelParams.from_params(params, grid.resolution)
    t0 = time.perf_counter()
    cands = candidate_set(grid, derived)
    t1 = time.perf_counter()
    filtered = collision_filter(cands)
    t2 = time.perf_counter()
    if seed_voxel is not None:
        seed = tuple(int(c) for c in seed_voxel)
    else:
        seed = select_seed(seed_pose, filtered, max_snap)
    t3 = time.perf_counter()
    surface = extract_surface(filtered, [seed], extraction=params)
    return surface, ExtractionTimings(t1 - t0, t2 - t1, time.perf_counter() - t3)


def _params_doc(surface: Surface) -> dict:
    """The thresholds of a surface, in meters (None if unknown) and voxels."""
    p = surface.params
    e = surface.extraction
    return {
        "step_height": e.step_height if e else None,
        "clearance_height": e.clearance_height if e else None,
        "inflation_radius": e.inflation_radius if e else None,
        "step_voxels": p.step_voxels,
        "clearance_voxels": p.clearance_voxels,
        "inflation_voxels": p.inflation_voxels,
    }


def save_surface(surface: Surface, destination) -> None:
    """Write a surface as one line of JSON (states in ordinal order)."""
    doc = {
        "format": "surfnav-surface",
        "version": 1,
        "resolution": surface.resolution,
        "origin": [float(c) for c in surface.origin],
        "dims": list(surface.dims),
        "seed": list(surface.seed),
        "params": _params_doc(surface),
        "states": surface.states.tolist(),
    }
    # compact separators keep json.dumps on its C encoder; indent does not
    text = json.dumps(doc, sort_keys=True)
    if hasattr(destination, "write"):
        destination.write(text + "\n")
    else:
        Path(destination).write_text(text + "\n")


def load_surface(source) -> Surface:
    """Read a surface written by :func:`save_surface`.

    Rebuilds the column index, so states outside ``dims``, duplicate
    states and a seed that is not a state (as in a file with no states)
    raise SurfaceFormatError, as do non-integer states or seed, an origin
    that is not 3 finite numbers, voxel params that disagree with the
    thresholds in meters beside them, and a state the seed does not
    reach. The reachability check builds the surface's adjacency, which
    the distance field and search graph then reuse.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SurfaceFormatError(f"not a surface file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "surfnav-surface":
        raise SurfaceFormatError("not a surface file: missing format marker")
    if doc.get("version") != 1:
        raise SurfaceFormatError(f"unsupported surface version {doc.get('version')!r}")
    try:
        p = doc["params"]
        resolution = float(doc["resolution"])
        params = DerivedVoxelParams(
            step_voxels=int(p["step_voxels"]),
            clearance_voxels=int(p["clearance_voxels"]),
            inflation_voxels=int(p["inflation_voxels"]),
            resolution=resolution,
        )
        meters = (p.get("step_height"), p.get("clearance_height"), p.get("inflation_radius"))
        extraction = None
        if all(v is not None for v in meters):
            extraction = ExtractionParams(*(float(v) for v in meters))
            derived = DerivedVoxelParams.from_params(extraction, resolution)
            for name in ("step_voxels", "clearance_voxels", "inflation_voxels"):
                if getattr(derived, name) != getattr(params, name):
                    raise SurfaceFormatError(
                        f"params.{name} is {getattr(params, name)}, but the "
                        f"thresholds in meters give {getattr(derived, name)} "
                        f"at resolution {resolution}"
                    )
        origin = np.asarray(doc["origin"], dtype=np.float64)
        if origin.shape != (3,) or not np.all(np.isfinite(origin)):
            raise SurfaceFormatError(f"origin must be 3 finite numbers, got {doc['origin']!r}")
        states = np.asarray(doc["states"])
        if states.size == 0:
            states = np.empty((0, 3), dtype=np.int64)
        if states.ndim != 2 or states.shape[1] != 3:
            raise SurfaceFormatError(f"bad states array of shape {states.shape}")
        dims = tuple(int(d) for d in doc["dims"])
        if len(dims) != 3 or min(dims) < 1:
            raise SurfaceFormatError(f"bad dims {dims}")
        seed = np.asarray(doc["seed"])
        if seed.shape != (3,) or seed.dtype.kind not in "iu":
            raise SurfaceFormatError(f"seed must be 3 integers, got {doc['seed']!r}")
        seed = tuple(seed.tolist())
        surface = Surface(
            states=states,
            seed=seed,
            dims=dims,
            resolution=resolution,
            origin=origin,
            params=params,
            extraction=extraction,
        )
        indptr, targets, _ = surface._csr
        cut_off = np.flatnonzero(_hops(indptr, targets, [surface.ordinal(seed)]) < 0)
        if cut_off.size:
            raise SurfaceFormatError(
                f"state {states[cut_off[0]].tolist()} is not reachable from seed {seed}"
            )
    except (KeyError, TypeError, ValueError) as exc:
        raise SurfaceFormatError(f"bad surface file: {exc}") from exc
    return surface
