"""Traversable-surface extraction.

Standing candidates are free voxels with an in-bounds occupied voxel
directly below and a fully free clearance column above. The collision
filter removes candidates whose body volume (a lateral disk over the
clearance column, support plane excluded) touches any raw-occupied voxel.
The surface is the set of candidates reachable from a seed through
cardinal column moves whose height change stays within the step bound:
|dx| + |dy| = 1 and |dz| <= step_voxels.

Those moves are built one way, for every voxel set: one CSR over the
set's sorted flat keys (:func:`_column_adjacency`), then one cut that
takes its rows in ordinal order and renumbers their targets
(:func:`_cut`). The CSR reads the ±y neighbor columns off the keys'
column runs and finds the ±x ones with one search of the run columns;
only a voxel whose neighbor column holds several voxels searches the
keys, and the build's memory peaks at about four times the CSR's. One
frontier BFS (:func:`_bfs`) walks such a CSR, for extraction's discovery
order and the distance field; it finds each round's first appearances by
a scatter, not a sort. A surface's order is that discovery order, so
checking it needs no search: one pass over its CSR proves every state
reachable from the seed (:func:`_check_order`), and every
:class:`Surface` runs it, whether extracted, loaded or constructed.

Candidates search only the bottoms of occupied runs for the voxel that
ends a clearance column, and the collision disk is dilated row by row
over each level's box, so neither gathers per candidate and offset. The
seed snap measures only the slab of candidates whose rows can lie within
the snap distance of the pose.
"""

from __future__ import annotations

import bisect
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
    _integer,
    _list,
    _number,
    _read_json,
)
from .grid import OccupancyGrid, _check_voxel_count, ceil_voxels, floor_voxels, voxel_to_world

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
    "load_surface",
    "reduction_stats",
    "save_surface",
    "select_seed",
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

    def __post_init__(self):
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
        )


@dataclass(frozen=True, eq=False)
class CandidateSet:
    """Standing candidates as the sorted flat keys (x * ny + y) * nz + z of
    their voxels in the source grid, held read-only as int64. Keys that are
    not integers, not 1-D, not strictly increasing or outside the grid
    raise ValueError."""

    keys: np.ndarray
    grid: OccupancyGrid
    params: DerivedVoxelParams

    def __post_init__(self):
        keys = _voxel_keys(self.keys, self.grid.dims)
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("keys must be strictly increasing")
        object.__setattr__(self, "keys", keys)

    @property
    def count(self) -> int:
        return int(self.keys.size)

    def __contains__(self, voxel) -> bool:
        return _find(self.keys, self.grid.dims, voxel) >= 0


def _find(keys: np.ndarray, dims, voxel) -> int:
    """Position of ``voxel`` in the sorted flat ``keys`` of a voxel set
    over ``dims``, or -1 if it is not, as when a coordinate is not an integer."""
    voxel = tuple(voxel)
    x, y, z = map(int, voxel)
    if (x, y, z) != voxel:
        return -1
    nx, ny, nz = dims
    if not (0 <= x < nx and 0 <= y < ny and 0 <= z < nz):
        return -1
    key = (x * ny + y) * nz + z
    i = int(keys.searchsorted(key))
    return i if i < keys.size and keys[i] == key else -1


def candidate_set(grid: OccupancyGrid, params: DerivedVoxelParams) -> CandidateSet:
    """Free voxels with in-bounds support below and a free clearance column.

    Support must come from a real occupied voxel: the out-of-bounds-reads-
    occupied convention does not manufacture a floor below the grid.
    Clearance treats out-of-bounds as occupied, so voxels within
    clearance_voxels of the grid top are excluded.

    Works on flat keys (x * ny + y) * nz + z: a free voxel on support is
    kept when the next run bottom above it, the key of an occupied voxel
    over a free one, lies past key + kc. Besides one grid-sized boolean
    scan at a time, memory scales with the standing voxels and the run
    bottoms, not with the occupied voxels.
    """
    occ = grid.occupancy
    nz = occ.shape[2]
    kc = params.clearance_voxels
    keys = np.empty(0, dtype=np.int64)
    zmax = nz - 1 - kc  # last z whose clearance column is fully in bounds
    if zmax >= 1:
        standing = ~occ[:, :, 1 : zmax + 1]
        standing &= occ[:, :, :zmax]
        flat = np.flatnonzero(standing)
        del standing
        keys = flat // zmax * nz + flat % zmax + 1
        # the first occupied voxel above a free one sits on a free voxel:
        # the bottoms of the occupied runs (z >= 2) are all it can be
        bottom = ~occ[:, :, 1:-1]
        bottom &= occ[:, :, 2:]
        flat = np.flatnonzero(bottom)
        del bottom
        if flat.size:
            bottoms = flat // (nz - 2) * nz + flat % (nz - 2) + 2
            above = np.searchsorted(bottoms, keys)
            nxt = bottoms[np.minimum(above, bottoms.size - 1)]
            # z <= zmax keeps key + kc inside the voxel's own column, so a
            # run bottom in a later column, or none at all, leaves it clear
            keys = keys[(above == bottoms.size) | (nxt > keys + kc)]
    return CandidateSet(keys, grid, params)


def collision_filter(candidates: CandidateSet) -> CandidateSet:
    """Drop candidates whose body volume intersects a raw-occupied voxel.

    The body volume of candidate (x, y, z) is every voxel (x', y', z') with
    XY Euclidean distance <= inflation_voxels, (x', y') != (x, y), and
    z' in [z+1, z+clearance_voxels]. The candidate's own column is already
    covered by the clearance test; the support plane never collides.
    Voxels outside the grid read as occupied, so a window that passes the
    grid top always hits.

    Candidates are taken one height level at a time, over the box of the
    level's candidates grown by rad. At level z, a column is blocked when
    its window (z, z + kc] holds an occupied voxel. The disk is dilated
    one row at a time over the whole box: for each dx, a prefix sum of the
    blocked map along y tests the row window [y - w, y + w],
    w = isqrt(rad^2 - dx^2), with plain slices, and the tests are ORed;
    the dx = 0 window is split around y, so the own column stays out. A
    candidate then reads one boolean. Memory and work scale with the
    levels' boxes, times kc for the blocked map, not with the grid.
    """
    params = candidates.params
    rad = params.inflation_voxels
    if rad == 0:
        return candidates
    occ = candidates.grid.occupancy
    nx, ny, nz = occ.shape
    kc = params.clearance_voxels

    keys = candidates.keys
    if keys.size == 0:
        return candidates
    # the disk's rows as windows (dx, a, b): columns y + a ... y + b of row
    # x + dx; the dx = 0 row is split around y, as the disk excludes (0, 0)
    windows = [(0, -rad, -1), (0, 1, rad)]
    for dx in range(1, rad + 1):
        w = math.isqrt(rad * rad - dx * dx)
        windows += [(-dx, -w, w), (dx, -w, w)]
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
        # a window holds a blocked column where the prefix sum rises over
        # it; tested for every (x, y) of the candidates' box at once
        sx, sy = x1 - x0 - 2 * rad, y1 - y0 - 2 * rad
        near = np.zeros((sx, sy), dtype=bool)
        for dx, a, b in windows:
            r = rows[rad + dx : rad + dx + sx]
            near |= r[:, rad + b + 1 : rad + b + 1 + sy] > r[:, rad + a : rad + a + sy]
        hit[idx] = near[x - x0 - rad, y - y0 - rad]
    return CandidateSet(keys[~hit], candidates.grid, params)


def select_seed(pose, candidates: CandidateSet, max_snap: float) -> tuple[int, int, int]:
    """Candidate whose world center is nearest the pose.

    Exact distance ties resolve to the lexicographically smallest voxel.
    Raises if the candidate set is empty or the nearest candidate is
    farther than ``max_snap`` meters, and ValueError if ``max_snap`` is
    NaN or negative (``inf`` means no limit).

    The keys are sorted by x first, so with a finite ``max_snap`` two
    binary searches cut them to the slab of rows :func:`_x_slab` bounds,
    which holds every candidate that can snap, ties included, and only the
    slab is measured. When it is empty or nothing in it snaps, every
    candidate is, so a failed snap reports the nearest distance of all.
    Memory scales with the slab, or with the candidates when ``max_snap``
    is inf or the snap fails.
    """
    pose = np.asarray(pose, dtype=np.float64)
    if pose.shape != (3,) or not np.all(np.isfinite(pose)):
        raise ValueError(f"pose must be 3 finite coordinates, got {pose!r}")
    keys = candidates.keys
    if keys.size == 0:
        raise NoCandidatesError("no candidates: every voxel failed the geometric filters")
    grid = candidates.grid

    def nearest(part: np.ndarray) -> tuple[int, int, int]:
        coords = np.stack(np.unravel_index(part, grid.dims), axis=1)
        best = _snap(voxel_to_world(grid, coords), pose, max_snap,
                     "seed snap failed: nearest candidate")
        return tuple(int(c) for c in coords[best])

    if math.isfinite(max_snap):
        rows = np.array(_x_slab(grid, float(pose[0]), max_snap))
        lo, hi = keys.searchsorted(rows * (grid.dims[1] * grid.dims[2]))
        if lo < hi:
            try:
                return nearest(keys[lo:hi])
            except SeedSnapError:
                pass  # nothing snaps: measure all, for the nearest distance
    return nearest(keys)


def _x_slab(grid: OccupancyGrid, px: float, max_snap: float) -> tuple[int, int]:
    """The rows x0 <= x < x1 of ``grid`` whose voxel centers are within
    ``max_snap`` of ``px`` along x, in :func:`_snap`'s own arithmetic.

    _snap adds the squared y and z offsets to the squared x offset, and a
    rounded sum of nonnegative terms is never below one of them, so a
    center outside these rows is farther than ``max_snap`` by _snap's
    reckoning too, even where a huge origin absorbs the voxel offsets. The
    centers' x ascends with x, so each end is a bisection of the rows.
    """
    ox, r = float(grid.origin[0]), grid.resolution

    def dx(x: int) -> float:
        # voxel_to_world's center, minus the pose, as _snap takes it
        return ox + (x + 0.5) * r - px

    def near(x: int) -> bool:
        d = dx(x)
        return math.sqrt(d * d) <= max_snap

    rows = range(grid.dims[0])
    x0 = bisect.bisect_left(rows, True, key=lambda x: near(x) or dx(x) > 0)
    x1 = bisect.bisect_left(rows, True, key=lambda x: dx(x) > 0 and not near(x))
    return x0, x1


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


def _runs(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Concatenation of the index runs [lo[i], hi[i]), in run order."""
    counts = hi - lo
    starts = np.cumsum(counts) - counts
    return np.repeat(lo - starts, counts) + np.arange(counts.sum())


def _bfs(indptr: np.ndarray, targets: np.ndarray, sources) -> list[np.ndarray]:
    """The frontier rounds of a BFS from ``sources`` over a CSR adjacency.

    Round 0 is the sources, and round d + 1 the rows first reached from
    round d. Each round keeps its rows in discovery order: by the position
    of their first appearance among the previous round's targets, taken
    row by row, and each row appears once.

    The first appearances are found without a sort: ``np.minimum.at``
    scatters each position to its row in one int64 array, a row's entry
    then names its first position, and the entries the round touched are
    reset. Memory scales with the rows, plus one round's targets.
    """
    seen = np.zeros(indptr.size - 1, dtype=bool)
    # a round can list more rows than there are: no position reaches `none`
    none = np.iinfo(np.int64).max
    first = np.full(seen.size, none, dtype=np.int64)  # reset after each round
    rounds = []
    nb = np.asarray(sources, dtype=np.int64)
    while nb.size:
        at = np.arange(nb.size)
        np.minimum.at(first, nb, at)
        frontier = nb[first[nb] == at]
        first[frontier] = none
        seen[frontier] = True
        rounds.append(frontier)
        nb = targets[_runs(indptr[frontier], indptr[frontier + 1])]
        nb = nb[~seen[nb]]
    return rounds


def _voxel_keys(keys, dims) -> np.ndarray:
    """A read-only native int64 copy of ``keys``, flat keys
    (x * ny + y) * nz + z of voxels in a grid of ``dims``; ValueError if
    they are not integers, not 1-D or outside [0, nx * ny * nz)."""
    keys = np.asarray(keys)
    if keys.size and keys.dtype.kind not in "iu":
        raise ValueError(f"keys must be integers, got dtype {keys.dtype}")
    keys = np.array(keys, dtype=np.int64)
    if keys.ndim != 1:
        raise ValueError(f"keys must be 1-D, got shape {keys.shape}")
    if keys.size and (keys.min() < 0 or keys.max() >= math.prod(dims)):
        raise ValueError(f"keys must lie in the grid of dims {tuple(dims)}")
    keys.setflags(write=False)
    return keys


def _column_adjacency(keys: np.ndarray, dims, k: int):
    """The bounded-step adjacency of a voxel set, as a CSR:
    (indptr, targets, boundary).

    ``keys`` are the sorted flat keys (x * ny + y) * nz + z of the set, so
    each column is a contiguous, z-ascending run of them. Row i lists the
    positions in ``keys`` of voxel i's neighbors in step order: by
    direction, +x, -x, +y, -y, and z-ascending within one, dz = -k, ..., +k;
    ``boundary[i]`` says that some direction offers voxel i no neighbor.

    The runs are sorted by column x * ny + y, so the run of column
    (x, y + 1), if any, is the next run, and one search of the run columns
    finds every (x + 1, y) run; -x and -y are the same pairs read the other
    way. A neighbor run of one voxel needs only the window test
    |dz| <= k; a voxel whose neighbor run holds more searches the keys for
    its window. Each row's runs are written as (first target, count) into
    two (n, 4) arrays, in row order, and expanded into the targets at once.
    Memory scales with the voxels, at about four times the CSR's bytes.
    """
    n = keys.size
    nz = dims[2]
    col = keys // nz
    # z of every voxel, and of one more, out of every window's reach
    zp = np.empty(n + 1, dtype=np.int64)
    np.subtract(keys, col * nz, out=zp[:-1])
    zp[-1] = nz + k
    z = zp[:-1]
    head = np.empty(n, dtype=bool)
    head[:1] = True
    np.not_equal(col[1:], col[:-1], out=head[1:])
    # run r holds the voxels first[r], ..., first[r + 1] - 1
    first = np.append(np.flatnonzero(head), n)
    m = first.size - 1
    runs = col[first[:-1]]
    del col  # each temporary goes as soon as it is spent, to keep the peak low
    rid = np.cumsum(head) - 1  # each voxel's run
    del head
    many = np.append(np.diff(first) > 1, False)
    # each run's neighbor run in the directions +x, -x, +y, -y, m for none
    nbr = np.full((4, m), m, dtype=np.int64)
    ny = dims[1]
    up = runs + ny
    at = np.searchsorted(runs, up)
    hit = np.flatnonzero(runs.take(at, mode="clip") == up)
    at = at[hit]
    nbr[0, hit] = at
    nbr[1, at] = hit
    # the next run is column (x, y + 1), unless y = ny - 1 wraps to (x + 1, 0)
    hit = np.flatnonzero(runs[1:] == runs[:-1] + 1)
    hit = hit[runs[hit] % ny != ny - 1]
    nbr[2, hit] = hit + 1
    nbr[3, hit + 1] = hit
    del runs, up, at, hit
    lo = np.empty((n, 4), dtype=np.int64)
    count = np.empty((n, 4), dtype=np.int64)
    total = np.zeros(n, dtype=np.int64)
    boundary = np.zeros(n, dtype=bool)
    for d, nb in enumerate(nbr):
        s = first[nb][rid]
        lo[:, d] = s
        dz = zp[s]
        dz -= z
        np.abs(dz, out=dz)
        c = dz <= k
        r = np.flatnonzero(many[nb])
        if r.size:
            idx = _runs(first[r], first[r + 1])
            t = s[idx]
            base = keys[t] - z[t]  # key of the neighbor column at z = 0
            a = np.searchsorted(keys, base + np.maximum(z[idx] - k, 0))
            b = np.searchsorted(keys, base + np.minimum(z[idx] + k, nz - 1), side="right")
            lo[idx, d] = a
            c = c.astype(np.int64)
            c[idx] = b - a
        count[:, d] = c
        total += c
        boundary |= c == 0
    del zp, z, first, rid, many, nbr, s, dz, c
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(total, out=indptr[1:])
    del total
    targets = np.repeat(lo.ravel(), count.ravel())
    # a run of c > 1 targets holds lo, lo + 1, ..., lo + c - 1
    f = np.flatnonzero(count.ravel() > 1)
    if f.size:
        i, d = np.divmod(f, 4)
        c = count.ravel()[f]
        p = indptr[i] + (count[i] * (np.arange(4) < d[:, None])).sum(axis=1)
        at = _runs(p, p + c)
        targets[at] += at - np.repeat(p, c)
    return indptr, targets, boundary


def _cut(csr, order: np.ndarray):
    """The rows ``order`` of a CSR from :func:`_column_adjacency`, in that
    order, their targets renumbered to positions in ``order``.

    Every target of a kept row must be kept too: a target outside
    ``order`` has no number.
    """
    indptr, targets, boundary = csr
    ordinal = np.empty(indptr.size - 1, dtype=np.int64)
    ordinal[order] = np.arange(order.size)
    lo = indptr[order]
    counts = indptr[order + 1] - lo
    cut = np.empty(order.size + 1, dtype=np.int64)
    cut[0] = 0
    np.cumsum(counts, out=cut[1:])
    # :func:`_runs` over (lo, lo + counts), with the run starts already in
    # ``cut`` and the arange added in place; each gather then replaces the
    # array it reads, so no more than two target-sized arrays are held
    at = np.repeat(lo - cut[:-1], counts)
    at += np.arange(at.size)
    at = targets[at]
    return cut, ordinal[at], boundary[order]


@dataclass(frozen=True, eq=False)
class Surface:
    """The standing voxels one seed reaches, with stable ordinals.

    ``keys[i]`` is the flat key (x * ny + y) * nz + z of the i-th voxel in
    BFS discovery order from the seed, ordinal 0: its one name from the
    candidates to the search's tie-break and the surface file, and
    ``states[i]`` its (x, y, z), decoded once. The column index inverts the
    keys: the keys, sorted, with the ordinal of each. A column (x, y) is a
    contiguous, z-ascending run of the sorted keys, so multi-story columns
    keep every level, and lookups are binary searches. A state's neighbors
    in one direction are one run too, and a state with an empty run in
    some direction is a boundary state. Nothing grid-sized survives
    extraction: memory scales with the surface. ``keys`` and ``states`` are
    held read-only as native, C-contiguous int64. Keys that are not
    integers, not 1-D or outside ``dims``, a duplicate key, no keys (a
    surface holds its seed), a resolution that is not finite and > 0,
    thresholds in meters that do not give ``params`` and an order that
    does not prove every state reachable from the seed (:func:`_check_order`;
    a second component, say, or a random permutation) raise ValueError. The
    adjacency of all states is a CSR cut to ordinal order by :func:`_cut`:
    of the candidates' CSR, by :func:`extract_surface`, which builds that
    anyway and hands it over before the proof reads it; of the CSR over its
    own sorted keys, built for the proof, for a surface made otherwise
    (:func:`load_surface`, or the constructor). Either way it is kept, and
    the arrays are the same.
    """

    keys: np.ndarray
    dims: tuple[int, int, int]
    resolution: float
    origin: np.ndarray
    params: DerivedVoxelParams
    extraction: ExtractionParams | None = None
    states: np.ndarray = field(init=False, repr=False)
    _sorted: np.ndarray = field(init=False, repr=False)
    _ordinals: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be finite and > 0, got {self.resolution}")
        if self.extraction is not None:
            derived = DerivedVoxelParams.from_params(self.extraction, self.resolution)
            for name, want in vars(derived).items():
                if getattr(self.params, name) != want:
                    raise ValueError(
                        f"params.{name} is {getattr(self.params, name)}, but the "
                        f"thresholds in meters give {want} at resolution {self.resolution}"
                    )
        keys = _voxel_keys(self.keys, self.dims)
        if keys.size == 0:
            raise ValueError("keys are empty, but a surface holds at least its seed")
        order = np.argsort(keys, kind="stable")
        ordered = keys[order]
        twice = np.nonzero(ordered[1:] == ordered[:-1])[0]
        if twice.size:
            raise ValueError(f"key {ordered[twice[0]]} appears twice")
        states = np.stack(np.unravel_index(keys, self.dims), axis=1)
        states.setflags(write=False)
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "_sorted", ordered)
        object.__setattr__(self, "_ordinals", order)
        _check_order(self)

    @property
    def seed(self) -> tuple[int, int, int]:
        """The voxel the surface was grown from: ordinal 0."""
        return tuple(self.states[0].tolist())

    @property
    def size(self) -> int:
        return int(self.states.shape[0])

    def __contains__(self, state) -> bool:
        return _find(self._sorted, self.dims, state) >= 0

    def ordinal(self, state) -> int:
        i = _find(self._sorted, self.dims, state)
        if i < 0:
            raise KeyError(tuple(state))
        return int(self._ordinals[i])

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The adjacency of every state in ordinal order, as
        (indptr, target ordinals, boundary): :func:`_column_adjacency` of
        the sorted keys, :func:`_cut` to ordinal order. Built by the
        constructor's order proof, unless :func:`extract_surface` set it
        to the same arrays first."""
        csr = _column_adjacency(self._sorted, self.dims, self.params.step_voxels)
        # inverted after the build, so it is not held through the build's peak
        rows = np.empty_like(self._ordinals)
        rows[self._ordinals] = np.arange(self.size)
        return _cut(csr, rows)

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
    """BFS closure of one seed over the bounded-step column relation.

    ``seeds`` is ``[seed]``, a one-item list kept for the callers written
    for it; no seed or several raise InvalidSeedError, as does a seed that
    is not a candidate. Expansion follows the row order of
    :func:`_column_adjacency` (+x, -x, +y, -y, dz ascending within each)
    and ordinals are assigned in discovery order, so the seed is ordinal 0
    and the output is identical across runs and platforms.

    The adjacency of all candidates is built once, by
    :func:`_column_adjacency` over their sorted flat keys, its rows in step
    order, and :func:`_bfs` walks it, its rounds giving the ordinals.
    :func:`_cut` of that CSR to the reached states in ordinal order is the
    surface's adjacency, so the constructor's order proof, the distance
    field and the search graph do not build it again. Memory scales with
    the candidates, not with the grid.
    """
    dims = candidates.grid.dims
    # the candidates' sorted keys are their own column index
    keys = candidates.keys
    if len(seeds) != 1:
        raise InvalidSeedError(f"invalid seed: one seed is required, got {len(seeds)}")
    at = _find(keys, dims, seeds[0])
    if at < 0:
        raise InvalidSeedError(f"invalid seed: {tuple(seeds[0])} is not a candidate voxel")

    csr = _column_adjacency(keys, dims, candidates.params.step_voxels)
    order = np.concatenate(_bfs(csr[0], csr[1], [at]))

    surface = Surface.__new__(Surface)
    # a reached voxel's neighbors are all reached, so the cut keeps them;
    # held before the constructor runs, so its order proof reads this CSR
    # and does not build another
    surface.__dict__["_csr"] = _cut(csr, order)
    del csr
    surface.__init__(
        keys=keys[order],
        dims=dims,
        resolution=candidates.grid.resolution,
        origin=candidates.grid.origin,
        params=candidates.params,
        extraction=extraction,
    )
    return surface


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
        seed = seed_voxel
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


def _check_order(surface: Surface) -> None:
    """Prove in one pass over the adjacency that every state reaches the
    seed, ordinal 0: every other state has a neighbor of smaller ordinal.
    Moves are symmetric, so by induction on the ordinal each state reaches
    the seed. An order from a BFS of the seed, which :func:`extract_surface`
    gives, always passes; a reachable order that is not one can fail, and
    keys the seed does not reach always do. The :class:`Surface`
    constructor runs it; ValueError names the first state that fails and
    the seed. Memory scales with the states.
    """
    indptr, targets, _ = surface._csr
    starts = indptr[:-1]
    rows = np.flatnonzero(indptr[1:] > starts)
    least = np.full(surface.size, surface.size, dtype=np.int64)  # no neighbor
    if rows.size:
        least[rows] = np.minimum.reduceat(targets, starts[rows])
    late = np.flatnonzero(least[1:] > np.arange(surface.size - 1))
    if late.size:
        raise ValueError(
            f"state {surface.states[late[0] + 1].tolist()} is not reachable from seed "
            f"{surface.seed} in ordinal order: no neighbor comes before it"
        )


def save_surface(surface: Surface, destination) -> None:
    """Write a surface as one line of JSON, version 2: ``keys`` holds the
    flat keys (x * ny + y) * nz + z of the states in ordinal order, and
    the seed, the first key's voxel, is an (x, y, z) triple.

    Every surface can be written: its constructor proved the order that
    :func:`load_surface` checks, so this writes no file that it refuses.
    """
    doc = {
        "format": "surfnav-surface",
        "version": 2,
        "resolution": surface.resolution,
        "origin": [float(c) for c in surface.origin],
        "dims": list(surface.dims),
        "seed": list(surface.seed),
        "params": _params_doc(surface),
        "keys": surface.keys.tolist(),
    }
    # compact separators keep json.dumps on its C encoder; indent does not
    text = json.dumps(doc, sort_keys=True)
    if hasattr(destination, "write"):
        destination.write(text + "\n")
    else:
        Path(destination).write_text(text + "\n")


def load_surface(source) -> Surface:
    """Read a surface written by :func:`save_surface`, compact or indented.

    Only version 2 is read. Its keys go to :class:`Surface` as they are,
    so what the constructor refuses raises SurfaceFormatError, as do dims,
    voxel params or a seed that are not integers, a resolution, threshold
    in meters or origin entry that is not a finite number (a fractional,
    string or boolean value included), one or two thresholds in meters
    (all three, or none), and dims that hold no voxel or more than
    MAX_VOXELS.

    So does a file whose order does not prove every state reachable from
    the seed, which the constructor refuses (see :func:`_check_order`): the
    seed must be the first key, and every other state must have a neighbor
    before it in the file. The file's order is extraction's BFS discovery
    order, so one pass over the surface's adjacency checks it, with no
    search; the distance field and search graph then reuse that adjacency.
    The message names the first state that fails, "state [x, y, z] is not
    reachable from seed ... in ordinal order".
    """
    doc = _read_json(source, "surface file", "surfnav-surface", 2, SurfaceFormatError)
    try:
        p = doc["params"]
        params = DerivedVoxelParams(
            **{name: _integer(p[name], f"params.{name}", SurfaceFormatError)
               for name in ("step_voxels", "clearance_voxels", "inflation_voxels")}
        )
        names = ("step_height", "clearance_height", "inflation_radius")
        meters = {name: _number(p[name], f"params.{name}", SurfaceFormatError)
                  for name in names if p.get(name) is not None}
        if 0 < len(meters) < 3:
            missing = " and ".join(f"params.{n}" for n in names if n not in meters)
            raise SurfaceFormatError(
                f"params gives {len(meters)} of the 3 thresholds in meters, without "
                f"{missing}: give all three, or none"
            )
        dims = _list(doc["dims"], "dims", SurfaceFormatError, _integer, 3)
        _check_voxel_count(dims, SurfaceFormatError, f"dims {dims}")
        seed = tuple(_list(doc["seed"], "seed", SurfaceFormatError, _integer, 3))
        surface = Surface(
            keys=doc["keys"],
            dims=dims,
            resolution=_number(doc["resolution"], "resolution", SurfaceFormatError),
            origin=np.array(_list(doc["origin"], "origin", SurfaceFormatError, _number, 3)),
            params=params,
            extraction=ExtractionParams(**meters) if meters else None,
        )
        if seed != surface.seed:
            raise ValueError(f"seed {seed} is not the first state in the file's order")
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise SurfaceFormatError(f"bad surface file: {exc}") from exc
    return surface
