"""Dense 3D occupancy grids: voxelization, coordinate transforms, file I/O.

Voxel (x, y, z) covers the half-open world box
[origin + v*r, origin + (v+1)*r), so every finite point belongs to exactly
one voxel. Occupancy queries outside the grid read as occupied; that keeps
clearance and collision checks conservative near the map boundary.

Every voxel array, the grid file's bits included, is in flat-key order
(x * ny + y) * nz + z, so a grid goes to and from disk without a copy.

No grid holds more than MAX_VOXELS = 2**31 voxels: ``voxelize``, ``SceneSpec``
and ``load_grid`` refuse a larger one before they allocate anything grid-sized.
"""

from __future__ import annotations

import math
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import EmptyInputError, GridFormatError, InvalidPointError

__all__ = [
    "GRID_MAGIC",
    "GRID_VERSION",
    "HEADER_SIZE",
    "OccupancyGrid",
    "ceil_voxels",
    "floor_voxels",
    "load_grid",
    "load_point_cloud",
    "save_grid",
    "save_point_cloud",
    "voxel_to_world",
    "voxelize",
    "world_to_voxel",
]

GRID_MAGIC = b"RNAV"
GRID_VERSION = 2

# magic, version, Nx, Ny, Nz, resolution, origin -- all little-endian
_HEADER = struct.Struct("<4sI3Id3d")
HEADER_SIZE = _HEADER.size  # 52 bytes

# A 2 GiB boolean grid, ~190x the 1.1e7 voxels of plaza_like at 0.048 m.
MAX_VOXELS = 2**31


def _check_voxel_count(dims, error, what: str) -> None:
    """Raise ``error`` naming ``what`` unless a grid of ``dims`` (inf for an
    axis too long to count) holds 1 to MAX_VOXELS voxels."""
    count = math.prod(float(d) for d in dims)
    if not 1 <= count <= MAX_VOXELS:
        raise error(f"{what} asks for {count:.4g} voxels; a grid holds 1 to 2**31")


def floor_voxels(value: float) -> int:
    """floor() with a tolerance so ratios a hair under an integer boundary
    (0.3 / 0.1 == 2.999...) land on the boundary instead of one below."""
    return math.floor(value + 1e-9 + abs(value) * 1e-12)


def ceil_voxels(value: float) -> int:
    """ceil() counterpart of :func:`floor_voxels`."""
    return math.ceil(value - 1e-9 - abs(value) * 1e-12)


@dataclass(frozen=True, eq=False)
class OccupancyGrid:
    """Bit-per-voxel occupancy over a regular grid.

    ``occupancy`` has shape (Nx, Ny, Nz) and is read-only after
    construction. ``origin`` is the world corner of voxel (0, 0, 0).
    """

    resolution: float
    origin: np.ndarray
    occupancy: np.ndarray

    def __post_init__(self):
        if not (math.isfinite(self.resolution) and self.resolution > 0):
            raise ValueError(f"resolution must be finite and > 0, got {self.resolution}")
        origin = np.array(self.origin, dtype=np.float64, copy=True)
        if origin.shape != (3,) or not np.all(np.isfinite(origin)):
            raise ValueError("origin must be 3 finite world coordinates")
        occ = np.asarray(self.occupancy)
        if occ.dtype != bool:
            occ = occ.astype(bool)
        if occ.ndim != 3 or min(occ.shape) < 1:
            raise ValueError(f"occupancy must be a non-empty 3D array, got shape {occ.shape}")
        occ = np.ascontiguousarray(occ)
        origin.setflags(write=False)
        occ.setflags(write=False)
        object.__setattr__(self, "origin", origin)
        object.__setattr__(self, "occupancy", occ)

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.occupancy.shape

    @property
    def total_voxels(self) -> int:
        nx, ny, nz = self.occupancy.shape
        return nx * ny * nz

    @property
    def occupied_count(self) -> int:
        return int(self.occupancy.sum())

    def in_bounds(self, x: int, y: int, z: int) -> bool:
        nx, ny, nz = self.occupancy.shape
        return 0 <= x < nx and 0 <= y < ny and 0 <= z < nz

    def is_occupied(self, x: int, y: int, z: int) -> bool:
        """Occupancy with out-of-bounds voxels reading as occupied."""
        if self.in_bounds(x, y, z):
            return bool(self.occupancy[x, y, z])
        return True

    def occupied_centers(self) -> np.ndarray:
        """World centers of all occupied voxels, lexicographic order, (N, 3)."""
        idx = np.argwhere(self.occupancy)
        return self.origin + (idx + 0.5) * self.resolution


def world_to_voxel(grid: OccupancyGrid, point) -> tuple[int, int, int]:
    """Voxel index containing a world point: floor((p - origin) / r)."""
    p = np.asarray(point, dtype=np.float64)
    if p.shape != (3,) or not np.all(np.isfinite(p)):
        raise InvalidPointError(f"invalid point: {point!r}")
    v = np.floor((p - grid.origin) / grid.resolution).astype(np.int64)
    return (int(v[0]), int(v[1]), int(v[2]))


def voxel_to_world(grid: OccupancyGrid, voxel) -> np.ndarray:
    """World center of a voxel: origin + (v + 0.5) * r."""
    v = np.asarray(voxel, dtype=np.float64)
    return grid.origin + (v + 0.5) * grid.resolution


def voxelize(points, resolution: float, min_points: int = 1) -> OccupancyGrid:
    """Bin a point cloud into an occupancy grid.

    The grid covers the axis-aligned bounding box of the points padded by
    one voxel on every face; a voxel is occupied iff it holds at least
    ``min_points`` points. Memory is the boolean grid plus O(points); a grid
    of more than MAX_VOXELS voxels raises InvalidPointError unallocated.
    """
    if not (math.isfinite(resolution) and resolution > 0):
        raise ValueError(f"resolution must be finite and > 0, got {resolution}")
    if min_points < 1:
        raise ValueError(f"min_points must be >= 1, got {min_points}")
    pts = np.asarray(points, dtype=np.float64)
    if pts.size == 0:
        raise EmptyInputError("empty input: point cloud has no points")
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise InvalidPointError(f"invalid point array shape {pts.shape}, expected (N, 3)")
    if not np.all(np.isfinite(pts)):
        raise InvalidPointError("invalid point: non-finite coordinate in cloud")

    pmin = pts.min(axis=0)
    pmax = pts.max(axis=0)
    with np.errstate(over="ignore"):
        extent = pmax - pmin
        spans = extent / resolution
    dims = tuple(max(1, ceil_voxels(s)) + 2 if math.isfinite(s) else math.inf for s in spans)
    _check_voxel_count(dims, InvalidPointError, f"invalid point cloud: extent "
                       f"{extent.tolist()} at resolution {resolution}")
    origin = pmin - resolution

    t = (pts - origin) / resolution
    # same tolerance as floor_voxels: points an ulp shy of a voxel corner
    # (centers regenerated from another grid) bin onto the corner voxel
    idx = np.floor(t + 1e-9 + np.abs(t) * 1e-12).astype(np.int64)
    # The padding guarantees in-bounds indices; clip guards float edge cases.
    idx = np.clip(idx, 0, np.asarray(dims) - 1)
    keys, counts = np.unique(np.ravel_multi_index(tuple(idx.T), dims), return_counts=True)
    occ = np.zeros(dims, dtype=bool)
    occ.reshape(-1)[keys[counts >= min_points]] = True
    return OccupancyGrid(resolution, origin, occ)


def save_grid(grid: OccupancyGrid, destination) -> None:
    """Write a grid in the binary format, version 2 (see README): the payload
    packs the occupancy in its own flat-key order (x * Ny + y) * Nz + z, eight
    voxels per byte, bit i of byte b holding the voxel of key 8*b + i."""
    nx, ny, nz = grid.dims
    header = _HEADER.pack(
        GRID_MAGIC, GRID_VERSION, nx, ny, nz, grid.resolution, *grid.origin
    )
    payload = np.packbits(grid.occupancy.reshape(-1), bitorder="little")
    if hasattr(destination, "write"):
        destination.write(header)
        destination.write(payload)
    else:
        with open(destination, "wb") as fh:
            fh.write(header)
            fh.write(payload)


def load_grid(source) -> OccupancyGrid:
    """Read a grid written by :func:`save_grid`, validating every field.
    Only version 2 is read: regenerate a version-1 grid (bits x-fastest)
    with ``scenegen`` or ``voxelize``."""
    if hasattr(source, "read"):
        data = source.read()
    else:
        data = Path(source).read_bytes()
    if len(data) < HEADER_SIZE:
        raise GridFormatError("truncated header", offset=len(data))
    magic, version, nx, ny, nz, resolution, ox, oy, oz = _HEADER.unpack_from(data, 0)
    if magic != GRID_MAGIC:
        raise GridFormatError(f"bad magic {magic!r}, expected {GRID_MAGIC!r}", offset=0)
    if version != GRID_VERSION:
        raise GridFormatError(f"unsupported grid version {version}, not {GRID_VERSION}: "
                              "regenerate the grid with scenegen or voxelize", offset=4)
    _check_voxel_count((nx, ny, nz), lambda m: GridFormatError(m, offset=8),
                       f"dims ({nx}, {ny}, {nz})")
    if not (math.isfinite(resolution) and resolution > 0):
        raise GridFormatError(f"bad resolution {resolution}", offset=20)
    if not all(math.isfinite(v) for v in (ox, oy, oz)):
        raise GridFormatError("non-finite origin", offset=28)
    total = nx * ny * nz
    payload_len = (total + 7) // 8
    expected = HEADER_SIZE + payload_len
    if len(data) != expected:
        raise GridFormatError(
            f"payload length {len(data) - HEADER_SIZE}, expected {payload_len}",
            offset=min(len(data), expected),
        )
    bits = np.unpackbits(
        np.frombuffer(data, dtype=np.uint8, count=payload_len, offset=HEADER_SIZE),
        bitorder="little",
        count=total,
    )
    occupancy = bits.view(bool).reshape((nx, ny, nz))
    return OccupancyGrid(resolution, np.array([ox, oy, oz]), occupancy)


def load_point_cloud(source) -> np.ndarray:
    """Read a text cloud: one ``x y z`` triple per line, ``#`` comments."""
    try:
        with warnings.catch_warnings():
            # loadtxt warns on an all-comment file; we raise for that below
            warnings.simplefilter("ignore")
            pts = np.loadtxt(source, comments="#", dtype=np.float64, ndmin=2)
    except ValueError as exc:
        raise InvalidPointError(f"invalid point cloud: {exc}") from exc
    if pts.size == 0:
        raise EmptyInputError("empty input: point cloud has no points")
    if pts.shape[1] != 3:
        raise InvalidPointError(
            f"invalid point cloud: expected 3 columns, got {pts.shape[1]}"
        )
    if not np.all(np.isfinite(pts)):
        raise InvalidPointError("invalid point: non-finite coordinate in cloud")
    return pts


def save_point_cloud(points: Iterable, destination, header: str | None = None) -> None:
    """Write points as ``x y z`` text lines."""
    pts = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    lines = []
    if header:
        lines.extend(f"# {line}" for line in header.splitlines())
    lines.extend(f"{p[0]:.6f} {p[1]:.6f} {p[2]:.6f}" for p in pts)
    text = "\n".join(lines) + "\n"
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        Path(destination).write_text(text)
