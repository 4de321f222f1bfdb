"""Synthetic indoor and outdoor test scenes.

A SceneSpec is an ordered list of geometric primitives compiled onto a
dense occupancy grid. Rasterization is conservative (a primitive claims
every voxel its box intersects) and order-sensitive: later primitives
overwrite earlier ones, which is how holes and cavities carve openings.
A scene holds one grid-sized array, its occupancy. The solid voxels that a
named primitive set last are painted on demand, by the same pass over the
boxes, so tests can ask which structure supports a given surface state.

Presets cover the structure classes that exercise every extraction
filter: walkable floor, walls, a table (standing island), a low cabinet
(overhead blocker), a floor hole, an enclosed ceiling cavity, staircases,
a two-story house, a furniture-cluttered room, an open plaza, and a
spiral ramp.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import QuerySamplingError, SceneSpecError, _read_json, _readers
from .extract import Surface
from .grid import OccupancyGrid, _check_voxel_count, ceil_voxels, floor_voxels

__all__ = [
    "CeilingCavity",
    "FloorSlab",
    "Hole",
    "LowCabinet",
    "MAX_SPEC_BOXES",
    "MAX_STAIR_STEPS",
    "PRESET_NAMES",
    "Scene",
    "SceneSpec",
    "Staircase",
    "Table",
    "Wall",
    "build_scene",
    "load_scene_spec",
    "preset",
    "sample_queries",
    "save_scene_spec",
]

Region = tuple[float, float, float, float]  # x0, y0, x1, y1 meters

_SET = True
_CLEAR = False


class _Fields:
    """Base of SceneSpec and the primitives: every field is read by its
    annotation, and a region must have positive area, before the class's
    own value checks in ``_check``. ``box_count`` is how many boxes a
    primitive's ``boxes`` yields."""

    box_count = 1

    def __post_init__(self):
        def error(message):
            return SceneSpecError(f"bad {type(self).__name__} {self.name!r}: {message}")

        for f, read in _readers(type(self)):
            object.__setattr__(self, f, read(getattr(self, f), f, error))
        region = getattr(self, "region", None)  # x0, y0, x1, y1
        if region and not (region[0] < region[2] and region[1] < region[3]):
            raise error(f"region must have positive area, got {region}")
        self._check()


@dataclass(frozen=True)
class FloorSlab(_Fields):
    """Horizontal solid slab over a footprint, bottom at ``z``."""

    region: Region
    z: float
    thickness: float
    name: str = "floor"

    def _check(self):
        if self.thickness <= 0:
            raise SceneSpecError(f"FloorSlab: thickness must be > 0, got {self.thickness}")

    def boxes(self):
        x0, y0, x1, y1 = self.region
        yield (x0, y0, self.z, x1, y1, self.z + self.thickness), _SET


@dataclass(frozen=True)
class Wall(_Fields):
    """Solid block over a footprint from ``z0`` up ``height`` meters.

    Doubles as pillars, buildings, and planters; the footprint carries
    the shape, the name carries the intent.
    """

    region: Region
    height: float
    z0: float = 0.0
    name: str = "wall"

    def _check(self):
        if self.height <= 0:
            raise SceneSpecError(f"Wall: height must be > 0, got {self.height}")

    def boxes(self):
        x0, y0, x1, y1 = self.region
        yield (x0, y0, self.z0, x1, y1, self.z0 + self.height), _SET


_STAIR_DIRECTIONS = ("+x", "-x", "+y", "-y")

# A staircase paints one box per step, so its step count, not the voxel
# cap, bounds the time a staircase can ask of scenegen: 10,000 steps paint
# in well under a second, and the presets' longest run has 22.
MAX_STAIR_STEPS = 10_000

# Boxes painted per spec, summed over its primitives: many staircases, or a
# table with many legs, would otherwise ask for seconds of painting each
# within their own bounds. A box paints in ~5 us, so 100,000 take about
# half a second; the presets paint at most a few hundred.
MAX_SPEC_BOXES = 100_000


@dataclass(frozen=True)
class Staircase(_Fields):
    """Straight run of solid steps.

    ``origin`` is the world corner where the run begins at base height
    origin[2]; step i tops out at origin[2] + i * riser. Steps are solid
    down to the base so there is no void underneath.
    """

    origin: tuple[float, float, float]
    direction: str
    tread_depth: float
    width: float
    riser: float
    steps: int
    name: str = "stairs"

    def _check(self):
        if self.direction not in _STAIR_DIRECTIONS:
            raise SceneSpecError(
                f"Staircase: direction must be one of {_STAIR_DIRECTIONS}, got {self.direction!r}"
            )
        if self.tread_depth <= 0 or self.width <= 0 or self.riser <= 0:
            raise SceneSpecError("Staircase: tread_depth, width and riser must be > 0")
        if not 1 <= self.steps <= MAX_STAIR_STEPS:
            raise SceneSpecError(
                f"Staircase: steps must be 1 to {MAX_STAIR_STEPS}, got {self.steps}"
            )

    @property
    def box_count(self):
        return self.steps

    def boxes(self):
        ox, oy, oz = self.origin
        for i in range(1, self.steps + 1):
            lo = (i - 1) * self.tread_depth
            hi = i * self.tread_depth
            top = oz + i * self.riser
            if self.direction == "+x":
                box = (ox + lo, oy, oz, ox + hi, oy + self.width, top)
            elif self.direction == "-x":
                box = (ox - hi, oy, oz, ox - lo, oy + self.width, top)
            elif self.direction == "+y":
                box = (ox, oy + lo, oz, ox + self.width, oy + hi, top)
            else:
                box = (ox, oy - hi, oz, ox + self.width, oy - lo, top)
            yield box, _SET


@dataclass(frozen=True)
class Table(_Fields):
    """Top slab on corner legs; the space underneath stays open."""

    region: Region
    top_z: float
    top_thickness: float
    base_z: float = 0.0
    leg_size: float = 0.2
    legs: tuple[tuple[float, float], ...] | None = None  # (x, y) leg corners; None = four corners
    name: str = "table"

    def _check(self):
        if self.top_thickness <= 0 or self.leg_size <= 0:
            raise SceneSpecError("Table: top_thickness and leg_size must be > 0")
        if self.base_z >= self.top_z - self.top_thickness:
            raise SceneSpecError("Table: legs need positive height under the top")

    @property
    def box_count(self):
        return (4 if self.legs is None else len(self.legs)) + 1

    def boxes(self):
        x0, y0, x1, y1 = self.region
        ls = self.leg_size
        legs = self.legs
        if legs is None:
            legs = ((x0, y0), (x1 - ls, y0), (x0, y1 - ls), (x1 - ls, y1 - ls))
        under = self.top_z - self.top_thickness
        for lx, ly in legs:
            yield (lx, ly, self.base_z, lx + ls, ly + ls, under), _SET
        yield (x0, y0, under, x1, y1, self.top_z), _SET


@dataclass(frozen=True)
class LowCabinet(_Fields):
    """Solid box hung above the floor: blocks headroom, leaves a gap below."""

    region: Region
    underside_z: float
    top_z: float
    name: str = "cabinet"

    def _check(self):
        if self.underside_z >= self.top_z:
            raise SceneSpecError("LowCabinet: underside_z must be below top_z")

    def boxes(self):
        x0, y0, x1, y1 = self.region
        yield (x0, y0, self.underside_z, x1, y1, self.top_z), _SET


@dataclass(frozen=True)
class CeilingCavity(_Fields):
    """Enclosed crawl space: a shell slab under ``floor_z`` with cleared air
    up to ``ceiling_z``. Standing room exists inside but nothing connects
    to it, which makes it the canonical unreachable-candidate region."""

    region: Region
    floor_z: float
    ceiling_z: float
    shell_thickness: float = 0.4
    name: str = "cavity"
    box_count = 2

    def _check(self):
        if self.shell_thickness <= 0:
            raise SceneSpecError("CeilingCavity: shell_thickness must be > 0")
        if self.floor_z >= self.ceiling_z:
            raise SceneSpecError("CeilingCavity: floor_z must be below ceiling_z")

    def boxes(self):
        x0, y0, x1, y1 = self.region
        yield (x0, y0, self.floor_z - self.shell_thickness, x1, y1, self.floor_z), _SET
        yield (x0, y0, self.floor_z, x1, y1, self.ceiling_z), _CLEAR


@dataclass(frozen=True)
class Hole(_Fields):
    """Clears a vertical slice of earlier solids, e.g. an opening in a slab."""

    region: Region
    z0: float
    z1: float
    name: str = "hole"

    def _check(self):
        if self.z0 >= self.z1:
            raise SceneSpecError("Hole: z0 must be below z1")

    def boxes(self):
        x0, y0, x1, y1 = self.region
        yield (x0, y0, self.z0, x1, y1, self.z1), _CLEAR


_PRIMITIVE_TYPES = {
    "floor_slab": FloorSlab,
    "wall": Wall,
    "staircase": Staircase,
    "table": Table,
    "low_cabinet": LowCabinet,
    "ceiling_cavity": CeilingCavity,
    "hole": Hole,
}
_TYPE_TAGS = {cls: tag for tag, cls in _PRIMITIVE_TYPES.items()}


@dataclass(frozen=True)
class SceneSpec(_Fields):
    """Declarative scene: extent in meters, resolution, ordered primitives."""

    name: str
    extent: tuple[float, float, float]
    resolution: float
    primitives: tuple[object, ...]
    rng_seed: int = 0
    seed_hint: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def _check(self):
        if self.resolution <= 0 or min(self.extent) <= 0:
            raise SceneSpecError(f"resolution and extent must be > 0, got {self.resolution} "
                                 f"and {self.extent}")
        spans = [e / self.resolution for e in self.extent]
        _check_voxel_count([ceil_voxels(s) if math.isfinite(s) else s for s in spans],
                           SceneSpecError, f"extent {self.extent} at resolution {self.resolution}")
        boxes = sum(p.box_count for p in self.primitives)
        if boxes > MAX_SPEC_BOXES:
            raise SceneSpecError(
                f"primitives paint {boxes} boxes in all, more than MAX_SPEC_BOXES = {MAX_SPEC_BOXES}"
            )


@dataclass(frozen=True, eq=False)
class Scene:
    """Compiled scene: the spec and its grid, with origin (0, 0, 0)."""

    grid: OccupancyGrid
    spec: SceneSpec

    def solid_mask(self, name: str) -> np.ndarray:
        """Solid voxels that a primitive named ``name`` set last."""
        if all(prim.name != name for prim in self.spec.primitives):
            raise SceneSpecError(f"unknown label {name!r}")
        return _paint(self.spec, name)


def _box_slices(box, resolution, dims):
    # a box too large to count in voxels leaves the grid too
    x0, y0, z0, x1, y1, z1 = (c / resolution for c in box)
    if not all(math.isfinite(c) for c in (x0, y0, z0, x1, y1, z1)):
        return None
    lo = (floor_voxels(x0), floor_voxels(y0), floor_voxels(z0))
    hi = (ceil_voxels(x1), ceil_voxels(y1), ceil_voxels(z1))
    for a in range(3):
        if lo[a] < 0 or hi[a] > dims[a]:
            return None
    return tuple(slice(lo[a], max(hi[a], lo[a] + 1)) for a in range(3))


def _paint(spec: SceneSpec, name: str | None = None) -> np.ndarray:
    """The spec's boxes painted in order onto one boolean grid: a box sets
    its voxels solid or clear, and with ``name`` given, only a solid box of
    a primitive so named sets them."""
    r = spec.resolution
    dims = tuple(ceil_voxels(e / r) for e in spec.extent)
    occ = np.zeros(dims, dtype=bool)
    for prim in spec.primitives:
        for box, solid in prim.boxes():
            sl = _box_slices(box, r, dims)
            if sl is None:
                raise SceneSpecError(
                    f"spec out of bounds: {type(prim).__name__} {prim.name!r} box {box} "
                    f"leaves extent {spec.extent}"
                )
            occ[sl] = solid and (name is None or prim.name == name)
    return occ


def build_scene(spec: SceneSpec) -> Scene:
    """Rasterize a SceneSpec onto a fresh grid with origin (0, 0, 0)."""
    return Scene(grid=OccupancyGrid(spec.resolution, np.zeros(3), _paint(spec)), spec=spec)


def _prim_to_dict(prim) -> dict:
    # json writes the tuples as lists
    return {"type": _TYPE_TAGS[type(prim)], **asdict(prim)}


def _prim_from_dict(d: dict):
    if not isinstance(d, dict):
        raise SceneSpecError(f"a primitive must be a JSON object, got {d!r}")
    d = dict(d)
    tag = d.pop("type", None)
    cls = _PRIMITIVE_TYPES.get(tag)
    if cls is None:
        raise SceneSpecError(f"unknown primitive type {tag!r}")
    return cls(**d)


def save_scene_spec(spec: SceneSpec, destination) -> None:
    doc = {
        "format": "surfnav-scene",
        "version": 1,
        **asdict(spec),  # the fields that load_scene_spec reads by annotation
        "primitives": [_prim_to_dict(p) for p in spec.primitives],
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    if hasattr(destination, "write"):
        destination.write(text + "\n")
    else:
        Path(destination).write_text(text + "\n")


def load_scene_spec(source) -> SceneSpec:
    doc = _read_json(source, "scene spec", "surfnav-scene", 1, SceneSpecError)
    try:
        return SceneSpec(
            name=doc["name"],
            extent=doc["extent"],
            resolution=doc["resolution"],
            primitives=tuple(_prim_from_dict(p) for p in doc["primitives"]),
            rng_seed=doc.get("rng_seed", 0),
            seed_hint=doc.get("seed_hint", (0.0, 0.0, 0.0)),
        )
    except KeyError as exc:
        raise SceneSpecError(f"scene spec missing field {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise SceneSpecError(f"bad scene spec: {exc}") from exc


def _perimeter_walls(ex, ey, height, z0, thickness=0.4):
    return (
        Wall((0.0, 0.0, ex, thickness), height, z0),
        Wall((0.0, ey - thickness, ex, ey), height, z0),
        Wall((0.0, thickness, thickness, ey - thickness), height, z0),
        Wall((ex - thickness, thickness, ex, ey - thickness), height, z0),
    )


def _table1_fixture() -> tuple:
    # one of each structure class in a single room; coordinates chosen so
    # the geometry stays on the 0.2 m lattice
    prims = [
        FloorSlab((0.0, 0.0, 10.0, 10.0), z=0.0, thickness=0.2, name="subfloor"),
        FloorSlab((0.0, 0.0, 10.0, 10.0), z=0.6, thickness=0.4, name="floor"),
    ]
    prims += [
        Wall((0.0, 0.0, 10.0, 0.4), 5.8),
        Wall((0.0, 9.6, 10.0, 10.0), 5.8),
        Wall((0.0, 0.4, 0.4, 9.6), 5.8),
        Wall((9.6, 0.4, 10.0, 9.6), 5.8),
        CeilingCavity((0.4, 0.4, 9.6, 9.6), floor_z=4.0, ceiling_z=5.8),
        FloorSlab((0.0, 0.0, 10.0, 10.0), z=5.8, thickness=0.4, name="roof"),
        Table((6.0, 6.0, 7.6, 7.6), top_z=1.8, top_thickness=0.2, base_z=1.0),
        LowCabinet((2.0, 6.4, 3.6, 8.0), underside_z=1.4, top_z=2.2),
        Hole((6.0, 2.0, 8.0, 4.0), z0=0.6, z1=1.0),
        Staircase((1.0, 1.0, 1.0), "+x", tread_depth=0.4, width=1.2, riser=0.1, steps=5),
    ]
    return (10.0, 10.0, 6.4), tuple(prims), (8.6, 8.6, 1.1)


def _two_story_house() -> tuple:
    # Stairs climb an open lane along +x. Treads are 0.4 m deep so the rise
    # stays within one voxel over the lateral inflation disk at both 0.1 m
    # and 0.2 m resolution; the 0.6 m gap between the upper-floor rim and
    # the stair flank keeps a ground-level approach corridor collision-free,
    # and the landing slab's top is flush with the last tread so its rim
    # never enters a clearance window.
    prims = [
        FloorSlab((0.0, 0.0, 10.0, 8.0), z=0.0, thickness=0.4, name="floor1"),
        Staircase((0.6, 6.2, 0.4), "+x", tread_depth=0.4, width=1.6, riser=0.1, steps=22),
        FloorSlab((0.0, 0.0, 10.0, 5.6), z=2.2, thickness=0.4, name="floor2"),
        FloorSlab((9.0, 5.6, 10.0, 8.0), z=2.2, thickness=0.4, name="floor2"),
    ]
    prims += list(_perimeter_walls(10.0, 8.0, height=4.6, z0=0.4))
    prims.append(FloorSlab((0.0, 0.0, 10.0, 8.0), z=5.0, thickness=0.4, name="roof"))
    return (10.0, 8.0, 6.0), tuple(prims), (8.6, 1.0, 0.5)


def _furniture_room(rng_seed: int) -> tuple:
    ex, ey = 14.0, 12.0
    prims = [FloorSlab((0.0, 0.0, ex, ey), z=0.0, thickness=0.4, name="floor")]
    prims += list(_perimeter_walls(ex, ey, height=2.8, z0=0.4))
    prims.append(FloorSlab((0.0, 0.0, ex, ey), z=3.2, thickness=0.4, name="ceiling"))

    rng = np.random.default_rng(rng_seed)
    placed: list[Region] = []

    def admissible(box: Region) -> bool:
        x0, y0, x1, y1 = box
        if x0 < 1.0 or y0 < 1.0 or x1 > ex - 1.0 or y1 > ey - 1.0:
            return False
        if x0 < 3.0 and y0 < 3.0:  # keep the seed corner walkable
            return False
        for px0, py0, px1, py1 in placed:
            # 1 m aisle between furniture pieces
            if x0 - 1.0 < px1 and px0 < x1 + 1.0 and y0 - 1.0 < py1 and py0 < y1 + 1.0:
                return False
        return True

    def place(w: float, d: float) -> Region:
        for _ in range(10000):
            if rng.integers(0, 2):
                w, d = d, w
            x0 = 0.2 * int(rng.integers(0, int(ex / 0.2)))
            y0 = 0.2 * int(rng.integers(0, int(ey / 0.2)))
            box = (x0, y0, x0 + w, y0 + d)
            if admissible(box):
                placed.append(box)
                return box
        raise SceneSpecError(f"furniture placement failed for rng_seed {rng_seed}")

    for _ in range(6):
        prims.append(
            Table(place(1.2, 0.8), top_z=1.0, top_thickness=0.2, base_z=0.4)
        )
    for _ in range(5):
        prims.append(LowCabinet(place(1.6, 0.6), underside_z=0.8, top_z=2.0))
    return (ex, ey, 3.6), tuple(prims), (1.2, 1.2, 0.5)


def _plaza_like() -> tuple:
    prims = [
        # open ground, no perimeter walls: the map edge itself bounds travel
        FloorSlab((0.0, 0.0, 20.0, 20.0), z=0.0, thickness=0.4, name="ground"),
        Wall((3.0, 3.0, 8.0, 7.0), height=2.6, z0=0.4, name="building"),
        Wall((12.0, 12.0, 17.0, 16.0), height=2.6, z0=0.4, name="building"),
        Wall((12.0, 3.0, 16.0, 7.0), height=0.4, z0=0.4, name="platform"),
        Staircase((10.4, 4.4, 0.4), "+x", tread_depth=0.4, width=1.2, riser=0.1, steps=4),
    ]
    for px, py in ((5.0, 10.0), (8.0, 10.0), (11.0, 10.0), (14.0, 10.0), (5.0, 14.0), (8.0, 14.0)):
        prims.append(Wall((px, py, px + 0.4, py + 0.4), height=2.6, z0=0.4, name="pillar"))
    for px, py in ((2.0, 16.0), (6.0, 16.0), (16.0, 8.0)):
        prims.append(Wall((px, py, px + 1.2, py + 1.2), height=0.6, z0=0.4, name="planter"))
    return (20.0, 20.0, 3.0), tuple(prims), (9.0, 16.0, 0.5)


def _spiral_ramp() -> tuple:
    """Switchback ramp: 0.4 m treads climb 1.6 m wide legs around a solid
    core, with a flat 1.6 m landing at each corner flush with the last
    tread. 0.1 m risers stay within one voxel of rise over the inflation
    disk at both tested resolutions, and one lap gains 2.4 m so each loop
    clears the clearance window of the loop below."""
    prims = [
        FloorSlab((0.0, 0.0, 12.0, 12.0), z=0.0, thickness=0.4, name="ground"),
        Wall((4.8, 4.8, 7.2, 7.2), height=6.0, z0=0.0, name="core"),
    ]
    # tread regions per leg, in walk order around the core (ccw)
    south = [(4.8 + 0.4 * j, 3.2, 5.2 + 0.4 * j, 4.8) for j in range(6)]
    east = [(7.2, 4.8 + 0.4 * j, 8.8, 5.2 + 0.4 * j) for j in range(6)]
    north = [(6.8 - 0.4 * j, 7.2, 7.2 - 0.4 * j, 8.8) for j in range(6)]
    west = [(3.2, 6.8 - 0.4 * j, 4.8, 7.2 - 0.4 * j) for j in range(6)]
    landings = {
        "SE": (7.2, 3.2, 8.8, 4.8),
        "NE": (7.2, 7.2, 8.8, 8.8),
        "NW": (3.2, 7.2, 4.8, 8.8),
        "SW": (3.2, 3.2, 4.8, 4.8),
    }
    walk = [
        (south, "SE"), (east, "NE"), (north, "NW"),
        (west, "SW"), (south, "SE"), (east, "NE"),
    ]
    top = 0.4
    for leg, corner in walk:
        for region in leg:
            top += 0.1
            prims.append(FloorSlab(region, z=top - 0.2, thickness=0.2, name="ramp"))
        prims.append(FloorSlab(landings[corner], z=top - 0.2, thickness=0.2, name="landing"))
    return (12.0, 12.0, 6.0), tuple(prims), (1.0, 1.0, 0.5)


_PRESETS = {
    "table1_fixture": _table1_fixture,
    "two_story_house": _two_story_house,
    "furniture_room": _furniture_room,
    "plaza_like": _plaza_like,
    "spiral_ramp": _spiral_ramp,
}
PRESET_NAMES = tuple(_PRESETS)


def preset(name: str, resolution: float = 0.2, rng_seed: int = 0) -> SceneSpec:
    """Named benchmark scene at the given resolution.

    Only furniture_room uses ``rng_seed`` (furniture placement); the other
    presets are fully fixed.
    """
    if name not in _PRESETS:
        raise SceneSpecError(f"unknown preset {name!r} (choose from {', '.join(PRESET_NAMES)})")
    build = _PRESETS[name]
    extent, prims, hint = build(rng_seed) if name == "furniture_room" else build()
    return SceneSpec(
        name=name,
        extent=extent,
        resolution=resolution,
        primitives=prims,
        rng_seed=rng_seed,
        seed_hint=hint,
    )


def sample_queries(
    surface: Surface, n: int, mode: str = "mixed", rng_seed: int = 0
) -> list[tuple[tuple[int, int, int], tuple[int, int, int]]]:
    """Deterministic start/goal pairs drawn from surface states.

    same_floor pairs satisfy |dz| <= step_voxels, cross_floor pairs
    |dz| >= clearance_voxels (different walkable levels by construction).
    mixed draws half cross_floor (rounded down), the rest same_floor.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if mode == "mixed":
        wanted = [("same_floor", n - n // 2), ("cross_floor", n // 2)]
    elif mode in ("same_floor", "cross_floor"):
        wanted = [(mode, n)]
    else:
        raise ValueError(f"unknown query mode {mode!r}")
    k = surface.params.step_voxels
    kc = surface.params.clearance_voxels
    if any(m == "cross_floor" and cnt > 0 for m, cnt in wanted) and surface.z_span() < kc:
        raise QuerySamplingError(
            f"insufficient floors for cross-floor queries: surface height span "
            f"{surface.z_span()} voxels < clearance_voxels {kc}"
        )
    if surface.size < 2:
        raise QuerySamplingError("insufficient states: need at least 2 surface states")

    zs = surface.states[:, 2]
    rng = np.random.default_rng(rng_seed)
    out = []
    for m, cnt in wanted:
        got = 0
        attempts = 0
        limit = 20000 * max(cnt, 1)
        while got < cnt:
            attempts += 1
            if attempts > limit:
                raise QuerySamplingError(
                    f"query sampling stalled: {got}/{cnt} {m} pairs after {limit} draws"
                )
            i, j = rng.integers(0, surface.size, size=2)
            if i == j:
                continue
            dz = abs(int(zs[i]) - int(zs[j]))
            if m == "same_floor" and dz > k:
                continue
            if m == "cross_floor" and dz < kc:
                continue
            out.append(
                (
                    tuple(int(c) for c in surface.states[i]),
                    tuple(int(c) for c in surface.states[j]),
                )
            )
            got += 1
    return out
