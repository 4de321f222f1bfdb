"""Corrupted input files end in a typed error, never a traceback or a lie.

``table1_fixture`` grid and surface files are corrupted field by field
(a JSON value or a header field replaced, a key dropped) and byte by byte
(bytes replaced, inserted or deleted, the file cut short), and its scene
spec field by field, then run through ``cli.main`` in-process:
``extract`` reads the grid, ``plan`` reads the surface and ``scenegen``
reads the spec. Every run must exit 0, 1 or 2 without a traceback, and
exit 0 only with a surface or grid file that ``load_surface`` or
``load_grid`` accepts.
"""

import contextlib
import io
import json
import math
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surfnav import load_grid, load_surface, preset, save_scene_spec
from surfnav.cli import EXIT_INPUT, EXIT_OK, EXIT_PIPELINE, main

SEED_POS = "8.6,8.6,1.1"
GOAL_POS = "2.0,2.0,1.1"
FIELD_EXAMPLES = 60
BYTE_EXAMPLES = 60

json_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.integers(-3, 60)
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    grid, surface = d / "room.grid", d / "room.json"
    assert main(["scenegen", "--preset", "table1_fixture", str(grid)]) == EXIT_OK
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["extract", str(grid), str(surface), "--seed-pos", SEED_POS]) == EXIT_OK
    save_scene_spec(preset("table1_fixture"), d / "room.spec.json")
    return {"dir": d, "grid": grid.read_bytes(), "surface": surface.read_bytes(),
            "spec": (d / "room.spec.json").read_text()}


def run_cli(argv):
    """Exit code and stderr of one in-process run; an exception escaping
    ``main`` fails the test as it is."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def check_extract(d, grid_bytes):
    grid, out = d / "bad.grid", d / "out.json"
    grid.write_bytes(grid_bytes)
    out.unlink(missing_ok=True)
    code, err = run_cli(["extract", str(grid), str(out), "--seed-pos", SEED_POS])
    assert "Traceback" not in err, err
    assert code in (EXIT_OK, EXIT_PIPELINE, EXIT_INPUT), err
    if code == EXIT_OK:
        load_surface(out)
    else:
        assert err.startswith("error:"), err


def check_plan(d, surface_bytes):
    surface, out = d / "bad.json", d / "path.xyz"
    surface.write_bytes(surface_bytes)
    code, err = run_cli(["plan", str(surface), str(out), "--start", SEED_POS, "--goal", GOAL_POS])
    assert "Traceback" not in err, err
    assert code in (EXIT_OK, EXIT_PIPELINE, EXIT_INPUT), err
    if code == EXIT_OK:
        load_surface(surface)
    else:
        assert err.startswith("error:"), err


def corrupt_bytes(data: bytes, edits, cut) -> bytes:
    """Apply (position, kind, byte) edits, positions taken modulo the
    current length, then keep the first ``cut`` share of the bytes."""
    buf = bytearray(data)
    for pos, kind, byte in edits:
        i = pos % max(len(buf), 1)
        if kind == "replace" and buf:
            buf[i] = byte
        elif kind == "insert":
            buf.insert(i, byte)
        elif kind == "delete" and buf:
            del buf[i]
    return bytes(buf[: math.ceil(len(buf) * cut)])


byte_edits = st.lists(
    st.tuples(
        # half of the edits land in the first 64 bytes: the grid header and
        # the surface's leading fields
        st.integers(0, 63) | st.integers(0, 2**31),
        st.sampled_from(["replace", "insert", "delete"]),
        st.integers(0, 255),
    ),
    min_size=1,
    max_size=4,
)
cuts = st.just(1.0) | st.floats(0.0, 1.0)


@settings(max_examples=BYTE_EXAMPLES)
@given(edits=byte_edits, cut=cuts)
def test_grid_bytes(files, edits, cut):
    check_extract(files["dir"], corrupt_bytes(files["grid"], edits, cut))


@settings(max_examples=BYTE_EXAMPLES)
@given(edits=byte_edits, cut=cuts)
def test_surface_bytes(files, edits, cut):
    check_plan(files["dir"], corrupt_bytes(files["surface"], edits, cut))


# magic, version, Nx, Ny, Nz, resolution, origin: the grid header's fields
GRID_FIELDS = [
    (0, "4s", st.binary(min_size=4, max_size=4)),
    (4, "<I", st.integers(0, 2**32 - 1)),
    (8, "<I", st.integers(0, 2**32 - 1) | st.integers(0, 200)),
    (12, "<I", st.integers(0, 2**32 - 1) | st.integers(0, 200)),
    (16, "<I", st.integers(0, 2**32 - 1) | st.integers(0, 200)),
    (20, "<d", st.floats(allow_nan=True, allow_infinity=True)),
    (28, "<d", st.floats(allow_nan=True, allow_infinity=True)),
    (36, "<d", st.floats(allow_nan=True, allow_infinity=True)),
    (44, "<d", st.floats(allow_nan=True, allow_infinity=True)),
]


@st.composite
def grid_field_edits(draw):
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        offset, fmt, values = draw(st.sampled_from(GRID_FIELDS))
        edits.append((offset, fmt, draw(values)))
    return edits


@settings(max_examples=FIELD_EXAMPLES)
@given(edits=grid_field_edits())
def test_grid_fields(files, edits):
    data = bytearray(files["grid"])
    for offset, fmt, value in edits:
        struct.pack_into(fmt, data, offset, value)
    check_extract(files["dir"], bytes(data))


@st.composite
def surface_field_edits(draw):
    """Paths into the surface document and what to do there: set a value,
    drop the key or entry, or append to the list found there."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([
            ("format",), ("version",), ("resolution",), ("origin",), ("origin", 1),
            ("dims",), ("dims", 2), ("seed",), ("seed", 0), ("params",),
            ("params", "step_voxels"), ("params", "clearance_voxels"),
            ("params", "inflation_voxels"), ("params", "step_height"),
            ("params", "clearance_height"), ("params", "inflation_radius"),
            ("states",), ("states", "any"), ("states", "any", "any"),
        ]))
        action = draw(st.sampled_from(["set", "set", "drop", "append"]))
        value = draw(json_values | st.lists(st.integers(-3, 60), min_size=3, max_size=3))
        index = draw(st.integers(0, 2**31))
        edits.append((path, action, value, index))
    return edits


def _key(node, key, index):
    """``key`` as an index into ``node``, "any" picking a list entry by
    ``index``; None where ``node`` has no such place."""
    if isinstance(node, list) and node:
        key = index % len(node) if key == "any" else key
        return key if isinstance(key, int) and key < len(node) else None
    return key if isinstance(node, dict) and isinstance(key, str) else None


def edit_document(doc, path, action, value, index):
    """Set, drop or append to what ``path`` names in ``doc``. A path that an
    earlier edit took away is left alone."""
    parent = doc
    for key in path[:-1]:
        key = _key(parent, key, index)
        if key is None or (isinstance(parent, dict) and key not in parent):
            return
        parent = parent[key]
    key = _key(parent, path[-1], index)
    if key is None:
        return
    if action == "drop":
        if isinstance(parent, list) or key in parent:
            del parent[key]
    elif action == "append":
        target = parent.get(key) if isinstance(parent, dict) else parent[key]
        if isinstance(target, list):
            target.append(value)
    else:
        parent[key] = value


@settings(max_examples=FIELD_EXAMPLES)
@given(edits=surface_field_edits())
def test_surface_fields(files, edits):
    doc = json.loads(files["surface"])
    for edit in edits:
        edit_document(doc, *edit)
    check_plan(files["dir"], json.dumps(doc).encode())


# Resolutions SceneSpec must refuse: a tiny positive one would rasterize
# billions of voxels in-process.
bad_resolutions = (
    st.floats(max_value=0.0) | st.sampled_from([math.nan, math.inf]) | st.none()
    | st.text(max_size=4) | st.lists(st.floats(0.1, 1.0), max_size=2)
)
# Extents up to 40 m keep the grid within 200**3 = 8e6 voxels at 0.2 m.
extents = st.floats(-1.0, 40.0) | st.sampled_from([math.nan, math.inf, 1e308])
# Primitive numbers: small integers keep staircases short.
spec_numbers = (
    st.floats(-20.0, 20.0) | st.integers(-3, 60) | st.floats(allow_nan=True, allow_infinity=True)
)
spec_junk = st.none() | st.booleans() | st.text(max_size=4) | st.dictionaries(
    st.text(max_size=3), spec_numbers, max_size=2)
spec_values = spec_junk | spec_numbers | st.lists(spec_numbers | spec_junk, max_size=4)
PRIMITIVE_FIELDS = [
    "type", "name", "region", "z", "thickness", "height", "z0", "z1", "origin",
    "direction", "tread_depth", "width", "riser", "steps", "top_z", "top_thickness",
    "base_z", "leg_size", "legs", "underside_z", "floor_z", "ceiling_z", "shell_thickness",
]


@st.composite
def spec_field_edits(draw):
    """Edits as in :func:`surface_field_edits`, over the scene spec."""
    edits = []
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from([
            ("format",), ("version",), ("name",), ("rng_seed",), ("resolution",),
            ("extent",), ("extent", "any"), ("seed_hint",), ("seed_hint", "any"),
            ("primitives",), ("primitives", "any"),
        ]) | st.sampled_from(PRIMITIVE_FIELDS).map(lambda f: ("primitives", "any", f))
          | st.sampled_from(["region", "origin", "legs"]).map(
              lambda f: ("primitives", "any", f, "any")))
        action = draw(st.sampled_from(["set", "set", "drop", "append"]))
        if path == ("resolution",):
            value = draw(bad_resolutions)
        elif path[0] == "extent":
            value = draw(extents if len(path) == 2 else st.lists(extents, max_size=4) | spec_junk)
        else:
            value = draw(spec_values)
        index = draw(st.integers(0, 2**31))
        edits.append((path, action, value, index))
    return edits


@settings(max_examples=FIELD_EXAMPLES)
@given(edits=spec_field_edits())
def test_scene_spec_fields(files, edits):
    doc = json.loads(files["spec"])
    for edit in edits:
        edit_document(doc, *edit)
    d = files["dir"]
    spec, grid = d / "bad.spec.json", d / "out.grid"
    spec.write_text(json.dumps(doc))
    grid.unlink(missing_ok=True)
    code, err = run_cli(["scenegen", "--spec", str(spec), str(grid)])
    assert "Traceback" not in err, err
    assert code in (EXIT_OK, EXIT_PIPELINE, EXIT_INPUT), err
    if code == EXIT_OK:
        load_grid(grid)
    else:
        assert err.startswith("error:"), err
