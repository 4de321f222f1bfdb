"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes, so keep the split between input
problems (bad files, bad specs) and pipeline problems (snap failures,
endpoints off the surface) intact. The readers at the end open a JSON input
file and check the values read from it: each takes the error class to
raise, and returns what it read, checked and converted.
"""

from __future__ import annotations

import json
import numbers
import sys
from functools import cache, partial
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

__all__ = [
    "SurfnavError",
    "EmptyInputError",
    "InvalidPointError",
    "GridFormatError",
    "SurfaceFormatError",
    "NoCandidatesError",
    "SeedSnapError",
    "InvalidSeedError",
    "OffSurfaceError",
    "NoPathError",
    "SceneSpecError",
    "QuerySamplingError",
]


class SurfnavError(Exception):
    """Base class for all package errors."""


class EmptyInputError(SurfnavError):
    """An input collection (point cloud, candidate set) was empty."""


class InvalidPointError(SurfnavError):
    """A coordinate was non-finite or malformed."""


class GridFormatError(SurfnavError):
    """A grid file failed structural validation.

    ``offset`` is the byte offset of the first offending field.
    """

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class SurfaceFormatError(SurfnavError):
    """A surface file failed structural validation."""


class NoCandidatesError(SurfnavError):
    """No standing voxel survived the geometric filters."""


class SeedSnapError(SurfnavError):
    """The nearest candidate was farther than the allowed snap radius.

    ``distance`` is the world distance to that nearest candidate.
    """

    def __init__(self, message: str, distance: float):
        super().__init__(message)
        self.distance = distance


class InvalidSeedError(SurfnavError):
    """A seed voxel is not a member of the candidate set."""


class OffSurfaceError(SurfnavError):
    """A query endpoint is not a state of the surface."""


class NoPathError(SurfnavError):
    """No path connects the endpoints: a guard on the search and the path
    walk, as the seed of a surface reaches every state."""


class SceneSpecError(SurfnavError):
    """A scene spec is malformed: unknown preset, out-of-bounds primitive."""


class QuerySamplingError(SurfnavError):
    """The requested query mix cannot be drawn from this surface."""


def _read_json(source, what: str, fmt: str, version: int, error) -> dict:
    """The JSON object in ``source``, a path or an open file, whose "format"
    is ``fmt`` and "version" is ``version``; ``what`` names the file."""
    text = source.read() if hasattr(source, "read") else Path(source).read_text()
    try:
        doc = json.loads(text)
    except ValueError as exc:
        raise error(f"not a {what}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != fmt:
        raise error(f"not a {what}: missing format marker")
    if doc.get("version") != version:
        raise error(f"unsupported {what} version {doc.get('version')!r}, not {version}")
    return doc


def _number(value, field: str, error) -> float:
    """``value`` as a float: a finite number, never a boolean."""
    # float and int first: the abstract class checks slowly. The bound is
    # exact for an integer beyond the float range, and False for NaN.
    if isinstance(value, bool) or not (isinstance(value, (float, int, numbers.Real))
                                       and abs(value) <= sys.float_info.max):
        raise error(f"{field} must be a finite number, got {value!r}")
    return float(value)


def _integer(value, field: str, error) -> int:
    """``value`` as an int: an integer, never a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, numbers.Integral)):
        raise error(f"{field} must be an integer, got {value!r}")
    return int(value)


def _string(value, field: str, error) -> str:
    if not isinstance(value, str):
        raise error(f"{field} must be a string, got {value!r}")
    return value


def _list(value, field: str, error, read, length=...) -> tuple:
    """``value`` as a tuple: a list of ``length`` items (any number for
    ``...``), each taken by ``read`` as ``field item``."""
    if not isinstance(value, (list, tuple)) or length is not ... and len(value) != length:
        count = "any number of" if length is ... else length
        raise error(f"{field} must be a list of {count} items, got {value!r}")
    item = f"{field} item"
    return tuple([read(v, item, error) for v in value])


@cache
def _readers(cls) -> tuple:
    """(field, reader) for every field of the dataclass ``cls``, from its
    annotations: float, int, str, object (taken as it is), a tuple of one
    item type (fixed length or ``...``) and ``X | None``."""

    def reader(hint):
        args = get_args(hint)
        if type(None) in args:  # X | None
            (read,) = (reader(a) for a in args if a is not type(None))
            return lambda value, field, error: None if value is None else read(value, field, error)
        if get_origin(hint) is tuple:
            length = ... if args[-1] is ... else len(args)
            return partial(_list, read=reader(args[0]), length=length)
        return {float: _number, int: _integer, str: _string, object: lambda v, f, e: v}[hint]

    return tuple((f, reader(hint)) for f, hint in get_type_hints(cls).items())
