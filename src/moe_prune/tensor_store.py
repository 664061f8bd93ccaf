"""Manifest-plus-blob archive format shared by every pipeline stage.

An archive is a pair of files: ``<path>.json`` holds a manifest (array
names, shapes, dtypes, byte ranges, and a free-form string metadata map)
and ``<path>.bin`` holds the raw little-endian values concatenated in
manifest order. The manifest is validated before any array data is
returned, so a truncated or inconsistent blob never yields partial
results. Identical inputs produce byte-identical files.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping

import numpy as np

from . import _staged

FORMAT_VERSION = 1

_DTYPES = {
    "f32": np.dtype("<f4"),
    "f64": np.dtype("<f8"),
    "i32": np.dtype("<i4"),
    "i64": np.dtype("<i8"),
}
_TAGS = {(dtype.kind, dtype.itemsize): tag for tag, dtype in _DTYPES.items()}


class ArchiveError(ValueError):
    """A malformed archive or a violated manifest invariant."""


@dataclass(frozen=True)
class ArrayEntry:
    name: str
    shape: tuple[int, ...]
    dtype: str
    offset: int
    length: int


@dataclass
class Manifest:
    format_version: int = FORMAT_VERSION
    arrays: list[ArrayEntry] = field(default_factory=list)
    metadata: dict[str, str] = field(default_factory=dict)

    def validate(self, blob_size: int) -> None:
        """Check every manifest invariant against a blob of `blob_size` bytes."""
        if self.format_version != FORMAT_VERSION:
            raise ArchiveError(
                f"unknown format_version {self.format_version!r} (expected {FORMAT_VERSION})"
            )
        seen: set[str] = set()
        for entry in self.arrays:
            if entry.name in seen:
                raise ArchiveError(f"duplicate array name {entry.name!r}")
            seen.add(entry.name)
            if entry.dtype not in _DTYPES:
                raise ArchiveError(f"array {entry.name!r}: unknown dtype {entry.dtype!r}")
            if any(int(dim) < 0 for dim in entry.shape):
                raise ArchiveError(f"array {entry.name!r}: negative dimension in {entry.shape}")
            expected = int(math.prod(entry.shape)) * _DTYPES[entry.dtype].itemsize
            if entry.length != expected:
                raise ArchiveError(
                    f"array {entry.name!r}: length {entry.length} != "
                    f"product(shape) * itemsize = {expected}"
                )
            if entry.offset < 0 or entry.offset + entry.length > blob_size:
                raise ArchiveError(
                    f"array {entry.name!r}: region [{entry.offset}, "
                    f"{entry.offset + entry.length}) outside blob of {blob_size} bytes"
                )
        ordered = sorted(self.arrays, key=lambda e: e.offset)
        for prev, cur in zip(ordered, ordered[1:]):
            if prev.offset + prev.length > cur.offset:
                raise ArchiveError(
                    f"array {cur.name!r}: region overlaps array {prev.name!r}"
                )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "Manifest":
        """Parse a manifest; a field of the wrong JSON type is an ArchiveError that names it."""
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ArchiveError(f"manifest is not valid JSON: {exc}") from exc
        _typed(doc, dict, "manifest root")
        arrays = []
        for i, item in enumerate(_field(doc, "arrays", list)):
            where = f"arrays[{i}]"
            _typed(item, dict, where)
            arrays.append(ArrayEntry(
                name=_field(item, "name", str, where),
                shape=tuple(_field(item, "shape", list, where, items=int)),
                dtype=_field(item, "dtype", str, where),
                offset=_field(item, "offset", int, where),
                length=_field(item, "length", int, where),
            ))
        metadata = _field(doc, "metadata", dict, optional=True) or {}
        for key, value in metadata.items():
            _typed(value, str, f"metadata[{key!r}]")
        return cls(_field(doc, "format_version", int), arrays, metadata)


_JSON_TYPES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _typed(value, kind: type, name: str):
    """`value` if it is a `kind` (a bool is no integer); else an ArchiveError naming `name`."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ArchiveError(f"{name} must be {_JSON_TYPES[kind]}, not {json.dumps(value)[:40]}")


def _field(
    doc: dict, key: str, kind: type, where: str = "", optional: bool = False,
    items: type | None = None,
):
    """`doc[key]`, type-checked as `_typed` checks it, and with `items` each of
    its items too; None when `optional` and it is missing or null."""
    name = f"{where}.{key}" if where else key
    if key not in doc and not optional:
        raise ArchiveError(f"{name} is missing")
    value = doc.get(key)
    if value is None and optional:
        return None
    _typed(value, kind, name)
    if items is not None:
        for i, item in enumerate(value):
            _typed(item, items, f"{name}[{i}]")
    return value


@contextlib.contextmanager
def _naming(source: str):
    """Re-raises a ValueError as an ArchiveError that starts with `source`."""
    try:
        yield
    except ValueError as exc:
        raise ArchiveError(f"{source}: {exc}") from exc


def _coerce(name: str, array: np.ndarray) -> tuple[np.ndarray, str]:
    arr = np.asarray(array)
    tag = _TAGS.get((arr.dtype.kind, arr.dtype.itemsize))
    if tag is None:
        raise ArchiveError(f"array {name!r}: unsupported dtype {arr.dtype}")
    return arr.astype(_DTYPES[tag], copy=False), tag


def write_archive(
    path: str | os.PathLike,
    arrays: Mapping[str, np.ndarray] | Iterable[tuple[str, np.ndarray]],
    metadata: Mapping[str, str] | None = None,
) -> Manifest:
    """Write ``<path>.json`` + ``<path>.bin`` atomically and return the manifest.

    Arrays are stored in the given order, little-endian, each at its own
    dtype (f32, f64, i32 or i64) and bit for bit, NaN and infinities
    included; other dtypes are rejected up front.
    """
    pairs = list(arrays.items()) if isinstance(arrays, Mapping) else list(arrays)
    names = [name for name, _ in pairs]
    if len(set(names)) != len(names):
        dup = next(n for i, n in enumerate(names) if n in names[:i])
        raise ArchiveError(f"array name collision: {dup!r}")

    entries: list[ArrayEntry] = []
    chunks: list[bytes] = []
    offset = 0
    for name, array in pairs:
        data, dtype = _coerce(name, array)
        raw = data.tobytes(order="C")
        entries.append(ArrayEntry(name, tuple(data.shape), dtype, offset, len(raw)))
        chunks.append(raw)
        offset += len(raw)

    metadata = {str(k): str(v) for k, v in (metadata or {}).items()}
    manifest = Manifest(arrays=entries, metadata=metadata)  # valid by construction

    # Both files are written in a stage beside `path` and committed blob
    # first, so no manifest names a blob that is not complete.
    directory, name = os.path.split(os.path.abspath(path))
    with _staged(directory) as stage:
        with open(os.path.join(stage, name + ".bin"), "wb") as fh:
            for raw in chunks:
                fh.write(raw)
        with open(os.path.join(stage, name + ".json"), "w", encoding="utf-8") as fh:
            fh.write(manifest.to_json())
    return manifest


def read_archive(
    path: str | os.PathLike, kind: str | None = None
) -> tuple[Manifest, dict[str, np.ndarray]]:
    """Read a manifest+blob pair; validates before reconstructing any array.

    Given `kind`, the manifest's ``kind`` metadata must equal it.
    """
    path = os.fspath(path)
    manifest_path, blob_path = path + ".json", path + ".bin"
    for required in (manifest_path, blob_path):
        if not os.path.exists(required):
            raise FileNotFoundError(f"archive file missing: {required}")

    with _naming(f"archive {manifest_path}"):
        with open(manifest_path, "r", encoding="utf-8") as fh:
            manifest = Manifest.from_json(fh.read())
        if kind is not None and manifest.metadata.get("kind") != kind:
            raise ArchiveError(f"does not hold a {kind}")
        manifest.validate(os.path.getsize(blob_path))

    with open(blob_path, "rb") as fh:
        blob = fh.read()

    out: dict[str, np.ndarray] = {}
    for entry in manifest.arrays:
        raw = blob[entry.offset : entry.offset + entry.length]
        arr = np.frombuffer(raw, dtype=_DTYPES[entry.dtype]).reshape(entry.shape)
        out[entry.name] = arr.copy()
    return manifest, out
