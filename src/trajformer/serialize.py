"""Deterministic binary container for named arrays plus a JSON meta block.

Layout: 4-byte magic ``TJF1``, 8-byte little-endian header length, UTF-8 JSON
header, then the raw C-order bytes of each array in header order. Arrays are
stored little-endian ('<f8' / '<i8'), names sorted, JSON keys sorted: the
same content always produces the same bytes, which npz (embedded zip
timestamps) does not guarantee. Checkpoints and feature caches both use it.
Writes go through ``atomic_open``: a crash mid-write leaves the previous
file, never a partial one.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import contextmanager, suppress

import numpy as np

from .errors import DataError

MAGIC = b"TJF1"
FORMAT_VERSION = 1

_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def _storage_dtype(arr: np.ndarray) -> str:
    if arr.dtype.kind == "f":
        return "<f8"
    if arr.dtype.kind in "iub":
        return "<i8"
    raise ValueError(f"unsupported array dtype {arr.dtype}")


@contextmanager
def atomic_open(path, mode: str = "wb", **kwargs):
    """Open ``path`` for writing through a sibling ``.tmp`` file that replaces
    ``path`` only once the block completes; on any error the temporary file
    is removed and ``path`` is left as it was."""
    tmp = os.fspath(path) + ".tmp"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def save_bundle(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write the bundle atomically, streaming each array's bytes to the file."""
    names = sorted(arrays)
    entries = []
    for name in names:
        arr = np.atleast_1d(arrays[name])  # a 0-d array is stored as shape [1]
        entries.append({"name": name, "dtype": _storage_dtype(arr), "shape": list(arr.shape)})
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "meta": meta or {}, "arrays": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with atomic_open(path) as f:
        f.write(MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for name, entry in zip(names, entries):
            _write_array(f, arrays[name], entry["dtype"])


def _write_array(f, arr, dtype: str) -> None:
    # converts (and copies) only an array not already stored-layout C-order
    stored = np.ascontiguousarray(arr, dtype=_DTYPES[dtype])
    f.write(stored.reshape(-1).view(np.uint8))


def load_bundle(path, names=None, into=None) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and meta of a bundle; with ``names``, only those arrays are read
    (names the bundle lacks are left out) and the bytes of the others are
    skipped. ``into`` maps names to C-contiguous arrays of the stored shape
    and dtype to read those arrays into. A missing, unreadable or malformed
    bundle raises DataError naming the file."""
    into = into or {}
    try:
        f = open(path, "rb")
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc})") from None
    with f:
        size = os.fstat(f.fileno()).st_size
        magic = f.read(4)
        if magic != MAGIC:
            raise DataError(f"{path}: not a trajformer bundle (magic {magic!r})")
        header_len = int.from_bytes(f.read(8), "little")
        if 12 + header_len > size:
            raise DataError(f"{path}: header length {header_len} runs past the end of the file")
        try:
            header = json.loads(f.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise DataError(f"{path}: header is not UTF-8 JSON ({exc})") from None
        if not isinstance(header, dict):
            raise DataError(f"{path}: header is not a JSON object")
        if header.get("format_version") != FORMAT_VERSION:
            raise DataError(f"{path}: unsupported format version {header.get('format_version')}")
        if not isinstance(header.get("meta"), dict):
            raise DataError(f"{path}: header has no meta object")
        arrays = {}
        offset = 12 + header_len
        for name, dt, shape in _manifest(path, header):
            nbytes = math.prod(shape) * dt.itemsize
            if offset + nbytes > size:
                raise DataError(f"{path}: truncated array {name!r}")
            if names is None or name in names or name in into:
                out = into[name] if name in into else np.empty(shape, dt)
                if out.shape != shape or out.dtype != dt:
                    raise DataError(f"{path}: array {name!r} is {dt.str} {list(shape)}, "
                                    f"expected {out.dtype.str} {list(out.shape)}")
                f.seek(offset)
                if f.readinto(out) != nbytes:
                    raise DataError(f"{path}: truncated array {name!r}")
                arrays[name] = out
            offset += nbytes
    return arrays, header["meta"]


def _manifest(path, header: dict) -> list[tuple[str, np.dtype, tuple]]:
    """(name, dtype, shape) of each array, in file order."""
    try:
        entries = [(e["name"], e["dtype"], tuple(int(n) for n in e["shape"]))
                   for e in header["arrays"]]
    except (KeyError, TypeError, ValueError):
        raise DataError(f"{path}: malformed array manifest in header") from None
    out = []
    for name, dtype, shape in entries:
        if not isinstance(name, str):
            raise DataError(f"{path}: array name {name!r} is not a string")
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise DataError(f"{path}: array {name!r} has unknown dtype {dtype!r}")
        if min(shape, default=0) < 0:
            raise DataError(f"{path}: array {name!r} has negative shape {list(shape)}")
        out.append((name, _DTYPES[dtype], shape))
    return out
