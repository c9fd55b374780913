"""Deterministic binary container for named arrays plus a JSON meta block.

Layout: 4-byte magic ``TJF1``, 8-byte little-endian header length, UTF-8 JSON
header, then the raw C-order bytes of each array in header order. Arrays are
stored little-endian ('<f8' / '<i8'), names sorted, JSON keys sorted: the
same content always produces the same bytes, which npz (embedded zip
timestamps) does not guarantee. Checkpoints and feature caches both use it.
"""

from __future__ import annotations

import json
import math
import os

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


def save_bundle(path, arrays: dict[str, np.ndarray], meta: dict | None = None) -> None:
    entries = []
    blobs = []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        dt = _storage_dtype(arr)
        entries.append({"name": name, "dtype": dt, "shape": list(arr.shape)})
        blobs.append(arr.astype(_DTYPES[dt], copy=False).tobytes(order="C"))
    header = json.dumps(
        {"format_version": FORMAT_VERSION, "meta": meta or {}, "arrays": entries},
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    with open(path, "wb") as f:
        f.write(MAGIC)
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for blob in blobs:
            f.write(blob)


def load_bundle(path, names=None) -> tuple[dict[str, np.ndarray], dict]:
    """Arrays and meta of a bundle; with ``names``, only those arrays are read
    (names the bundle lacks are left out) and the bytes of the others are
    skipped. A malformed bundle raises DataError naming the file."""
    with open(path, "rb") as f:
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
            if names is None or name in names:
                f.seek(offset)
                arrays[name] = np.frombuffer(f.read(nbytes), dtype=dt).reshape(shape).copy()
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
        if not isinstance(dtype, str) or dtype not in _DTYPES:
            raise DataError(f"{path}: array {name!r} has unknown dtype {dtype!r}")
        if min(shape, default=0) < 0:
            raise DataError(f"{path}: array {name!r} has negative shape {list(shape)}")
        out.append((name, _DTYPES[dtype], shape))
    return out
