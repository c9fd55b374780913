"""Semantic label maps for bird's-eye-view scenes.

A scene map is a per-pixel label grid over six ground classes plus the
meters-per-pixel scale. Maps are stored as 8-bit single-channel images,
either PGM (P5/P2) or non-interlaced grayscale PNG; pixel value v is the
label ordinal (0 = none). Both codecs live here so the package has no
imaging dependency and written bytes are reproducible.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

SEMANTIC_LABELS = ("none", "road", "sidewalk", "zebra_crossing", "vegetation", "parked_vehicle")
N_LABELS = len(SEMANTIC_LABELS)
LABEL_INDEX = {name: i for i, name in enumerate(SEMANTIC_LABELS)}


@dataclass
class SceneMap:
    scene_id: str
    labels: np.ndarray  # (height, width) uint8, values 0..5
    meters_per_pixel: float

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 2:
            raise DataError(f"scene map must be 2-D, got shape {self.labels.shape}")
        if self.meters_per_pixel <= 0:
            raise DataError(f"meters_per_pixel must be positive, got {self.meters_per_pixel}")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


def _check_label_range(pixels: np.ndarray, source) -> None:
    bad = np.argwhere(pixels >= N_LABELS)
    if len(bad):
        r, c = bad[0]
        raise DataError(
            f"{source}: pixel value {int(pixels[r, c])} at (x={int(c)}, y={int(r)}) "
            f"outside label range 0..{N_LABELS - 1}"
        )


def load_scene_map(label_image, meters_per_pixel: float, scene_id: str | None = None) -> SceneMap:
    """Read an 8-bit single-channel PGM or PNG label image."""
    path = Path(label_image)
    if not path.is_file():
        raise DataError(f"label map {path} does not exist")
    with open(path, "rb") as f:
        magic = f.read(2)
    if magic in (b"P5", b"P2"):
        pixels = read_pgm(path)
    elif magic == b"\x89P":
        pixels = read_png_gray(path)
    else:
        raise DataError(f"{path}: unrecognized image format (magic {magic!r})")
    _check_label_range(pixels, path)
    return SceneMap(scene_id or path.stem, pixels, float(meters_per_pixel))


# ---------------------------------------------------------------- PGM

def read_pgm(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    # header tokens: magic, width, height, maxval; '#' starts a comment
    tokens = []
    i = 0
    while len(tokens) < 4:
        if i >= len(data):
            raise DataError(f"{path}: truncated PGM header")
        ch = data[i : i + 1]
        if ch == b"#":
            while i < len(data) and data[i : i + 1] != b"\n":
                i += 1
        elif ch.isspace():
            i += 1
        else:
            j = i
            while j < len(data) and not data[j : j + 1].isspace():
                j += 1
            tokens.append(data[i:j])
            i = j
    magic = tokens[0]
    if magic not in (b"P5", b"P2"):
        raise DataError(f"{path}: unsupported PGM magic {magic!r}")
    w, h, maxval = (_pgm_int(path, t, "header value") for t in tokens[1:])
    if w < 1 or h < 1:
        raise DataError(f"{path}: bad PGM size {w}x{h}")
    if not 1 <= maxval <= 255:
        raise DataError(f"{path}: only 8-bit PGM supported (maxval {maxval})")
    if magic == b"P5":
        i += 1  # single whitespace after maxval
        raster = data[i : i + w * h]
        if len(raster) != w * h:
            raise DataError(f"{path}: truncated PGM raster")
        return np.frombuffer(raster, dtype=np.uint8).reshape(h, w).copy()
    values = data[i:].split()
    if len(values) != w * h:
        raise DataError(f"{path}: expected {w * h} PGM values, got {len(values)}")
    pixels = [_pgm_int(path, v, "pixel value") for v in values]
    if not all(0 <= v <= maxval for v in pixels):
        raise DataError(f"{path}: PGM pixel value outside 0..{maxval}")
    return np.array(pixels, dtype=np.uint8).reshape(h, w)


def _pgm_int(path, token: bytes, what: str) -> int:
    if not token.isdigit():
        raise DataError(f"{path}: bad PGM {what} {token!r}")
    return int(token)


def write_pgm(path, pixels: np.ndarray) -> None:
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(pixels.tobytes(order="C"))


# ---------------------------------------------------------------- PNG
# minimal grayscale-8 reader: IHDR/IDAT/IEND, filter types 0-4, no interlace

_PNG_SIG = b"\x89PNG\r\n\x1a\n"


def _paeth(a: int, b: int, c: int) -> int:
    p = a + b - c
    pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
    if pa <= pb and pa <= pc:
        return a
    return b if pb <= pc else c


def read_png_gray(path) -> np.ndarray:
    with open(path, "rb") as f:
        data = f.read()
    if data[:8] != _PNG_SIG:
        raise DataError(f"{path}: not a PNG file")
    pos = 8
    width = height = None
    idat = b""
    while pos < len(data):
        if pos + 12 > len(data):
            raise DataError(f"{path}: truncated PNG chunk at byte {pos}")
        (length,) = struct.unpack(">I", data[pos : pos + 4])
        kind = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        if len(payload) != length:
            raise DataError(f"{path}: truncated PNG chunk {kind!r} at byte {pos}")
        pos += 12 + length
        if kind == b"IHDR":
            if length != 13:
                raise DataError(f"{path}: IHDR chunk of {length} bytes, expected 13")
            width, height, bit_depth, color_type, _, _, interlace = struct.unpack(
                ">IIBBBBB", payload
            )
            if bit_depth != 8 or color_type != 0:
                raise DataError(
                    f"{path}: only 8-bit grayscale PNG supported "
                    f"(bit depth {bit_depth}, color type {color_type})"
                )
            if interlace != 0:
                raise DataError(f"{path}: interlaced PNG not supported")
        elif kind == b"IDAT":
            idat += payload
        elif kind == b"IEND":
            break
    if width is None:
        raise DataError(f"{path}: missing IHDR chunk")
    try:
        raw = zlib.decompress(idat)
    except zlib.error as exc:
        raise DataError(f"{path}: corrupt PNG image data ({exc})") from None
    stride = width + 1
    if len(raw) != stride * height:
        raise DataError(f"{path}: bad scanline data length {len(raw)}")
    out = np.zeros((height, width), dtype=np.uint8)
    prev = np.zeros(width, dtype=np.int32)
    for r in range(height):
        ftype = raw[r * stride]
        row = np.frombuffer(raw, dtype=np.uint8, count=width, offset=r * stride + 1).astype(
            np.int32
        )
        if ftype == 0:
            cur = row
        elif ftype == 2:  # up
            cur = (row + prev) & 0xFF
        elif ftype in (1, 3, 4):  # left-referencing filters need a scan
            cur = np.zeros(width, dtype=np.int32)
            for c in range(width):
                left = cur[c - 1] if c else 0
                up = prev[c]
                ul = prev[c - 1] if c else 0
                if ftype == 1:
                    cur[c] = (row[c] + left) & 0xFF
                elif ftype == 3:
                    cur[c] = (row[c] + (left + up) // 2) & 0xFF
                else:
                    cur[c] = (row[c] + _paeth(left, up, ul)) & 0xFF
        else:
            raise DataError(f"{path}: unknown PNG filter type {ftype} on row {r}")
        out[r] = cur.astype(np.uint8)
        prev = cur
    return out
