"""Trajectory ingestion: track parsing, resampling and window extraction.

Tracks files are UTF-8 CSV with a header and '.' decimal points. ``ADAPTERS``
declares every schema the loader reads: the canonical one, which
``write_tracks`` writes, and the ``dut`` and ``ind`` schemas of the
drone-recorded datasets. Velocity columns are required but discarded;
offsets are recomputed from positions downstream. Every track carries
pixels; the ``ind`` schema's are derived from the scene's meters_per_pixel.
A window is a start index into its pedestrian track (``extract_windows``).
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .maps import SceneMap, load_scene_map
from .serialize import atomic_open

AGENT_TYPES = ("pedestrian", "vehicle", "cyclist")


@dataclass(frozen=True)
class TrackSchema:
    """The columns a tracks-file schema must have and those each ``AgentTrack``
    field is read from. Times are ``time / fps``; type labels are looked up in
    ``types``, after ``strip().lower()`` when ``fold_labels``."""
    header: tuple[str, ...]
    scene: str | None                # scene-id column; None: the scene directory's name
    agent: str
    type: str
    types: dict[str, str]            # label -> agent type
    fold_labels: bool
    time: str
    fps: float
    meters: tuple[str, str]
    pixels: tuple[str, str] | None   # None: derived from meters_per_pixel


# every tracks schema the loaders accept, by adapter name
ADAPTERS = {
    "canonical": TrackSchema(
        ("scene_id", "agent_id", "agent_type", "t", "x_m", "y_m", "x_px", "y_px"),
        "scene_id", "agent_id", "agent_type", {t: t for t in AGENT_TYPES}, False,
        "t", 1.0, ("x_m", "y_m"), ("x_px", "y_px")),
    "dut": TrackSchema(
        ("id", "frame", "label", "x_est", "y_est", "vx_est", "vy_est", "x_px", "y_px"),
        None, "id", "label",
        {"pedestrian": "pedestrian", "ped": "pedestrian", "vehicle": "vehicle", "car": "vehicle"},
        True, "frame", 23.98, ("x_est", "y_est"), ("x_px", "y_px")),
    "ind": TrackSchema(
        ("trackId", "frame", "xCenter", "yCenter", "xVelocity", "yVelocity", "class"),
        None, "trackId", "class",
        {"pedestrian": "pedestrian", "car": "vehicle", "truck_bus": "vehicle",
         "bicycle": "cyclist"},
        True, "frame", 25.0, ("xCenter", "yCenter"), None),
}


@dataclass
class AgentTrack:
    agent_id: str
    agent_type: str
    t: np.ndarray            # (n,) seconds, strictly increasing
    xy_m: np.ndarray         # (n, 2) meters
    xy_px: np.ndarray        # (n, 2) pixels

    def __post_init__(self):
        if self.agent_type not in AGENT_TYPES:
            raise DataError(f"unknown agent type {self.agent_type!r} for agent {self.agent_id}")
        self.t = np.asarray(self.t, dtype=np.float64)
        for name in ("xy_m", "xy_px"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=np.float64))
            if getattr(self, name).shape != (len(self.t), 2):
                raise DataError(f"agent {self.agent_id}: {len(self.t)} times vs {name} "
                                f"of shape {getattr(self, name).shape}")
        if len(self.t) > 1 and not np.all(np.diff(self.t) > 0):
            raise DataError(f"agent {self.agent_id}: timestamps not strictly increasing")

    def __len__(self) -> int:
        return len(self.t)


@dataclass(frozen=True)
class WindowConfig:
    delta: int          # observed steps
    kappa: int          # predicted steps
    stride: int = 1
    rate_hz: float = 10.0

    def __post_init__(self):
        if self.delta < 2:
            raise ValueError(f"delta must be >= 2, got {self.delta}")
        if self.kappa < 1:
            raise ValueError(f"kappa must be >= 1, got {self.kappa}")
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")
        if not 0 < self.rate_hz < math.inf:
            raise ValueError(f"rate_hz must be positive and finite, got {self.rate_hz}")


@dataclass
class TrajectoryWindow:
    """Observed steps of one ego track, which ``build_features`` works over."""
    ego_id: str
    scene_id: str
    t_obs: np.ndarray     # (n,)
    obs_m: np.ndarray     # (n, 2)
    obs_px: np.ndarray    # (n, 2)


# ------------------------------------------------------------- loading

def _parse_float(value: str, path, row_no: int, col: str) -> float:
    """A finite float, or DataError naming the file, row and column."""
    try:
        parsed = float(value)
    except (TypeError, ValueError):
        raise DataError(f"{path} row {row_no}: bad {col} value {value!r}") from None
    if not math.isfinite(parsed):
        raise DataError(f"{path} row {row_no}: non-finite {col} value {value!r}")
    return parsed


def _file_id(value: str, where: str, what: str) -> str:
    """A scene or agent id, which output file names hold, or DataError at ``where``."""
    if value in ("", ".", "..") or "/" in value or "\0" in value:
        raise DataError(f"{where}: {what} {value!r} is not a plain file name")
    return value


def load_tracks(path, adapter: str, meters_per_pixel: float) -> tuple[list[AgentTrack], str]:
    """Parse one tracks file of an ``ADAPTERS`` schema into per-agent tracks
    plus the scene id. Rows must be in strictly increasing time order per
    agent (interleaving of agents is fine). A schema without pixel columns
    gets pixels of ``xy_m / meters_per_pixel``."""
    schema = ADAPTERS.get(adapter)
    if schema is None:
        raise DataError(f"unknown adapter {adapter!r}")
    path = Path(path)
    if not path.is_file():
        raise DataError(f"tracks file {path} does not exist")
    (mx, my), pixels = schema.meters, schema.pixels
    rows: dict[str, dict] = {}
    scene_id: str | None = None
    with open(path, newline="", encoding="utf-8") as f:
        records = _read_csv(path, f)
        header = next(records)
        missing = [c for c in schema.header if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing} for adapter {adapter!r}")
        for row_no, rec in enumerate(records, start=2):
            if None in rec.values():
                raise DataError(f"{path} row {row_no}: fewer than {len(header)} columns")
            if schema.scene is not None:
                sid = rec[schema.scene]
                if scene_id is None:
                    scene_id = _file_id(sid, f"{path} row {row_no}", schema.scene)
                elif sid != scene_id:
                    raise DataError(f"{path} row {row_no}: multiple scene ids ({scene_id!r}, {sid!r})")
            agent_id = _file_id(rec[schema.agent], f"{path} row {row_no}", schema.agent)
            label = rec[schema.type]
            agent_type = schema.types.get(label.strip().lower() if schema.fold_labels else label)
            if agent_type is None:
                raise DataError(f"{path} row {row_no}: unknown {schema.type} {label!r}")
            t = _parse_float(rec[schema.time], path, row_no, schema.time) / schema.fps
            xy_m = (_parse_float(rec[mx], path, row_no, mx), _parse_float(rec[my], path, row_no, my))
            if pixels is not None:
                px, py = pixels
                xy_px = (_parse_float(rec[px], path, row_no, px),
                         _parse_float(rec[py], path, row_no, py))

            bucket = rows.setdefault(agent_id, {"type": agent_type, "t": [], "m": [], "px": []})
            if bucket["type"] != agent_type:
                raise DataError(f"{path} row {row_no}: agent {agent_id} changes type")
            if bucket["t"] and t <= bucket["t"][-1]:
                raise DataError(
                    f"{path} row {row_no}: non-monotone timestamp for agent {agent_id} "
                    f"({t} after {bucket['t'][-1]})"
                )
            bucket["t"].append(t)
            bucket["m"].append(xy_m)
            if pixels is not None:
                bucket["px"].append(xy_px)

    if scene_id is None:
        # a schema with a scene column carries the id in-file; others take the scene dir's
        scene_id = "" if schema.scene is not None else path.parent.name
    tracks = []
    for agent_id, bucket in rows.items():
        xy_m = np.array(bucket["m"])
        xy_px = np.array(bucket["px"]) if pixels is not None else xy_m / meters_per_pixel
        tracks.append(AgentTrack(agent_id, bucket["type"], np.array(bucket["t"]), xy_m, xy_px))
    return tracks, scene_id


def _read_csv(path, f):
    """The header, then each row as a dict; undecodable or malformed CSV
    raises DataError."""
    reader = csv.DictReader(f)
    try:
        yield reader.fieldnames or []
        yield from reader
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: unreadable CSV near line {reader.line_num + 1} "
                        f"({exc})") from None


def write_tracks(path, tracks: list[AgentTrack], scene_id: str) -> None:
    """Write canonical CSV; floats use shortest round-trip formatting. The
    file is replaced atomically, so a failure leaves the previous one."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(ADAPTERS["canonical"].header)
        for track in tracks:
            for i in range(len(track)):
                writer.writerow(
                    [scene_id, track.agent_id, track.agent_type, repr(float(track.t[i])),
                     repr(float(track.xy_m[i, 0])), repr(float(track.xy_m[i, 1])),
                     repr(float(track.xy_px[i, 0])), repr(float(track.xy_px[i, 1]))]
                )


def validate_pixel_consistency(track: AgentTrack, meters_per_pixel: float, tol: float = 1e-6) -> None:
    err = np.max(np.abs(track.xy_m - track.xy_px * meters_per_pixel)) if len(track) else 0.0
    if err > tol:
        raise DataError(
            f"agent {track.agent_id}: meter/pixel coordinates disagree by {err:.3g} m "
            f"at meters_per_pixel={meters_per_pixel}"
        )


# ---------------------------------------------------------- resampling

def resample(track: AgentTrack, rate_hz: float) -> AgentTrack:
    """Resample onto the shared grid of multiples of 1/rate inside the
    track's span, so every agent of a scene is sampled at the same times.

    Positions are linearly interpolated between bracketing samples; no
    extrapolation. Grid points within 1e-9 s of an original sample reuse
    that sample exactly, so a track already on the grid passes through
    bit-identically.
    """
    if rate_hz <= 0:
        raise ValueError(f"rate_hz must be positive, got {rate_hz}")
    if len(track) < 2:
        raise DataError(f"agent {track.agent_id}: cannot resample a track with {len(track)} sample(s)")
    t0 = math.ceil(track.t[0] * rate_hz - 1e-9) / rate_hz
    span = float(track.t[-1]) - t0
    count = int(math.floor(span * rate_hz + 1e-9)) + 1
    if count < 1:
        raise DataError(f"agent {track.agent_id}: no grid points inside track span")
    grid = t0 + np.arange(count) / rate_hz

    # snap to original samples where they coincide with the grid
    idx = np.searchsorted(track.t, grid)
    snap = np.full(count, -1, dtype=np.int64)
    for cand in (np.clip(idx - 1, 0, len(track) - 1), np.clip(idx, 0, len(track) - 1)):
        hit = np.abs(track.t[cand] - grid) <= 1e-9
        snap[hit] = cand[hit]

    new_t = grid.copy()
    new_m = np.empty((count, 2))
    new_px = np.empty((count, 2))
    free = snap < 0
    if free.any():
        for k in range(2):
            new_m[free, k] = np.interp(grid[free], track.t, track.xy_m[:, k])
            new_px[free, k] = np.interp(grid[free], track.t, track.xy_px[:, k])
    hit = ~free
    if hit.any():
        new_t[hit] = track.t[snap[hit]]
        new_m[hit] = track.xy_m[snap[hit]]
        new_px[hit] = track.xy_px[snap[hit]]
    return AgentTrack(track.agent_id, track.agent_type, new_t, new_m, new_px)


# ------------------------------------------------------------- windows

def extract_windows(track: AgentTrack, cfg: WindowConfig) -> range:
    """Start indices of the stride-aligned (delta, kappa) windows of a
    pedestrian track; other agents and too-short tracks have none."""
    total = cfg.delta + cfg.kappa
    if track.agent_type != "pedestrian" or len(track) < total:
        return range(0)
    dt = np.diff(track.t)
    if np.any(np.abs(dt - 1.0 / cfg.rate_hz) > 1e-6):
        raise ValueError(f"agent {track.agent_id}: track is not resampled to {cfg.rate_hz} Hz")
    return range(0, len(track) - total + 1, cfg.stride)


# ---------------------------------------------------------- scene dirs

@dataclass
class Scene:
    scene_map: SceneMap
    tracks: list[AgentTrack]
    meta: dict


def read_key_values(path, error: type[Exception]) -> list[tuple[int, str, str]]:
    """(line number, key, value) of each ``key = value`` line of a UTF-8 file
    (config files and ``scene.meta``), both sides stripped, skipping blank
    and ``#`` lines. An unreadable file (missing, a directory, not UTF-8) or
    a line without ``=`` raises ``error`` naming the file and line."""
    try:
        with open(path, encoding="utf-8") as f:
            lines = f.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise error(f"{path}: cannot read ({exc})") from None
    entries = []
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise error(f"{path} line {line_no}: expected key=value, got {line!r}")
        key, value = line.split("=", 1)
        entries.append((line_no, key.strip(), value.strip()))
    return entries


def parse_scene_meta(path) -> dict:
    meta = {}
    for line_no, key, value in read_key_values(path, DataError):
        if key == "meters_per_pixel" and not _parse_float(value, path, line_no, key) > 0:
            raise DataError(f"{path} row {line_no}: meters_per_pixel must be positive, "
                            f"got {value!r}")
        if key == "scene_id":
            _file_id(value, f"{path} line {line_no}", key)
        meta[key] = value
    for key in ("scene_id", "meters_per_pixel", "label_map"):
        if key not in meta:
            raise DataError(f"{path}: missing key {key!r}")
    return meta


def scene_files(scene_dir) -> tuple[dict, tuple[Path, Path, Path]]:
    """A scene directory's parsed ``scene.meta`` and the files the scene is
    read from: ``scene.meta``, the label map and the tracks file."""
    scene_dir = Path(scene_dir)
    meta = parse_scene_meta(scene_dir / "scene.meta")
    return meta, (scene_dir / "scene.meta", scene_dir / meta["label_map"],
                  scene_dir / meta.get("tracks", "tracks.csv"))


def load_scene_dir(scene_dir, adapter: str = "canonical") -> Scene:
    """Load one scene directory: scene.meta + label map + tracks file."""
    return _load_scene(*scene_files(scene_dir), adapter)


def _scene_map(meta: dict, files: tuple[Path, Path, Path]) -> SceneMap:
    # meters_per_pixel was validated by parse_scene_meta
    return load_scene_map(files[1], float(meta["meters_per_pixel"]), scene_id=meta["scene_id"])


def _load_scene(meta: dict, files: tuple[Path, Path, Path], adapter: str) -> Scene:
    scene_map, tracks_path = _scene_map(meta, files), files[2]
    mpp = scene_map.meters_per_pixel
    tracks, file_scene_id = load_tracks(tracks_path, adapter, mpp)
    if ADAPTERS[adapter].scene is not None and file_scene_id and file_scene_id != meta["scene_id"]:
        raise DataError(
            f"{tracks_path}: scene id {file_scene_id!r} does not match meta {meta['scene_id']!r}"
        )
    for tr in tracks:
        validate_pixel_consistency(tr, mpp)
    return Scene(scene_map=scene_map, tracks=tracks, meta=meta)


def root_scenes(root) -> list[tuple[dict, tuple[Path, Path, Path]]]:
    """``scene_files`` of every scene subdirectory of a dataset root, sorted
    by name; two directories with one scene id are a DataError naming both."""
    root = Path(root)
    if not root.is_dir():
        raise DataError(f"dataset root {root} does not exist")
    scenes, dirs = [], {}
    for child in sorted(root.iterdir()):
        if child.is_dir() and (child / "scene.meta").exists():
            meta, files = scene_files(child)
            if (scene_id := meta["scene_id"]) in dirs:
                raise DataError(f"{dirs[scene_id]} and {child} both hold scene {scene_id!r}")
            dirs[scene_id] = child
            scenes.append((meta, files))
    return scenes


def load_dataset_root(root, adapter: str = "canonical") -> list[Scene]:
    """Load every scene subdirectory (sorted by name) under a dataset root."""
    return [_load_scene(meta, files, adapter) for meta, files in root_scenes(root)]


def scene_maps(scenes) -> dict[str, SceneMap]:
    """The label map of each of a root's ``root_scenes``, by scene id, read
    without its tracks file."""
    return {meta["scene_id"]: _scene_map(meta, files) for meta, files in scenes}


def root_digest(root, adapter: str, scenes=None) -> dict:
    """A root's content as caches and checkpoints record it: the adapter and, by
    scene id, a sha256 over the length and bytes of each of ``scene_files``.
    ``scenes`` is the root's ``root_scenes``, read here when not given."""
    digests = {}
    for meta, files in root_scenes(root) if scenes is None else scenes:
        digest = hashlib.sha256()
        for path in files:
            try:
                data = path.read_bytes()
            except OSError as exc:
                raise DataError(f"{path}: cannot read ({exc})") from None
            digest.update(len(data).to_bytes(8, "little") + data)
        digests[meta["scene_id"]] = digest.hexdigest()
    return {"adapter": adapter, "scenes": digests}
