"""The three contextual channels fused into per-step feature vectors.

Per observed step the feature vector is

    offset (2)  ⊕  polar occupancy counts (R*A*C)  ⊕  semantic histogram (6)

evaluated at the later endpoint of each offset interval. Offsets are in
meters; the occupancy grid and the k-NN semantics work in the pixel frame
because their thresholds are given in pixels. The angular reference of the
grid is the scene x-axis (heading from noisy offsets is ill-defined when
the pedestrian stands still).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AgentTrack, TrajectoryWindow, check_setting
from .maps import N_LABELS, SceneMap

AGENT_CHANNEL = {"pedestrian": 0, "vehicle": 1, "cyclist": 2}


@dataclass(frozen=True)
class PolarGridConfig:
    threshold_px: float = 64.0   # outer radius; boundary inclusive
    radial_bins: int = 4
    angular_bins: int = 8
    type_channels: int = 3       # 3 = one per agent type, 1 = all types pooled

    def __post_init__(self):
        for name, low in (("threshold_px", None), ("radial_bins", 1), ("angular_bins", 1),
                          ("type_channels", 1)):
            check_setting(self, name, low)
        if self.type_channels not in (1, 3):
            raise ValueError(f"type_channels must be 1 or 3, got {self.type_channels}")

    @property
    def n_cells(self) -> int:
        return self.radial_bins * self.angular_bins * self.type_channels


@dataclass(frozen=True)
class SemanticConfig:
    k: int = 16            # neighbour pixel count
    d_max_px: float = 32.0  # search radius

    def __post_init__(self):
        check_setting(self, "k", 1)
        check_setting(self, "d_max_px")


def feature_dim(pg: PolarGridConfig, sc: SemanticConfig, context: bool = True) -> int:
    return 2 + pg.n_cells + N_LABELS if context else 2


def compute_offsets(positions: np.ndarray) -> np.ndarray:
    """Consecutive displacements: out[i] = positions[i+1] - positions[i]."""
    positions = np.asarray(positions, dtype=np.float64)
    if len(positions) < 2:
        raise ValueError(f"need >= 2 positions for offsets, got {len(positions)}")
    return np.diff(positions, axis=0)


def polar_occupancy(
    ego_px: np.ndarray,
    neighbors: list[tuple[np.ndarray, str]],
    cfg: PolarGridConfig,
) -> np.ndarray:
    """Count neighbors into an (R, A, C) polar grid centred on the ego.

    ``ego_px`` is one position (2,) or the positions of N steps (N, 2).
    Each neighbor is ``(position, agent type)`` with a position of the
    same shape as ``ego_px``; a row of NaN marks a step at which that
    neighbor is absent. Returns (R, A, C), or (N, R, A, C) for N steps,
    counted over every present (step, neighbor) pair at once.

    Radial bin i spans [i*th/R, (i+1)*th/R); distance exactly th lands in
    the outermost bin. Angles from atan2 are mapped into [0, 2pi) against
    the scene x-axis. Neighbors beyond th contribute nothing.
    """
    ego = np.asarray(ego_px, dtype=np.float64)
    steps = ego.reshape(-1, 2)
    grid = np.zeros((len(steps), cfg.radial_bins, cfg.angular_bins, cfg.type_channels))
    if neighbors:
        pos = np.stack([np.asarray(p, dtype=np.float64).reshape(len(steps), 2)
                        for p, _ in neighbors])
        chans = np.array([0 if cfg.type_channels == 1 else AGENT_CHANNEL[agent_type]
                          for _, agent_type in neighbors])
        who, step = np.nonzero(~np.isnan(pos[:, :, 0]))
        dx = pos[who, step, 0] - steps[step, 0]
        dy = pos[who, step, 1] - steps[step, 1]
        d = np.hypot(dx, dy)
        r_bin = np.minimum(np.floor(d * cfg.radial_bins / cfg.threshold_px),
                           cfg.radial_bins - 1).astype(np.intp)
        ang = np.arctan2(dy, dx) % (2.0 * np.pi)
        a_bin = np.minimum(np.floor(ang * cfg.angular_bins / (2.0 * np.pi)),
                           cfg.angular_bins - 1).astype(np.intp)
        near = d <= cfg.threshold_px
        np.add.at(grid, (step[near], r_bin[near], a_bin[near], chans[who[near]]), 1.0)
    return grid.reshape(ego.shape[:-1] + grid.shape[1:])


# stencil cells held at once by the k-NN search: bounds its scratch memory
_STENCIL_CHUNK_CELLS = 1 << 16


def semantic_histogram(pos_px: np.ndarray, scene: SceneMap, cfg: SemanticConfig) -> np.ndarray:
    """Label histogram of the k nearest pixels within d_max of each position.

    ``pos_px`` is one position (2,) or N of them (N, 2); the result is (6,)
    or (N, 6). Positions outside the map are clamped to the border first.
    Distance ties break by row-major pixel order. Fewer than k qualifying
    pixels means all of them are used; zero qualifying pixels yields a
    one-hot "none". Each histogram is normalized to sum 1.

    The k nearest pixels are searched first in a small square stencil
    around each position, sized to hold about k pixels of the disk. A
    position whose k-th distance there is nearer than any pixel outside
    the stencil is done; the others are searched again in a stencil that
    covers the whole d_max disk.
    """
    pos = np.asarray(pos_px, dtype=np.float64)
    h, w = scene.labels.shape
    x = np.clip(pos[..., 0].reshape(-1), 0.0, float(w - 1))
    y = np.clip(pos[..., 1].reshape(-1), 0.0, float(h - 1))
    full = int(np.ceil(cfg.d_max_px)) + 1
    radius = min(int(np.ceil(np.sqrt(cfg.k / np.pi))) + 2, full)
    counts, decided = _nearest_label_counts(x, y, scene.labels, cfg, radius)
    redo = np.flatnonzero(~decided)
    if len(redo):
        counts[redo] = _nearest_label_counts(x[redo], y[redo], scene.labels, cfg, full)[0]
    hist = counts.astype(np.float64)
    hist[counts.sum(axis=1) == 0, 0] = 1.0
    hist /= hist.sum(axis=1, keepdims=True)
    return hist.reshape(pos.shape[:-1] + (N_LABELS,))


def _nearest_label_counts(x, y, labels, cfg, radius):
    """Per position, the label counts of its k nearest pixels within d_max
    among the (2*radius+1)^2 pixels centred on its nearest pixel, and
    whether those are its k nearest in the whole map."""
    h, w = labels.shape
    offsets = np.arange(-radius, radius + 1)
    side = len(offsets)
    take = min(cfg.k, side * side)
    d_max2 = cfg.d_max_px * cfg.d_max_px
    counts = np.zeros((len(x), N_LABELS), dtype=np.intp)
    kth = np.empty(len(x))
    chunk = max(1, _STENCIL_CHUNK_CELLS // (side * side))
    for lo in range(0, len(x), chunk):
        xs, ys = x[lo : lo + chunk], y[lo : lo + chunk]
        n = len(xs)
        cols = np.rint(xs).astype(np.intp)[:, None] + offsets  # (n, side)
        rows = np.rint(ys).astype(np.intp)[:, None] + offsets
        # (n, row, col): the expression of a whole-map search, pixel for pixel
        d2 = ((cols[:, None, :].astype(np.float64) - xs[:, None, None]) ** 2
              + (rows[:, :, None].astype(np.float64) - ys[:, None, None]) ** 2)
        on_map = (((rows >= 0) & (rows < h))[:, :, None] & ((cols >= 0) & (cols < w))[:, None, :])
        d2[~(on_map & (d2 <= d_max2))] = np.inf
        d2 = d2.reshape(n, -1)
        # the stencil is enumerated row-major, so a stable sort breaks ties as a
        # row-major scan of the map does
        order = np.argsort(d2, axis=1, kind="stable")[:, :take]
        nearest = np.take_along_axis(d2, order, axis=1)
        picked = np.isfinite(nearest)
        r = np.take_along_axis(rows, order // side, axis=1)
        c = np.take_along_axis(cols, order % side, axis=1)
        found = labels[np.where(picked, r, 0), np.where(picked, c, 0)]
        cell = (np.arange(n)[:, None] * N_LABELS + found)[picked]
        counts[lo : lo + n] = np.bincount(cell, minlength=n * N_LABELS).reshape(n, N_LABELS)
        kth[lo : lo + n] = nearest[:, -1] if take == cfg.k else np.inf
    # a pixel outside the stencil lies at least radius + 0.5 from the position;
    # radius - 0.5 leaves a margin for the rounding of d2
    edge = radius - 0.5
    return counts, (cfg.d_max_px <= edge) | (kth <= edge * edge)


def build_features(
    window: TrajectoryWindow,
    scene: SceneMap | None,
    scene_tracks: list[AgentTrack],
    pg: PolarGridConfig,
    sc: SemanticConfig,
    context: bool = True,
) -> np.ndarray:
    """Fuse the three channels into a (delta-1, F) feature matrix.

    The neighbors at an observed step t are the agents of ``scene_tracks``
    other than the ego that have a sample within 1e-6 s of t. A step's
    features depend only on (ego, t), so the pipeline calls this once over
    a track's whole observed span and slices each window's block from it.
    The polar grid and the semantic histogram each run once over all steps.
    ``context=False`` is the ablation: offsets only, F = 2.
    """
    offsets = compute_offsets(window.obs_m)
    if not context:
        return offsets
    if scene is None:
        raise ValueError(f"agent {window.ego_id} of scene {window.scene_id!r}: scene map required")

    times = window.t_obs[1:]
    neighbors = []  # (position per step, NaN where absent; agent type)
    for track in scene_tracks:
        if track.agent_id == window.ego_id or len(track) == 0:
            continue
        j = np.searchsorted(track.t, times)
        rows = np.full(len(times), -1)
        for cand in (j, j - 1):  # j - 1 last, so it wins when both match
            inside = (cand >= 0) & (cand < len(track))
            near = np.abs(track.t[np.clip(cand, 0, len(track) - 1)] - times) <= 1e-6
            rows = np.where(inside & near, cand, rows)
        seen = rows >= 0
        if np.any(seen):
            pos = np.full((len(times), 2), np.nan)
            pos[seen] = track.xy_px[rows[seen]]
            neighbors.append((pos, track.agent_type))

    ego_px = window.obs_px[1:]
    out = np.empty((len(offsets), feature_dim(pg, sc)))
    out[:, :2] = offsets
    out[:, 2 : 2 + pg.n_cells] = polar_occupancy(ego_px, neighbors, pg).reshape(len(offsets), -1)
    out[:, 2 + pg.n_cells :] = semantic_histogram(ego_px, scene, sc)
    return out


# ------------------------------------------------------- standardization

@dataclass
class FeatureStats:
    mean: np.ndarray  # (F,)
    std: np.ndarray   # (F,), 1.0 (centred only) where the training std is below 1e-8

    @classmethod
    def fit(cls, feature_blocks: list[np.ndarray]) -> "FeatureStats":
        """Per-dimension statistics over all steps of the training windows."""
        stacked = np.concatenate([np.asarray(b).reshape(-1, b.shape[-1]) for b in feature_blocks])
        std = stacked.std(axis=0)
        return cls(stacked.mean(axis=0), np.where(std < 1e-8, 1.0, std))

    def apply(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=np.float64)
        if features.shape[-1] != self.mean.shape[0]:
            raise ValueError(
                f"feature dim {features.shape[-1]} does not match stats dim {self.mean.shape[0]}"
            )
        return (features - self.mean) / self.std
