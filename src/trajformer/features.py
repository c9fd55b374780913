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

from .data import AgentTrack, TrajectoryWindow
from .maps import N_LABELS, SceneMap

AGENT_CHANNEL = {"pedestrian": 0, "vehicle": 1, "cyclist": 2}


@dataclass(frozen=True)
class PolarGridConfig:
    threshold_px: float = 64.0   # outer radius; boundary inclusive
    radial_bins: int = 4
    angular_bins: int = 8
    type_channels: int = 3       # 3 = one per agent type, 1 = all types pooled

    def __post_init__(self):
        if self.threshold_px <= 0:
            raise ValueError(f"threshold_px must be positive, got {self.threshold_px}")
        if self.radial_bins < 1 or self.angular_bins < 1:
            raise ValueError("radial_bins and angular_bins must be >= 1")
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
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.d_max_px <= 0:
            raise ValueError(f"d_max_px must be positive, got {self.d_max_px}")


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

    Radial bin i spans [i*th/R, (i+1)*th/R); distance exactly th lands in
    the outermost bin. Angles from atan2 are mapped into [0, 2pi) against
    the scene x-axis. Neighbors beyond th contribute nothing.
    """
    grid = np.zeros((cfg.radial_bins, cfg.angular_bins, cfg.type_channels))
    if not neighbors:
        return grid
    ego = np.asarray(ego_px, dtype=np.float64)
    for pos, agent_type in neighbors:
        dx = float(pos[0]) - ego[0]
        dy = float(pos[1]) - ego[1]
        d = np.hypot(dx, dy)
        if d > cfg.threshold_px:
            continue
        r_bin = min(int(np.floor(d * cfg.radial_bins / cfg.threshold_px)), cfg.radial_bins - 1)
        ang = np.arctan2(dy, dx) % (2.0 * np.pi)
        a_bin = min(int(np.floor(ang * cfg.angular_bins / (2.0 * np.pi))), cfg.angular_bins - 1)
        chan = 0 if cfg.type_channels == 1 else AGENT_CHANNEL[agent_type]
        grid[r_bin, a_bin, chan] += 1.0
    return grid


def semantic_histogram(pos_px: np.ndarray, scene: SceneMap, cfg: SemanticConfig) -> np.ndarray:
    """Label histogram of the k nearest pixels within d_max of a position.

    Positions outside the map are clamped to the border first. Distance
    ties break by row-major pixel order. Fewer than k qualifying pixels
    means all of them are used; zero qualifying pixels yields a one-hot
    "none". The result is normalized to sum 1.
    """
    h, w = scene.labels.shape
    x = min(max(float(pos_px[0]), 0.0), float(w - 1))
    y = min(max(float(pos_px[1]), 0.0), float(h - 1))
    d = cfg.d_max_px

    c_lo, c_hi = max(0, int(np.ceil(x - d))), min(w - 1, int(np.floor(x + d)))
    r_lo, r_hi = max(0, int(np.ceil(y - d))), min(h - 1, int(np.floor(y + d)))
    hist = np.zeros(N_LABELS)
    if c_lo > c_hi or r_lo > r_hi:
        hist[0] = 1.0
        return hist

    cols = np.arange(c_lo, c_hi + 1, dtype=np.float64)
    rows = np.arange(r_lo, r_hi + 1, dtype=np.float64)
    d2 = (cols[None, :] - x) ** 2 + (rows[:, None] - y) ** 2
    rr, cc = np.nonzero(d2 <= d * d)
    if len(rr) == 0:
        hist[0] = 1.0
        return hist
    d2_flat = d2[rr, cc]
    row_major = (rr + r_lo) * w + (cc + c_lo)
    order = np.lexsort((row_major, d2_flat))[: cfg.k]
    labels = scene.labels[rr[order] + r_lo, cc[order] + c_lo]
    counts = np.bincount(labels, minlength=N_LABELS).astype(np.float64)
    return counts / counts.sum()


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
    ``context=False`` is the ablation: offsets only, F = 2.
    """
    offsets = compute_offsets(window.obs_m)
    if not context:
        return offsets
    if scene is None:
        raise ValueError(f"agent {window.ego_id} of scene {window.scene_id!r}: scene map required")

    times = window.t_obs[1:]
    present = []  # (track, sample row per step or -1)
    for track in scene_tracks:
        if track.agent_id == window.ego_id or len(track) == 0:
            continue
        j = np.searchsorted(track.t, times)
        rows = np.full(len(times), -1)
        for cand in (j, j - 1):  # j - 1 last, so it wins when both match
            inside = (cand >= 0) & (cand < len(track))
            near = np.abs(track.t[np.clip(cand, 0, len(track) - 1)] - times) <= 1e-6
            rows = np.where(inside & near, cand, rows)
        if np.any(rows >= 0):
            present.append((track, rows))

    out = np.zeros((len(offsets), feature_dim(pg, sc)))
    out[:, :2] = offsets
    grid_len = pg.n_cells
    for i in range(len(offsets)):
        ego_px = window.obs_px[i + 1]
        neighbors = [(track.xy_px[rows[i]], track.agent_type)
                     for track, rows in present if rows[i] >= 0]
        grid = polar_occupancy(ego_px, neighbors, pg)
        out[i, 2 : 2 + grid_len] = grid.reshape(-1)
        out[i, 2 + grid_len :] = semantic_histogram(ego_px, scene, sc)
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
