"""Glue from raw dataset roots to model-ready windows and cached features.

All tracks in a scene are resampled onto the shared global grid (multiples
of 1/rate) so windows and their neighbors line up in time. Feature blocks
are cached in the binary bundle format keyed by (scene_id, ego_id, window
start); reruns over unchanged inputs produce byte-identical caches.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
import numpy as np

from .data import Scene, TrajectoryWindow, WindowConfig, extract_windows, resample
from .errors import DataError
from .features import (FeatureStats, PolarGridConfig, SemanticConfig, build_features,
                       compute_offsets, feature_dim)
from .maps import SceneMap
from .model import ModelParams, predict_autoregressive
from .serialize import load_bundle, save_bundle

CACHE_VERSION = 1


@dataclass
class PredictionCase:
    """Everything the predictors need for one evaluation window."""
    scene_id: str
    ego_id: str
    start_index: int
    obs_m: np.ndarray       # (delta, 2)
    fut_m: np.ndarray       # (kappa, 2)
    last_obs_m: np.ndarray  # (2,)
    features: np.ndarray    # (delta-1, F) raw (unstandardized)


@dataclass
class FeatureSet:
    """Parallel arrays for a whole dataset root."""
    keys: list[tuple[str, str, int]]     # (scene_id, ego_id, start_index)
    features: np.ndarray                 # (N, delta-1, F)
    target_offsets: np.ndarray           # (N, kappa, 2)
    last_obs_m: np.ndarray               # (N, 2)
    obs_m: np.ndarray                    # (N, delta, 2)
    fut_m: np.ndarray                    # (N, kappa, 2)
    context: bool

    def __len__(self) -> int:
        return len(self.keys)

    def cases(self) -> list[PredictionCase]:
        return [
            PredictionCase(sid, eid, start, self.obs_m[i], self.fut_m[i],
                           self.last_obs_m[i], self.features[i])
            for i, (sid, eid, start) in enumerate(self.keys)
        ]


def worker_count() -> int:
    """Worker cap from TRAJFORMER_THREADS (default 1)."""
    raw = os.environ.get("TRAJFORMER_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise DataError(f"TRAJFORMER_THREADS must be an integer, got {raw!r}") from None


def resample_scene(scene: Scene, rate_hz: float) -> Scene:
    kept = []
    for track in scene.tracks:
        if len(track) < 2:
            continue
        kept.append(resample(track, rate_hz, align_global=True))
    return Scene(scene_map=scene.scene_map, tracks=kept, meta=scene.meta)


def scene_windows(scene: Scene, cfg: WindowConfig) -> list[TrajectoryWindow]:
    windows = []
    for track in scene.tracks:
        windows.extend(extract_windows(track, cfg, scene.scene_map.scene_id, scene.tracks))
    return windows


def target_offsets_for(window: TrajectoryWindow) -> np.ndarray:
    """kappa offsets: the first steps from the last observed position."""
    path = np.concatenate([window.obs_m[-1:], window.fut_m])
    return compute_offsets(path)


def build_feature_set(
    scenes: list[Scene],
    wcfg: WindowConfig,
    pg: PolarGridConfig,
    sc: SemanticConfig,
    context: bool = True,
    resampled: bool = False,
) -> FeatureSet:
    """Windows plus fused features for every pedestrian in every scene."""
    if not resampled:
        scenes = [resample_scene(s, wcfg.rate_hz) for s in scenes]
    entries: list[tuple[TrajectoryWindow, SceneMap, dict]] = []
    for scene in scenes:
        by_id = {t.agent_id: t for t in scene.tracks}
        for window in scene_windows(scene, wcfg):
            entries.append((window, scene.scene_map, by_id))

    def one(entry):
        window, scene_map, by_id = entry
        return build_features(window, scene_map, by_id, pg, sc, context)

    workers = worker_count()
    if workers > 1 and len(entries) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(one, entries))
    else:
        blocks = [one(e) for e in entries]

    n = len(entries)
    f_dim = feature_dim(pg, sc, context)
    features = np.zeros((n, wcfg.delta - 1, f_dim))
    targets = np.zeros((n, wcfg.kappa, 2))
    last = np.zeros((n, 2))
    obs = np.zeros((n, wcfg.delta, 2))
    fut = np.zeros((n, wcfg.kappa, 2))
    keys = []
    for i, ((window, _, _), block) in enumerate(zip(entries, blocks)):
        features[i] = block
        targets[i] = target_offsets_for(window)
        last[i] = window.obs_m[-1]
        obs[i] = window.obs_m
        fut[i] = window.fut_m
        keys.append((window.scene_id, window.ego_id, window.start_index))
    return FeatureSet(keys, features, targets, last, obs, fut, context)


def decode_predictor(params: ModelParams, stats: FeatureStats, fset: FeatureSet, context: bool):
    """Per-case predictor for ``evaluation.evaluate`` backed by one batched
    decode of every window in ``fset``; context off keeps the offset columns."""
    features = fset.features if context else fset.features[:, :, :2]
    preds = predict_autoregressive(params, stats.apply(features), fset.last_obs_m,
                                   fset.fut_m.shape[1])
    rows = {key: i for i, key in enumerate(fset.keys)}
    return lambda case: preds[rows[(case.scene_id, case.ego_id, case.start_index)]]


# --------------------------------------------------------------- cache

def save_feature_cache(path, fset: FeatureSet, wcfg: WindowConfig, pg: PolarGridConfig,
                       sc: SemanticConfig) -> None:
    meta = {
        "kind": "feature_cache",
        "cache_version": CACHE_VERSION,
        "context": fset.context,
        "keys": [[sid, eid, start] for sid, eid, start in fset.keys],
        "window": {"delta": wcfg.delta, "kappa": wcfg.kappa, "stride": wcfg.stride,
                   "rate_hz": wcfg.rate_hz},
        "grid": {"threshold_px": pg.threshold_px, "radial_bins": pg.radial_bins,
                 "angular_bins": pg.angular_bins, "type_channels": pg.type_channels},
        "semantic": {"k": sc.k, "d_max_px": sc.d_max_px},
    }
    arrays = {
        "features": fset.features,
        "target_offsets": fset.target_offsets,
        "last_obs_m": fset.last_obs_m,
        "obs_m": fset.obs_m,
        "fut_m": fset.fut_m,
    }
    save_bundle(path, arrays, meta)


def load_feature_cache(path) -> tuple[FeatureSet, dict]:
    arrays, meta = load_bundle(path)
    if meta.get("kind") != "feature_cache":
        raise DataError(f"{path}: not a feature cache")
    missing = ([n for n in ("features", "target_offsets", "last_obs_m", "obs_m", "fut_m")
                if n not in arrays] + [n for n in ("keys", "context") if n not in meta])
    if missing:
        raise DataError(f"{path}: feature cache lacks {', '.join(missing)}")
    fset = FeatureSet(
        keys=[(k[0], k[1], int(k[2])) for k in meta["keys"]],
        features=arrays["features"],
        target_offsets=arrays["target_offsets"],
        last_obs_m=arrays["last_obs_m"],
        obs_m=arrays["obs_m"],
        fut_m=arrays["fut_m"],
        context=bool(meta["context"]),
    )
    return fset, meta
