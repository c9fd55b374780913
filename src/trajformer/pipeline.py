"""Glue from raw dataset roots to model-ready windows and cached features.

All tracks in a scene are resampled onto the shared global grid (multiples
of 1/rate) so windows and their neighbors line up in time. Features are
built once per (agent, timestep) over each track's observed span, and each
window's block is a slice of that array. Feature blocks are cached in the
binary bundle format keyed by (scene_id, ego_id, window start); reruns
over unchanged inputs produce byte-identical caches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import AgentTrack, Scene, TrajectoryWindow, WindowConfig, extract_windows, resample
from .errors import DataError
from .features import (FeatureStats, PolarGridConfig, SemanticConfig, build_features,
                       compute_offsets, feature_dim)
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


def resample_scene(scene: Scene, rate_hz: float) -> Scene:
    kept = []
    for track in scene.tracks:
        if len(track) < 2:
            continue
        kept.append(resample(track, rate_hz, align_global=True))
    return Scene(scene_map=scene.scene_map, tracks=kept, meta=scene.meta)


def observed_span(track: AgentTrack, windows: list[TrajectoryWindow]) -> TrajectoryWindow:
    """One window over every step that ``windows`` (in start order) observe."""
    end = windows[-1].start_index + len(windows[-1].t_obs)
    return TrajectoryWindow(track.agent_id, windows[0].scene_id, 0, track.t[:end],
                            track.xy_m[:end], track.xy_px[:end], track.xy_m[end:])


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
    per_track = [(scene, track, extract_windows(track, wcfg, scene.scene_map.scene_id))
                 for scene in scenes for track in scene.tracks]
    n = sum(len(windows) for _, _, windows in per_track)
    features = np.zeros((n, wcfg.delta - 1, feature_dim(pg, sc, context)))
    targets = np.zeros((n, wcfg.kappa, 2))
    last = np.zeros((n, 2))
    obs = np.zeros((n, wcfg.delta, 2))
    fut = np.zeros((n, wcfg.kappa, 2))
    keys = []
    for scene, track, windows in per_track:
        if not windows:
            continue
        block = build_features(observed_span(track, windows), scene.scene_map, scene.tracks,
                               pg, sc, context)
        for window in windows:
            i = len(keys)
            features[i] = block[window.start_index : window.start_index + wcfg.delta - 1]
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
