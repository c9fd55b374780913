"""Glue from raw dataset roots to model-ready windows and cached features.

``load_root`` is the one path from a dataset root to its windows: all
tracks in a scene are resampled onto the shared global grid (multiples of
1/rate) so windows and their neighbors line up in time. Features are
built once per (agent, timestep) over each track's observed span; one
index array of its windows' steps gathers their blocks and positions.
Feature blocks are cached in the binary bundle format keyed by (scene_id,
ego_id, window start), with their settings and their root's ``root_digest``;
reruns over unchanged inputs produce byte-identical caches.
``decode_predictor`` turns a feature set into the (N, kappa, 2) position
array that evaluation scores and ``predict`` writes.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import (Scene, TrajectoryWindow, WindowConfig, extract_windows, load_dataset_root,
                   resample)
from .errors import ConfigError, DataError
from .features import FeatureStats, PolarGridConfig, SemanticConfig, build_features, feature_dim
from .model import ModelParams, predict_autoregressive
from .serialize import load_bundle, save_bundle

CACHE_VERSION = 2
# the FeatureSet arrays a feature cache stores, under the same names
CACHE_ARRAYS = ("features", "target_offsets", "last_obs_m", "obs_m", "fut_m")


@dataclass
class FeatureSet:
    """Parallel arrays for a whole dataset root: row i of each array, and of
    every (N, kappa, 2) prediction scored against ``fut_m``, is window ``keys[i]``."""
    keys: list[tuple[str, str, int]]     # (scene_id, ego_id, start_index)
    features: np.ndarray                 # (N, delta-1, F)
    target_offsets: np.ndarray           # (N, kappa, 2)
    last_obs_m: np.ndarray               # (N, 2)
    obs_m: np.ndarray                    # (N, delta, 2)
    fut_m: np.ndarray                    # (N, kappa, 2)
    context: bool

    def __len__(self) -> int:
        return len(self.keys)

    def model_features(self, context: bool) -> np.ndarray:
        """The model's (N, delta-1, F) inputs; offsets occupy the first two
        columns, so the context-off ablation is a slice of the full blocks."""
        if context and not self.context:
            raise ConfigError("feature set was built without context features")
        return self.features if context else self.features[:, :, :2]


def resample_scene(scene: Scene, rate_hz: float) -> Scene:
    kept = [resample(track, rate_hz) for track in scene.tracks if len(track) >= 2]
    return Scene(scene_map=scene.scene_map, tracks=kept, meta=scene.meta)


def build_feature_set(
    scenes: list[Scene],
    wcfg: WindowConfig,
    pg: PolarGridConfig,
    sc: SemanticConfig,
    context: bool = True,
) -> FeatureSet:
    """Windows plus fused features for every pedestrian in every scene.

    The scenes' tracks must already be on the 1/rate grid (``resample_scene``
    puts them there; synthetic scenes are generated on it)."""
    per_track = [(scene, track, starts) for scene in scenes for track in scene.tracks
                 if (starts := extract_windows(track, wcfg))]
    n = sum(len(starts) for _, _, starts in per_track)
    features = np.zeros((n, wcfg.delta - 1, feature_dim(pg, sc, context)))
    obs = np.zeros((n, wcfg.delta, 2))
    fut = np.zeros((n, wcfg.kappa, 2))
    keys = []
    for scene, track, starts in per_track:
        scene_id = scene.scene_map.scene_id
        end = starts[-1] + wcfg.delta
        span = TrajectoryWindow(track.agent_id, scene_id, track.t[:end], track.xy_m[:end],
                                track.xy_px[:end])
        block = build_features(span, scene.scene_map, scene.tracks, pg, sc, context)
        steps = np.asarray(starts)[:, None] + np.arange(wcfg.delta + wcfg.kappa)
        rows = slice(len(keys), len(keys) + len(starts))
        features[rows] = block[steps[:, :wcfg.delta - 1]]
        obs[rows] = track.xy_m[steps[:, :wcfg.delta]]
        fut[rows] = track.xy_m[steps[:, wcfg.delta:]]
        keys += [(scene_id, track.agent_id, start) for start in starts]
    # the first target offset steps from the last observed position
    targets = np.diff(np.concatenate([obs[:, -1:], fut], axis=1), axis=1)
    return FeatureSet(keys, features, targets, obs[:, -1].copy(), obs, fut, context)


def load_root(root, adapter: str, window: WindowConfig, grid: PolarGridConfig,
              semantic: SemanticConfig, context: bool = True) -> tuple[list[Scene], FeatureSet]:
    """A dataset root's scenes, resampled onto the window grid, and the
    FeatureSet of all their windows."""
    scenes = [resample_scene(s, window.rate_hz) for s in load_dataset_root(root, adapter)]
    return scenes, build_feature_set(scenes, window, grid, semantic, context)


def inference_windows(root, adapter: str, source: dict, cache_dir, window: WindowConfig,
                      grid: PolarGridConfig, semantic: SemanticConfig, context: bool) -> FeatureSet:
    """The windows ``evaluate`` and ``predict`` read for ``root``, whose ``root_digest``
    is ``source``: the first current ``*_features.bin`` in ``cache_dir``, in sorted
    order, that records ``source``, these settings and, if ``context``, context
    features; else those built from ``root``. Prints which, and why no cache matched."""
    reasons = []
    for path in sorted(Path(cache_dir).glob("*_features.bin")):
        try:
            fset, meta = load_feature_cache(path)
            differing = [name for name, ok in (("source", meta.get("source") == source),
                                               ("context", fset.context or not context)) if not ok]
            differing += other_settings(meta, path, window, grid, semantic)
            if not differing:
                print(f"features: {path}")
                break
            reasons.append(f"{path}: cache records other {', '.join(differing)}")
        except DataError as exc:
            reasons.append(str(exc))
    else:
        print(f"features: built from {root} ({'; '.join(reasons) or 'no cache'})")
        fset = load_root(root, adapter, window, grid, semantic, context)[1]
    if len(fset) == 0:
        raise DataError(f"no windows in {root}")
    return fset


def decode_predictor(params: ModelParams, stats: FeatureStats, fset: FeatureSet,
                     context: bool) -> np.ndarray:
    """(N, kappa, 2) absolute positions, row i forecasting window ``fset.keys[i]``,
    from one batched decode of every window in ``fset``."""
    return predict_autoregressive(params, stats.apply(fset.model_features(context)),
                                  fset.last_obs_m, fset.fut_m.shape[1])


# --------------------------------------------------------------- cache

# the settings sections that feature caches and checkpoints record, with their classes
SECTIONS = {"window": WindowConfig, "grid": PolarGridConfig, "semantic": SemanticConfig}


def settings_record(wcfg: WindowConfig, pg: PolarGridConfig, sc: SemanticConfig) -> dict:
    """The window, grid and semantic settings as caches and checkpoints record them."""
    return dict(zip(SECTIONS, map(asdict, (wcfg, pg, sc))))


def recorded_settings(meta: dict, path) -> tuple[WindowConfig, PolarGridConfig, SemanticConfig]:
    """The settings that the feature cache or checkpoint at ``path`` records in
    ``meta``; a section that is missing or invalid is a DataError naming ``path``."""
    if missing := [name for name in SECTIONS if name not in meta]:
        raise DataError(f"{path}: records no {', '.join(missing)} settings")
    settings = []
    for name, cls in SECTIONS.items():
        try:
            settings.append(cls(**meta[name]))
        except (TypeError, ValueError) as exc:
            raise DataError(f"{path}: invalid {name} settings ({exc})") from None
    return tuple(settings)


def other_settings(meta: dict, path, *settings) -> list[str]:
    """The sections whose ``recorded_settings`` differ from a run's ``settings``."""
    return [name for name, a, b in zip(SECTIONS, recorded_settings(meta, path), settings)
            if a != b]


def save_feature_cache(path, fset: FeatureSet, wcfg: WindowConfig, pg: PolarGridConfig,
                       sc: SemanticConfig, source: dict | None = None) -> None:
    """Write ``fset``, its settings and ``source``, the ``root_digest`` of its root."""
    meta = {
        "kind": "feature_cache",
        "cache_version": CACHE_VERSION,
        "context": fset.context,
        "keys": [[sid, eid, start] for sid, eid, start in fset.keys],
        "source": source,
        **settings_record(wcfg, pg, sc),
    }
    save_bundle(path, {name: getattr(fset, name) for name in CACHE_ARRAYS}, meta)


def load_feature_cache(path) -> tuple[FeatureSet, dict]:
    arrays, meta = load_bundle(path)
    if meta.get("kind") != "feature_cache":
        raise DataError(f"{path}: not a feature cache")
    if (version := meta.get("cache_version")) != CACHE_VERSION:
        raise DataError(f"{path}: feature cache version {version!r}, expected {CACHE_VERSION}")
    if missing := ([n for n in CACHE_ARRAYS if n not in arrays]
                   + [n for n in ("keys", "context") if n not in meta]):
        raise DataError(f"{path}: feature cache lacks {', '.join(missing)}")
    keys = meta["keys"]
    bad = [keys] if type(keys) is not list else [
        k for k in keys if not (type(k) is list and len(k) == 3 and type(k[0]) is str
                                and type(k[1]) is str and type(k[2]) is int)]
    if bad:
        raise DataError(f"{path}: feature cache key {bad[0]!r} is not "
                        "[scene_id, ego_id, start_index]")
    if short := [n for n in CACHE_ARRAYS if len(arrays[n]) != len(keys)]:
        raise DataError(f"{path}: feature cache {', '.join(short)} rows differ from its "
                        f"{len(keys)} keys")
    fset = FeatureSet(keys=[tuple(k) for k in keys], context=bool(meta["context"]),
                      **{n: arrays[n] for n in CACHE_ARRAYS})
    return fset, meta
