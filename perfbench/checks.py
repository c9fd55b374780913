"""Correctness checks on one round's outputs.

Every check compares the program against a computation made here from the
definitions (brute-force feature oracles, a textbook Kalman filter, plain
numpy ADE/RMSE, an independent bundle reader) or against a property the
method must have (causal decoding, bit-exact checkpoint round trip,
falling training loss). None compares against stored output.
"""

from __future__ import annotations

import csv
import filecmp
import json
import math
from pathlib import Path

import numpy as np

N_LABELS = 6
AGENT_CHANNEL = {"pedestrian": 0, "vehicle": 1, "cyclist": 2}
_DTYPES = {"<f8": np.dtype("<f8"), "<i8": np.dtype("<i8")}


def read_bundle(path, arrays: bool = True) -> tuple[dict, dict]:
    """The TJF1 container: magic, 8-byte header length, JSON header, raw arrays."""
    with open(path, "rb") as f:
        if f.read(4) != b"TJF1":
            raise ValueError(f"{path}: bad magic")
        header = json.loads(f.read(int.from_bytes(f.read(8), "little")))
        out = {}
        if arrays:
            for entry in header["arrays"]:
                dt = _DTYPES[entry["dtype"]]
                shape = tuple(entry["shape"])
                raw = f.read(math.prod(shape) * dt.itemsize)
                out[entry["name"]] = np.frombuffer(raw, dtype=dt).reshape(shape)
    return out, header["meta"]


# ---------------------------------------------------------------- oracles

def polar_grid(ego, neighbors, grid) -> np.ndarray:
    """Occupancy counts from the definition: radial bins of th/R, angle from +x."""
    r_bins, a_bins, chans, th = (grid["radial_bins"], grid["angular_bins"],
                                 grid["type_channels"], grid["threshold_px"])
    out = np.zeros((r_bins, a_bins, chans))
    for (x, y), kind in neighbors:
        dx, dy = float(x) - float(ego[0]), float(y) - float(ego[1])
        dist = float(np.hypot(dx, dy))
        if dist > th:
            continue
        ang = math.atan2(dy, dx)
        if ang < 0.0:
            ang += 2.0 * math.pi
        r = min(math.floor(dist * r_bins / th), r_bins - 1)
        a = min(math.floor(ang * a_bins / (2.0 * math.pi)), a_bins - 1)
        out[r, a, 0 if chans == 1 else AGENT_CHANNEL[kind]] += 1.0
    return out


def knn_semantics(pos, labels: np.ndarray, k: int, d_max: float) -> np.ndarray:
    """Exhaustive k-NN over every map pixel; ties by row-major pixel index."""
    h, w = labels.shape
    x = min(max(float(pos[0]), 0.0), w - 1.0)
    y = min(max(float(pos[1]), 0.0), h - 1.0)
    rows, cols = np.divmod(np.arange(h * w), w)
    d2 = (cols - x) ** 2 + (rows - y) ** 2
    inside = np.flatnonzero(d2 <= d_max * d_max)
    hist = np.zeros(N_LABELS)
    if len(inside) == 0:
        hist[0] = 1.0
        return hist
    nearest = sorted(inside.tolist(), key=lambda p: (d2[p], p))[:k]
    for p in nearest:
        hist[labels.flat[p]] += 1.0
    return hist / hist.sum()


def textbook_cv_kalman(obs: np.ndarray, kappa: int, dt: float, q: float, r: float) -> np.ndarray:
    """Constant-velocity filter with a Joseph-form update, then a kappa-step rollout."""
    F = np.eye(4)
    F[0, 2] = F[1, 3] = dt
    H = np.eye(2, 4)
    G = np.array([[dt * dt / 2, 0], [0, dt * dt / 2], [dt, 0], [0, dt]])
    Q = q * q * G @ G.T
    R = r * r * np.eye(2)
    x = np.concatenate([obs[1], (obs[1] - obs[0]) / dt])
    P = np.diag([r * r, r * r, 2 * r * r / dt**2, 2 * r * r / dt**2])
    for z in obs[2:]:
        x = F @ x
        P = F @ P @ F.T + Q
        K = P @ H.T @ np.linalg.inv(H @ P @ H.T + R)
        x = x + K @ (z - H @ x)
        IKH = np.eye(4) - K @ H
        P = IKH @ P @ IKH.T + K @ R @ K.T
    out = np.empty((kappa, 2))
    for i in range(kappa):
        x = F @ x
        out[i] = x[:2]
    return out


def horizon_metrics(preds, gts, steps: list[int]) -> list[tuple[float, float]]:
    """(ADE, pooled RMSE) cumulative up to each horizon step, plain numpy."""
    out = []
    for s in steps:
        dist = [np.sqrt(((p[:s] - g[:s]) ** 2).sum(axis=1)) for p, g in zip(preds, gts)]
        ade = float(np.mean([d.mean() for d in dist]))
        rmse = float(np.sqrt(np.mean([(d ** 2).mean() for d in dist])))
        out.append((ade, rmse))
    return out


def rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    scale = max(float(np.abs(b).max()), 1e-300)
    return float(np.abs(a - b).max()) / scale


# ----------------------------------------------------------------- checks

def expected_windows(dataset: dict, window: dict) -> set:
    total = window["delta"] + window["kappa"]
    keys = set()
    for sid, scene in dataset.items():
        for aid, (kind, xy_m, _) in scene["tracks"].items():
            if kind == "pedestrian":
                keys.update((sid, aid, s) for s in range(0, len(xy_m) - total + 1, window["stride"]))
    return keys


def check_feature_cache(path, dataset: dict, rng: np.random.Generator, samples: int) -> str:
    """Window set, offsets, histogram sums; oracle grids and semantics on sampled windows."""
    arrays, meta = read_bundle(path)
    keys = [tuple(k) for k in meta["keys"]]
    window, grid, sem = meta["window"], meta["grid"], meta["semantic"]
    if set(keys) != expected_windows(dataset, window) or len(keys) != len(set(keys)):
        raise AssertionError(f"{path}: window keys differ from the expected windows")
    feats, obs = arrays["features"], arrays["obs_m"]
    n_grid = grid["radial_bins"] * grid["angular_bins"] * grid["type_channels"]
    if not np.array_equal(feats[:, :, :2], np.diff(obs, axis=1)):
        raise AssertionError(f"{path}: offsets differ from diff(obs_m)")
    if meta["context"]:
        sums = feats[:, :, 2 + n_grid:].sum(axis=2)
        if np.abs(sums - 1.0).max() > 1e-12:
            raise AssertionError(f"{path}: a semantic histogram does not sum to 1")
    for row in rng.choice(len(keys), size=min(samples, len(keys)), replace=False):
        sid, ego, start = keys[row]
        scene = dataset[sid]
        _, ego_m, ego_px = scene["tracks"][ego]
        if not np.array_equal(obs[row], ego_m[start:start + window["delta"]]):
            raise AssertionError(f"{path}: obs_m of {keys[row]} differs from the track")
        if not meta["context"]:
            continue
        for i in range(window["delta"] - 1):
            k = start + i + 1
            neighbors = [(xy_px[k], kind) for aid, (kind, _, xy_px) in scene["tracks"].items()
                         if aid != ego and k < len(xy_px)]
            want_grid = polar_grid(ego_px[k], neighbors, grid).reshape(-1)
            want_sem = knn_semantics(ego_px[k], scene["labels"], sem["k"], sem["d_max_px"])
            if not np.array_equal(feats[row, i, 2:2 + n_grid], want_grid):
                raise AssertionError(f"{path}: polar grid of {keys[row]} step {i} differs")
            if not np.array_equal(feats[row, i, 2 + n_grid:], want_sem):
                raise AssertionError(f"{path}: semantics of {keys[row]} step {i} differ")
    return f"{len(keys)} windows, {min(samples, len(keys))} sampled"


def read_report(path) -> dict:
    with open(path, newline="", encoding="utf-8") as f:
        return {(r["method"], float(r["horizon_s"])): r for r in csv.DictReader(f)}


def read_predictions(path) -> dict:
    rows: dict = {}
    with open(path, newline="", encoding="utf-8") as f:
        for r in csv.DictReader(f):
            key = (r["scene_id"], r["ego_id"], int(r["start_index"]))
            rows.setdefault(key, []).append(
                (int(r["step"]), float(r["pred_x_m"]), float(r["pred_y_m"]),
                 float(r["gt_x_m"]), float(r["gt_y_m"])))
    out = {}
    for key, steps in rows.items():
        steps.sort()
        arr = np.array([s[1:] for s in steps])
        out[key] = (arr[:, :2], arr[:, 2:])
    return out


def _steps(horizons, rate_hz):
    return [int(round(h * rate_hz)) for h in horizons]


def check_oracle_zero(report: dict) -> str:
    rows = [r for (m, _), r in report.items() if m == "oracle"]
    if not rows or any(float(r["ade_m"]) != 0.0 or float(r["rmse_m"]) != 0.0 for r in rows):
        raise AssertionError("oracle rows of report.csv are not exactly zero")
    return f"{len(rows)} oracle rows are 0"


def check_kalman(report: dict, test_cache, horizons, rate_hz, q, r) -> str:
    arrays, meta = read_bundle(test_cache)
    kappa = meta["window"]["kappa"]
    preds = [textbook_cv_kalman(o, kappa, 1.0 / rate_hz, q, r) for o in arrays["obs_m"]]
    want = horizon_metrics(preds, arrays["fut_m"], _steps(horizons, rate_hz))
    worst = 0.0
    for h, (ade, rmse) in zip(horizons, want):
        row = report[("cv_kalman", float(h))]
        worst = max(worst, rel_err(float(row["ade_m"]), ade), rel_err(float(row["rmse_m"]), rmse))
    if worst > 1e-9:
        raise AssertionError(f"cv_kalman rows differ from the textbook filter by {worst:.3g}")
    return f"max rel diff {worst:.2e}"


def check_report_vs_predictions(report: dict, predictions: dict, horizons, rate_hz) -> str:
    keys = sorted(predictions)
    want = horizon_metrics([predictions[k][0] for k in keys], [predictions[k][1] for k in keys],
                           _steps(horizons, rate_hz))
    worst = 0.0
    for h, (ade, rmse) in zip(horizons, want):
        row = report[("context_tf", float(h))]
        if int(row["n_windows"]) != len(keys):
            raise AssertionError("report.csv and predictions.csv cover different windows")
        worst = max(worst, rel_err(float(row["ade_m"]), ade), rel_err(float(row["rmse_m"]), rmse))
    if worst > 1e-12:
        raise AssertionError(f"context_tf rows differ from predictions.csv by {worst:.3g}")
    return f"max rel diff {worst:.2e}"


def check_causal_rollout(ckpt, test_cache, predictions: dict, rng, samples: int) -> str:
    """A rollout fed back as teacher-forcing input reproduces itself (causal mask)."""
    from trajformer.model import teacher_forced_offsets

    arrays, meta = read_bundle(test_cache)
    index = {tuple(k): i for i, k in enumerate(meta["keys"])}
    keys = sorted(predictions)
    worst = 0.0
    for j in rng.choice(len(keys), size=min(samples, len(keys)), replace=False):
        row = index[keys[j]]
        pred = predictions[keys[j]][0]
        offsets = np.diff(np.vstack([arrays["last_obs_m"][row], pred]), axis=0)
        out = teacher_forced_offsets(ckpt.params, ckpt.stats.apply(arrays["features"][row]),
                                     offsets).data
        worst = max(worst, rel_err(out, offsets))
    if worst > 1e-9:
        raise AssertionError(f"teacher forcing on the rollout differs by {worst:.3g}")
    return f"max rel diff {worst:.2e}"


def check_checkpoint_roundtrip(ckpt, path: Path) -> str:
    from trajformer.model import save_checkpoint

    copy = path.with_name(path.name + ".roundtrip")
    try:
        save_checkpoint(copy, ckpt.params, ckpt.stats, ckpt.meta, ckpt.adam_moments)
        if not filecmp.cmp(path, copy, shallow=False):
            raise AssertionError(f"{path}: save -> load -> save is not bit-exact")
    finally:
        copy.unlink(missing_ok=True)
    return f"{path.stat().st_size} bytes identical"


def check_training_log(path) -> str:
    with open(path, newline="", encoding="utf-8") as f:
        losses = [float(r["train_loss"]) for r in csv.DictReader(f)]
    if len(losses) < 2 or not all(math.isfinite(v) for v in losses):
        raise AssertionError(f"{path}: fewer than 2 epochs or a non-finite loss")
    if not losses[-1] < losses[0]:
        raise AssertionError(f"{path}: loss went from {losses[0]} to {losses[-1]}")
    return f"loss {losses[0]:.4g} -> {losses[-1]:.4g}"
