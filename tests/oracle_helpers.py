"""Independent reference implementations used as test oracles.

These are deliberately written from the definitions (explicit loops,
meshgrids, textbook filter equations) rather than sharing any code with
the package. Some references reuse package parts that other oracles check:
the decode and training references run the gradient-checked teacher-forced
layers on the autodiff tape one window at a time. The window-feature
reference builds each step with ``brute_force_grid`` and
``brute_force_semantics``, not with the package's kernels. The tracks
loader reference shares only the package's CSV reader and float parser.

The composed tape ops (``matmul``, ``transpose``, ``relu``, ``softmax``)
are the references the package's fused nodes are checked against;
``verify_gradients`` checks the tape against central differences; and the
PNG writer and report reader build and read test files the package only
reads or only writes.
"""

import csv
import json
import struct
import zlib
from pathlib import Path

import numpy as np

from trajformer import autodiff as ad
from trajformer.data import AGENT_TYPES, AgentTrack, TrajectoryWindow, _parse_float, _read_csv
from trajformer.errors import DataError, DivergenceError
from trajformer.evaluation import _CSV_HEADER, MetricsRow, MetricsTable
from trajformer.features import compute_offsets, feature_dim
from trajformer.model import (ModelParams, decoder_forward, embed_source, embed_target,
                              encoder_forward, project_output, teacher_forced_offsets)
from trajformer.pipeline import FeatureSet
from trajformer.training import AdamState, _batch_gradients, _eval_mean_loss, _stack_windows, l2_loss

AGENT_CHANNEL = {"pedestrian": 0, "vehicle": 1, "cyclist": 2}
N_LABELS = 6


# ------------------------------------------- composed tape ops

def matmul(a, b):
    """(..., n, d) @ (d, m): every row of ``a`` times the one matrix ``b``."""
    a, b = ad.as_tensor(a), ad.as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim != 2 or a.shape[-1] != b.shape[0]:
        raise ValueError(f"matmul: incompatible shapes {a.shape} and {b.shape}")
    return ad.Tensor(ad._rows_times(a.data, b.data), (a, b), "matmul",
                     lambda g: ad._row_gemm_vjp(a.data, b.data, g))


def transpose(a):
    a = ad.as_tensor(a)
    return ad.Tensor(a.data.T, (a,), "transpose", lambda g: (g.T,))


def relu(a):
    a = ad.as_tensor(a)
    mask = a.data > 0
    return ad.Tensor(a.data * mask, (a,), "relu", lambda g: (g * mask,))


def softmax(a, axis=-1):
    """Softmax along ``axis`` with max-subtraction for stability.

    Entries of -inf are allowed (masked-out attention scores) and produce
    exact zeros; a slice that is entirely -inf is the caller's error.
    """
    a = ad.as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"softmax: axis {axis} invalid for shape {a.shape}")
    m = np.max(a.data, axis=axis, keepdims=True)
    e = np.exp(a.data - m)
    y = e / e.sum(axis=axis, keepdims=True)

    def vjp(g):
        return (y * (g - (g * y).sum(axis=axis, keepdims=True)),)

    return ad.Tensor(y, (a,), "softmax", vjp)


def verify_gradients(params, features, targets, n_samples=20, h=1e-6, seed=0):
    """Central-difference check of sampled parameter coordinates of the
    minibatch loss (mean over windows of each window's mean L2).

    Relative error uses max(|analytic|, |numeric|, 1e-6) as denominator.
    Returns the worst offender's coordinates alongside the full sample list.
    """
    features, targets = _stack_windows(features, targets)
    analytic = params.views(_batch_gradients(params, features, targets)[0])

    rng = np.random.default_rng(seed)
    names = params.names()
    samples = []
    for _ in range(n_samples):
        name = names[rng.integers(len(names))]
        arr = params.tensors[name].data
        flat = int(rng.integers(arr.size))
        idx = np.unravel_index(flat, arr.shape)
        keep = arr[idx]
        try:
            arr[idx] = keep + h
            up = _eval_mean_loss(params, features, targets)
            arr[idx] = keep - h
            down = _eval_mean_loss(params, features, targets)
        finally:
            arr[idx] = keep
        numeric = (up - down) / (2.0 * h)
        a = float(analytic[name][idx])
        rel = abs(a - numeric) / max(abs(a), abs(numeric), 1e-6)
        samples.append({"param": name, "index": tuple(int(i) for i in idx),
                        "analytic": a, "numeric": numeric, "rel_err": rel})
    worst = max(samples, key=lambda s: s["rel_err"])
    return {"max_rel_err": worst["rel_err"], "worst": worst, "samples": samples}


# ------------------------------------------- test file writers and readers

def _png_chunk(kind, payload):
    return (struct.pack(">I", len(payload)) + kind + payload
            + struct.pack(">I", zlib.crc32(kind + payload) & 0xFFFFFFFF))


def write_png_gray(path, pixels):
    """An 8-bit grayscale PNG, unfiltered rows in one IDAT chunk."""
    pixels = np.asarray(pixels, dtype=np.uint8)
    h, w = pixels.shape
    ihdr = struct.pack(">IIBBBBB", w, h, 8, 0, 0, 0, 0)
    raw = b"".join(b"\x00" + pixels[r].tobytes() for r in range(h))
    with open(path, "wb") as f:
        f.write(b"\x89PNG\r\n\x1a\n")
        f.write(_png_chunk(b"IHDR", ihdr))
        f.write(_png_chunk(b"IDAT", zlib.compress(raw, 6)))
        f.write(_png_chunk(b"IEND", b""))


def load_report(path):
    """The metrics table back from a ``report.csv``."""
    table = MetricsTable()
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != _CSV_HEADER:
            raise DataError(f"{path}: unexpected report header {reader.fieldnames}")
        for rec in reader:
            table.rows.append(MetricsRow(rec["dataset"], rec["method"], float(rec["horizon_s"]),
                                         float(rec["ade_m"]), float(rec["rmse_m"]),
                                         int(rec["n_windows"])))
    return table


def brute_force_grid(ego, neighbors, cfg):
    """Polar occupancy re-derived with explicit per-neighbor geometry."""
    grid = np.zeros((cfg.radial_bins, cfg.angular_bins, cfg.type_channels))
    for (x, y), kind in neighbors:
        dx, dy = x - ego[0], y - ego[1]
        d = np.hypot(dx, dy)
        if d > cfg.threshold_px:
            continue
        r_bin = min(int(d * cfg.radial_bins / cfg.threshold_px), cfg.radial_bins - 1)
        ang = np.arctan2(dy, dx)
        if ang < 0:
            ang += 2 * np.pi
        a_bin = min(int(ang / (2 * np.pi / cfg.angular_bins)), cfg.angular_bins - 1)
        c = 0 if cfg.type_channels == 1 else AGENT_CHANNEL[kind]
        grid[r_bin, a_bin, c] += 1
    return grid


def brute_force_semantics(pos, scene, cfg):
    """Exhaustive k-NN over every pixel of the map."""
    h, w = scene.labels.shape
    x = min(max(pos[0], 0.0), w - 1.0)
    y = min(max(pos[1], 0.0), h - 1.0)
    cols, rows = np.meshgrid(np.arange(w, dtype=float), np.arange(h, dtype=float))
    d2 = (cols - x) ** 2 + (rows - y) ** 2
    flat = d2.reshape(-1)
    keep = np.flatnonzero(flat <= cfg.d_max_px**2)
    hist = np.zeros(N_LABELS)
    if len(keep) == 0:
        hist[0] = 1.0
        return hist
    order = keep[np.lexsort((keep, flat[keep]))][: cfg.k]
    labels = scene.labels.reshape(-1)[order]
    counts = np.bincount(labels, minlength=N_LABELS).astype(float)
    return counts / counts.sum()


def textbook_kalman(observed, kappa, dt, q_std, r_std):
    """Constant-velocity Kalman filter from the textbook equations.

    Joseph-form covariance update, explicit matrix inverse; same seeding
    convention as the package filter (position from the second fix,
    velocity from the first difference).
    """
    observed = np.asarray(observed, dtype=float)
    F = np.array([[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=float)
    H = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=float)
    q = q_std**2
    Q = np.zeros((4, 4))
    for i, j in ((0, 2), (1, 3)):
        Q[i, i] = q * dt**4 / 4
        Q[i, j] = Q[j, i] = q * dt**3 / 2
        Q[j, j] = q * dt**2
    R = r_std**2 * np.eye(2)
    v0 = (observed[1] - observed[0]) / dt
    x = np.array([observed[1, 0], observed[1, 1], v0[0], v0[1]])
    r = r_std**2
    P = np.diag([r, r, 2 * r / dt**2, 2 * r / dt**2])
    eye = np.eye(4)
    for z in observed[2:]:
        x = F @ x
        P = F @ P @ F.T + Q
        S = H @ P @ H.T + R
        K = P @ H.T @ np.linalg.inv(S)
        x = x + K @ (z - H @ x)
        P = (eye - K @ H) @ P @ (eye - K @ H).T + K @ R @ K.T
    out = np.empty((kappa, 2))
    for i in range(kappa):
        x = F @ x
        out[i] = x[:2]
    return out


def reference_autoregressive(params, features_std, last_observed_pos, kappa):
    """One window, no caching: re-run the whole decoder over the growing prefix
    at every step and keep its last row."""
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    memory = encoder_forward(embed_source(features_std, params), params)
    offsets = []
    for step in range(kappa):
        dec_in = params["start_token"]
        if offsets:
            dec_in = ad.concat([dec_in, ad.Tensor(np.stack(offsets))], axis=0)
        decoded = decoder_forward(embed_target(dec_in, params), memory, params)
        nxt = project_output(decoded, params).data[-1]
        if not np.all(np.isfinite(nxt)):
            raise DivergenceError(f"non-finite offset at decode step {step}")
        offsets.append(nxt.copy())
    return np.asarray(last_observed_pos, dtype=np.float64) + np.cumsum(offsets, axis=0)


def reference_window_features(scenes, wcfg, pg, sc, context=True):
    """The per-window feature loop: every window, sliced from its pedestrian
    track at each stride-aligned start, lists the agents whose track overlaps
    its observed interval, then rebuilds each of its steps from scratch, so a
    step shared by several windows is computed once per window. Takes
    resampled scenes; returns the FeatureSet the pipeline must match."""
    keys, blocks, targets, last, obs, fut = [], [], [], [], [], []
    total = wcfg.delta + wcfg.kappa
    for scene in scenes:
        scene_id = scene.scene_map.scene_id
        by_id = {t.agent_id: t for t in scene.tracks}
        for track in scene.tracks:
            if track.agent_type != "pedestrian":
                continue
            for start in range(0, len(track) - total + 1, wcfg.stride):
                seen = slice(start, start + wcfg.delta)
                window = TrajectoryWindow(track.agent_id, scene_id, track.t[seen],
                                          track.xy_m[seen], track.xy_px[seen])
                fut_m = track.xy_m[start + wcfg.delta : start + total]
                lo, hi = window.t_obs[0] - 1e-9, window.t_obs[-1] + 1e-9
                refs = [o.agent_id for o in scene.tracks
                        if o.agent_id != track.agent_id and o.t[-1] >= lo and o.t[0] <= hi]
                blocks.append(_window_features(window, refs, by_id, scene.scene_map, pg, sc,
                                               context))
                keys.append((scene_id, track.agent_id, start))
                targets.append(compute_offsets(np.concatenate([window.obs_m[-1:], fut_m])))
                last.append(window.obs_m[-1])
                obs.append(window.obs_m)
                fut.append(fut_m)
    return FeatureSet(keys, np.array(blocks), np.array(targets), np.array(last), np.array(obs),
                      np.array(fut), context)


def _window_features(window, refs, by_id, scene_map, pg, sc, context):
    offsets = compute_offsets(window.obs_m)
    if not context:
        return offsets
    out = np.zeros((len(offsets), feature_dim(pg, sc)))
    out[:, :2] = offsets
    for i in range(len(offsets)):
        t_i = window.t_obs[i + 1]
        ego_px = window.obs_px[i + 1]
        neighbors = []
        for ref in refs:
            track = by_id[ref]
            j = int(np.searchsorted(track.t, t_i))
            for cand in (j - 1, j):
                if 0 <= cand < len(track) and abs(track.t[cand] - t_i) <= 1e-6:
                    neighbors.append((track.xy_px[cand], track.agent_type))
                    break
        out[i, 2 : 2 + pg.n_cells] = brute_force_grid(ego_px, neighbors, pg).reshape(-1)
        out[i, 2 + pg.n_cells :] = brute_force_semantics(ego_px, scene_map, sc)
    return out


def reference_adam_step(params, grads, state, cfg):
    """Textbook Adam with bias correction, per parameter name in ``grads``,
    every result a fresh array that is then stored into its view of the flat
    weight and moment buffers."""
    state.tau += 1
    bc1 = 1.0 - cfg.beta1 ** state.tau
    bc2 = 1.0 - cfg.beta2 ** state.tau
    m_views, v_views = params.views(state.m), params.views(state.v)
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
        m = m_views[name][...] = cfg.beta1 * m_views[name] + (1.0 - cfg.beta1) * g
        v = v_views[name][...] = cfg.beta2 * v_views[name] + (1.0 - cfg.beta2) * (g * g)
        update = cfg.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + cfg.eps)
        params[name].data[...] = params[name].data - update


def reference_init(config, seed):
    """Weights by name, one fresh array each, drawn in ``param_shapes``
    order: ones for layer-norm gains, Glorot-uniform for the 2-D weights
    other than the start token, zeros for the rest."""
    rng = np.random.default_rng(seed)
    out = {}
    for name, shape in ModelParams.param_shapes(config).items():
        if name.endswith(".gain"):
            out[name] = np.ones(shape)
        elif len(shape) == 2 and name != "start_token":
            limit = np.sqrt(6.0 / (shape[0] + shape[1]))
            out[name] = rng.uniform(-limit, limit, shape)
        else:
            out[name] = np.zeros(shape)
    return out


def reference_train(params, features, targets, cfg, state=None, start_epoch=0):
    """The per-window training loop: one tape and one backward per window,
    gradients summed per parameter and divided by the minibatch size, the
    clip norm from sum(g * g), then ``reference_adam_step``. Same carve-out,
    shuffles and dropout stream seeds as ``train``; dropout masks are drawn
    per window. Returns (history rows of train_loss/val_loss, state)."""
    n = len(features)
    state = state or AdamState(params)
    perm = np.random.default_rng([cfg.seed, 0x5EED]).permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx = perm[:n_val] if n - n_val >= 1 else perm[:0]
    train_idx = perm[len(val_idx):]

    def window_loss(f, t, rng=None):
        return l2_loss(teacher_forced_offsets(params, f, t, rng=rng), t)

    history = []
    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        rng = np.random.default_rng([cfg.seed, epoch])
        order = train_idx[rng.permutation(len(train_idx))]
        drop_rng = np.random.default_rng([cfg.seed, epoch, 1]) if params.config.dropout else None
        losses = []
        for lo in range(0, len(order), cfg.batch_size):
            batch = order[lo : lo + cfg.batch_size]
            acc = {name: np.zeros_like(arr) for name, arr in params.arrays().items()}
            for idx in batch:
                loss = window_loss(features[idx], targets[idx], drop_rng)
                losses.append(loss.item())
                grads = ad.backward(loss)
                for name, tensor in params.tensors.items():
                    g = grads.get(tensor)
                    if g is not None:
                        acc[name] += g
            for name in acc:
                acc[name] /= len(batch)
            if cfg.grad_clip is not None:
                total = np.sqrt(sum(float(np.sum(g * g)) for g in acc.values()))
                if total > cfg.grad_clip:
                    acc = {name: g * (cfg.grad_clip / total) for name, g in acc.items()}
            reference_adam_step(params, acc, state, cfg)
        val_loss = (float(np.mean([window_loss(features[i], targets[i]).item() for i in val_idx]))
                    if len(val_idx) else float("nan"))
        history.append({"epoch": epoch, "train_loss": float(np.mean(losses)),
                        "val_loss": val_loss})
    return history, state


def reference_save_bundle(path, arrays, meta=None):
    """The bundle writer that first converts every array to bytes, then writes."""
    entries, blobs = [], []
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name])
        dt = "<f8" if arr.dtype.kind == "f" else "<i8"
        entries.append({"name": name, "dtype": dt, "shape": list(arr.shape)})
        blobs.append(arr.astype(np.dtype(dt), copy=False).tobytes(order="C"))
    header = json.dumps({"format_version": 1, "meta": meta or {}, "arrays": entries},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as f:
        f.write(b"TJF1")
        f.write(len(header).to_bytes(8, "little"))
        f.write(header)
        for blob in blobs:
            f.write(blob)


# the tracks loader with one hand-written branch per adapter, against which the
# table-driven ``data.load_tracks`` is compared
_REFERENCE_HEADERS = {
    "canonical": ["scene_id", "agent_id", "agent_type", "t", "x_m", "y_m", "x_px", "y_px"],
    "dut": ["id", "frame", "label", "x_est", "y_est", "vx_est", "vy_est", "x_px", "y_px"],
    "ind": ["trackId", "frame", "xCenter", "yCenter", "xVelocity", "yVelocity", "class"],
}
_REFERENCE_IND_CLASS = {"pedestrian": "pedestrian", "car": "vehicle", "truck_bus": "vehicle",
                        "bicycle": "cyclist"}
_REFERENCE_DUT_LABEL = {"pedestrian": "pedestrian", "ped": "pedestrian", "vehicle": "vehicle",
                        "car": "vehicle"}


def _reference_id(value, path, row_no, column):
    if value in ("", ".", "..") or "/" in value or "\0" in value:
        raise DataError(f"{path} row {row_no}: {column} {value!r} is not a plain file name")
    return value


def reference_load_tracks(path, adapter, meters_per_pixel):
    """``data.load_tracks`` with one hand-written branch per adapter."""
    if adapter not in ("canonical", "dut", "ind"):
        raise DataError(f"unknown adapter {adapter!r}")
    path = Path(path)
    if not path.is_file():
        raise DataError(f"tracks file {path} does not exist")
    rows = {}
    scene_id = None
    with open(path, newline="", encoding="utf-8") as f:
        records = _read_csv(path, f)
        header = next(records)
        missing = [c for c in _REFERENCE_HEADERS[adapter] if c not in header]
        if missing:
            raise DataError(f"{path}: missing columns {missing} for adapter {adapter!r}")
        for row_no, rec in enumerate(records, start=2):
            if None in rec.values():
                raise DataError(f"{path} row {row_no}: fewer than {len(header)} columns")
            if adapter == "canonical":
                sid = rec["scene_id"]
                if scene_id is None:
                    scene_id = _reference_id(sid, path, row_no, "scene_id")
                elif sid != scene_id:
                    raise DataError(f"{path} row {row_no}: multiple scene ids ({scene_id!r}, {sid!r})")
                agent_id = _reference_id(rec["agent_id"], path, row_no, "agent_id")
                agent_type = rec["agent_type"]
                if agent_type not in AGENT_TYPES:
                    raise DataError(f"{path} row {row_no}: unknown agent_type {agent_type!r}")
                t = _parse_float(rec["t"], path, row_no, "t")
                xy_m = (_parse_float(rec["x_m"], path, row_no, "x_m"),
                        _parse_float(rec["y_m"], path, row_no, "y_m"))
                xy_px = (_parse_float(rec["x_px"], path, row_no, "x_px"),
                         _parse_float(rec["y_px"], path, row_no, "y_px"))
            elif adapter == "dut":
                agent_id = _reference_id(rec["id"], path, row_no, "id")
                label = rec["label"].strip().lower()
                if label not in _REFERENCE_DUT_LABEL:
                    raise DataError(f"{path} row {row_no}: unknown label {rec['label']!r}")
                agent_type = _REFERENCE_DUT_LABEL[label]
                t = _parse_float(rec["frame"], path, row_no, "frame") / 23.98
                xy_m = (_parse_float(rec["x_est"], path, row_no, "x_est"),
                        _parse_float(rec["y_est"], path, row_no, "y_est"))
                xy_px = (_parse_float(rec["x_px"], path, row_no, "x_px"),
                         _parse_float(rec["y_px"], path, row_no, "y_px"))
            else:  # ind
                agent_id = _reference_id(rec["trackId"], path, row_no, "trackId")
                cls = rec["class"].strip().lower()
                if cls not in _REFERENCE_IND_CLASS:
                    raise DataError(f"{path} row {row_no}: unknown class {rec['class']!r}")
                agent_type = _REFERENCE_IND_CLASS[cls]
                t = _parse_float(rec["frame"], path, row_no, "frame") / 25.0
                xy_m = (_parse_float(rec["xCenter"], path, row_no, "xCenter"),
                        _parse_float(rec["yCenter"], path, row_no, "yCenter"))
                xy_px = None

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
            if xy_px is not None:
                bucket["px"].append(xy_px)

    if scene_id is None:
        scene_id = "" if adapter == "canonical" else path.parent.name
    tracks = []
    for agent_id, bucket in rows.items():
        xy_m = np.array(bucket["m"])
        px = xy_m / meters_per_pixel if adapter == "ind" else np.array(bucket["px"])
        tracks.append(AgentTrack(agent_id, bucket["type"], np.array(bucket["t"]), xy_m, px))
    return tracks, scene_id
