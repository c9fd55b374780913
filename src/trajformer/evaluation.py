"""Displacement metrics, their report tables and the CV-Kalman baseline.

Predictions are plain (N, kappa, 2) arrays of absolute positions, aligned
row for row with the ground truth. ADE(h) and RMSE(h) aggregate over all
steps up to horizon h (cumulative), with the single-step-at-h variant
behind ``at_horizon``. Across windows ADE is the unweighted mean of
per-window ADEs; RMSE pools squared errors over all windows and steps by
default (``pooled=False`` averages per-window RMSEs instead).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .serialize import atomic_open


def _error(pred, gt, upto_step: int) -> np.ndarray:
    """pred - gt over steps 1..upto_step of (..., n, 2) tracks."""
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim < 2 or pred.shape[-1] != 2:
        raise ValueError(f"metric shapes differ or are not (..., n, 2): {pred.shape} vs {gt.shape}")
    if not 1 <= upto_step <= pred.shape[-2]:
        raise ValueError(f"upto_step {upto_step} outside 1..{pred.shape[-2]}")
    return pred[..., :upto_step, :] - gt[..., :upto_step, :]


def _per_track(values):
    return float(values) if np.ndim(values) == 0 else values


def ade(pred, gt, upto_step: int):
    """Mean euclidean distance over steps 1..upto_step of each (n, 2) track
    in (..., n, 2): a float for one track, an array for a stack."""
    d = np.linalg.norm(_error(pred, gt, upto_step), axis=-1)
    return _per_track(d.mean(axis=-1))


def rmse(pred, gt, upto_step: int):
    """Root of the mean squared euclidean distance over steps 1..upto_step,
    per track like ``ade``."""
    d2 = np.sum(_error(pred, gt, upto_step) ** 2, axis=-1)
    return _per_track(np.sqrt(d2.mean(axis=-1)))


@dataclass
class MetricsRow:
    dataset: str
    method: str
    horizon_s: float
    ade_m: float
    rmse_m: float
    n_windows: int


@dataclass
class MetricsTable:
    rows: list[MetricsRow] = field(default_factory=list)

    def sorted_rows(self) -> list[MetricsRow]:
        return sorted(self.rows, key=lambda r: (r.dataset, r.method, r.horizon_s))

    def lookup(self, dataset: str, method: str, horizon_s: float) -> MetricsRow:
        for row in self.rows:
            if row.dataset == dataset and row.method == method and row.horizon_s == horizon_s:
                return row
        raise KeyError((dataset, method, horizon_s))


def evaluate(
    predictions: dict[str, np.ndarray],
    fut_m: np.ndarray,
    horizons_s: list[float],
    rate_hz: float,
    dataset: str,
    at_horizon: bool = False,
    pooled_rmse: bool = True,
) -> MetricsTable:
    """Score every method over every window at every horizon.

    ``predictions`` maps method name to its (N, kappa, 2) absolute positions,
    row i forecasting the ground truth ``fut_m[i]``; ``dataset`` labels the
    rows.
    """
    fut_m = np.asarray(fut_m, dtype=np.float64)
    if len(fut_m) == 0:
        raise DataError(f"no evaluation windows for dataset {dataset!r}")
    kappa = fut_m.shape[1]
    steps = []
    for h in horizons_s:
        s = int(round(h * rate_hz))
        if not 1 <= s <= kappa:
            raise ConfigError(f"horizon {h}s needs {s} steps but windows have {kappa}")
        steps.append(s)

    table = MetricsTable()
    n = len(fut_m)
    for method in sorted(predictions):
        pred = np.asarray(predictions[method], dtype=np.float64)
        for h, s in zip(horizons_s, steps):
            if at_horizon:  # the single step s, scored as a one-step track
                p, g, upto = pred[:, s - 1 : s], fut_m[:, s - 1 : s], 1
            else:
                p, g, upto = pred, fut_m, s
            # per-window values are sorted so the means do not depend on window order
            ade_val = float(np.mean(np.sort(ade(p, g, upto))))
            if pooled_rmse:
                # each window's squared error, summed over steps and axes in one pass
                sq = (_error(p, g, upto) ** 2).reshape(n, -1).sum(axis=1) / upto
                rmse_val = float(np.sqrt(np.mean(np.sort(sq))))
            else:
                rmse_val = float(np.mean(np.sort(rmse(p, g, upto))))
            table.rows.append(MetricsRow(dataset, method, float(h), ade_val, rmse_val, n))
    return table


# ----------------------------------------------------------- CV Kalman

def _cv_matrices(dt: float, q: float):
    f = np.array([[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.float64)
    q2 = q * q
    qblk = np.array([[dt**4 / 4, dt**3 / 2], [dt**3 / 2, dt**2]]) * q2
    qmat = np.zeros((4, 4))
    qmat[np.ix_([0, 2], [0, 2])] = qblk
    qmat[np.ix_([1, 3], [1, 3])] = qblk
    return f, qmat


def cv_kalman_gains(dt: float, n_updates: int, process_noise: float = 0.5,
                    measurement_noise: float = 0.1) -> tuple[np.ndarray, np.ndarray]:
    """Gains (n_updates, 4, 2) and posterior covariances (n_updates, 4, 4) of
    the constant-velocity filter, one per measurement update.

    The state is (x, y, vx, vy), seeded with position variance r and
    velocity variance 2r/dt^2 (r = measurement_noise^2). Neither sequence
    depends on the measurements, so every track of a batch shares them.
    """
    f, q = _cv_matrices(dt, process_noise)
    h = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float64)
    r = measurement_noise**2
    cov = np.diag([r, r, 2 * r / dt**2, 2 * r / dt**2])
    gains, covs = np.empty((n_updates, 4, 2)), np.empty((n_updates, 4, 4))
    for i in range(n_updates):
        cov = f @ cov @ f.T + q
        cov = 0.5 * (cov + cov.T)
        s = h @ cov @ h.T + r * np.eye(2)
        gains[i] = cov @ h.T @ np.linalg.inv(s)
        cov = (np.eye(4) - gains[i] @ h) @ cov
        covs[i] = cov = 0.5 * (cov + cov.T)
    return gains, covs


def cv_kalman_predict(
    observed: np.ndarray,
    kappa: int,
    dt: float,
    process_noise: float = 0.5,
    measurement_noise: float = 0.1,
) -> np.ndarray:
    """Filter each observed (..., n, 2) track, then roll the CV model kappa
    steps ahead: (..., kappa, 2).

    Each track seeds its position from the second fix and its velocity from
    the first difference. All tracks share one gain sequence
    (``cv_kalman_gains``), so the per-track work is the state update. The
    states are (N, 4, 1) columns: each product is the matrix-vector product
    a single-track call computes, so stacking tracks changes no bits.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim < 2 or observed.shape[-1] != 2:
        raise ValueError(f"cv_kalman_predict needs (..., n, 2) observations, got {observed.shape}")
    n = observed.shape[-2]
    if n < 2:
        raise ValueError(f"cv_kalman_predict needs >= 2 observations, got {n}")
    if not np.all(np.isfinite(observed)):
        raise ValueError("cv_kalman_predict: observations contain non-finite values")
    tracks = observed.reshape(-1, n, 2, 1)
    f = _cv_matrices(dt, process_noise)[0]
    gains, _ = cv_kalman_gains(dt, n - 2, process_noise, measurement_noise)
    state = np.concatenate([tracks[:, 1], (tracks[:, 1] - tracks[:, 0]) / dt], axis=1)
    for i, gain in enumerate(gains):
        state = f @ state
        state = state + gain @ (tracks[:, i + 2] - state[:, :2])
    out = np.empty((len(tracks), kappa, 2))
    for i in range(kappa):
        state = f @ state
        out[:, i] = state[:, :2, 0]
    return out.reshape(observed.shape[:-2] + (kappa, 2))


# ------------------------------------------------------------- reports

_CSV_HEADER = ["dataset", "method", "horizon_s", "ade_m", "rmse_m", "n_windows"]


def emit_report(table: MetricsTable, path, fmt: str = "csv") -> None:
    """Write the metrics table; deterministic row and column order."""
    if not table.rows:
        raise ValueError("cannot emit an empty metrics table")
    if fmt not in ("csv", "markdown"):
        raise ValueError(f"unknown report format {fmt!r}")
    with atomic_open(path, "w", newline="" if fmt == "csv" else None, encoding="utf-8") as f:
        if fmt == "markdown":
            f.write(render_markdown(table))
        else:
            writer = csv.writer(f)
            writer.writerow(_CSV_HEADER)
            for r in table.sorted_rows():
                writer.writerow([r.dataset, r.method, repr(float(r.horizon_s)),
                                 repr(float(r.ade_m)), repr(float(r.rmse_m)), r.n_windows])


def load_report(path) -> MetricsTable:
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


def render_markdown(table: MetricsTable) -> str:
    """One block per dataset: horizons down the rows, methods across, ADE/RMSE cells."""
    rows = table.sorted_rows()
    datasets = sorted({r.dataset for r in rows})
    lines = []
    for ds in datasets:
        ds_rows = [r for r in rows if r.dataset == ds]
        methods = sorted({r.method for r in ds_rows})
        horizons = sorted({r.horizon_s for r in ds_rows})
        lines.append(f"### {ds} (ADE/RMSE in meters, lower is better)")
        lines.append("| t (s) | " + " | ".join(methods) + " |")
        lines.append("|---" * (len(methods) + 1) + "|")
        by_key = {(r.method, r.horizon_s): r for r in ds_rows}
        for h in horizons:
            cells = [f"{by_key[(m, h)].ade_m:.2f}/{by_key[(m, h)].rmse_m:.2f}" for m in methods]
            lines.append(f"| {h:g} | " + " | ".join(cells) + " |")
        lines.append("")
    return "\n".join(lines)
