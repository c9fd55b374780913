"""Displacement metrics, the cross-dataset protocol and the CV-Kalman baseline.

ADE(h) and RMSE(h) aggregate over all steps up to horizon h (cumulative),
with the single-step-at-h variant behind ``at_horizon``. Across windows ADE
is the unweighted mean of per-window ADEs; RMSE pools squared errors over
all windows and steps by default (``pooled=False`` averages per-window
RMSEs instead).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError
from .serialize import atomic_open

METHODS = ("context_tf", "vanilla_tf", "cv_kalman")


def _check_pair(pred, gt, upto_step):
    pred = np.asarray(pred, dtype=np.float64)
    gt = np.asarray(gt, dtype=np.float64)
    if pred.shape != gt.shape or pred.ndim != 2 or pred.shape[1] != 2:
        raise ValueError(f"metric shapes differ or are not (n, 2): {pred.shape} vs {gt.shape}")
    if not 1 <= upto_step <= len(pred):
        raise ValueError(f"upto_step {upto_step} outside 1..{len(pred)}")
    return pred, gt


def ade(pred, gt, upto_step: int) -> float:
    """Mean euclidean distance over steps 1..upto_step."""
    pred, gt = _check_pair(pred, gt, upto_step)
    d = np.linalg.norm(pred[:upto_step] - gt[:upto_step], axis=1)
    return float(d.mean())


def rmse(pred, gt, upto_step: int) -> float:
    """Root of the mean squared euclidean distance over steps 1..upto_step."""
    pred, gt = _check_pair(pred, gt, upto_step)
    d2 = np.sum((pred[:upto_step] - gt[:upto_step]) ** 2, axis=1)
    return float(np.sqrt(d2.mean()))


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
    predictors: dict,
    cases: list,
    horizons_s: list[float],
    rate_hz: float,
    dataset: str,
    train_dataset: str | None = None,
    allow_same_dataset: bool = False,
    at_horizon: bool = False,
    pooled_rmse: bool = True,
) -> MetricsTable:
    """Score every predictor over every window at every horizon.

    ``predictors`` maps method name to a callable taking one case and
    returning (kappa, 2) absolute positions; a case only needs ``fut_m``
    ground truth (the pipeline's cases carry features, observed track and
    scene for the predictors' benefit). Train/test dataset names enforce
    the held-out protocol unless explicitly waived.
    """
    if not cases:
        raise DataError(f"no evaluation windows for dataset {dataset!r}")
    if train_dataset is not None and train_dataset == dataset and not allow_same_dataset:
        raise ConfigError(
            f"model was trained on {train_dataset!r}; evaluating on the same dataset "
            "requires allow_same_dataset"
        )
    kappa = len(cases[0].fut_m)
    steps = []
    for h in horizons_s:
        s = int(round(h * rate_hz))
        if not 1 <= s <= kappa:
            raise ConfigError(f"horizon {h}s needs {s} steps but windows have {kappa}")
        steps.append(s)

    table = MetricsTable()
    for method in sorted(predictors):
        preds = [np.asarray(predictors[method](case), dtype=np.float64) for case in cases]
        for h, s in zip(horizons_s, steps):
            ades, rmses, sq = [], [], []
            for case, pred in zip(cases, preds):
                gt = case.fut_m
                if at_horizon:
                    err = pred[s - 1] - gt[s - 1]
                    dist = float(np.linalg.norm(err))
                    ades.append(dist)
                    rmses.append(dist)
                    sq.append(float(err @ err))
                else:
                    ades.append(ade(pred, gt, s))
                    rmses.append(rmse(pred, gt, s))
                    sq.append(float(np.sum((pred[:s] - gt[:s]) ** 2)) / s)
            ade_val = float(np.mean(sorted(ades)))
            rmse_val = float(np.sqrt(np.mean(sorted(sq)))) if pooled_rmse else float(np.mean(sorted(rmses)))
            table.rows.append(MetricsRow(dataset, method, float(h), ade_val, rmse_val, len(cases)))
    return table


# ----------------------------------------------------------- CV Kalman

@dataclass
class CvKalmanState:
    state: np.ndarray        # (4,) x, y, vx, vy
    covariance: np.ndarray   # (4, 4)
    process_noise: float = 0.5       # white acceleration, m/s^2
    measurement_noise: float = 0.1   # position noise, m


def _cv_matrices(dt: float, q: float):
    f = np.array([[1, 0, dt, 0], [0, 1, 0, dt], [0, 0, 1, 0], [0, 0, 0, 1]], dtype=np.float64)
    q2 = q * q
    qblk = np.array([[dt**4 / 4, dt**3 / 2], [dt**3 / 2, dt**2]]) * q2
    qmat = np.zeros((4, 4))
    qmat[np.ix_([0, 2], [0, 2])] = qblk
    qmat[np.ix_([1, 3], [1, 3])] = qblk
    return f, qmat


class CvKalman:
    """Constant-velocity Kalman filter over 2-D position measurements."""

    def __init__(self, dt: float, process_noise: float = 0.5, measurement_noise: float = 0.1):
        self.dt = dt
        self.f, self.q = _cv_matrices(dt, process_noise)
        self.h = np.array([[1, 0, 0, 0], [0, 1, 0, 0]], dtype=np.float64)
        self.r = measurement_noise**2 * np.eye(2)
        self.process_noise = process_noise
        self.measurement_noise = measurement_noise
        self.kf: CvKalmanState | None = None

    def initialize(self, z0: np.ndarray, z1: np.ndarray) -> None:
        """Seed position from the second fix, velocity from the first difference."""
        v = (np.asarray(z1) - np.asarray(z0)) / self.dt
        state = np.array([z1[0], z1[1], v[0], v[1]], dtype=np.float64)
        r = self.measurement_noise**2
        cov = np.diag([r, r, 2 * r / self.dt**2, 2 * r / self.dt**2])
        self.kf = CvKalmanState(state, cov, self.process_noise, self.measurement_noise)

    def predict_step(self) -> None:
        kf = self.kf
        kf.state = self.f @ kf.state
        kf.covariance = self.f @ kf.covariance @ self.f.T + self.q
        kf.covariance = 0.5 * (kf.covariance + kf.covariance.T)

    def update(self, z: np.ndarray) -> None:
        kf = self.kf
        innovation = np.asarray(z, dtype=np.float64) - self.h @ kf.state
        s = self.h @ kf.covariance @ self.h.T + self.r
        gain = kf.covariance @ self.h.T @ np.linalg.inv(s)
        kf.state = kf.state + gain @ innovation
        kf.covariance = (np.eye(4) - gain @ self.h) @ kf.covariance
        kf.covariance = 0.5 * (kf.covariance + kf.covariance.T)


def cv_kalman_predict(
    observed: np.ndarray,
    kappa: int,
    dt: float,
    process_noise: float = 0.5,
    measurement_noise: float = 0.1,
) -> np.ndarray:
    """Filter the observed track, then roll the CV model kappa steps ahead."""
    observed = np.asarray(observed, dtype=np.float64)
    if len(observed) < 2:
        raise ValueError(f"cv_kalman_predict needs >= 2 observations, got {len(observed)}")
    if not np.all(np.isfinite(observed)):
        raise ValueError("cv_kalman_predict: observations contain non-finite values")
    filt = CvKalman(dt, process_noise, measurement_noise)
    filt.initialize(observed[0], observed[1])
    for z in observed[2:]:
        filt.predict_step()
        filt.update(z)
    out = np.empty((kappa, 2))
    for i in range(kappa):
        filt.predict_step()
        out[i] = filt.kf.state[:2]
    return out


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
