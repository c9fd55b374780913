import numpy as np
import pytest
from oracle_helpers import textbook_kalman

from trajformer.errors import ConfigError, DataError
from trajformer.evaluation import (MetricsRow, MetricsTable, ade, cv_kalman_gains,
                                   cv_kalman_predict, emit_report, evaluate, load_report,
                                   render_markdown, rmse)


# -------------------------------------------------------------- metrics

def test_ade_rmse_zero_on_perfect_prediction():
    x = np.random.default_rng(0).normal(size=(10, 2))
    assert ade(x, x, 10) == 0.0
    assert rmse(x, x, 10) == 0.0


def test_ade_constant_unit_error():
    gt = np.zeros((8, 2))
    pred = gt + np.array([1.0, 0.0])
    assert abs(ade(pred, gt, 8) - 1.0) < 1e-15


def test_rmse_three_four_five():
    gt = np.zeros((1, 2))
    pred = np.array([[3.0, 4.0]])
    assert abs(rmse(pred, gt, 1) - 5.0) < 1e-15


def test_metrics_match_direct_summation_oracle():
    rng = np.random.default_rng(1)
    pred, gt = rng.normal(size=(12, 2)), rng.normal(size=(12, 2))
    for upto in (1, 5, 12):
        dists = [np.sqrt((pred[i, 0] - gt[i, 0]) ** 2 + (pred[i, 1] - gt[i, 1]) ** 2)
                 for i in range(upto)]
        assert abs(ade(pred, gt, upto) - sum(dists) / upto) < 1e-12
        assert abs(rmse(pred, gt, upto) - np.sqrt(sum(d * d for d in dists) / upto)) < 1e-12


def test_rmse_at_least_ade_sweep():
    rng = np.random.default_rng(2)
    for _ in range(1000):
        n = int(rng.integers(1, 15))
        pred, gt = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
        upto = int(rng.integers(1, n + 1))
        assert rmse(pred, gt, upto) >= ade(pred, gt, upto) - 1e-12


def test_metrics_translation_invariant():
    rng = np.random.default_rng(3)
    pred, gt = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
    shift = np.array([123.0, -77.0])
    assert abs(ade(pred, gt, 9) - ade(pred + shift, gt + shift, 9)) < 1e-12
    assert abs(rmse(pred, gt, 9) - rmse(pred + shift, gt + shift, 9)) < 1e-12


def test_metric_shape_validation():
    with pytest.raises(ValueError):
        ade(np.zeros((3, 2)), np.zeros((4, 2)), 2)
    with pytest.raises(ValueError):
        rmse(np.zeros((3, 2)), np.zeros((3, 2)), 4)
    with pytest.raises(ValueError):
        ade(np.zeros((5, 3, 2)), np.zeros((4, 3, 2)), 2)
    with pytest.raises(ValueError):
        rmse(np.zeros(6), np.zeros(6), 1)


def test_metrics_on_stacks_equal_per_track_calls():
    rng = np.random.default_rng(9)
    pred, gt = rng.normal(size=(4, 3, 11, 2)), rng.normal(size=(4, 3, 11, 2))
    for upto in (1, 6, 11):
        for metric in (ade, rmse):
            stacked = metric(pred, gt, upto)
            assert stacked.shape == (4, 3)
            for idx in np.ndindex(4, 3):
                single = metric(pred[idx], gt[idx], upto)
                assert type(single) is float and stacked[idx] == single


# ------------------------------------------------------------- evaluate

def linear_windows(n=6, delta=8, kappa=20, rate=10.0):
    """(obs, fut): (n, delta, 2) and (n, kappa, 2) constant-velocity tracks."""
    rng = np.random.default_rng(4)
    v = rng.uniform(-1.5, 1.5, size=(n, 1, 2))
    start = rng.uniform(-5, 5, size=(n, 1, 2))
    xy = start + v * (np.arange(delta + kappa) / rate)[:, None]
    return xy[:, :delta], xy[:, delta:]


def test_evaluate_perfect_oracle_all_zero():
    _, fut = linear_windows()
    table = evaluate({"oracle": fut.copy()}, fut, [1.0, 2.0], 10.0, "dsB")
    assert len(table.rows) == 2
    for row in table.rows:
        assert row.ade_m == 0.0 and row.rmse_m == 0.0
        assert row.n_windows == len(fut)


def test_evaluate_table_shape_methods_by_horizons():
    _, fut = linear_windows()
    predictions = {"m1": fut + 0.1, "m2": fut - 0.2, "m3": fut * 1.01}
    horizons = [0.5, 1.0, 1.5, 2.0]
    table = evaluate(predictions, fut, horizons, 10.0, "dsB")
    assert len(table.rows) == 3 * 4
    assert {r.method for r in table.rows} == {"m1", "m2", "m3"}


def test_evaluate_empty_and_horizon_validation():
    empty = np.zeros((0, 20, 2))
    with pytest.raises(DataError):
        evaluate({"m": empty}, empty, [1.0], 10.0, "dsB")
    _, short = linear_windows(kappa=5)
    with pytest.raises(ConfigError):
        evaluate({"m": short}, short, [1.0], 10.0, "dsB")
    _, fut = linear_windows()
    with pytest.raises(ValueError):
        evaluate({"m": fut[:-1]}, fut, [1.0], 10.0, "dsB")


def test_evaluate_pooled_rmse_at_least_mean_ade():
    _, fut = linear_windows(n=10)
    noisy = fut + np.random.default_rng(5).normal(scale=0.3, size=fut.shape)
    table = evaluate({"noisy": noisy}, fut, [1.0, 2.0], 10.0, "dsB")
    for row in table.rows:
        assert row.rmse_m >= row.ade_m - 1e-12


def test_evaluate_at_horizon_flag():
    _, fut = linear_windows(n=3)
    # error grows linearly with step: cumulative ADE < at-horizon distance
    drift = fut + 0.01 * np.arange(1, fut.shape[1] + 1)[:, None]
    full = evaluate({"d": drift}, fut, [2.0], 10.0, "dsB")
    at = evaluate({"d": drift}, fut, [2.0], 10.0, "dsB", at_horizon=True)
    assert at.rows[0].ade_m > full.rows[0].ade_m


def per_window_loop_rows(preds, fut, steps, at_horizon, pooled_rmse):
    """(ADE, RMSE) per horizon step, scored one window at a time with
    explicit per-window formulas."""
    rows = []
    for s in steps:
        ades, rmses, sq = [], [], []
        for pred, gt in zip(preds, fut):
            if at_horizon:
                err = pred[s - 1] - gt[s - 1]
                dist = float(np.linalg.norm(err))
                ades.append(dist)
                rmses.append(dist)
                sq.append(float(err @ err))
            else:
                err = pred[:s] - gt[:s]
                ades.append(float(np.linalg.norm(err, axis=1).mean()))
                rmses.append(float(np.sqrt(np.sum(err**2, axis=1).mean())))
                sq.append(float(np.sum(err**2)) / s)
        rmse_val = np.sqrt(np.mean(sorted(sq))) if pooled_rmse else np.mean(sorted(rmses))
        rows.append((float(np.mean(sorted(ades))), float(rmse_val)))
    return rows


@pytest.mark.parametrize("at_horizon", [False, True])
@pytest.mark.parametrize("pooled_rmse", [True, False])
def test_evaluate_matches_per_window_loop(at_horizon, pooled_rmse):
    rng = np.random.default_rng(10)
    kappa = 50
    fut = rng.normal(scale=3.0, size=(37, kappa, 2)).cumsum(axis=1)
    pred = fut + rng.normal(scale=0.4, size=fut.shape).cumsum(axis=1)
    steps = [1, 2, 3, 4, 5, 7, 8, 9, 10, 16, 17, 20, 33, 50]
    horizons = [s / 10.0 for s in steps]
    table = evaluate({"m": pred}, fut, horizons, 10.0, "dsB",
                     at_horizon=at_horizon, pooled_rmse=pooled_rmse)
    want = per_window_loop_rows(pred, fut, steps, at_horizon, pooled_rmse)
    for row, (ade_val, rmse_val) in zip(table.rows, want):
        if at_horizon:  # the single-step distance: sqrt of a dot product vs a norm
            assert abs(row.ade_m - ade_val) <= 1e-12 * ade_val
            assert abs(row.rmse_m - rmse_val) <= 1e-12 * rmse_val
        else:
            assert row.ade_m == ade_val and row.rmse_m == rmse_val


# -------------------------------------------------------------- kalman

def test_kalman_exact_on_noise_free_linear_motion():
    dt = 0.1
    t = np.arange(30) * dt
    observed = np.stack([1.0 * t + 2.0, np.zeros(30)], axis=1)
    pred = cv_kalman_predict(observed, 10, dt)
    expected_x = observed[-1, 0] + 1.0 * dt * np.arange(1, 11)
    assert np.max(np.abs(pred[:, 0] - expected_x)) < 1e-6
    assert np.max(np.abs(pred[:, 1])) < 1e-6


def test_kalman_stationary_stays_put():
    observed = np.tile([3.0, -2.0], (20, 1))
    pred = cv_kalman_predict(observed, 15, 0.1)
    assert np.max(np.abs(pred - np.array([3.0, -2.0]))) < 1e-6


def test_kalman_matches_textbook_oracle_on_noisy_tracks():
    rng = np.random.default_rng(6)
    dt = 0.1
    tracks = []
    for _ in range(10):
        t = np.arange(25) * dt
        v = rng.uniform(-2, 2, size=2)
        clean = rng.uniform(-5, 5, size=2) + v * t[:, None]
        observed = clean + rng.normal(scale=0.08, size=clean.shape)
        tracks.append(observed)
        ours = cv_kalman_predict(observed, 12, dt, 0.5, 0.1)
        ref = textbook_kalman(observed, 12, dt, 0.5, 0.1)
        assert np.max(np.abs(ours - ref)) < 1e-9
    # all ten in one call: one shared gain sequence, ten states
    stacked = cv_kalman_predict(np.stack(tracks), 12, dt, 0.5, 0.1)
    assert stacked.shape == (10, 12, 2)
    for observed, ours in zip(tracks, stacked):
        assert np.max(np.abs(ours - textbook_kalman(observed, 12, dt, 0.5, 0.1))) < 1e-9
        assert np.array_equal(ours, cv_kalman_predict(observed, 12, dt, 0.5, 0.1))


def test_kalman_covariance_symmetric_psd_500_steps():
    # the covariance recursion cv_kalman_predict takes its gains from
    gains, covs = cv_kalman_gains(0.1, 500)
    assert gains.shape == (500, 4, 2) and covs.shape == (500, 4, 4)
    for P in covs:
        assert np.max(np.abs(P - P.T)) < 1e-9
        assert np.linalg.eigvalsh(P).min() > -1e-9


def test_kalman_input_validation():
    with pytest.raises(ValueError):
        cv_kalman_predict(np.zeros((1, 2)), 5, 0.1)
    bad = np.zeros((5, 2))
    bad[3, 0] = np.nan
    with pytest.raises(ValueError):
        cv_kalman_predict(bad, 5, 0.1)
    with pytest.raises(ValueError):
        cv_kalman_predict(np.zeros((3, 1, 2)), 5, 0.1)
    with pytest.raises(ValueError):
        cv_kalman_predict(np.zeros((3, 5, 2))[:, :, 0], 5, 0.1)


def test_kalman_error_monotone_in_horizon_on_arcs():
    # constant speed, monotone heading change: the CV baseline's error grows
    dt = 0.1
    steps = np.arange(80)
    theta = 0.04 * steps
    xy = np.cumsum(1.2 * dt * np.stack([np.cos(theta), np.sin(theta)], axis=1), axis=0)
    observed, future = xy[:30], xy[30:]
    pred = cv_kalman_predict(observed, 50, dt)
    ades = [ade(pred, future, int(h * 10)) for h in (1, 2, 3, 4, 5)]
    assert all(b >= a for a, b in zip(ades, ades[1:]))


# -------------------------------------------------------------- reports

def small_table():
    table = MetricsTable()
    table.rows.append(MetricsRow("dsB", "context_tf", 1.0, 0.41, 0.54, 100))
    return table


def test_report_single_row_csv(tmp_path):
    path = tmp_path / "report.csv"
    emit_report(small_table(), path, "csv")
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0] == "dataset,method,horizon_s,ade_m,rmse_m,n_windows"


def test_report_roundtrip(tmp_path):
    rng = np.random.default_rng(8)
    table = MetricsTable()
    for ds in ("dsA", "dsB"):
        for method in ("context_tf", "cv_kalman"):
            for h in (1.0, 2.0, 3.0):
                table.rows.append(MetricsRow(ds, method, h, float(rng.uniform(0, 3)),
                                             float(rng.uniform(0, 3)), 42))
    path = tmp_path / "report.csv"
    emit_report(table, path, "csv")
    loaded = load_report(path)
    assert loaded.sorted_rows() == table.sorted_rows()


def test_markdown_table_layout():
    # 2 datasets x 4 methods x 5 horizons, one block per dataset
    table = MetricsTable()
    methods = ("social_gan", "vanilla_tf", "osp", "context_tf")
    for ds in ("dut", "ind"):
        for m in methods:
            for h in (1, 2, 3, 4, 5):
                table.rows.append(MetricsRow(ds, m, float(h), 0.5, 0.6, 10))
    text = render_markdown(table)
    assert text.count("### ") == 2
    for block in text.split("### ")[1:]:
        lines = block.strip().splitlines()
        header = lines[1]
        assert header.count("|") == 6  # t column + 4 methods
        assert len([ln for ln in lines if ln.startswith("| ")]) == 6  # header + 5 horizons
    assert "0.50/0.60" in text


def test_empty_table_rejected(tmp_path):
    with pytest.raises(ValueError):
        emit_report(MetricsTable(), tmp_path / "x.csv", "csv")
