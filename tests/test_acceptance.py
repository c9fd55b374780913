"""Acceptance suite: one test per shipping criterion, each printing a
[PASS] line with the measured numbers when it holds (run with -s or -v).

Full-scale score reproduction needs the real drone datasets and full-size
training; these criteria pin the desk-scale properties instead, plus the
ability to produce the 2-datasets x methods x 5-horizons report layout.
"""

import time

import numpy as np
from oracle_helpers import brute_force_grid, brute_force_semantics, textbook_kalman

from trajformer.cli import main as cli_main
from trajformer.data import WindowConfig
from trajformer.evaluation import MetricsTable, ade, cv_kalman_predict, evaluate, render_markdown, rmse
from trajformer.features import (FeatureStats, PolarGridConfig, SemanticConfig, polar_occupancy,
                                 semantic_histogram)
from trajformer.maps import SceneMap
from trajformer.model import (ModelConfig, ModelParams, positional_encoding,
                              predict_autoregressive, teacher_forced_offsets)
from trajformer.pipeline import build_feature_set, decode_predictor
from trajformer.synth import generate_scenes
from trajformer.training import TrainConfig, train, verify_gradients


def report(name: str, detail: str):
    print(f"[PASS] {name}: {detail}")


def train_model(fset, context, seed, epochs, d_model=32, n_heads=2, n_layers=2, lr=1e-3,
                batch_size=16):
    feats = fset.features if context else fset.features[:, :, :2]
    stats = FeatureStats.fit([feats[i] for i in range(len(feats))])
    std = [stats.apply(feats[i]) for i in range(len(feats))]
    targets = [fset.target_offsets[i] for i in range(len(fset))]
    config = ModelConfig(feature_dim=feats.shape[-1], d_model=d_model, n_heads=n_heads,
                         n_layers=n_layers)
    params = ModelParams(config, seed=seed)
    cfg = TrainConfig(epochs=epochs, learning_rate=lr, batch_size=batch_size, seed=seed,
                      val_fraction=0.0, grad_clip=1.0)
    history, state = train(params, std, targets, cfg)
    return params, stats, history, state


def rollout_ade(params, stats, fset, context, upto, kappa):
    feats = fset.features if context else fset.features[:, :, :2]
    preds = predict_autoregressive(params, stats.apply(feats), fset.last_obs_m, kappa)
    values = [ade(preds[i], fset.fut_m[i], upto) for i in range(len(fset))]
    return float(np.mean(values)), values


# ---------------------------------------------------------------------

def test_gradient_correctness():
    """Tiny config, every parameter sampled, analytic vs central differences."""
    started = time.perf_counter()
    config = ModelConfig(feature_dim=10, d_model=8, n_heads=1, n_layers=1)
    params = ModelParams(config, seed=0)
    rng = np.random.default_rng(0)
    features = [rng.normal(size=(5, 10)) for _ in range(2)]
    targets = [rng.normal(scale=0.2, size=(4, 2)) for _ in range(2)]
    result = verify_gradients(params, features, targets, n_samples=120, h=1e-6, seed=1)
    sampled = {s["param"] for s in result["samples"]}
    elapsed = time.perf_counter() - started
    assert result["max_rel_err"] < 1e-4, result["worst"]
    assert elapsed < 30.0
    report("gradient correctness",
           f"max rel err {result['max_rel_err']:.2e} over {len(result['samples'])} samples "
           f"({len(sampled)} distinct tensors) in {elapsed:.1f}s")


def test_attention_normalization():
    config = ModelConfig(feature_dim=12, d_model=32, n_heads=4, n_layers=3)
    params = ModelParams(config, seed=2)
    rng = np.random.default_rng(3)
    sink = []
    teacher_forced_offsets(params, rng.normal(size=(9, 12)), rng.normal(size=(7, 2)),
                           attn_sink=sink)
    assert len(sink) == config.n_layers * config.n_heads * 3
    worst = 0.0
    for record in sink:
        worst = max(worst, float(np.max(np.abs(record["weights"].sum(axis=-1) - 1.0))))
    assert worst < 1e-12
    report("attention normalization",
           f"{len(sink)} weight matrices, worst row-sum deviation {worst:.2e}")


def test_causality():
    config = ModelConfig(feature_dim=8, d_model=16, n_heads=2, n_layers=2)
    params = ModelParams(config, seed=4)
    rng = np.random.default_rng(5)
    features = rng.normal(size=(6, 8))
    targets = rng.normal(size=(10, 2))
    base = teacher_forced_offsets(params, features, targets).data
    worst = 0.0
    for cut in range(1, 10):
        perturbed = targets.copy()
        perturbed[cut:] += rng.normal(scale=5.0, size=perturbed[cut:].shape)
        out = teacher_forced_offsets(params, features, perturbed).data
        worst = max(worst, float(np.max(np.abs(out[: cut + 1] - base[: cut + 1]))))
    assert worst < 1e-12
    report("causality", f"kappa=10 rollout, worst prefix deviation {worst:.2e}")


def test_positional_encoding():
    pe = positional_encoding(200, 64)
    assert np.array_equal(pe[0, 0::2], np.zeros(32))
    assert np.array_equal(pe[0, 1::2], np.ones(32))
    assert np.all(pe >= -1.0) and np.all(pe <= 1.0)
    min_gap = np.inf
    for i in range(200):
        diffs = np.max(np.abs(pe - pe[i]), axis=1)
        diffs[i] = np.inf
        min_gap = min(min_gap, float(diffs.min()))
    assert min_gap > 0.0
    report("positional encoding",
           f"row 0 alternates 0/1 exactly, entries bounded, 200 rows distinct "
           f"(closest pair gap {min_gap:.3f})")


def test_overfit_convergence():
    started = time.perf_counter()
    wcfg = WindowConfig(delta=10, kappa=10, stride=17)
    fset = build_feature_set(generate_scenes("linear", 8, seed=42, n_scenes=1),
                             wcfg, PolarGridConfig(), SemanticConfig())
    fset.features = fset.features[:8]
    fset.keys = fset.keys[:8]
    stats = FeatureStats.fit([fset.features[i] for i in range(8)])
    std = [stats.apply(fset.features[i]) for i in range(8)]
    targets = [fset.target_offsets[i] for i in range(8)]
    config = ModelConfig(feature_dim=fset.features.shape[-1], d_model=32, n_heads=2, n_layers=2)
    params = ModelParams(config, seed=42)
    cfg = TrainConfig(epochs=1, learning_rate=1e-3, batch_size=8, seed=42, val_fraction=0.0)

    def training_ade():
        preds = predict_autoregressive(params, np.stack(std), fset.last_obs_m[:8], wcfg.kappa)
        return float(np.mean([ade(preds[i], fset.fut_m[i], wcfg.kappa) for i in range(8)]))

    state = None
    steps = 0
    reached = None
    while steps < 2000:
        _, state = train(params, std, targets, cfg, state=state, start_epoch=steps)
        steps += 1  # batch_size 8 over 8 windows: one optimizer step per epoch
        if steps % 25 == 0:
            value = training_ade()
            if value < 0.05:
                reached = (steps, value)
                break
    elapsed = time.perf_counter() - started
    assert reached is not None, f"training ADE still {training_ade():.3f} after 2000 steps"
    assert elapsed < 120.0
    report("overfit convergence",
           f"training ADE {reached[1]:.4f} m after {reached[0]} optimizer steps "
           f"in {elapsed:.0f}s")


def test_context_ablation_signal():
    """Context-on vs context-off on held-out obstacle scenes, 5 seeds."""
    wcfg = WindowConfig(delta=10, kappa=50, stride=12)
    pg, sc = PolarGridConfig(), SemanticConfig()
    context_ades, vanilla_ades = [], []
    for seed in range(5):
        train_set = build_feature_set(generate_scenes("obstacle", 2, seed=1000 + seed,
                                                      n_scenes=3), wcfg, pg, sc)
        test_set = build_feature_set(generate_scenes("obstacle", 2, seed=2000 + seed,
                                                     n_scenes=2), wcfg, pg, sc)
        ctx_params, ctx_stats, _, _ = train_model(train_set, True, seed, epochs=30)
        van_params, van_stats, _, _ = train_model(train_set, False, seed, epochs=30)
        ctx, _ = rollout_ade(ctx_params, ctx_stats, test_set, True, 50, 50)
        van, _ = rollout_ade(van_params, van_stats, test_set, False, 50, 50)
        context_ades.append(ctx)
        vanilla_ades.append(van)
    ctx_median = float(np.median(context_ades))
    van_median = float(np.median(vanilla_ades))
    assert ctx_median < van_median, (context_ades, vanilla_ades)
    report("context ablation signal",
           f"median 5s ADE context {ctx_median:.3f} m < offsets-only {van_median:.3f} m "
           f"(per-seed context {[f'{v:.2f}' for v in context_ades]}, "
           f"offsets-only {[f'{v:.2f}' for v in vanilla_ades]})")


def test_feature_oracles():
    rng = np.random.default_rng(6)
    kinds = ("pedestrian", "vehicle", "cyclist")
    for _ in range(1000):
        cfg = PolarGridConfig(threshold_px=float(rng.uniform(5, 120)),
                              radial_bins=int(rng.integers(1, 7)),
                              angular_bins=int(rng.integers(1, 12)),
                              type_channels=int(rng.choice([1, 3])))
        ego = rng.uniform(-50, 50, size=2)
        neighbors = [(ego + rng.uniform(-130, 130, size=2), kinds[rng.integers(3)])
                     for _ in range(rng.integers(0, 12))]
        assert np.array_equal(polar_occupancy(ego, neighbors, cfg),
                              brute_force_grid(ego, neighbors, cfg))
    for _ in range(1000):
        h, w = int(rng.integers(4, 20)), int(rng.integers(4, 20))
        scene = SceneMap("s", rng.integers(0, 6, size=(h, w)).astype(np.uint8), 0.1)
        cfg = SemanticConfig(k=int(rng.integers(1, 25)), d_max_px=float(rng.uniform(0.5, 15)))
        pos = rng.uniform(-2, max(h, w) + 2, size=2)
        assert np.array_equal(semantic_histogram(pos, scene, cfg),
                              brute_force_semantics(pos, scene, cfg))
    worst_metric = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 20))
        pred, gt = rng.normal(size=(n, 2)), rng.normal(size=(n, 2))
        upto = int(rng.integers(1, n + 1))
        dists = np.sqrt(((pred[:upto] - gt[:upto]) ** 2).sum(axis=1))
        worst_metric = max(worst_metric,
                           abs(ade(pred, gt, upto) - dists.mean()),
                           abs(rmse(pred, gt, upto) - np.sqrt((dists**2).mean())))
        assert rmse(pred, gt, upto) >= ade(pred, gt, upto) - 1e-12
    assert worst_metric < 1e-12
    report("feature oracles",
           "polar grid and semantic k-NN exact on 1000 random configs each; "
           f"ade/rmse vs direct summation within {worst_metric:.1e}; rmse >= ade everywhere")


def test_kalman_baseline():
    dt = 0.1
    t = np.arange(30) * dt
    observed = np.stack([2.0 + 1.3 * t, -1.0 + 0.4 * t], axis=1)
    pred = cv_kalman_predict(observed, 20, dt)
    future_t = t[-1] + dt * np.arange(1, 21)
    truth = np.stack([2.0 + 1.3 * future_t, -1.0 + 0.4 * future_t], axis=1)
    clean_err = float(np.max(np.abs(pred - truth)))
    assert clean_err < 1e-6

    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(20):
        v = rng.uniform(-2, 2, size=2)
        clean = rng.uniform(-5, 5, size=2) + v * t[:, None]
        noisy = clean + rng.normal(scale=0.08, size=clean.shape)
        ours = cv_kalman_predict(noisy, 15, dt, 0.5, 0.1)
        ref = textbook_kalman(noisy, 15, dt, 0.5, 0.1)
        worst = max(worst, float(np.max(np.abs(ours - ref))))
    assert worst < 1e-9
    report("kalman baseline",
           f"noise-free CV error {clean_err:.1e} m; textbook-filter agreement {worst:.1e} m")


def test_determinism_end_to_end(tmp_path):
    def run_once(tag):
        # same leaf names both runs: the dataset name appears in the report
        root = tmp_path / tag / "ds"
        out = tmp_path / tag / "out"
        assert cli_main(["synth", "--out", str(root), "--scenario", "stop_go", "--n", "2",
                         "--scenes", "1", "--seed", "5"]) == 0
        args = ["--set", f"data.train_root={root}", "--set", f"out_dir={out}",
                "--set", "window.delta=6", "--set", "window.kappa=8",
                "--set", "window.stride=12", "--set", "model.d_model=16",
                "--set", "model.n_heads=2", "--set", "model.n_layers=1",
                "--set", "model.d_ff=32", "--set", "train.epochs=2",
                "--set", "train.val_fraction=0", "--set", "eval.horizons=0.4,0.8",
                "--set", "seed=6"]
        assert cli_main(["preprocess", *args]) == 0
        assert cli_main(["train", *args]) == 0
        assert cli_main(["evaluate", *args, "--test-root", str(root),
                         "--checkpoint", str(out / "model.ckpt"),
                         "--methods", "context_tf,cv_kalman", "--allow-same-dataset"]) == 0
        return ((out / "report.csv").read_bytes(), (out / "report.md").read_bytes(),
                (out / "cache" / "train_features.bin").read_bytes(),
                (out / "model.ckpt").read_bytes())

    first = run_once("a")
    second = run_once("b")
    assert first == second
    report("determinism",
           "synth -> preprocess -> train -> evaluate reruns byte-identical "
           f"(report.csv {len(first[0])} B, report.md {len(first[1])} B, "
           f"cache {len(first[2])} B, checkpoint {len(first[3])} B)")


def test_report_table_shape_capability(tmp_path):
    """Cross-dataset protocol produces the 2-datasets x methods x 5-horizons layout."""
    wcfg = WindowConfig(delta=10, kappa=50, stride=40)
    pg, sc = PolarGridConfig(), SemanticConfig()
    sets = {
        "synthA": build_feature_set(generate_scenes("obstacle", 1, seed=31, n_scenes=1),
                                    wcfg, pg, sc),
        "synthB": build_feature_set(generate_scenes("obstacle", 1, seed=32, n_scenes=1),
                                    wcfg, pg, sc),
    }
    horizons = [1.0, 2.0, 3.0, 4.0, 5.0]
    merged = MetricsTable()
    for train_name, test_name in (("synthA", "synthB"), ("synthB", "synthA")):
        ctx_params, ctx_stats, _, _ = train_model(sets[train_name], True, 0, epochs=3)
        van_params, van_stats, _, _ = train_model(sets[train_name], False, 0, epochs=3)
        test = sets[test_name]
        predictions = {
            "context_tf": decode_predictor(ctx_params, ctx_stats, test, True),
            "vanilla_tf": decode_predictor(van_params, van_stats, test, False),
            "cv_kalman": cv_kalman_predict(test.obs_m, wcfg.kappa, 0.1),
        }
        table = evaluate(predictions, test.fut_m, horizons, wcfg.rate_hz, dataset=test_name)
        merged.rows.extend(table.rows)
    assert len(merged.rows) == 2 * 3 * 5
    markdown = render_markdown(merged)
    assert markdown.count("### ") == 2
    for block in markdown.split("### ")[1:]:
        lines = [ln for ln in block.strip().splitlines() if ln.startswith("| ")]
        assert len(lines) == 6  # header + one row per horizon second
        assert lines[0].count("|") == 5  # t column + three methods
    report("report shape",
           "2 datasets x 3 methods x 5 horizons = 30 rows; markdown renders one "
           "block per dataset with horizons 1-5 s")
