#!/usr/bin/env python3
"""Train a small model on obstacle scenes and roll it out for 5 seconds.

Pedestrians swerve around a parked vehicle; a constant-velocity filter
extrapolates straight through the swerve, while the trained model has both
the motion pattern and the interaction grid to anticipate it. Trains for
under a minute of CPU time, prints the comparison, and writes one SVG
overlay per method (prediction in blue, ground truth in green).
"""

import time
from pathlib import Path

import numpy as np

from trajformer.data import WindowConfig
from trajformer.evaluation import ade, cv_kalman_predict
from trajformer.features import FeatureStats, PolarGridConfig, SemanticConfig
from trajformer.model import ModelConfig, ModelParams, predict_autoregressive
from trajformer.pipeline import build_feature_set
from trajformer.plots import render_window_svg
from trajformer.synth import generate_scenes
from trajformer.training import TrainConfig, train

OUT = Path("runs/demo04")

wcfg = WindowConfig(delta=10, kappa=50, stride=12)
scenes = generate_scenes("obstacle", 2, seed=21, n_scenes=3)
fset = build_feature_set(scenes, wcfg, PolarGridConfig(), SemanticConfig())
print(f"{len(fset)} windows from {len(scenes)} obstacle scenes "
      f"(observe {wcfg.delta / wcfg.rate_hz:.0f} s, predict {wcfg.kappa / wcfg.rate_hz:.0f} s)")

stats = FeatureStats.fit([fset.features[i] for i in range(len(fset))])
standardized = [stats.apply(fset.features[i]) for i in range(len(fset))]
targets = [fset.target_offsets[i] for i in range(len(fset))]

config = ModelConfig(feature_dim=fset.features.shape[-1], d_model=32, n_heads=2, n_layers=2)
params = ModelParams(config, seed=21)
started = time.perf_counter()
history, _ = train(params, standardized, targets,
                   TrainConfig(epochs=30, learning_rate=1e-3, batch_size=16, seed=21,
                               grad_clip=1.0, val_fraction=0.0))
print(f"trained 30 epochs in {time.perf_counter() - started:.0f}s; "
      f"loss {history[0]['train_loss']:.4f} -> {history[-1]['train_loss']:.4f}")

print("\n== 5 s rollouts vs the constant-velocity baseline ==")
# one batched decode and one batched filter cover every window
preds = predict_autoregressive(params, np.stack(standardized), fset.last_obs_m, wcfg.kappa)
baseline = cv_kalman_predict(fset.obs_m, wcfg.kappa, 1.0 / wcfg.rate_hz)
model_err = ade(preds, fset.fut_m, wcfg.kappa)      # (N,) per-window ADE
kalman_err = ade(baseline, fset.fut_m, wcfg.kappa)
print(f"mean 5 s ADE  model: {np.mean(model_err):.3f} m   "
      f"cv_kalman: {np.mean(kalman_err):.3f} m")
print("(the filter drives straight through the swerve; the model anticipates it)")

OUT.mkdir(parents=True, exist_ok=True)
case = int(np.argmax(kalman_err))
scene_map = next(s.scene_map for s in scenes
                 if s.scene_map.scene_id == fset.keys[case][0])
print(f"\nworst window for the baseline: {fset.keys[case]} "
      f"(kalman {kalman_err[case]:.2f} m, model {model_err[case]:.2f} m)")
for name, track in (("model", preds[case]), ("cv_kalman", baseline[case])):
    svg = render_window_svg(scene_map, fset.obs_m[case], track, fset.fut_m[case],
                            title=f"{name} on {fset.keys[case]}")
    path = OUT / f"rollout_{name}.svg"
    path.write_text(svg)
    print("wrote", path)
