#!/usr/bin/env python3
"""Does context help? A held-out obstacle experiment.

Trains the same model twice on obstacle scenes, once with the full context
features and once on offsets alone, then scores both on scenes it has never
seen. A pedestrian approaching a parked vehicle swerves around it; offsets
alone cannot tell when (or to which side), the interaction grid can.
Takes a minute or two of CPU time.
"""

import numpy as np

from trajformer.data import WindowConfig
from trajformer.evaluation import MetricsTable, evaluate, render_markdown
from trajformer.features import FeatureStats, PolarGridConfig, SemanticConfig
from trajformer.model import ModelConfig, ModelParams
from trajformer.pipeline import build_feature_set, decode_predictor
from trajformer.synth import generate_scenes
from trajformer.training import TrainConfig, train

wcfg = WindowConfig(delta=10, kappa=50, stride=12)
pg, sc = PolarGridConfig(), SemanticConfig()

train_set = build_feature_set(generate_scenes("obstacle", 2, seed=1000, n_scenes=3), wcfg, pg, sc)
test_set = build_feature_set(generate_scenes("obstacle", 2, seed=2000, n_scenes=2), wcfg, pg, sc)
print(f"train: {len(train_set)} windows over 3 scenes; "
      f"test: {len(test_set)} windows over 2 unseen scenes")


def fit(context):
    feats = train_set.model_features(context)
    stats = FeatureStats.fit([feats[i] for i in range(len(feats))])
    config = ModelConfig(feature_dim=feats.shape[-1], d_model=32, n_heads=2, n_layers=2)
    params = ModelParams(config, seed=0)
    cfg = TrainConfig(epochs=30, learning_rate=1e-3, batch_size=16, seed=0, grad_clip=1.0,
                      val_fraction=0.0)
    train(params, [stats.apply(feats[i]) for i in range(len(feats))],
          [train_set.target_offsets[i] for i in range(len(train_set))], cfg)
    return params, stats


print("training with context features ...")
ctx_params, ctx_stats = fit(context=True)
print("training the offsets-only ablation ...")
van_params, van_stats = fit(context=False)

# each model decodes every test window in one batched call: (N, kappa, 2) positions
predictions = {
    "context_tf": decode_predictor(ctx_params, ctx_stats, test_set, context=True),
    "vanilla_tf": decode_predictor(van_params, van_stats, test_set, context=False),
}
table = evaluate(predictions, test_set.fut_m, [1, 2, 3, 4, 5], wcfg.rate_hz,
                 dataset="obstacle_heldout", train_dataset="obstacle_train")
print()
print(render_markdown(table))
gaps = {h: table.lookup("obstacle_heldout", "vanilla_tf", h).ade_m
        - table.lookup("obstacle_heldout", "context_tf", h).ade_m for h in (1.0, 5.0)}
print(f"The context advantage grows from {gaps[1.0]:.2f} m ADE at 1 s to "
      f"{gaps[5.0]:.2f} m at 5 s:")
print("long horizons contain the swerve, which offsets alone cannot anticipate.")
