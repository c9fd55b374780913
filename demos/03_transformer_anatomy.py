#!/usr/bin/env python3
"""Inside the sequence model: positional encoding, attention, causality.

Shows the sinusoidal position code, inspects post-softmax attention weights
through the introspection hook, and demonstrates that perturbing future
teacher-forcing inputs cannot change earlier decoder outputs.
"""

import numpy as np

from trajformer.model import (ModelConfig, ModelParams, positional_encoding,
                              teacher_forced_numpy, teacher_forced_offsets)

print("== positional encoding ==")
pe = positional_encoding(6, 8)
np.set_printoptions(precision=3, suppress=True)
print(pe)
print("row 0 alternates 0/1; each row is a unique timestamp within [-1, 1].")

config = ModelConfig(feature_dim=10, d_model=16, n_heads=2, n_layers=2)
params = ModelParams(config, seed=7)
rng = np.random.default_rng(7)
features = rng.normal(size=(8, 10))
targets = rng.normal(scale=0.1, size=(6, 2))

print("\n== attention weights via the introspection hook ==")
sink = []  # one record per block and head, weights (windows, queries, keys)
teacher_forced_numpy(params, features[None], targets[None], attn_sink=sink)
print(f"{len(sink)} weight matrices recorded "
      f"({config.n_layers} layers x {config.n_heads} heads x "
      "enc-self/dec-self/dec-cross)")
record = next(r for r in sink if r["block"].endswith("self_attn"))
print(f"decoder self-attention ({record['block']}, head {record['head']}):")
print(record["weights"][0])
print("rows sum to", record["weights"][0].sum(axis=-1), "and the upper triangle is")
print("zero: a step cannot attend to its future.")

print("\n== causality under teacher forcing ==")
base = teacher_forced_offsets(params, features, targets).data
shifted = targets.copy()
shifted[3:] += 100.0
out = teacher_forced_offsets(params, features, shifted).data
print("perturbing target steps 3..5 by +100 changes outputs 0..3 by",
      f"{np.max(np.abs(out[:4] - base[:4])):.2e}")
print("and outputs 4..5 by", f"{np.max(np.abs(out[4:] - base[4:])):.2e}")
