#!/usr/bin/env python3
"""Tensors, the tape, and gradient checking.

Differentiates a tiny expression, then a scalar loss through the model's
fused scaled dot-product attention node (two heads, causal mask), and
compares every query, key and value gradient against central finite
differences.
"""

import numpy as np

from trajformer import autodiff as ad
from trajformer.autodiff import Tensor, backward

rng = np.random.default_rng(0)

print("== a tiny expression ==")
x = Tensor([1.0, 2.0, 3.0])
loss = ad.tsum(ad.mul(x, x))           # sum(x^2)
grads = backward(loss)
print("x          :", x.data)
print("sum(x^2)   :", loss.item())
print("d/dx       :", grads[x], " (analytic 2x)")

print("\n== fused attention node ==")
q, k, v = (Tensor(rng.normal(size=(2, 3, 4))) for _ in range(3))  # (heads, steps, d_k)
proj = Tensor(rng.normal(size=(2, 3, 4)))  # fixed projection to a scalar
mask = np.triu(np.ones((3, 3), dtype=bool), k=1)  # step i sees steps <= i


def attention_loss():
    return ad.tsum(ad.mul(ad.attention(q, k, v, mask), proj))


loss = attention_loss()
weights = ad.attention_weights(q.data, k.data, mask)  # the softmax rows the node applies
grads = backward(loss)
print("loss value :", f"{loss.item():.6f}")
print("attention rows sum to", weights.sum(axis=-1).reshape(-1))
print("weights above the diagonal:", weights[:, mask].reshape(-1))

print("\n== finite-difference check over every query, key and value coordinate ==")
h = 1e-6
worst = 0.0
for leaf in (q, k, v):
    flat, analytic = leaf.data.reshape(-1), grads[leaf].reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + h
        up = attention_loss().item()
        flat[i] = keep - h
        down = attention_loss().item()
        flat[i] = keep
        numeric = (up - down) / (2 * h)
        worst = max(worst, abs(analytic[i] - numeric) / max(abs(numeric), 1e-6))
print(f"max relative error vs central differences: {worst:.2e}")
assert worst < 1e-5
print("tape gradients agree with finite differences.")
