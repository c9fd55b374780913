"""Teacher-forced training with the Adam optimizer.

Gradients come from the autodiff tape, the validation loss from the model's
tape-free forward. Training is a pure function of (data, config, seed):
parameter init, the validation carve-out and every epoch's shuffle derive
their RNG streams from the seed, so reruns and resumed runs reproduce loss
curves exactly.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import check_setting
from .errors import DivergenceError
from .model import (AdamState, ModelConfig, ModelParams, teacher_forced_numpy,
                    teacher_forced_offsets)

_VAL_STREAM = 0x5EED


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    learning_rate: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.98
    eps: float = 1e-9
    batch_size: int = 32
    seed: int = 0
    grad_clip: float | None = None
    val_fraction: float = 0.1

    def __post_init__(self):
        for name in ("epochs", "batch_size"):
            check_setting(self, name, 1)
        if not 0.0 < self.beta1 < 1.0 or not 0.0 < self.beta2 < 1.0:
            raise ValueError(f"beta1 and beta2 must lie in (0, 1), got {self.beta1}, {self.beta2}")
        for name in ("learning_rate", "eps"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError(f"val_fraction must be in [0, 1), got {self.val_fraction}")
        if self.grad_clip is not None and self.grad_clip <= 0:
            raise ValueError(f"grad_clip must be empty or positive, got {self.grad_clip}")


def l2_loss(pred, target) -> Tensor:
    """Mean squared difference over all entries."""
    pred = ad.as_tensor(pred)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"l2_loss: shapes {pred.shape} and {target.shape} differ")
    diff = ad.sub(pred, Tensor(target))
    return ad.tmean(ad.mul(diff, diff))


# Adam walks the flat buffers in slices this long; its scratch is two slices.
ADAM_SLICE = 2**16


def adam_step(params: ModelParams, grad: np.ndarray, state: AdamState,
              cfg: TrainConfig) -> None:
    """Standard Adam update with bias correction.

    ``grad`` is a vector in the layout of ``params.flat``. Moments and
    weights are updated in place, one slice at a time, with the operations
    in the order of lr * (m / bc1) / (sqrt(v / bc2) + eps), so the result is
    bit-equal to computing each new array afresh.
    """
    state.tau += 1
    bc1 = 1.0 - cfg.beta1 ** state.tau
    bc2 = 1.0 - cfg.beta2 ** state.tau
    scratch = np.empty((2, min(ADAM_SLICE, grad.size)))
    for lo in range(0, grad.size, ADAM_SLICE):
        part = slice(lo, lo + ADAM_SLICE)
        g, m, v = grad[part], state.m[part], state.v[part]
        tmp, update = scratch[:, :len(g)]
        if not np.all(np.isfinite(g)):
            at = lo + int(np.argmin(np.isfinite(g)))
            name = next(n for n, i in params.views(np.arange(grad.size)).items() if at in i)
            raise DivergenceError(f"non-finite gradient for parameter {name!r}")
        np.multiply(g, 1.0 - cfg.beta1, out=tmp)
        m *= cfg.beta1
        m += tmp
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - cfg.beta2
        v *= cfg.beta2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += cfg.eps
        np.divide(m, bc1, out=update)
        update *= cfg.learning_rate
        update /= tmp
        params.flat[part] -= update


# Windows go through the tape together in chunks whose forward activations
# (float64) fit in this many bytes; a larger minibatch is split into chunks
# and each chunk's gradient is weighted by its share of the minibatch.
TRAIN_BUDGET_BYTES = 256 * 2**20


def train_chunk_size(cfg: ModelConfig, src_len: int, kappa: int) -> int:
    """Windows per tape chunk under TRAIN_BUDGET_BYTES (at least one).

    Per layer the tape keeps about 10 d_model-wide rows per source step
    (8 in the encoder, the memory's cross-attention keys and values) and 12
    per target step: 22 MB per window at the paper shape.
    """
    rows = cfg.n_layers * (10 * src_len + 12 * kappa) + 2 * (src_len + kappa)
    return max(1, TRAIN_BUDGET_BYTES // (8 * cfg.d_model * rows))


def _window_losses(pred: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Each window's mean L2, as ``l2_loss`` computes it for one window."""
    diff = pred - targets
    return (diff * diff).reshape(len(diff), -1).mean(axis=1)


def _batch_gradients(params: ModelParams, features: np.ndarray, targets: np.ndarray,
                     rng: np.random.Generator | None = None,
                     where: str = "") -> tuple[np.ndarray, np.ndarray]:
    """Gradient of the mean over windows of each window's mean L2, as a
    vector in the layout of ``params.flat``, and the per-window losses.
    Windows (B, L, F) run as one tape per chunk of ``train_chunk_size``
    windows; with several chunks, chunk c's loss is weighted by n_c / B
    before its backward adds its gradient into the vector."""
    n = len(features)
    chunk = train_chunk_size(params.config, features.shape[1], targets.shape[1])
    losses = np.empty(n)
    grad = np.zeros(params.flat.size)  # pages are mapped as backward first writes them
    into = {params[name]: view for name, view in params.views(grad).items()}
    for lo in range(0, n, chunk):
        f, t = features[lo:lo + chunk], targets[lo:lo + chunk]
        pred = teacher_forced_offsets(params, f, t, rng=rng)
        losses[lo:lo + len(f)] = _window_losses(pred.data, t)
        if not np.all(np.isfinite(losses[lo:lo + len(f)])):
            raise DivergenceError(f"training loss is not finite{where}")
        loss = l2_loss(pred, t)
        ad.backward(loss if len(f) == n else ad.scale(loss, len(f) / n), into)
        del pred, loss  # free this chunk's tape before the next one is built
    return grad, losses


def _eval_mean_loss(params: ModelParams, features: np.ndarray, targets: np.ndarray) -> float:
    """Mean over windows of each window's mean L2, teacher-forced, off the tape."""
    return float(np.mean(_window_losses(teacher_forced_numpy(params, features, targets), targets)))


def _stack_windows(features, targets) -> tuple[np.ndarray, np.ndarray]:
    if len(features) != len(targets) or not len(features):
        raise ValueError(f"{len(features)} feature blocks vs {len(targets)} target blocks")
    try:
        return np.asarray(features, dtype=np.float64), np.asarray(targets, dtype=np.float64)
    except ValueError:
        raise ValueError("feature and target windows must each share one shape") from None


def train(
    params: ModelParams,
    features: list[np.ndarray] | np.ndarray,
    targets: list[np.ndarray] | np.ndarray,
    cfg: TrainConfig,
    state: AdamState | None = None,
    start_epoch: int = 0,
    on_epoch=None,
) -> tuple[list[dict], AdamState]:
    """Teacher-forced training loop over standardized feature windows.

    Windows (a list or an (N, L, F) array, all of one shape) are shuffled
    per epoch and cut into minibatches; each minibatch is one forward and
    one backward on the tape (chunked under ``TRAIN_BUDGET_BYTES``) and one
    Adam step. The loss is the mean over the minibatch of each window's mean
    L2. With dropout, masks come from the stream
    ``default_rng([seed, epoch, 1])``: one draw per dropout op per chunk,
    shaped like that op's (chunk, L, d) activations.

    Returns one history row per epoch: epoch index, mean train loss, mean
    validation loss (NaN when no carve-out), wall seconds, the mean pre-clip
    global gradient norm over the epoch's minibatches, the number of
    minibatches whose gradient was clipped, and training windows per wall
    second. ``on_epoch`` is called after each epoch with (epoch, params,
    state, row); the CLI hangs checkpointing off it.
    """
    features, targets = _stack_windows(features, targets)
    n = len(features)
    state = state or AdamState(params)

    # diagnostics carve-out; fixed permutation so resumed runs agree
    perm = np.random.default_rng([cfg.seed, _VAL_STREAM]).permutation(n)
    n_val = int(round(cfg.val_fraction * n))
    val_idx = perm[:n_val] if n - n_val >= 1 else perm[:0]
    train_idx = perm[len(val_idx):]

    history: list[dict] = []
    for epoch in range(start_epoch, start_epoch + cfg.epochs):
        started = time.perf_counter()
        rng = np.random.default_rng([cfg.seed, epoch])
        order = train_idx[rng.permutation(len(train_idx))]
        drop_rng = np.random.default_rng([cfg.seed, epoch, 1]) if params.config.dropout else None
        losses, norms, clipped = [], [], 0
        for batch_no, lo in enumerate(range(0, len(order), cfg.batch_size)):
            batch = order[lo : lo + cfg.batch_size]
            grad, batch_losses = _batch_gradients(
                params, features[batch], targets[batch], drop_rng,
                f" at epoch {epoch}, batch {batch_no}")
            losses.extend(batch_losses.tolist())
            # per-parameter sums of squares in numpy's own loop, summed: BLAS ddot's
            # rounding depends on its thread count
            norm = float(np.sqrt(sum(float(np.einsum("i,i->", g.ravel(), g.ravel()))
                                     for g in params.views(grad).values())))
            norms.append(norm)
            if cfg.grad_clip is not None and norm > cfg.grad_clip:
                clipped += 1
                grad *= cfg.grad_clip / norm
            adam_step(params, grad, state, cfg)
            del grad  # else held while the next minibatch's tape is built
        val_loss = (_eval_mean_loss(params, features[val_idx], targets[val_idx])
                    if len(val_idx) else float("nan"))
        wall = time.perf_counter() - started
        row = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            "val_loss": val_loss,
            "wall_seconds": wall,
            "grad_norm": float(np.mean(norms)),
            "clipped_batches": clipped,
            "windows_per_s": len(order) / wall,
        }
        history.append(row)
        if on_epoch is not None:
            on_epoch(epoch, params, state, row)
    return history, state
