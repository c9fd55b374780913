import tracemalloc

import numpy as np
import pytest
from oracle_helpers import reference_adam_step, reference_train, verify_gradients

from trajformer import autodiff as ad
from trajformer import training
from trajformer.autodiff import Tensor, backward
from trajformer.errors import DivergenceError
from trajformer.model import ModelConfig, ModelParams, teacher_forced_offsets
from trajformer.training import AdamState, TrainConfig, adam_step, l2_loss, train

TINY = ModelConfig(feature_dim=2, d_model=16, n_heads=2, n_layers=1, d_ff=32)


def constant_velocity_windows(n_windows=8, delta=5, kappa=5, seed=0):
    """Offset-only windows from constant-velocity motion; trivially learnable."""
    rng = np.random.default_rng(seed)
    features, targets = [], []
    for _ in range(n_windows):
        v = rng.uniform(-0.15, 0.15, size=2)
        features.append(np.tile(v, (delta - 1, 1)))
        targets.append(np.tile(v, (kappa, 1)))
    return features, targets


# ------------------------------------------------------------- l2 loss

def test_l2_identical_is_zero():
    x = np.random.default_rng(0).normal(size=(6, 2))
    assert l2_loss(Tensor(x), x).item() == 0.0


def test_l2_uniform_unit_difference():
    a = np.zeros((7, 2))
    assert abs(l2_loss(Tensor(a + 1.0), a).item() - 1.0) < 1e-15


def test_l2_matches_direct_summation_oracle():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(9, 2)), rng.normal(size=(9, 2))
    expected = ((a - b) ** 2).sum() / (2 * 9)
    assert abs(l2_loss(Tensor(a), b).item() - expected) < 1e-12


def test_l2_shape_mismatch():
    with pytest.raises(ValueError):
        l2_loss(Tensor(np.zeros((3, 2))), np.zeros((4, 2)))


# ---------------------------------------------------------------- adam

def small_params():
    return ModelParams(ModelConfig(feature_dim=2, d_model=4, n_heads=1, n_layers=1, d_ff=4),
                       seed=0)


def flat_of(params, named):
    """A flat gradient holding each named array in its parameter's view."""
    flat = np.zeros(params.flat.size)
    for name, view in params.views(flat).items():
        view[...] = named[name]
    return flat


def test_adam_zero_gradient_is_noop():
    params = small_params()
    before = {n: a.copy() for n, a in params.arrays().items()}
    state = AdamState(params)
    adam_step(params, np.zeros(params.flat.size), state, TrainConfig(epochs=1))
    for name, arr in params.arrays().items():
        assert np.array_equal(arr, before[name])
    assert np.all(state.m == 0) and np.all(state.v == 0)


def test_adam_first_step_magnitude_near_lr():
    # closed form at tau=1: m_hat = g, v_hat = g^2, so update = lr*g/(|g|+eps)
    params = small_params()
    state = AdamState(params)
    cfg = TrainConfig(epochs=1, learning_rate=1e-3)
    g = 7.5
    grads = np.zeros(params.flat.size)
    name = "out_proj.b"
    before = params[name].data.copy()
    params.views(grads)[name][...] = [g, 0.0]
    adam_step(params, grads, state, cfg)
    moved = before[0] - params[name].data[0]
    expected = cfg.learning_rate * g / (g + cfg.eps)
    assert abs(moved - expected) < 1e-15
    assert abs(moved - cfg.learning_rate) < 1e-9  # |g| >> eps


def test_adam_constant_gradient_is_monotone():
    params = small_params()
    state = AdamState(params)
    cfg = TrainConfig(epochs=1, learning_rate=1e-2)
    name = "out_proj.b"
    grads = np.zeros(params.flat.size)
    params.views(grads)[name][...] = [2.0, -2.0]
    values = [params[name].data.copy()]
    for _ in range(4):
        adam_step(params, grads.copy(), state, cfg)
        values.append(params[name].data.copy())
    steps = np.diff(np.stack(values), axis=0)
    assert np.all(steps[:, 0] < 0)  # positive gradient: strictly decreasing
    assert np.all(steps[:, 1] > 0)


def test_adam_vanishing_lr_is_identity():
    # lr = 0 itself is rejected by TrainConfig validation, so the identity
    # property is pinned at the smallest positive float: the update underflows
    params = small_params()
    state = AdamState(params)
    cfg = TrainConfig(epochs=1, learning_rate=5e-324)
    before = {n: a.copy() for n, a in params.arrays().items()}
    adam_step(params, np.full(params.flat.size, 0.3), state, cfg)
    for name, arr in params.arrays().items():
        assert np.array_equal(arr, before[name])


def test_adam_rejects_non_finite_gradient():
    params = small_params()
    grads = np.zeros(params.flat.size)
    params.views(grads)["out_proj.b"][...] = [np.nan, 0.0]
    with pytest.raises(DivergenceError):
        adam_step(params, grads, AdamState(params), TrainConfig(epochs=1))


def test_in_place_adam_is_bit_equal_to_textbook_update():
    cfg = TrainConfig(epochs=1, learning_rate=3e-3, beta1=0.85, beta2=0.97, eps=1e-8)
    fast, slow = small_params(), small_params()
    fast_state, slow_state = AdamState(fast), AdamState(slow)
    rng = np.random.default_rng(12)
    for _ in range(6):
        grads = {n: rng.normal(scale=rng.uniform(1e-4, 10.0), size=a.shape)
                 for n, a in fast.arrays().items()}
        adam_step(fast, flat_of(fast, grads), fast_state, cfg)
        reference_adam_step(slow, grads, slow_state, cfg)
    assert fast_state.tau == slow_state.tau == 6
    for name in fast.names():
        assert np.array_equal(fast[name].data, slow[name].data), name
    assert np.array_equal(fast_state.m, slow_state.m)
    assert np.array_equal(fast_state.v, slow_state.v)


@pytest.mark.parametrize("slice_size", [7, 64])
def test_adam_across_slices_is_bit_equal_to_textbook_update(monkeypatch, slice_size):
    # slice sizes that cut through parameters and leave a short last slice
    monkeypatch.setattr(training, "ADAM_SLICE", slice_size)
    cfg = TrainConfig(epochs=1, learning_rate=3e-3, beta1=0.85, beta2=0.97, eps=1e-8)
    fast, slow = small_params(), small_params()
    assert fast.flat.size > 2 * slice_size and fast.flat.size % slice_size
    fast_state, slow_state = AdamState(fast), AdamState(slow)
    rng = np.random.default_rng(14)
    for _ in range(4):
        grad = rng.normal(scale=rng.uniform(1e-4, 10.0), size=fast.flat.size)
        adam_step(fast, grad.copy(), fast_state, cfg)
        reference_adam_step(slow, slow.views(grad), slow_state, cfg)
    for mine, ref in ((fast.flat, slow.flat), (fast_state.m, slow_state.m),
                      (fast_state.v, slow_state.v)):
        assert np.array_equal(mine, ref)
    grad[-1] = np.inf  # the last entry of the last parameter, in the last slice
    with pytest.raises(DivergenceError, match="'out_proj.b'"):
        adam_step(fast, grad, fast_state, cfg)


# --------------------------------------------------------------- train

def test_zero_epochs_rejected():
    with pytest.raises(ValueError):
        TrainConfig(epochs=0)


def test_training_is_deterministic():
    features, targets = constant_velocity_windows()
    cfg = TrainConfig(epochs=3, learning_rate=1e-3, batch_size=4, seed=11, val_fraction=0.0)
    curves = []
    for _ in range(2):
        params = ModelParams(TINY, seed=11)
        history, _ = train(params, features, targets, cfg)
        curves.append([row["train_loss"] for row in history])
    assert curves[0] == curves[1]  # bitwise-identical loss curves


def test_overfit_reaches_one_percent_of_initial_loss():
    features, targets = constant_velocity_windows()
    params = ModelParams(TINY, seed=3)
    cfg = TrainConfig(epochs=1, learning_rate=3e-3, batch_size=8, seed=3, val_fraction=0.0)
    history, state = train(params, features, targets, cfg)
    first_epoch_loss = history[0]["train_loss"]
    steps = 1
    final = first_epoch_loss
    for epoch in range(1, 2000):
        history, state = train(params, features, targets, cfg, state=state, start_epoch=epoch)
        steps += 1
        final = history[-1]["train_loss"]
        if final < 0.01 * first_epoch_loss:
            break
    assert steps <= 2000
    assert final < 0.01 * first_epoch_loss


@pytest.mark.parametrize("seed", [0, 5, 9])
def test_heldout_loss_decreases_during_overfit(seed):
    rng = np.random.default_rng(seed)
    blocks = [rng.uniform(-0.3, 0.3, size=2) for _ in range(10)]
    features = [np.tile(v, (4, 1)) for v in blocks]
    targets = [np.tile(v, (5, 1)) for v in blocks]
    held_f, held_t = features[8:], targets[8:]
    features, targets = features[:8], targets[:8]
    params = ModelParams(TINY, seed=seed)
    cfg = TrainConfig(epochs=1, learning_rate=1e-4, batch_size=8, seed=seed, val_fraction=0.0)

    def held_loss():
        return float(np.mean([
            l2_loss(teacher_forced_offsets(params, f, t), t).item()
            for f, t in zip(held_f, held_t)
        ]))

    losses = [held_loss()]
    for epoch in range(10):
        train(params, features, targets, cfg, start_epoch=epoch)
        losses.append(held_loss())
    increases = sum(1 for a, b in zip(losses, losses[1:]) if b >= a)
    assert increases <= 1


def test_divergence_reports_epoch_and_batch():
    features, targets = constant_velocity_windows(n_windows=4)
    params = ModelParams(TINY, seed=7)
    params["out_proj.b"].data[...] = np.array([np.inf, 0.0])
    cfg = TrainConfig(epochs=1, batch_size=2, seed=7, val_fraction=0.0)
    with pytest.raises(DivergenceError, match="epoch 0, batch 0"):
        train(params, features, targets, cfg)


def test_resume_splices_loss_curve():
    features, targets = constant_velocity_windows()
    cfg4 = TrainConfig(epochs=4, learning_rate=1e-3, batch_size=4, seed=13, val_fraction=0.0)
    params_a = ModelParams(TINY, seed=13)
    full, _ = train(params_a, features, targets, cfg4)

    cfg2 = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=4, seed=13, val_fraction=0.0)
    params_b = ModelParams(TINY, seed=13)
    first, state = train(params_b, features, targets, cfg2)
    second, _ = train(params_b, features, targets, cfg2, state=state, start_epoch=2)
    spliced = [r["train_loss"] for r in first + second]
    assert spliced == [r["train_loss"] for r in full]


# ----------------------------------------------------- gradient checks

def test_verify_gradients_tiny_model():
    cfg = ModelConfig(feature_dim=10, d_model=8, n_heads=1, n_layers=1, d_ff=16)
    params = ModelParams(cfg, seed=0)
    rng = np.random.default_rng(1)
    features = [rng.normal(size=(4, 10)) for _ in range(2)]
    targets = [rng.normal(scale=0.1, size=(3, 2)) for _ in range(2)]
    report = verify_gradients(params, features, targets, n_samples=20)
    assert report["max_rel_err"] < 1e-4
    assert {"param", "index", "analytic", "numeric"} <= set(report["worst"])


def test_unused_parameter_has_zero_gradient():
    # feature column 3 is identically zero, so row 3 of the source embedding
    # weight cannot influence the loss
    cfg = ModelConfig(feature_dim=5, d_model=8, n_heads=1, n_layers=1, d_ff=8)
    params = ModelParams(cfg, seed=2)
    rng = np.random.default_rng(3)
    features = rng.normal(size=(4, 5))
    features[:, 3] = 0.0
    targets = rng.normal(size=(3, 2))
    loss = l2_loss(teacher_forced_offsets(params, features, targets), targets)
    grads = backward(loss)
    assert np.max(np.abs(grads[params.tensors["src_embed.w"]][3])) < 1e-10


def test_doubling_loss_scale_doubles_gradients():
    cfg = ModelConfig(feature_dim=4, d_model=8, n_heads=2, n_layers=1, d_ff=8)
    params = ModelParams(cfg, seed=4)
    rng = np.random.default_rng(5)
    features = rng.normal(size=(4, 4))
    targets = rng.normal(size=(3, 2))
    loss = l2_loss(teacher_forced_offsets(params, features, targets), targets)
    base = backward(loss)
    doubled = backward(ad.scale(l2_loss(teacher_forced_offsets(params, features, targets),
                                        targets), 2.0))
    for tensor in params.tensors.values():
        a, b = base[tensor], doubled[tensor]
        denom = np.maximum(np.abs(b), 1e-12)
        assert np.max(np.abs(2 * a - b) / denom) < 1e-10


# ------------------------------------------- batched tape vs per-window loop

DESK = ModelConfig(feature_dim=12, d_model=32, n_heads=2, n_layers=2, d_ff=128)
SHAPES = {"desk": (9, 20), "paper_windows": (29, 50)}


def random_windows(n, src_len, kappa, seed, feature_dim=12):
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(n, src_len, feature_dim)),
            rng.normal(scale=0.2, size=(n, kappa, 2)))


def per_window_mean_gradient(params, features, targets):
    grads = [backward(l2_loss(teacher_forced_offsets(params, f, t), t))
             for f, t in zip(features, targets)]
    return {name: np.mean([g[tensor] for g in grads], axis=0)
            for name, tensor in params.tensors.items()}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_batched_loss_and_gradient_equal_per_window_mean(shape):
    features, targets = random_windows(5, *SHAPES[shape], seed=20)
    params = ModelParams(DESK, seed=21)
    grads, losses = training._batch_gradients(params, features, targets)
    per_window = [l2_loss(teacher_forced_offsets(params, f, t), t).item()
                  for f, t in zip(features, targets)]
    assert np.max(np.abs(losses - per_window) / np.abs(per_window)) <= 1e-12
    want = per_window_mean_gradient(params, features, targets)
    # relative to the largest entry: key biases have a zero gradient up to
    # rounding (softmax ignores a shift shared by all keys)
    scale = max(np.max(np.abs(g)) for g in want.values())
    for name, g in params.views(grads).items():
        assert np.max(np.abs(g - want[name])) / scale <= 1e-12, name
    assert max(np.max(np.abs(want[n])) for n in want if n.endswith(".bk")) < 1e-12 * scale


def test_batch_gradient_in_flat_layout_is_bit_equal_to_backward_dict():
    features, targets = random_windows(3, *SHAPES["desk"], seed=41)
    params = ModelParams(DESK, seed=42)
    grad, _ = training._batch_gradients(params, features, targets)
    want = backward(l2_loss(teacher_forced_offsets(params, features, targets), targets))
    for name, view in params.views(grad).items():
        assert np.array_equal(view, want[params[name]]), name


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_validation_loss_is_bit_equal_to_tape_and_builds_none(monkeypatch, shape):
    features, targets = random_windows(7, *SHAPES[shape], seed=43)
    params = ModelParams(DESK, seed=44)
    pred = teacher_forced_offsets(params, features, targets).data
    want = float(np.mean(training._window_losses(pred, targets)))

    def no_tape(*args, **kwargs):
        raise AssertionError("validation built a tape")

    monkeypatch.setattr(training, "teacher_forced_offsets", no_tape)
    monkeypatch.setattr(training.ad, "Tensor", no_tape)
    assert training._eval_mean_loss(params, features, targets) == want


@pytest.mark.parametrize("shape", sorted(SHAPES))
@pytest.mark.parametrize("clip", [None, 0.05])
@pytest.mark.parametrize("budget", ["one_chunk", "split"])
def test_train_loss_curve_matches_per_window_reference(monkeypatch, shape, clip, budget):
    if budget == "split":  # two windows per tape chunk, so minibatches of 4 split in two
        src_len, kappa = SHAPES[shape]
        per_window = training.TRAIN_BUDGET_BYTES // training.train_chunk_size(DESK, src_len, kappa)
        monkeypatch.setattr(training, "TRAIN_BUDGET_BYTES", 2 * per_window + 1)
        assert training.train_chunk_size(DESK, src_len, kappa) == 2
    features, targets = random_windows(11, *SHAPES[shape], seed=22)
    cfg = TrainConfig(epochs=5, learning_rate=1e-3, batch_size=4, seed=23, grad_clip=clip,
                      val_fraction=0.2)
    history, _ = train(ModelParams(DESK, seed=24), features, targets, cfg)
    want, _ = reference_train(ModelParams(DESK, seed=24), features, targets, cfg)
    if clip is not None:
        assert sum(row["clipped_batches"] for row in history) > 0
    for key in ("train_loss", "val_loss"):
        got = np.array([row[key] for row in history])
        ref = np.array([row[key] for row in want])
        assert np.max(np.abs(got - ref) / np.abs(ref)) <= 1e-9, key


def test_epoch_diagnostics():
    features, targets = constant_velocity_windows()
    cfg = TrainConfig(epochs=2, learning_rate=1e-3, batch_size=3, seed=2, grad_clip=1e-6,
                      val_fraction=0.0)
    history, _ = train(ModelParams(TINY, seed=2), features, targets, cfg)
    for row in history:
        assert row["grad_norm"] > 1e-6
        assert row["clipped_batches"] == 3  # ceil(8 / 3) minibatches, every one clipped
        assert row["windows_per_s"] == pytest.approx(8 / row["wall_seconds"])


def test_dropout_training_is_reproducible_and_differs_from_no_dropout():
    features, targets = constant_velocity_windows()
    cfg = TrainConfig(epochs=3, learning_rate=1e-3, batch_size=4, seed=5, val_fraction=0.25)

    def curve(dropout):
        config = ModelConfig(feature_dim=2, d_model=16, n_heads=2, n_layers=1, d_ff=32,
                             dropout=dropout)
        history, _ = train(ModelParams(config, seed=5), features, targets, cfg)
        return [(row["train_loss"], row["val_loss"]) for row in history]

    with_dropout = curve(0.1)
    assert with_dropout == curve(0.1)
    assert with_dropout != curve(0.0)


def test_train_rejects_windows_of_different_shapes():
    features, targets = constant_velocity_windows(n_windows=3)
    features[1] = features[1][:-1]
    with pytest.raises(ValueError, match="one shape"):
        train(ModelParams(TINY, seed=0), features, targets, TrainConfig(epochs=1))


def test_second_epoch_holds_no_stale_gradients():
    # the previous minibatch's gradients (one array per parameter) must be
    # released before the next minibatch's tape is built, epochs included
    config = ModelConfig(feature_dim=2, d_model=64, n_heads=2, n_layers=2)
    rng = np.random.default_rng(0)
    features, targets = rng.normal(size=(2, 4, 2)), rng.normal(size=(2, 5, 2))

    def peak_bytes(epochs):
        params = ModelParams(config, seed=0)
        tracemalloc.start()
        try:
            train(params, features, targets, TrainConfig(epochs=epochs, val_fraction=0.0))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(2) <= 1.05 * peak_bytes(1)
