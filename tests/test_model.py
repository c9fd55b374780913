import tracemalloc

import numpy as np
import pytest
from oracle_helpers import reference_autoregressive, reference_init

from trajformer import autodiff as ad
from trajformer import model
from trajformer.autodiff import Tensor, backward
from trajformer.errors import DataError, DivergenceError
from trajformer.model import (AdamState, Checkpoint, ModelConfig, ModelParams, causal_mask,
                              decoder_forward, embed_source, embed_target, encoder_forward,
                              load_checkpoint, multi_head_attention, positional_encoding,
                              predict_autoregressive, project_output, save_checkpoint,
                              teacher_forced_numpy, teacher_forced_offsets)
from trajformer.features import FeatureStats
from trajformer.serialize import load_bundle, save_bundle

TINY = ModelConfig(feature_dim=6, d_model=8, n_heads=2, n_layers=2, d_ff=16)


def tiny_params(seed=0, config=TINY):
    return ModelParams(config, seed=seed)


def tiny_stats(config=TINY):
    return FeatureStats(np.zeros(config.feature_dim), np.ones(config.feature_dim))


# ------------------------------------------------- positional encoding

def test_pe_first_row_alternates():
    pe = positional_encoding(4, 10)
    assert np.array_equal(pe[0, 0::2], np.zeros(5))
    assert np.array_equal(pe[0, 1::2], np.ones(5))


def test_pe_first_column_is_sin_p():
    pe = positional_encoding(7, 8)
    assert np.max(np.abs(pe[:, 0] - np.sin(np.arange(7)))) < 1e-15


def test_pe_bounded_and_rows_distinct():
    pe = positional_encoding(200, 16)
    assert np.all(pe >= -1) and np.all(pe <= 1)
    for i in range(200):
        diffs = np.max(np.abs(pe - pe[i]), axis=1)
        diffs[i] = 1.0
        assert np.all(diffs > 1e-9)


def test_pe_rejects_odd_dimension():
    with pytest.raises(ValueError):
        positional_encoding(4, 7)


# ------------------------------------------------------------ embedding

def test_embed_zero_features_zero_bias_gives_pe():
    params = tiny_params()
    params["src_embed.b"].data[...] = np.zeros(TINY.d_model)
    out = embed_source(np.zeros((5, TINY.feature_dim)), params)
    assert np.allclose(out.data, positional_encoding(5, TINY.d_model), atol=1e-15)


def test_embed_preserves_length_and_dim_mismatch_errors():
    params = tiny_params()
    assert embed_source(np.ones((9, TINY.feature_dim)), params).shape == (9, TINY.d_model)
    with pytest.raises(ValueError):
        embed_source(np.ones((9, TINY.feature_dim + 1)), params)


def test_embed_linear_before_pe():
    params = tiny_params()
    params["src_embed.b"].data[...] = np.zeros(TINY.d_model)
    x = np.random.default_rng(0).normal(size=(4, TINY.feature_dim))
    pe = positional_encoding(4, TINY.d_model)
    one = embed_source(x, params).data - pe
    two = embed_source(2 * x, params).data - pe
    assert np.max(np.abs(two - 2 * one)) < 1e-12


# ------------------------------------------------------------ attention

def test_attention_singleton_key_returns_projected_value():
    cfg = ModelConfig(feature_dim=4, d_model=4, n_heads=1, n_layers=1)
    params = ModelParams(cfg, seed=1)
    rng = np.random.default_rng(2)
    q_in = Tensor(rng.normal(size=(3, 4)))
    kv = Tensor(rng.normal(size=(1, 4)))
    out = multi_head_attention(q_in, kv, kv, None, params, "enc0.attn")
    v = kv.data @ params["enc0.attn.wv"].data + params["enc0.attn.bv"].data
    expected = v @ params["enc0.attn.wo"].data + params["enc0.attn.bo"].data
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_attention_identical_keys_average_values():
    cfg = ModelConfig(feature_dim=4, d_model=4, n_heads=2, n_layers=1)
    params = ModelParams(cfg, seed=3)
    rng = np.random.default_rng(4)
    q_in = Tensor(rng.normal(size=(2, 4)))
    keys = Tensor(np.tile(rng.normal(size=(1, 4)), (5, 1)))
    values = Tensor(rng.normal(size=(5, 4)))
    out = multi_head_attention(q_in, keys, values, None, params, "enc0.attn")
    v = values.data @ params["enc0.attn.wv"].data + params["enc0.attn.bv"].data
    expected = np.tile(v.mean(axis=0), (2, 1)) @ params["enc0.attn.wo"].data \
        + params["enc0.attn.bo"].data
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_attention_hand_computed_small_case():
    # 2 queries x 3 keys, one head, identity projections
    cfg = ModelConfig(feature_dim=2, d_model=2, n_heads=1, n_layers=1)
    params = ModelParams(cfg, seed=0)
    for w in ("wq", "wk", "wv", "wo"):
        params[f"enc0.attn.{w}"].data[...] = np.eye(2)
    for b in ("bq", "bk", "bv", "bo"):
        params[f"enc0.attn.{b}"].data[...] = np.zeros(2)
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    k = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    v = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    scores = q @ k.T / np.sqrt(2.0)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    expected = weights @ v
    out = multi_head_attention(Tensor(q), Tensor(k), Tensor(v), None, params, "enc0.attn")
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_attention_fully_masked_row_errors():
    params = tiny_params()
    x = Tensor(np.ones((3, TINY.d_model)))
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, :] = True
    with pytest.raises(ValueError, match="fully masked"):
        multi_head_attention(x, x, x, mask, params, "enc0.attn")


def test_attention_rows_sum_to_one_via_hook():
    params = tiny_params(seed=5)
    rng = np.random.default_rng(6)
    features = rng.normal(size=(2, 7, TINY.feature_dim))
    targets = rng.normal(size=(2, 5, 2))
    sink = []
    teacher_forced_numpy(params, features, targets, attn_sink=sink)
    # every layer and head of encoder self-, decoder self- and cross-attention
    assert len(sink) == TINY.n_layers * TINY.n_heads * 3
    for record in sink:
        sums = record["weights"].sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) < 1e-12


# ------------------------------------------------------ encoder/decoder

def test_encoder_length_one():
    params = tiny_params()
    out = encoder_forward(embed_source(np.ones((1, TINY.feature_dim)), params), params)
    assert out.shape == (1, TINY.d_model)


def test_encoder_order_sensitivity_with_pe():
    params = tiny_params(seed=7)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(6, TINY.feature_dim))
    base = encoder_forward(embed_source(x, params), params).data
    flipped = encoder_forward(embed_source(x[::-1], params), params).data
    assert np.max(np.abs(flipped[::-1] - base)) > 1e-6


def test_decoder_output_length_and_empty_error():
    params = tiny_params(seed=9)
    memory = encoder_forward(embed_source(np.ones((4, TINY.feature_dim)), params), params)
    y = embed_target(np.zeros((3, 2)), params)
    assert decoder_forward(y, memory, params).shape == (3, TINY.d_model)
    with pytest.raises(ValueError):
        decoder_forward(Tensor(np.zeros((0, TINY.d_model))), memory, params)


def test_decoder_causality_stepwise():
    params = tiny_params(seed=10)
    rng = np.random.default_rng(11)
    features = rng.normal(size=(6, TINY.feature_dim))
    targets = rng.normal(size=(10, 2))
    base = teacher_forced_offsets(params, features, targets).data
    for cut in range(1, 10):
        perturbed = targets.copy()
        perturbed[cut:] += rng.normal(scale=3.0, size=perturbed[cut:].shape)
        out = teacher_forced_offsets(params, features, perturbed).data
        assert np.max(np.abs(out[: cut + 1] - base[: cut + 1])) < 1e-12


def test_decoder_ignores_memory_with_zero_cross_value_projection():
    params = tiny_params(seed=12)
    for i in range(TINY.n_layers):
        params[f"dec{i}.cross_attn.wv"].data[...] = np.zeros((TINY.d_model, TINY.d_model))
        params[f"dec{i}.cross_attn.bv"].data[...] = np.zeros(TINY.d_model)
    rng = np.random.default_rng(13)
    targets = rng.normal(size=(4, 2))
    y = embed_target(np.concatenate([params["start_token"].data, targets[:-1]]), params)
    mem_a = encoder_forward(embed_source(rng.normal(size=(5, TINY.feature_dim)), params), params)
    mem_b = encoder_forward(embed_source(rng.normal(size=(5, TINY.feature_dim)), params), params)
    out_a = decoder_forward(y, mem_a, params).data
    out_b = decoder_forward(y, mem_b, params).data
    assert np.array_equal(out_a, out_b)


def test_causal_mask_shape():
    mask = causal_mask(4)
    assert mask[0, 1] and not mask[1, 0] and not mask[2, 2]


# --------------------------------------------------------- projection

def test_project_output_zero_weights_gives_bias():
    params = tiny_params()
    params["out_proj.w"].data[...] = np.zeros((TINY.d_model, 2))
    params["out_proj.b"].data[...] = np.array([0.5, -0.5])
    out = project_output(Tensor(np.ones((6, TINY.d_model))), params)
    assert np.array_equal(out.data, np.tile([0.5, -0.5], (6, 1)))


def test_project_output_shape_and_linearity():
    params = tiny_params(seed=14)
    x = np.random.default_rng(15).normal(size=(5, TINY.d_model))
    b = params["out_proj.b"].data
    one = project_output(Tensor(x), params).data - b
    two = project_output(Tensor(2 * x), params).data - b
    assert one.shape == (5, 2)
    assert np.max(np.abs(two - 2 * one)) < 1e-12


# ------------------------------------------------------ autoregressive

def test_predict_kappa_one():
    params = tiny_params(seed=16)
    out = predict_autoregressive(params, np.zeros((4, TINY.feature_dim)), np.array([1.0, 2.0]), 1)
    assert out.shape == (1, 2)


def test_predict_positions_are_cumsum_of_offsets():
    params = tiny_params(seed=17)
    rng = np.random.default_rng(18)
    features = rng.normal(size=(5, TINY.feature_dim))
    anchor = np.array([3.0, -1.0])
    positions = predict_autoregressive(params, features, anchor, 6)
    offsets = np.diff(np.concatenate([anchor[None], positions]), axis=0)
    rebuilt = anchor + np.cumsum(offsets, axis=0)
    assert np.max(np.abs(rebuilt - positions)) < 1e-12


def test_predict_kappa_validation():
    params = tiny_params()
    with pytest.raises(ValueError):
        predict_autoregressive(params, np.zeros((4, TINY.feature_dim)), np.zeros(2), 0)


def test_predict_divergence_detected():
    params = tiny_params(seed=19)
    params["out_proj.b"].data[...] = np.array([np.nan, 0.0])
    with pytest.raises(DivergenceError):
        predict_autoregressive(params, np.zeros((4, TINY.feature_dim)), np.zeros(2), 2)


def test_teacher_forced_matches_autoregressive_on_own_prefix():
    params = tiny_params(seed=20)
    rng = np.random.default_rng(21)
    features = rng.normal(size=(6, TINY.feature_dim))
    anchor = np.array([0.0, 0.0])
    positions = predict_autoregressive(params, features, anchor, 8)
    ar_offsets = np.diff(np.concatenate([anchor[None], positions]), axis=0)
    tf_offsets = teacher_forced_offsets(params, features, ar_offsets).data
    assert np.max(np.abs(tf_offsets - ar_offsets)) < 1e-9


# ------------------------------------------------ batched cached decode

def random_params(n_heads, n_layers, seed):
    """Every weight perturbed (biases, gains and start token too)."""
    rng = np.random.default_rng(seed)
    params = ModelParams(ModelConfig(feature_dim=5, d_model=8, n_heads=n_heads,
                                     n_layers=n_layers, d_ff=12), seed=seed)
    for tensor in params.tensors.values():
        tensor.data += rng.normal(scale=0.3, size=tensor.data.shape)
    return params


def rel_diff(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("kappa", [1, 12])
@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("n_heads", [1, 4])
def test_decode_matches_reference(n_heads, n_layers, kappa, batch):
    params = random_params(n_heads, n_layers, seed=30 + 2 * n_heads + n_layers)
    rng = np.random.default_rng(kappa + batch)
    features = rng.normal(size=(batch, 7, 5))
    anchors = rng.normal(size=(batch, 2))
    batched = predict_autoregressive(params, features, anchors, kappa)
    assert batched.shape == (batch, kappa, 2)
    reference = np.stack([reference_autoregressive(params, features[i], anchors[i], kappa)
                          for i in range(batch)])
    single = np.stack([predict_autoregressive(params, features[i], anchors[i], kappa)
                       for i in range(batch)])
    assert rel_diff(batched, reference) <= 1e-12
    assert rel_diff(batched, single) <= 1e-12


def test_decode_across_chunk_boundary(monkeypatch):
    params = random_params(2, 2, seed=40)
    rng = np.random.default_rng(41)
    features, anchors = rng.normal(size=(5, 6, 5)), rng.normal(size=(5, 2))
    whole = predict_autoregressive(params, features, anchors, 9)
    monkeypatch.setattr(model, "DECODE_BUDGET_BYTES", 1)
    assert model.decode_chunk_size(params.config, 6, 9) == 1
    assert rel_diff(predict_autoregressive(params, features, anchors, 9), whole) <= 1e-12
    per_window = 8 * 8 * (2 * 2 * (6 + 9) + 6)
    monkeypatch.setattr(model, "DECODE_BUDGET_BYTES", 2 * per_window)
    assert model.decode_chunk_size(params.config, 6, 9) == 2
    assert rel_diff(predict_autoregressive(params, features, anchors, 9), whole) <= 1e-12


def test_decode_divergence_names_step_and_window(monkeypatch):
    params = random_params(2, 1, seed=42)
    rng = np.random.default_rng(43)
    features, anchors = rng.normal(size=(5, 4, 5)), np.zeros((5, 2))
    features[3, 2, 1] = np.nan
    monkeypatch.setattr(model, "DECODE_BUDGET_BYTES", 1)  # window 3 decodes in its own chunk
    with pytest.raises(DivergenceError, match=r"decode step 0 in window 3\b"):
        predict_autoregressive(params, features, anchors, 4)
    # finite until the first emitted offset is fed back through an overflowing embedding
    features[3, 2, 1] = 0.0
    params["start_token"].data[...] = np.zeros((1, 2))
    params.tensors["tgt_embed.w"].data[0] = 1e308
    params.tensors["out_proj.b"].data[0] = 10.0
    with pytest.raises(DivergenceError, match=r"decode step 1 in window 0\b"):
        predict_autoregressive(params, features, anchors, 4)


@pytest.mark.parametrize("batch", [1, 5])
@pytest.mark.parametrize("kappa", [1, 12])
@pytest.mark.parametrize("n_layers", [1, 3])
@pytest.mark.parametrize("n_heads", [1, 4])
def test_teacher_forced_numpy_is_bit_equal_to_tape(monkeypatch, n_heads, n_layers, kappa, batch):
    params = random_params(n_heads, n_layers, seed=50 + 2 * n_heads + n_layers)
    rng = np.random.default_rng(kappa + batch)
    features, targets = rng.normal(size=(batch, 7, 5)), rng.normal(size=(batch, kappa, 2))
    tape = teacher_forced_offsets(params, features, targets).data
    assert np.array_equal(teacher_forced_numpy(params, features, targets), tape)
    # split into chunks of 2, 2, 1 windows; a GEMM's rounding may depend on its
    # row count, so the tape runs on the same chunks
    per_window = 8 * 8 * (2 * n_layers * (7 + kappa) + 7)
    monkeypatch.setattr(model, "DECODE_BUDGET_BYTES", 2 * per_window)
    assert model.decode_chunk_size(params.config, 7, kappa) == 2
    tape = np.concatenate([teacher_forced_offsets(params, features[lo:lo + 2],
                                                  targets[lo:lo + 2]).data
                           for lo in range(0, batch, 2)])
    assert np.array_equal(teacher_forced_numpy(params, features, targets), tape)


def test_decode_feature_dim_mismatch():
    params = tiny_params(seed=44)
    with pytest.raises(ValueError):
        predict_autoregressive(params, np.zeros((4, TINY.feature_dim + 1)), np.zeros(2), 3)
    with pytest.raises(ValueError):
        predict_autoregressive(params, np.zeros((2, 4, TINY.feature_dim - 1)), np.zeros((2, 2)), 3)


# ------------------------------------------------------ whole model

def test_whole_model_gradcheck_tiny():
    cfg = ModelConfig(feature_dim=5, d_model=8, n_heads=1, n_layers=1, d_ff=12)
    params = ModelParams(cfg, seed=22)
    rng = np.random.default_rng(23)
    features = rng.normal(size=(4, 5))
    targets = rng.normal(size=(3, 2))

    def loss_value():
        pred = teacher_forced_offsets(params, features, targets)
        return ad.tmean(ad.mul(ad.sub(pred, Tensor(targets)), ad.sub(pred, Tensor(targets))))

    grads = backward(loss_value())
    h = 1e-6
    worst = 0.0
    sample_rng = np.random.default_rng(24)
    names = params.names()
    for _ in range(30):
        name = names[sample_rng.integers(len(names))]
        arr = params.tensors[name].data
        idx = np.unravel_index(sample_rng.integers(arr.size), arr.shape)
        keep = arr[idx]
        arr[idx] = keep + h
        up = loss_value().item()
        arr[idx] = keep - h
        down = loss_value().item()
        arr[idx] = keep
        numeric = (up - down) / (2 * h)
        analytic = float(grads.get(params.tensors[name], np.zeros_like(arr))[idx])
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
    assert worst < 1e-4


def test_whole_model_gradcheck_batch_of_three():
    cfg = ModelConfig(feature_dim=5, d_model=8, n_heads=2, n_layers=1, d_ff=12)
    params = ModelParams(cfg, seed=26)
    rng = np.random.default_rng(27)
    features = rng.normal(size=(3, 4, 5))
    targets = rng.normal(size=(3, 3, 2))

    def loss_value():
        diff = ad.sub(teacher_forced_offsets(params, features, targets), Tensor(targets))
        return ad.tmean(ad.mul(diff, diff))

    grads = backward(loss_value())
    h = 1e-6
    worst = 0.0
    sample_rng = np.random.default_rng(28)
    names = params.names()
    for _ in range(40):
        name = names[sample_rng.integers(len(names))]
        arr = params.tensors[name].data
        idx = np.unravel_index(sample_rng.integers(arr.size), arr.shape)
        keep = arr[idx]
        arr[idx] = keep + h
        up = loss_value().item()
        arr[idx] = keep - h
        down = loss_value().item()
        arr[idx] = keep
        numeric = (up - down) / (2 * h)
        analytic = float(grads[params.tensors[name]][idx])
        worst = max(worst, abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-6))
    assert worst < 1e-4


def test_batched_forward_equals_per_window_forward():
    params = tiny_params(seed=29)
    rng = np.random.default_rng(30)
    features = rng.normal(size=(4, 6, TINY.feature_dim))
    targets = rng.normal(size=(4, 5, 2))
    sink = []
    batched = teacher_forced_offsets(params, features, targets).data
    assert batched.shape == (4, 5, 2)
    teacher_forced_numpy(params, features, targets, attn_sink=sink)
    assert len(sink) == TINY.n_layers * TINY.n_heads * 3
    for i in range(4):
        one_sink = []
        one = teacher_forced_offsets(params, features[i], targets[i]).data
        assert np.max(np.abs(batched[i] - one)) <= 1e-12 * np.max(np.abs(one))
        teacher_forced_numpy(params, features[i:i + 1], targets[i:i + 1], attn_sink=one_sink)
        for rec, one_rec in zip(sink, one_sink):
            assert (rec["block"], rec["head"]) == (one_rec["block"], one_rec["head"])
            assert np.max(np.abs(rec["weights"][i] - one_rec["weights"][0])) < 1e-12
    with pytest.raises(ValueError, match="same windows"):
        teacher_forced_offsets(params, features, targets[0])


def test_ablation_config_shrinks_source_embedding():
    cfg = ModelConfig(feature_dim=2, d_model=8, n_heads=2, n_layers=1)
    params = ModelParams(cfg)
    assert params["src_embed.w"].shape == (2, 8)
    # everything else matches the context architecture
    full = ModelParams(ModelConfig(feature_dim=20, d_model=8, n_heads=2, n_layers=1))
    assert set(params.names()) == set(full.names())


# ------------------------------------------------- flat parameter layout

def test_parameters_are_views_that_tile_the_flat_vector():
    params = tiny_params(seed=30)
    assert all(np.shares_memory(t.data, params.flat) for t in params.tensors.values())
    params.flat[:] = np.arange(params.flat.size)
    tiled = np.concatenate([params[name].data.ravel() for name in ModelParams.param_shapes(TINY)])
    assert np.array_equal(tiled, np.arange(params.flat.size))


@pytest.mark.parametrize("config", [TINY, ModelConfig(feature_dim=3, d_model=12, n_heads=3,
                                                      n_layers=3, d_ff=20)])
def test_init_is_bit_equal_to_per_name_reference(config):
    params = ModelParams(config, seed=33)
    want = reference_init(config, 33)
    assert params.names() == list(want)
    for name, arr in want.items():
        assert np.array_equal(params[name].data, arr), name
    assert not ModelParams(config, seed=None).flat.any()


def test_loaded_checkpoint_fills_flat_buffers_in_place(tmp_path):
    params = tiny_params(seed=31)
    state = AdamState(params, tau=2)
    state.m[...], state.v[...] = 2.0 * params.flat, params.flat ** 2
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, tiny_stats(), {}, state)
    ckpt = load_checkpoint(path)
    loaded, moments = ckpt.params, ckpt.adam_moments
    assert all(np.shares_memory(t.data, loaded.flat) for t in loaded.tensors.values())
    for kind in ("m", "v"):
        got = getattr(moments, kind)
        assert got.shape == loaded.flat.shape and got.flags.c_contiguous
        assert all(np.shares_memory(view, got) for view in loaded.views(got).values())
        assert np.array_equal(got, getattr(state, kind))
    assert np.array_equal(loaded.flat, params.flat) and moments.tau == 2


def test_load_checkpoint_peak_memory_is_its_payload(tmp_path):
    # arrays are read straight into the flat buffers, not read and then copied
    params = ModelParams(ModelConfig(feature_dim=6, d_model=64, n_heads=2, n_layers=2), seed=32)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, FeatureStats(np.zeros(6), np.ones(6)), {},
                    AdamState(params, tau=1))
    payload = 8 * (3 * params.flat.size + 2 * 6)
    tracemalloc.start()
    try:
        ckpt = load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ckpt.adam_moments is not None
    assert peak <= 1.1 * payload


# -------------------------------------------------------- checkpoints

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    cfg = ModelConfig(feature_dim=7, d_model=8, n_heads=2, n_layers=1)
    params = ModelParams(cfg, seed=25)
    stats = FeatureStats(np.arange(7.0), np.arange(1.0, 8.0))
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, stats, {"train_dataset": "synthA", "epochs_done": 3})
    ckpt = load_checkpoint(path)
    assert isinstance(ckpt, Checkpoint)
    assert ckpt.params.config == cfg
    assert ckpt.meta["train_dataset"] == "synthA"
    for name in params.names():
        assert np.array_equal(ckpt.params[name].data, params[name].data)
    assert np.array_equal(ckpt.stats.mean, stats.mean)

    second = tmp_path / "model2.ckpt"
    save_checkpoint(second, ckpt.params, ckpt.stats,
                    {"train_dataset": "synthA", "epochs_done": 3})
    assert path.read_bytes() == second.read_bytes()


def test_checkpoint_without_adam_skips_moments(tmp_path):
    params = tiny_params(seed=26)
    moments = AdamState(params, tau=7)
    moments.m[...], moments.v[...] = params.flat + 1.0, params.flat + 2.0
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, tiny_stats(), {"epochs_done": 1}, moments)
    full = load_checkpoint(path)
    assert full.adam_moments.tau == 7
    assert np.array_equal(full.adam_moments.v, moments.v)
    lean = load_checkpoint(path, with_adam=False)
    assert lean.adam_moments is None and np.array_equal(lean.stats.std, tiny_stats().std)
    for name in params.names():
        assert np.array_equal(lean.params[name].data, params[name].data)


def test_checkpoint_missing_array_names_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_params(seed=27), tiny_stats(), {})
    arrays, meta = load_bundle(path)
    del arrays["param.out_proj.b"]
    save_bundle(path, arrays, meta)
    with pytest.raises(DataError, match="lacks array 'param.out_proj.b'") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)


def test_checkpoint_stats_of_another_width_names_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, tiny_params(seed=28), FeatureStats(np.zeros(5), np.ones(5)), {})
    with pytest.raises(DataError, match="'stats.mean' is <f8 \\[5\\]") as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value)
