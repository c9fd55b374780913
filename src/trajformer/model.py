"""Encoder/decoder transformer over context feature sequences.

The encoder consumes the fused per-step context features; the decoder
consumes 2-D offsets only (all context flows through the encoder memory)
and starts from a learned start token. Layers are post-norm: sublayer,
residual add, layer norm.

Training runs teacher-forced on the autodiff tape, batched: every layer
takes rows (..., L, d) with the windows of a minibatch as the leading axis,
so one forward and one backward cover the whole minibatch, and each
attention and feed-forward block is one fused node. A single (L, F) window
runs the same code without the batch axis.

Inference is a separate plain-numpy forward pass over a batch of windows:
the encoder runs once and each decoder layer's cross-attention keys/values
are computed once from its memory; each decoder layer keeps a key/value
cache that grows by one row per emitted offset, and only the newest row
goes through the decoder. Under the causal mask, with row-wise feed-forward
and post-norm, earlier decoder rows never change, so this equals re-running
the decoder over the whole prefix. Absolute positions are rebuilt by
cumulative sum from the last observed position.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .errors import DataError, DivergenceError
from .features import FeatureStats
from .serialize import load_bundle, save_bundle

CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class ModelConfig:
    feature_dim: int
    d_model: int = 64
    n_heads: int = 4
    n_layers: int = 3
    d_ff: int = 0        # 0 resolves to 4 * d_model
    dropout: float = 0.0
    out_dim: int = 2

    def __post_init__(self):
        if self.d_ff == 0:
            object.__setattr__(self, "d_ff", 4 * self.d_model)
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.d_model % 2 != 0:
            raise ValueError(f"d_model must be even for positional encoding, got {self.d_model}")
        if self.n_layers < 1:
            raise ValueError(f"n_layers must be >= 1, got {self.n_layers}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def d_k(self) -> int:
        return self.d_model // self.n_heads


def _attention_param_names(prefix: str):
    for p in ("wq", "wk", "wv", "wo"):
        yield f"{prefix}.{p}"
    for p in ("bq", "bk", "bv", "bo"):
        yield f"{prefix}.{p}"


class ModelParams:
    """All learnable weights as named views of one float64 vector, ``flat``;
    ``views`` names gradients and Adam moments in the same layout. ``seed=None``
    leaves ``flat`` zero. Write into a view, never rebind ``tensors[name]``."""

    def __init__(self, config: ModelConfig, seed: int | None = 0):
        self.config = config
        self._layout, size = [], 0  # (name, slice of flat, shape) per weight
        for name, shape in self.param_shapes(config).items():
            self._layout.append((name, slice(size, size + math.prod(shape)), shape))
            size += math.prod(shape)
        self.flat = np.zeros(size)
        self.tensors = {name: Tensor(view) for name, view in self.views(self.flat).items()}
        if seed is not None:
            rng = np.random.default_rng(seed)
            for name, tensor in self.tensors.items():
                self._init_into(name, tensor.data, rng)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of ``flat``, a vector in this model's parameter layout."""
        return {name: flat[part].reshape(shape) for name, part, shape in self._layout}

    @staticmethod
    def param_shapes(cfg: ModelConfig) -> dict[str, tuple]:
        d, f = cfg.d_model, cfg.d_ff
        shapes: dict[str, tuple] = {
            "src_embed.w": (cfg.feature_dim, d),
            "src_embed.b": (d,),
            "tgt_embed.w": (cfg.out_dim, d),
            "tgt_embed.b": (d,),
            "start_token": (1, cfg.out_dim),
        }
        for i in range(cfg.n_layers):
            for name in _attention_param_names(f"enc{i}.attn"):
                shapes[name] = (d, d) if name.split(".")[-1].startswith("w") else (d,)
            shapes[f"enc{i}.ff.w1"] = (d, f)
            shapes[f"enc{i}.ff.b1"] = (f,)
            shapes[f"enc{i}.ff.w2"] = (f, d)
            shapes[f"enc{i}.ff.b2"] = (d,)
            shapes[f"enc{i}.norm1.gain"] = (d,)
            shapes[f"enc{i}.norm1.bias"] = (d,)
            shapes[f"enc{i}.norm2.gain"] = (d,)
            shapes[f"enc{i}.norm2.bias"] = (d,)
        for i in range(cfg.n_layers):
            for block in ("self_attn", "cross_attn"):
                for name in _attention_param_names(f"dec{i}.{block}"):
                    shapes[name] = (d, d) if name.split(".")[-1].startswith("w") else (d,)
            shapes[f"dec{i}.ff.w1"] = (d, f)
            shapes[f"dec{i}.ff.b1"] = (f,)
            shapes[f"dec{i}.ff.w2"] = (f, d)
            shapes[f"dec{i}.ff.b2"] = (d,)
            for n in (1, 2, 3):
                shapes[f"dec{i}.norm{n}.gain"] = (d,)
                shapes[f"dec{i}.norm{n}.bias"] = (d,)
        shapes["out_proj.w"] = (d, cfg.out_dim)
        shapes["out_proj.b"] = (cfg.out_dim,)
        return shapes

    @staticmethod
    def _init_into(name: str, view: np.ndarray, rng: np.random.Generator) -> None:
        if name.endswith(".gain"):
            view[...] = 1.0
        elif view.ndim == 2 and name != "start_token":
            limit = np.sqrt(6.0 / (view.shape[0] + view.shape[1]))
            view[...] = rng.uniform(-limit, limit, view.shape)

    def __getitem__(self, name: str) -> Tensor:
        return self.tensors[name]

    def names(self) -> list[str]:
        return list(self.tensors)

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data for name, t in self.tensors.items()}


class AdamState:
    """Adam's first and second moments, vectors in the layout of
    ``ModelParams.flat``, and the shared step counter."""

    def __init__(self, params: ModelParams, tau: int = 0):
        self.m = np.zeros(params.flat.size)
        self.v = np.zeros(params.flat.size)
        self.tau = tau


# ------------------------------------------------------------- layers

def positional_encoding(seq_len: int, d_model: int) -> np.ndarray:
    """Interleaved sin/cos over a geometric frequency ladder.

    pe[p, 2k] = sin(p / 10000^(2k/d_model)), pe[p, 2k+1] = cos(same).
    """
    if d_model % 2 != 0:
        raise ValueError(f"d_model must be even, got {d_model}")
    if seq_len < 1:
        raise ValueError(f"seq_len must be >= 1, got {seq_len}")
    pos = np.arange(seq_len, dtype=np.float64)[:, None]
    div = 10000.0 ** (np.arange(0, d_model, 2, dtype=np.float64) / d_model)
    pe = np.empty((seq_len, d_model))
    pe[:, 0::2] = np.sin(pos / div)
    pe[:, 1::2] = np.cos(pos / div)
    return pe


def embed_source(features, params: ModelParams) -> Tensor:
    x = ad.as_tensor(features)
    if x.shape[-1] != params.config.feature_dim:
        raise ValueError(
            f"feature dim {x.shape[-1]} does not match model feature_dim {params.config.feature_dim}"
        )
    emb = ad.affine(x, params["src_embed.w"], params["src_embed.b"])
    return ad.add(emb, Tensor(positional_encoding(x.shape[-2], params.config.d_model)))


def embed_target(offsets, params: ModelParams) -> Tensor:
    y = ad.as_tensor(offsets)
    emb = ad.affine(y, params["tgt_embed.w"], params["tgt_embed.b"])
    # decoder positions restart at 0, independent of the encoder clock
    return ad.add(emb, Tensor(positional_encoding(y.shape[-2], params.config.d_model)))


def causal_mask(n: int) -> np.ndarray:
    """True marks a blocked (future) key position."""
    return np.triu(np.ones((n, n), dtype=bool), k=1)


def multi_head_attention(
    queries_in: Tensor,
    keys_in: Tensor,
    values_in: Tensor,
    mask: np.ndarray | None,
    params: ModelParams,
    prefix: str,
    attn_sink: list | None = None,
) -> Tensor:
    """Attention over rows (..., L, d_model); leading axes are windows."""
    cfg = params.config
    lq, lk = queries_in.shape[-2], keys_in.shape[-2]
    if mask is not None:
        if mask.shape != (lq, lk):
            raise ValueError(f"mask shape {mask.shape} does not match ({lq}, {lk})")
        if mask.all(axis=1).any():
            raise ValueError(f"{prefix}: attention row is fully masked, no valid key")

    def heads(x, p):  # (..., L, d) -> (..., H, L, d_k)
        x = ad.affine(x, params[f"{prefix}.w{p}"], params[f"{prefix}.b{p}"])
        return ad.swapaxes(ad.reshape(x, x.shape[:-1] + (cfg.n_heads, cfg.d_k)), -3, -2)

    out, weights = ad.attention(heads(queries_in, "q"), heads(keys_in, "k"),
                                heads(values_in, "v"), mask)
    if attn_sink is not None:
        for h in range(cfg.n_heads):
            attn_sink.append({"block": prefix, "head": h, "weights": weights[..., h, :, :].copy()})
    merged = ad.reshape(ad.swapaxes(out, -3, -2), queries_in.shape[:-1] + (cfg.d_model,))
    return ad.affine(merged, params[f"{prefix}.wo"], params[f"{prefix}.bo"])


def _feed_forward(x: Tensor, params: ModelParams, prefix: str) -> Tensor:
    return ad.feed_forward(x, params[f"{prefix}.w1"], params[f"{prefix}.b1"],
                           params[f"{prefix}.w2"], params[f"{prefix}.b2"])


def _sublayer(x: Tensor, out: Tensor, params: ModelParams, norm: str,
              rng: np.random.Generator | None) -> Tensor:
    cfg = params.config
    if rng is not None and cfg.dropout > 0.0:
        out = ad.dropout(out, cfg.dropout, rng)
    return ad.layer_norm(x, params[f"{norm}.gain"], params[f"{norm}.bias"], residual=out)


def encoder_forward(
    embedded: Tensor,
    params: ModelParams,
    attn_sink: list | None = None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    x = embedded
    for i in range(params.config.n_layers):
        attn = multi_head_attention(x, x, x, None, params, f"enc{i}.attn", attn_sink)
        x = _sublayer(x, attn, params, f"enc{i}.norm1", rng)
        x = _sublayer(x, _feed_forward(x, params, f"enc{i}.ff"), params, f"enc{i}.norm2", rng)
    return x


def decoder_forward(
    target_embedded: Tensor,
    memory: Tensor,
    params: ModelParams,
    attn_sink: list | None = None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    m = target_embedded.shape[-2]
    if m == 0:
        raise ValueError("decoder target is empty")
    mask = causal_mask(m)
    x = target_embedded
    for i in range(params.config.n_layers):
        self_attn = multi_head_attention(x, x, x, mask, params, f"dec{i}.self_attn", attn_sink)
        x = _sublayer(x, self_attn, params, f"dec{i}.norm1", rng)
        cross = multi_head_attention(x, memory, memory, None, params, f"dec{i}.cross_attn", attn_sink)
        x = _sublayer(x, cross, params, f"dec{i}.norm2", rng)
        x = _sublayer(x, _feed_forward(x, params, f"dec{i}.ff"), params, f"dec{i}.norm3", rng)
    return x


def project_output(decoded: Tensor, params: ModelParams) -> Tensor:
    return ad.affine(decoded, params["out_proj.w"], params["out_proj.b"])


# ---------------------------------------------------------- full model

def teacher_forced_offsets(
    params: ModelParams,
    features_std: np.ndarray,
    target_offsets: np.ndarray,
    attn_sink: list | None = None,
    rng: np.random.Generator | None = None,
) -> Tensor:
    """Predicted offsets under teacher forcing, on the tape.

    Windows (B, L, F) with targets (B, kappa, 2) give (B, kappa, 2); a
    single (L, F) window with (kappa, 2) targets gives (kappa, 2). Decoder
    input row i is the ground-truth offset i-1 (the start token at row 0),
    so output row i is the prediction for offset i.
    """
    features = ad.as_tensor(features_std)
    targets = np.asarray(target_offsets, dtype=np.float64)
    if features.data.ndim != targets.ndim or features.shape[:-2] != targets.shape[:-2]:
        raise ValueError(f"features {features.shape} and targets {targets.shape} "
                         "do not describe the same windows")
    memory = encoder_forward(embed_source(features, params), params, attn_sink, rng)
    kappa, lead = targets.shape[-2], targets.shape[:-2]
    dec_in = params["start_token"]
    if lead:  # the one learned start row, repeated for every window
        dec_in = ad.add(Tensor(np.zeros(lead + dec_in.shape)), dec_in)
    if kappa > 1:
        dec_in = ad.concat([dec_in, Tensor(targets[..., : kappa - 1, :])], axis=-2)
    decoded = decoder_forward(embed_target(dec_in, params), memory, params, attn_sink, rng)
    return project_output(decoded, params)


# Windows decode together in chunks whose decoder key/value caches, cross-
# attention keys/values and encoder memory (float64) fit in this many bytes.
DECODE_BUDGET_BYTES = 64 * 2**20


def decode_chunk_size(cfg: ModelConfig, src_len: int, kappa: int) -> int:
    """Windows per decode chunk under DECODE_BUDGET_BYTES (at least one)."""
    per_window = 8 * cfg.d_model * (2 * cfg.n_layers * (src_len + kappa) + src_len)
    return max(1, DECODE_BUDGET_BYTES // per_window)


def predict_autoregressive(
    params: ModelParams,
    features_std: np.ndarray,
    last_observed_pos: np.ndarray,
    kappa: int,
) -> np.ndarray:
    """Roll the decoder forward kappa steps; returns absolute positions.

    Features (B, L, F) with last positions (B, 2) give (B, kappa, 2); a
    single (L, F) window with a (2,) position gives (kappa, 2).
    """
    if kappa < 1:
        raise ValueError(f"kappa must be >= 1, got {kappa}")
    cfg = params.config
    feats = np.asarray(features_std, dtype=np.float64)
    last = np.asarray(last_observed_pos, dtype=np.float64)
    single = feats.ndim == 2
    if single:
        feats, last = feats[None], last[None]
    if feats.ndim != 3 or feats.shape[2] != cfg.feature_dim:
        raise ValueError(
            f"features {feats.shape} do not match model feature_dim {cfg.feature_dim}"
        )
    if last.shape != (len(feats), cfg.out_dim):
        raise ValueError(f"last positions {last.shape} do not match {len(feats)} windows")
    weights = params.arrays()
    offsets = np.empty((len(feats), kappa, cfg.out_dim))
    chunk = decode_chunk_size(cfg, feats.shape[1], kappa)
    for lo in range(0, len(feats), chunk):
        offsets[lo:lo + chunk] = _decode(weights, cfg, feats[lo:lo + chunk], kappa, lo)
    positions = last[:, None, :] + np.cumsum(offsets, axis=1)
    return positions[0] if single else positions


def _decode(w: dict, cfg: ModelConfig, feats: np.ndarray, kappa: int, first: int) -> np.ndarray:
    """Offsets (B, kappa, out_dim) for one chunk; ``first`` numbers its windows."""
    b, src_len, _ = feats.shape
    h, d_k, d = cfg.n_heads, cfg.d_k, cfg.d_model

    def heads(x):  # (B*T, d) -> (B, H, T, d_k)
        return x.reshape(b, -1, h, d_k).transpose(0, 2, 1, 3)

    def attend(q, k, v, prefix):  # heads in, (B*Tq, d) out
        scores = (q @ k.swapaxes(-1, -2)) * (1.0 / np.sqrt(d_k))
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        merged = ((e / e.sum(axis=-1, keepdims=True)) @ v).transpose(0, 2, 1, 3).reshape(-1, d)
        return merged @ w[f"{prefix}.wo"] + w[f"{prefix}.bo"]

    def proj(x, prefix, p):
        return x @ w[f"{prefix}.w{p}"] + w[f"{prefix}.b{p}"]

    def norm(x, prefix):
        xc = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5)
        return xc * inv * w[f"{prefix}.gain"] + w[f"{prefix}.bias"]

    def feed_forward(x, prefix):
        hidden = proj(x, prefix, 1)
        return proj(hidden * (hidden > 0), prefix, 2)

    # encoder over the whole chunk, rows flattened to (B*L, d)
    x = (feats.reshape(-1, cfg.feature_dim) @ w["src_embed.w"] + w["src_embed.b"]
         + np.tile(positional_encoding(src_len, d), (b, 1)))
    for i in range(cfg.n_layers):
        p = f"enc{i}.attn"
        attn = attend(heads(proj(x, p, "q")), heads(proj(x, p, "k")), heads(proj(x, p, "v")), p)
        x = norm(x + attn, f"enc{i}.norm1")
        x = norm(x + feed_forward(x, f"enc{i}.ff"), f"enc{i}.norm2")
    cross = [(heads(proj(x, f"dec{i}.cross_attn", "k")), heads(proj(x, f"dec{i}.cross_attn", "v")))
             for i in range(cfg.n_layers)]

    cache_k = np.empty((cfg.n_layers, b, h, kappa, d_k))
    cache_v = np.empty_like(cache_k)
    tgt_pe = positional_encoding(kappa, d)
    offsets = np.empty((b, kappa, cfg.out_dim))
    y = np.repeat(w["start_token"], b, axis=0)
    for step in range(kappa):
        x = y @ w["tgt_embed.w"] + w["tgt_embed.b"] + tgt_pe[step]
        for i in range(cfg.n_layers):
            p = f"dec{i}.self_attn"
            cache_k[i, :, :, step] = proj(x, p, "k").reshape(b, h, d_k)
            cache_v[i, :, :, step] = proj(x, p, "v").reshape(b, h, d_k)
            attn = attend(heads(proj(x, p, "q")), cache_k[i, :, :, :step + 1],
                          cache_v[i, :, :, :step + 1], p)
            x = norm(x + attn, f"dec{i}.norm1")
            p = f"dec{i}.cross_attn"
            x = norm(x + attend(heads(proj(x, p, "q")), *cross[i], p), f"dec{i}.norm2")
            x = norm(x + feed_forward(x, f"dec{i}.ff"), f"dec{i}.norm3")
        y = x @ w["out_proj.w"] + w["out_proj.b"]
        bad = ~np.isfinite(y).all(axis=1)
        if bad.any():
            raise DivergenceError(
                f"non-finite offset at decode step {step} in window {first + int(np.argmax(bad))}"
            )
        offsets[:, step] = y
    return offsets


# ---------------------------------------------------------- checkpoints

def _checkpoint_views(params: ModelParams, adam: AdamState | None) -> dict[str, np.ndarray]:
    """Bundle name -> view of every weight and, with ``adam``, every moment."""
    out = {f"param.{name}": arr for name, arr in params.arrays().items()}
    if adam is not None:
        for kind, flat in (("m", adam.m), ("v", adam.v)):
            out.update({f"adam.{kind}.{name}": arr for name, arr in params.views(flat).items()})
    return out


def save_checkpoint(
    path,
    params: ModelParams,
    stats: FeatureStats,
    meta: dict | None = None,
    adam_moments: AdamState | None = None,
) -> None:
    """Self-describing container: config + standardization stats + weights."""
    arrays = {**_checkpoint_views(params, adam_moments),
              "stats.mean": stats.mean, "stats.std": stats.std}
    header = {
        "kind": "checkpoint",
        "checkpoint_version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
    }
    if adam_moments is not None:
        header["adam_tau"] = adam_moments.tau
    header.update(meta or {})
    save_bundle(path, arrays, header)


@dataclass
class Checkpoint:
    params: ModelParams
    stats: FeatureStats
    meta: dict
    adam_moments: AdamState | None


def load_checkpoint(path, with_adam: bool = True) -> Checkpoint:
    """Read a checkpoint straight into fresh flat buffers; ``with_adam=False``
    skips the optimizer moments' bytes, which only resuming training needs."""
    _, header = load_bundle(path, names=())
    try:
        params = ModelParams(ModelConfig(**header["config"]), seed=None)
        adam = (AdamState(params, int(header["adam_tau"]))
                if with_adam and "adam_tau" in header else None)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: bad model config or adam_tau in checkpoint ({exc})") from None
    stats = FeatureStats(*np.zeros((2, params.config.feature_dim)))
    into = {**_checkpoint_views(params, adam), "stats.mean": stats.mean, "stats.std": stats.std}
    arrays, header = load_bundle(path, (), into)
    missing = [name for name in into if name not in arrays]
    if missing:
        raise DataError(f"{path}: checkpoint lacks array {missing[0]!r}")
    return Checkpoint(params=params, stats=stats, meta=header, adam_moments=adam)
