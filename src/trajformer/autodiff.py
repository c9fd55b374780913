"""Dense float64 tensors with reverse-mode differentiation.

Just enough machinery for an encoder/decoder transformer: elementwise
arithmetic, affine maps, layer normalization, reshapes, concatenation, and
fused feed-forward and scaled-dot-product attention blocks over the last two
axes, any leading axes being a batch, so one tape covers a whole minibatch.
Each block's forward arithmetic is one plain-numpy kernel (``affine_rows``,
``relu_rows``, ``attention_weights``, ``normalize_rows``), shared with the
model's tape-free forward; the fused blocks rerun it in the backward pass
instead of keeping inner values on the tape. ``backward`` walks the graph of
parent references once in reverse topological order and returns the
gradient of a scalar seed with respect to every leaf.
"""

from __future__ import annotations

import numpy as np


class Tensor:
    """A float64 ndarray plus the bookkeeping needed for backprop.

    Tensors are treated as immutable values once built. Leaf tensors
    (parameters, constants) have no parents; op results carry a ``_vjp``
    closure mapping the output gradient to per-parent gradients.
    """

    __slots__ = ("data", "parents", "op", "_vjp")

    def __init__(self, data, parents=(), op="leaf", vjp=None):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.parents = tuple(parents)
        self.op = op
        self._vjp = vjp

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, op={self.op!r})"

    def item(self):
        return float(self.data)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _broadcast_ok(a_shape, b_shape):
    # b broadcast over the leading axes of a: (..., n, d) op (d,) or (n, d)
    return len(b_shape) < len(a_shape) and a_shape[len(a_shape) - len(b_shape):] == b_shape


def _unbroadcast(g, shape):
    return g.reshape(-1, *shape).sum(axis=0)


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape == b.shape:
        vjp = lambda g: (g, g)
    elif _broadcast_ok(a.shape, b.shape):
        vjp = lambda g: (g, _unbroadcast(g, b.shape))
    else:
        raise ValueError(f"add: incompatible shapes {a.shape} and {b.shape}")
    return Tensor(a.data + b.data, (a, b), "add", vjp)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.shape == b.shape:
        vjp = lambda g: (g, -g)
    elif _broadcast_ok(a.shape, b.shape):
        vjp = lambda g: (g, -_unbroadcast(g, b.shape))
    else:
        raise ValueError(f"sub: incompatible shapes {a.shape} and {b.shape}")
    return Tensor(a.data - b.data, (a, b), "sub", vjp)


def mul(a, b) -> Tensor:
    """Elementwise (Hadamard) product of same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"mul: incompatible shapes {a.shape} and {b.shape}")
    vjp = lambda g: (g * b.data, g * a.data)
    return Tensor(a.data * b.data, (a, b), "mul", vjp)


def scale(a, s: float) -> Tensor:
    a = as_tensor(a)
    s = float(s)
    return Tensor(a.data * s, (a,), "scale", lambda g: (g * s,))


def _rows_times(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """(..., n, d) @ (d, m) as one GEMM over all rows."""
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[1])


def _row_gemm_vjp(x: np.ndarray, w: np.ndarray, g: np.ndarray):
    # gradients of x @ w for a shared (d, m) right factor: the weight
    # gradient sums over every leading index in one GEMM
    return _rows_times(g, w.T), x.reshape(-1, x.shape[-1]).T @ g.reshape(-1, g.shape[-1])


# Forward kernels on plain arrays: the fused nodes below compute their values and
# backward recomputations with these, and the model's tape-free forward calls them.

def affine_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x @ w + b over the rows of x (..., n, d)."""
    return _rows_times(x, w) + b


def relu_rows(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """relu(x @ w + b) over the rows of x: the feed-forward hidden layer."""
    h = affine_rows(x, w, b)
    h *= h > 0
    return h


def attention_weights(q: np.ndarray, k: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    """softmax(q k^T / sqrt(d_k)) in one buffer, with -inf added where ``mask`` is True."""
    w = q @ k.swapaxes(-1, -2)
    w *= 1.0 / np.sqrt(q.shape[-1])
    if mask is not None:
        w += np.where(mask, -np.inf, 0.0)
    w -= w.max(axis=-1, keepdims=True)
    np.exp(w, out=w)
    w /= w.sum(axis=-1, keepdims=True)
    return w


def normalize_rows(s: np.ndarray, gain: np.ndarray, bias: np.ndarray, eps: float):
    """Layer norm over the last axis: the output, row means and inverse deviations."""
    mu = s.mean(axis=-1, keepdims=True)
    xc = s - mu
    inv = 1.0 / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    out = xc * inv
    out *= gain
    out += bias
    return out, mu, inv


def layer_norm(x, gain, bias, eps: float = 1e-5, residual=None) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale+shift.

    With ``residual``, normalizes x + residual in the same node (the
    post-norm residual step). Only the row means and inverse deviations are
    kept for the backward pass.
    """
    if eps <= 0:
        raise ValueError(f"layer_norm: eps must be positive, got {eps}")
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    d = x.shape[-1]
    if gain.shape != (d,) or bias.shape != (d,):
        raise ValueError(
            f"layer_norm: gain/bias shapes {gain.shape}/{bias.shape} "
            f"do not match last axis of {x.shape}"
        )
    inputs = (x,)
    if residual is not None:
        inputs = (x, as_tensor(residual))
        if inputs[1].shape != x.shape:
            raise ValueError(f"layer_norm: residual shape {inputs[1].shape} is not {x.shape}")

    def total():
        return x.data if residual is None else x.data + inputs[1].data

    out, mu, inv = normalize_rows(total(), gain.data, bias.data, eps)

    def vjp(g):
        xhat = (total() - mu) * inv  # recomputed rather than kept on the tape
        dgain = (g * xhat).reshape(-1, d).sum(axis=0)
        dbias = g.reshape(-1, d).sum(axis=0)
        dxhat = g * gain.data
        dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return (dx,) * len(inputs) + (dgain, dbias)

    return Tensor(out, (*inputs, gain, bias), "layer_norm", vjp)


def affine(x, w, b) -> Tensor:
    """x @ w + b over the rows of x (..., n, d), b broadcast over rows."""
    x, w, b = as_tensor(x), as_tensor(w), as_tensor(b)
    if x.data.ndim < 2 or w.data.ndim != 2 or x.shape[-1] != w.shape[0]:
        raise ValueError(f"affine: incompatible shapes {x.shape} and {w.shape}")
    if b.shape != (w.shape[1],):
        raise ValueError(f"affine: bias shape {b.shape} does not match {w.shape}")

    def vjp(g):
        return (*_row_gemm_vjp(x.data, w.data, g), _unbroadcast(g, b.shape))

    return Tensor(affine_rows(x.data, w.data, b.data), (x, w, b), "affine", vjp)


def feed_forward(x, w1, b1, w2, b2) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 over the rows of x, as one node.

    The hidden layer is recomputed in the backward pass rather than kept
    on the tape.
    """
    x, w1, b1, w2, b2 = (as_tensor(t) for t in (x, w1, b1, w2, b2))
    if (x.data.ndim < 2 or x.shape[-1] != w1.shape[0] or b1.shape != (w1.shape[1],)
            or w2.shape[0] != w1.shape[1] or b2.shape != (w2.shape[1],)):
        raise ValueError(f"feed_forward: incompatible shapes {x.shape}, {w1.shape}, "
                         f"{b1.shape}, {w2.shape}, {b2.shape}")

    def vjp(g):
        h = relu_rows(x.data, w1.data, b1.data)
        dh, dw2 = _row_gemm_vjp(h, w2.data, g)
        dh *= h > 0
        dx, dw1 = _row_gemm_vjp(x.data, w1.data, dh)
        return dx, dw1, _unbroadcast(dh, b1.shape), dw2, _unbroadcast(g, b2.shape)

    out = affine_rows(relu_rows(x.data, w1.data, b1.data), w2.data, b2.data)
    return Tensor(out, (x, w1, b1, w2, b2), "feed_forward", vjp)


def reshape(a, shape) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.reshape(shape), (a,), "reshape", lambda g: (g.reshape(a.shape),))


def swapaxes(a, axis1: int, axis2: int) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.swapaxes(axis1, axis2), (a,), "swapaxes",
                  lambda g: (g.swapaxes(axis1, axis2),))


def attention(q, k, v, mask: np.ndarray | None = None) -> Tensor:
    """Scaled dot-product attention, softmax(q k^T / sqrt(d_k)) v, as one node.

    q (..., Lq, d_k), k and v (..., Lk, d_k) with equal leading axes (batch,
    heads). ``mask`` (Lq, Lk) marks blocked keys with True; their weights
    are exact zeros. Returns the output (..., Lq, d_k). The tape keeps only
    q, k and v; the backward pass recomputes the weights from them.
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    if (q.data.ndim < 2 or k.shape != v.shape or q.shape[:-2] != k.shape[:-2]
            or q.shape[-1] != k.shape[-1]):
        raise ValueError(f"attention: incompatible shapes {q.shape}, {k.shape}, {v.shape}")
    s = 1.0 / np.sqrt(q.shape[-1])

    def vjp(g):
        w = attention_weights(q.data, k.data, mask)  # recomputed rather than kept on the tape
        ds = g @ v.data.swapaxes(-1, -2)  # d(weights), turned into d(scores) in place
        ds -= (ds * w).sum(axis=-1, keepdims=True)
        ds *= w
        ds *= s
        return ds @ k.data, ds.swapaxes(-1, -2) @ q.data, w.swapaxes(-1, -2) @ g

    w = attention_weights(q.data, k.data, mask)
    out = w @ v.data
    if out.ndim > 2:  # lay out (..., H, Lq, d_k) with Lq outside H: merging heads is a view
        out = np.ascontiguousarray(out.swapaxes(-3, -2)).swapaxes(-3, -2)
    return Tensor(out, (q, k, v), "attention", vjp)


def concat(parts, axis: int = 0) -> Tensor:
    parts = [as_tensor(p) for p in parts]
    if not parts:
        raise ValueError("concat: need at least one tensor")
    ndim = parts[0].data.ndim
    if not -ndim <= axis < ndim:
        raise ValueError(f"concat: axis {axis} invalid for {ndim}-d tensors")
    sizes = [p.shape[axis] for p in parts]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.ascontiguousarray(piece) for piece in np.split(g, splits, axis=axis))

    return Tensor(np.concatenate([p.data for p in parts], axis=axis), tuple(parts), "concat", vjp)


def tsum(a) -> Tensor:
    a = as_tensor(a)
    return Tensor(a.data.sum(), (a,), "sum", lambda g: (np.full_like(a.data, float(g)),))


def tmean(a) -> Tensor:
    a = as_tensor(a)
    n = a.data.size
    return Tensor(a.data.mean(), (a,), "mean", lambda g: (np.full_like(a.data, float(g) / n),))


def dropout(a, p: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout; identity when p == 0."""
    a = as_tensor(a)
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout: p must be in [0, 1), got {p}")
    if p == 0.0:
        return a
    keep = (rng.random(a.shape) >= p) / (1.0 - p)
    return Tensor(a.data * keep, (a,), "dropout", lambda g: (g * keep,))


def _topo_order(seed: Tensor):
    """Iterative post-order DFS, so no tape is too deep for Python's recursion limit."""
    order = []
    visited = set()
    stack = [(seed, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in visited:
                stack.append((parent, False))
    return order


def backward(seed: Tensor, into: dict | None = None) -> dict[Tensor, np.ndarray]:
    """Gradient of a scalar ``seed`` w.r.t. every leaf of its graph.

    Returns a mapping from each leaf tensor (parameters, constants; keyed by
    identity) to d(seed)/d(leaf) with the leaf's shape; with ``into`` (leaf ->
    array) each listed leaf's gradient is added into its array instead and
    other leaves' are dropped. An op node's gradient is dropped once it has
    been passed to the node's parents, so the sweep holds only the gradients
    still waiting to be consumed.
    """
    if seed.data.size != 1:
        raise ValueError(f"backward: seed must be scalar, got shape {seed.shape}")
    grads: dict[Tensor, np.ndarray] = {seed: np.ones_like(seed.data)}
    for node in reversed(_topo_order(seed)):
        if node._vjp is None:
            continue
        g = grads.pop(node, None)
        if g is None:
            continue
        for parent, pg in zip(node.parents, node._vjp(g)):
            if into is not None and parent._vjp is None:
                if parent in into:
                    into[parent] += pg
                continue
            acc = grads.get(parent)
            grads[parent] = pg if acc is None else acc + pg
    return grads
