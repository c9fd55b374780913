import zlib

import numpy as np
import pytest
from oracle_helpers import matmul, relu, softmax, transpose

from trajformer import autodiff as ad
from trajformer.autodiff import Tensor, backward


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-6)


def fd_check(build, leaves, h=1e-6, tol=1e-5):
    """Central-difference check of a scalar-valued graph over leaf tensors.

    ``build`` maps the leaf tensors to a scalar Tensor; every coordinate of
    every leaf is perturbed.
    """
    loss = build(leaves)
    grads = backward(loss)
    worst = 0.0
    for leaf in leaves:
        analytic = grads.get(leaf, np.zeros_like(leaf.data))
        flat = leaf.data.reshape(-1)
        for i in range(flat.size):
            keep = flat[i]
            flat[i] = keep + h
            up = build(leaves).item()
            flat[i] = keep - h
            down = build(leaves).item()
            flat[i] = keep
            numeric = (up - down) / (2 * h)
            worst = max(worst, rel_err(analytic.reshape(-1)[i], numeric))
    assert worst < tol, f"finite-difference mismatch: {worst}"


# ------------------------------------------------------------- matmul

def test_matmul_identity():
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = matmul(Tensor(np.eye(2)), Tensor(a))
    assert np.array_equal(out.data, a)


def test_matmul_hand_case():
    out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
    assert out.data.shape == (1, 1)
    assert out.data[0, 0] == 11.0


def test_matmul_vs_triple_loop_oracle():
    rng = np.random.default_rng(0)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    expected = np.zeros((3, 2))
    for i in range(3):
        for j in range(2):
            for k in range(4):
                expected[i, j] += a[i, k] * b[k, j]
    out = matmul(Tensor(a), Tensor(b))
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_matmul_shape_error_names_both_shapes():
    with pytest.raises(ValueError) as exc:
        matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)
    assert str(exc.value).count("(2, 3)") == 2


def test_matmul_associativity():
    rng = np.random.default_rng(1)
    for _ in range(5):
        a = rng.normal(size=(4, 3))
        b = rng.normal(size=(3, 5))
        c = rng.normal(size=(5, 2))
        left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
        right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
        assert np.max(np.abs(left - right)) < 1e-9


# ------------------------------------------------------------ softmax

def test_softmax_symmetry():
    out = softmax(Tensor([0.0, 0.0]), axis=0)
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_large_inputs_no_overflow():
    out = softmax(Tensor([1000.0, 1000.0]), axis=0)
    assert np.all(np.isfinite(out.data))
    assert np.allclose(out.data, [0.5, 0.5], atol=1e-15)


def test_softmax_vs_direct_oracle():
    x = np.array([1.0, 2.0, 3.0])
    expected = np.exp(x) / np.exp(x).sum()
    out = softmax(Tensor(x), axis=0)
    assert np.max(np.abs(out.data - expected)) < 1e-12


def test_softmax_invalid_axis():
    with pytest.raises(ValueError):
        softmax(Tensor(np.zeros((2, 3))), axis=2)


def test_softmax_properties():
    rng = np.random.default_rng(2)
    for _ in range(20):
        x = rng.normal(scale=5, size=(4, 6))
        y = softmax(Tensor(x), axis=-1).data
        assert np.all(y >= 0) and np.all(y <= 1)
        assert np.max(np.abs(y.sum(axis=-1) - 1)) < 1e-12
        shifted = softmax(Tensor(x + 3.7), axis=-1).data
        assert np.max(np.abs(shifted - y)) < 1e-12


# --------------------------------------------------------- layer norm

def test_layer_norm_constant_row_collapses_to_zero():
    x = np.full((1, 5), 4.2)
    out = ad.layer_norm(Tensor(x), Tensor(np.ones(5)), Tensor(np.zeros(5)))
    assert np.allclose(out.data, 0.0, atol=1e-12)


def test_layer_norm_already_normalized():
    out = ad.layer_norm(Tensor([[1.0, -1.0]]), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                        eps=1e-14)
    assert np.allclose(out.data, [[1.0, -1.0]], atol=1e-6)


def test_layer_norm_vs_two_pass_oracle():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(1, 9))
    gain = rng.normal(size=9)
    bias = rng.normal(size=9)
    eps = 1e-5
    mu = x.sum() / 9
    var = ((x - mu) ** 2).sum() / 9
    expected = (x - mu) / np.sqrt(var + eps) * gain + bias
    out = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias), eps)
    assert np.max(np.abs(out.data - expected)) < 1e-10


def test_layer_norm_bad_eps():
    with pytest.raises(ValueError):
        ad.layer_norm(Tensor(np.zeros((1, 3))), Tensor(np.ones(3)), Tensor(np.zeros(3)), eps=0.0)


def test_layer_norm_row_statistics():
    rng = np.random.default_rng(4)
    # eps biases variance by eps/var, so the input variance must dwarf eps
    x = rng.normal(scale=100, size=(6, 16))
    y = ad.layer_norm(Tensor(x), Tensor(np.ones(16)), Tensor(np.zeros(16))).data
    assert np.max(np.abs(y.mean(axis=-1))) < 1e-10
    assert np.max(np.abs(y.var(axis=-1) - 1)) < 1e-8


# ------------------------------------------------------------- affine

def test_affine_zero_input_gives_bias_rows():
    b = np.array([1.0, 2.0, 3.0])
    out = ad.affine(Tensor(np.zeros((4, 2))), Tensor(np.ones((2, 3))), Tensor(b))
    assert np.array_equal(out.data, np.tile(b, (4, 1)))


def test_affine_identity():
    x = np.random.default_rng(5).normal(size=(3, 3))
    out = ad.affine(Tensor(x), Tensor(np.eye(3)), Tensor(np.zeros(3)))
    assert np.allclose(out.data, x, atol=1e-15)


def test_affine_vs_matmul_add_oracle():
    rng = np.random.default_rng(6)
    x, w, b = rng.normal(size=(5, 3)), rng.normal(size=(3, 4)), rng.normal(size=4)
    out = ad.affine(Tensor(x), Tensor(w), Tensor(b))
    assert np.max(np.abs(out.data - (x @ w + b))) < 1e-12


def test_affine_shape_error():
    with pytest.raises(ValueError):
        ad.affine(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))), Tensor(np.zeros(2)))


# ----------------------------------------------------------- backward

def test_backward_identity():
    x = Tensor([3.0])
    grads = backward(ad.tsum(x))
    assert np.array_equal(grads[x], [1.0])


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0])
    grads = backward(ad.tsum(ad.mul(x, x)))
    assert np.allclose(grads[x], [2.0, 4.0], atol=1e-12)


def test_backward_rejects_non_scalar_seed():
    with pytest.raises(ValueError):
        backward(Tensor([1.0, 2.0]))


def test_backward_into_adds_leaf_gradients_bit_equal_to_the_dict_form():
    rng = np.random.default_rng(40)
    x, w = Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2)))
    c = Tensor(rng.normal(size=(3, 2)))

    def loss():  # x and w each reach the loss along two paths
        y = matmul(x, w)
        return ad.tsum(ad.mul(ad.add(y, c), ad.add(y, matmul(x, w))))

    want = backward(loss())
    into = {x: np.zeros(x.shape), w: np.zeros(w.shape)}
    assert backward(loss(), into) == {}  # the constant's gradient is dropped
    for leaf, got in into.items():
        assert np.array_equal(got, want[leaf])


def test_backward_attention_block_vs_finite_differences():
    # single-head scaled dot-product attention with a softmax, end to end
    rng = np.random.default_rng(7)
    q = Tensor(rng.normal(size=(3, 4)))
    k = Tensor(rng.normal(size=(5, 4)))
    v = Tensor(rng.normal(size=(5, 4)))
    proj = Tensor(rng.normal(size=(3, 4)))  # fixed projection to scalar

    def build(leaves):
        q, k, v = leaves
        scores = ad.scale(matmul(q, transpose(k)), 1 / 2.0)
        out = matmul(softmax(scores, axis=-1), v)
        return ad.tsum(ad.mul(out, proj))

    fd_check(build, [q, k, v], tol=1e-5)


@pytest.mark.parametrize(
    "name",
    ["add", "add_bias", "sub", "mul", "scale", "matmul", "transpose", "relu",
     "softmax", "layer_norm", "affine", "concat0", "concat1", "tsum", "tmean",
     "add_bias_batched", "add_rows_batched", "sub_bias_batched", "matmul_batched",
     "affine_batched", "layer_norm_batched", "softmax_batched",
     "concat_batched", "reshape", "swapaxes", "attention", "attention_causal",
     "attention_batched", "feed_forward_batched", "layer_norm_residual_batched"],
)
def test_gradcheck_each_op(name):
    # analytic vs central differences at random points, per operation; crc32
    # rather than hash(), which Python salts per process
    rng = np.random.default_rng(zlib.crc32(name.encode()))

    for _ in range(10):
        proj_cache = {}

        def scalarize(t):
            # project to a scalar with a projection frozen per trial
            if t.data.ndim == 0:
                return t
            if t.shape not in proj_cache:
                proj_cache[t.shape] = Tensor(rng.normal(size=t.shape))
            return ad.tsum(ad.mul(t, proj_cache[t.shape]))

        if name == "add":
            leaves = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: scalarize(ad.add(ls[0], ls[1]))
        elif name == "add_bias":
            leaves = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4))]
            build = lambda ls: scalarize(ad.add(ls[0], ls[1]))
        elif name == "sub":
            leaves = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: scalarize(ad.sub(ls[0], ls[1]))
        elif name == "mul":
            leaves = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: scalarize(ad.mul(ls[0], ls[1]))
        elif name == "scale":
            leaves = [Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: scalarize(ad.scale(ls[0], -1.7))
        elif name == "matmul":
            leaves = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2)))]
            build = lambda ls: scalarize(matmul(ls[0], ls[1]))
        elif name == "transpose":
            leaves = [Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: scalarize(transpose(ls[0]))
        elif name == "relu":
            leaves = [Tensor(rng.normal(size=(3, 4)) + 0.2)]
            build = lambda ls: scalarize(relu(ls[0]))
        elif name == "softmax":
            leaves = [Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: scalarize(softmax(ls[0], axis=-1))
        elif name == "layer_norm":
            leaves = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=4)),
                      Tensor(rng.normal(size=4))]
            build = lambda ls: scalarize(ad.layer_norm(ls[0], ls[1], ls[2]))
        elif name == "affine":
            leaves = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(4, 2))),
                      Tensor(rng.normal(size=2))]
            build = lambda ls: scalarize(ad.affine(ls[0], ls[1], ls[2]))
        elif name == "add_bias_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=4))]
            build = lambda ls: scalarize(ad.add(ls[0], ls[1]))
        elif name == "add_rows_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: scalarize(ad.add(ls[0], ls[1]))
        elif name == "sub_bias_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=4))]
            build = lambda ls: scalarize(ad.sub(ls[0], ls[1]))
        elif name == "matmul_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 2)))]
            build = lambda ls: scalarize(matmul(ls[0], ls[1]))
        elif name == "affine_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 2))),
                      Tensor(rng.normal(size=2))]
            build = lambda ls: scalarize(ad.affine(ls[0], ls[1], ls[2]))
        elif name == "feed_forward_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(4, 5))),
                      Tensor(rng.normal(size=5)), Tensor(rng.normal(size=(5, 4))),
                      Tensor(rng.normal(size=4))]
            build = lambda ls: scalarize(ad.feed_forward(*ls))
        elif name == "layer_norm_residual_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=(2, 3, 4))),
                      Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))]
            build = lambda ls: scalarize(ad.layer_norm(ls[0], ls[2], ls[3], residual=ls[1]))
        elif name == "layer_norm_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4))), Tensor(rng.normal(size=4)),
                      Tensor(rng.normal(size=4))]
            build = lambda ls: scalarize(ad.layer_norm(ls[0], ls[1], ls[2]))
        elif name == "softmax_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4)))]
            build = lambda ls: scalarize(softmax(ls[0], axis=-1))
        elif name == "concat_batched":
            leaves = [Tensor(rng.normal(size=(2, 1, 3))), Tensor(rng.normal(size=(2, 4, 3)))]
            build = lambda ls: scalarize(ad.concat(ls, axis=-2))
        elif name == "reshape":
            leaves = [Tensor(rng.normal(size=(2, 3, 4)))]
            build = lambda ls: scalarize(ad.reshape(ls[0], (2, 3, 2, 2)))
        elif name == "swapaxes":
            leaves = [Tensor(rng.normal(size=(2, 3, 4)))]
            build = lambda ls: scalarize(ad.swapaxes(ls[0], -3, -2))
        elif name == "attention":
            leaves = [Tensor(rng.normal(size=(3, 4))), Tensor(rng.normal(size=(5, 4))),
                      Tensor(rng.normal(size=(5, 4)))]
            build = lambda ls: scalarize(ad.attention(*ls)[0])
        elif name == "attention_causal":
            leaves = [Tensor(rng.normal(size=(2, 2, 4, 3))) for _ in range(3)]
            mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
            build = lambda ls, mask=mask: scalarize(ad.attention(*ls, mask)[0])
        elif name == "attention_batched":
            leaves = [Tensor(rng.normal(size=(2, 3, 4, 2))), Tensor(rng.normal(size=(2, 3, 5, 2))),
                      Tensor(rng.normal(size=(2, 3, 5, 2)))]
            build = lambda ls: scalarize(ad.attention(*ls)[0])
        elif name == "concat0":
            leaves = [Tensor(rng.normal(size=(2, 4))), Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: scalarize(ad.concat(ls, axis=0))
        elif name == "concat1":
            leaves = [Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: scalarize(ad.concat(ls, axis=1))
        elif name == "tsum":
            leaves = [Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: ad.tsum(ls[0])
        else:
            leaves = [Tensor(rng.normal(size=(3, 4)))]
            build = lambda ls: ad.tmean(ls[0])
        fd_check(build, leaves, tol=1e-5)


def test_attention_matches_composed_ops():
    # the fused node against the same computation spelled out op by op
    rng = np.random.default_rng(8)
    q, k, v = (rng.normal(size=(2, 4, 3)) for _ in range(3))
    mask = np.triu(np.ones((4, 4), dtype=bool), k=1)
    out, weights = ad.attention(Tensor(q), Tensor(k), Tensor(v), mask)
    for b in range(2):
        scores = ad.scale(matmul(Tensor(q[b]), transpose(Tensor(k[b]))), 1 / np.sqrt(3))
        w = softmax(ad.add(scores, Tensor(np.where(mask, -np.inf, 0.0))), axis=-1)
        assert np.array_equal(weights[b], w.data)
        assert np.array_equal(out.data[b], matmul(w, Tensor(v[b])).data)
    assert np.all(weights[:, mask] == 0.0)


def test_fused_feed_forward_and_residual_norm_match_composed_ops():
    rng = np.random.default_rng(11)
    x, y = rng.normal(size=(2, 3, 4)), rng.normal(size=(2, 3, 4))
    w1, b1, w2, b2, gain, bias = (rng.normal(size=s) for s in ((4, 6), 6, (6, 4), 4, 4, 4))
    leaves = [Tensor(a) for a in (x, w1, b1, w2, b2)]
    fused = ad.feed_forward(*leaves)
    hidden = relu(ad.affine(leaves[0], leaves[1], leaves[2]))
    composed = ad.affine(hidden, leaves[3], leaves[4])
    assert np.array_equal(fused.data, composed.data)
    proj = Tensor(rng.normal(size=fused.shape))
    got = backward(ad.tsum(ad.mul(fused, proj)))
    want = backward(ad.tsum(ad.mul(composed, proj)))
    for leaf in leaves:
        assert np.array_equal(got[leaf], want[leaf])
    fused = ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias), residual=Tensor(y))
    composed = ad.layer_norm(ad.add(Tensor(x), Tensor(y)), Tensor(gain), Tensor(bias))
    assert np.array_equal(fused.data, composed.data)
    with pytest.raises(ValueError, match="residual"):
        ad.layer_norm(Tensor(x), Tensor(gain), Tensor(bias), residual=Tensor(y[0]))


def test_batched_matmul_equals_per_row_block_products():
    rng = np.random.default_rng(9)
    x, w = rng.normal(size=(3, 5, 4)), rng.normal(size=(4, 2))
    out = matmul(Tensor(x), Tensor(w)).data
    for b in range(3):
        assert np.max(np.abs(out[b] - x[b] @ w)) < 1e-14


def test_backward_keeps_only_leaf_gradients():
    x = Tensor(np.ones((2, 3)))
    hidden = relu(x)
    grads = backward(ad.tsum(ad.mul(hidden, hidden)))
    assert x in grads and hidden not in grads


def test_shared_input_gradient_accumulates():
    # x used twice: d/dx sum(x*x) = 2x, both parent slots hit the same node
    x = Tensor([1.5, -2.0])
    grads = backward(ad.tsum(ad.mul(x, x)))
    assert np.allclose(grads[x], [3.0, -4.0], atol=1e-12)


def test_deep_graph_no_recursion_limit():
    x = Tensor(np.ones((2, 2)))
    y = x
    for _ in range(3000):
        y = ad.add(y, x)
    grads = backward(ad.tsum(y))
    assert grads[x].shape == (2, 2)
