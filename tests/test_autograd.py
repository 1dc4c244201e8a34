import math

import numpy as np
import pytest

from normadapt import autograd as ag
from normadapt.finite_diff import central_difference, max_relative_error


def t64(a, requires_grad=True):
    return ag.tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


# --- trivial frozen examples -------------------------------------------------

def test_matmul_ones():
    a = t64(np.ones((2, 3)))
    b = t64(np.ones((3, 2)))
    out = ag.matmul(a, b)
    assert np.array_equal(out.data, np.full((2, 2), 3.0))


def test_layer_norm_two_point():
    x = t64([[1.0, 3.0]])
    gain = t64(np.ones(2))
    bias = t64(np.zeros(2))
    out = ag.layer_norm(x, gain, bias, eps=0.0)
    np.testing.assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-15)


def test_cross_entropy_uniform_logits():
    logits = t64(np.zeros((1, 4)))
    for target in range(4):
        loss = ag.cross_entropy(logits, np.array([[target]]).reshape(1))
        assert math.isclose(float(loss.data), math.log(4.0), rel_tol=1e-12)


def test_backward_quadratic():
    w = t64([2.0, -3.0])
    # sum(w*w) composed as mean * N
    n = ag.tensor(np.float64(2.0))
    loss = ag.mul(ag.mean(ag.mul(w, w)), n)
    ag.backward(loss)
    np.testing.assert_allclose(w.grad, [4.0, -6.0], atol=1e-15)


def test_mean_gradient_is_uniform():
    x = t64(np.arange(6, dtype=np.float64).reshape(2, 3))
    loss = ag.mean(x)
    ag.backward(loss)
    np.testing.assert_allclose(x.grad, np.full((2, 3), 1.0 / 6.0), atol=1e-15)


# --- finite-difference oracle over every registered kind ---------------------

# (a shape, b shape, transpose_b): 2-d, the flattened 3-d x 2-d path with and
# without transpose_b, batched 4-d (attention-style) and a broadcast batch.
MATMUL_CASES = (
    ((2, 4), (4, 2), False),
    ((2, 3, 4), (5, 4), True),
    ((2, 3, 4), (4, 5), False),
    ((2, 2, 3, 4), (2, 2, 5, 4), True),
    ((2, 3, 4), (1, 4, 2), False),
)


def _case_for(kind, rng, seed):
    """Random small float64 inputs + attrs for one op kind."""
    if kind == "matmul":
        a_shape, b_shape, transpose_b = MATMUL_CASES[seed % len(MATMUL_CASES)]
        return ([rng.standard_normal(a_shape), rng.standard_normal(b_shape)],
                {"transpose_b": transpose_b})
    if kind == "causal_attention":
        return [rng.standard_normal((2, 4, 4)) for _ in range(3)], {"n_heads": 2}
    if kind == "add" or kind == "mul":
        return [rng.standard_normal((2, 4)), rng.standard_normal(4)], {}
    if kind == "embed_lookup":
        return [rng.standard_normal((4, 2))], {"ids": rng.integers(0, 4, size=(3,))}
    if kind in ("softmax", "silu"):
        return [rng.standard_normal((2, 4))], {}
    if kind == "layer_norm":
        return [rng.standard_normal((2, 4)), rng.standard_normal(4),
                rng.standard_normal(4)], {"eps": 0.0}
    if kind == "rms_norm":
        return [rng.standard_normal((2, 4)), rng.standard_normal(4)], {"eps": 0.0}
    if kind == "cross_entropy":
        return [rng.standard_normal((2, 4))], {"targets": rng.integers(0, 4, size=(2,))}
    if kind == "transpose":
        return [rng.standard_normal((2, 2, 2))], {"axes": (1, 2, 0)}
    if kind == "reshape":
        return [rng.standard_normal((2, 4))], {"shape": (4, 2)}
    if kind == "mean":
        return [rng.standard_normal((2, 4))], {"axis": 1}
    if kind == "concat":
        return [rng.standard_normal((2, 2)), rng.standard_normal((2, 2))], {"axis": 1}
    raise AssertionError(f"no gradcheck case for op kind {kind}")


def run_gradcheck(kind, seed, tol=1e-5):
    rng = np.random.default_rng(seed)
    arrays, attrs = _case_for(kind, rng, seed)
    out_shape = ag.op_forward(kind, [ag.tensor(a) for a in arrays], attrs).shape
    proj = rng.standard_normal(out_shape) if out_shape else np.float64(1.0)

    def scalar(arrs):
        out = ag.op_forward(kind, [ag.tensor(a) for a in arrs], attrs)
        return float(np.sum(out.data * proj))

    tensors = [ag.tensor(a.copy(), requires_grad=True) for a in arrays]
    out = ag.op_forward(kind, tensors, attrs)
    loss = ag.mul(ag.mean(out), ag.tensor(np.float64(out.data.size)))
    if out.shape:
        loss = ag.mul(ag.mean(ag.mul(out, ag.tensor(proj))),
                      ag.tensor(np.float64(out.data.size)))
    ag.backward(loss)
    numeric = central_difference(scalar, [a.copy() for a in arrays], step=1e-5)
    for t, num in zip(tensors, numeric):
        assert t.grad is not None
        err = max_relative_error(t.grad, num)
        assert err <= tol, f"{kind} seed {seed}: rel err {err:.3e}"


@pytest.mark.parametrize("kind", ag.op_kinds())
def test_finite_difference_all_kinds(kind):
    for seed in range(20):
        run_gradcheck(kind, seed)


# --- tape contracts -----------------------------------------------------------

def test_replay_is_bitwise_identical():
    def build():
        rng = np.random.default_rng(7)
        x = ag.tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = ag.tensor(rng.standard_normal((4, 5)), requires_grad=True)
        h = ag.silu(ag.matmul(x, w, transpose_b=True))
        loss = ag.mean(ag.mul(h, h))
        ag.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = build(), build()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_grad_accumulation_is_additive():
    w0 = t64([1.0, 2.0, 3.0])
    loss_a = ag.mean(ag.mul(w0, w0))
    loss_b = ag.mean(ag.silu(w0))
    ag.backward(loss_a)
    ag.backward(loss_b)
    accumulated = w0.grad.copy()

    w1 = t64([1.0, 2.0, 3.0])
    ag.backward(ag.add(ag.mean(ag.mul(w1, w1)), ag.mean(ag.silu(w1))))
    np.testing.assert_allclose(accumulated, w1.grad, rtol=1e-14)


def test_backward_skips_frozen_leaves():
    w = t64(np.ones(3), requires_grad=False)
    x = t64(np.ones(3), requires_grad=True)
    loss = ag.mean(ag.mul(w, x))
    ag.backward(loss)
    assert w.grad is None
    assert x.grad is not None


def test_fully_frozen_graph_backward_is_noop():
    w = t64(np.ones(3), requires_grad=False)
    loss = ag.mean(ag.mul(w, w))
    ag.backward(loss)  # must not raise
    assert w.grad is None


def test_no_grad_suppresses_recording():
    w = t64(np.ones(3))
    with ag.no_grad():
        out = ag.mul(w, w)
    assert not out.requires_grad
    assert out._parents == ()


# --- errors -------------------------------------------------------------------

def test_matmul_shape_error_names_kind_and_shapes():
    with pytest.raises(ag.ShapeError) as exc:
        ag.matmul(t64(np.ones((2, 3))), t64(np.ones((4, 2))))
    assert exc.value.kind == "matmul"
    assert (2, 3) in exc.value.shapes and (4, 2) in exc.value.shapes


def test_layer_norm_degenerate_sigma():
    x = t64(np.full((1, 4), 2.5))
    with pytest.raises(ag.DegenerateSigmaError):
        ag.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)), eps=0.0)
    # training epsilon keeps the same input usable
    out = ag.layer_norm(x, t64(np.ones(4)), t64(np.zeros(4)), eps=1e-5)
    assert np.all(np.isfinite(out.data))


def test_backward_rejects_non_scalar():
    x = t64(np.ones((2, 2)))
    with pytest.raises(ValueError):
        ag.backward(ag.mul(x, x))


def test_double_backward_without_rebuild_raises():
    x = t64([1.0, 2.0])
    loss = ag.mean(ag.mul(x, x))
    ag.backward(loss)
    with pytest.raises(RuntimeError):
        ag.backward(loss)


def test_mixed_dtype_graph_rejected():
    a = ag.tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    b = ag.tensor(np.ones(2, dtype=np.float64), requires_grad=True)
    with pytest.raises(ValueError):
        ag.add(a, b)
