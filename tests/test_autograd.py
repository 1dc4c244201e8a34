import contextlib
import ctypes
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from normadapt import autograd as ag
from normadapt import model as md
from normadapt import training as tr
from normadapt.strategies import TuningStrategy, inject_lora, select_trainable

from finite_diff import central_difference, max_relative_error


def t64(a, requires_grad=True):
    return ag.tensor(np.asarray(a, dtype=np.float64), requires_grad=requires_grad)


# --- trivial frozen examples -------------------------------------------------

def test_matmul_ones():
    x = t64(np.ones((2, 3)))
    w = t64(np.ones((2, 3)))  # (out, in): the op computes x @ w.T
    out = ag.matmul(x, w)
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
    w = t64([[2.0, -3.0]])
    # sum(w*w) as the (1, 1) product w w^T: both inputs add into one gradient
    loss = ag.matmul(w, w)
    ag.backward(loss)
    np.testing.assert_allclose(w.grad, [[4.0, -6.0]], atol=1e-15)


# --- finite-difference oracle over every registered kind ---------------------

# (x shape, weight shape) of x @ W.T: 2-d, 3-d and 4-d x into an (out, in)
# weight, and rank-1 weights as a LoRA adapter pair of rank 1 has them.
MATMUL_CASES = (
    ((2, 4), (3, 4)),
    ((2, 3, 4), (5, 4)),
    ((2, 2, 3, 4), (5, 4)),
    ((2, 3, 4), (1, 4)),
    ((2, 3, 1), (5, 1)),
)

# causal_attention's (count, length) groups: several samples, and one of length 1
GROUPS = ((3, 2), (1, 1), (2, 4))


def _case_for(kind, rng, seed):
    """Random small float64 inputs + attrs for one op kind."""
    if kind == "matmul":
        x_shape, w_shape = MATMUL_CASES[seed % len(MATMUL_CASES)]
        return [rng.standard_normal(x_shape), rng.standard_normal(w_shape)], {}
    if kind == "causal_attention":
        if seed % 2 == 0:  # a dense (B, L, d) batch: the single group (B, L)
            return ([rng.standard_normal((2, 4, 4)) for _ in range(3)],
                    {"n_heads": 2, "groups": [(2, 4)]})
        # (N, d) rows in groups of equal-length samples, in shuffled group
        # order: three samples of 2 rows, one of length 1, two of length 4
        groups = [GROUPS[i] for i in rng.permutation(len(GROUPS))]
        n = sum(count * length for count, length in groups)
        return ([rng.standard_normal((n, 4)) for _ in range(3)],
                {"n_heads": 2, "groups": groups})
    if kind == "add":
        return [rng.standard_normal((2, 4)), rng.standard_normal(4)], {}
    if kind == "embed_lookup":
        if seed % 2:  # (B, T) ids with one row twice: gradients accumulate
            ids = rng.integers(0, 5, size=(2, 3))
            ids[1, 2] = ids[0, 0]
        else:  # distinct rows: a plain scatter
            ids = rng.permutation(5)[:3]
        return [rng.standard_normal((5, 2))], {"ids": ids}
    if kind == "silu":
        return [rng.standard_normal((2, 4))], {}
    if kind == "layer_norm":
        return [rng.standard_normal((2, 4)), rng.standard_normal(4),
                rng.standard_normal(4)], {"eps": 0.0}
    if kind == "rms_norm":
        return [rng.standard_normal((2, 4)), rng.standard_normal(4)], {"eps": 0.0}
    if kind == "cross_entropy":
        logits = rng.standard_normal((3, 4))
        targets = rng.integers(0, 4, size=(3,))
        if seed % 2:
            targets[seed % 3] = -1  # an ignored row: only scored rows are gathered
        return [logits], {"targets": targets}
    if kind == "concat":  # the embedding table and the connector's rows
        return [rng.standard_normal((5, 3)), rng.standard_normal((2, 3))], {}
    raise AssertionError(f"no gradcheck case for op kind {kind}")


def run_gradcheck(kind, seed, tol=1e-5):
    """The kernel's vector-Jacobian product for a random output gradient g
    against central differences of vdot(g, f(x))."""
    rng = np.random.default_rng(seed)
    arrays, attrs = _case_for(kind, rng, seed)
    kernel = ag._OPS[kind]
    out, backward = kernel([a.copy() for a in arrays], attrs)
    g = rng.standard_normal(out.shape)
    grads = backward(g, [True] * len(arrays))

    def scalar(arrs):
        return float(np.vdot(g, kernel([a.copy() for a in arrs], attrs)[0]))

    numeric = central_difference(scalar, [a.copy() for a in arrays], step=1e-5)
    for got, num in zip(grads, numeric, strict=True):
        assert got is not None
        err = max_relative_error(got, num)
        assert err <= tol, f"{kind} seed {seed}: rel err {err:.3e}"


@pytest.mark.parametrize("kind", ag.op_kinds())
def test_finite_difference_all_kinds(kind):
    for seed in range(20):
        run_gradcheck(kind, seed)


def test_attention_groups_must_cover_the_rows():
    q = t64(np.ones((7, 4)))
    for groups in ([(3, 2)], [(3, 2), (1, 2)], [(3, 2), (0, 4), (1, 1)],
                   [(3, 2), (1, 1), (-1, 1), (1, 1)], [(7, 1), (2, 0)]):
        with pytest.raises(ag.ShapeError):
            ag.causal_attention(q, q, q, 2, groups)
    assert ag.causal_attention(q, q, q, 2, [(3, 2), (1, 1)]).shape == (7, 4)
    dense = t64(np.ones((1, 7, 4)))  # a (B, L, d) batch is read as its rows
    assert ag.causal_attention(dense, dense, dense, 2, [(1, 7)]).shape == (1, 7, 4)
    with pytest.raises(ag.ShapeError):  # q, k and v of unequal shapes
        ag.causal_attention(dense, q, q, 2, [(1, 7)])


# --- tape contracts -----------------------------------------------------------

TARGET = np.array([1])  # the scored class of a (1, C) row: a scalar loss to walk


def test_replay_is_bitwise_identical():
    def build():
        rng = np.random.default_rng(7)
        x = ag.tensor(rng.standard_normal((3, 5)), requires_grad=True)
        w = ag.tensor(rng.standard_normal((4, 5)), requires_grad=True)
        h = ag.silu(ag.matmul(x, w))
        loss = ag.cross_entropy(h, np.array([0, 3, 1]))
        ag.backward(loss)
        return loss.data.copy(), x.grad.copy(), w.grad.copy()

    first, second = build(), build()
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_grad_accumulation_is_additive():
    w0 = t64([[1.0, 2.0, 3.0]])
    loss_a = ag.cross_entropy(ag.add(w0, w0), TARGET)
    loss_b = ag.cross_entropy(ag.silu(w0), TARGET)
    ag.backward(loss_a)
    ag.backward(loss_b)
    accumulated = w0.grad.copy()

    w1 = t64([[1.0, 2.0, 3.0]])
    ag.backward(ag.add(ag.cross_entropy(ag.add(w1, w1), TARGET),
                       ag.cross_entropy(ag.silu(w1), TARGET)))
    np.testing.assert_allclose(accumulated, w1.grad, rtol=1e-14)


def test_backward_frees_the_graph_and_keeps_leaf_grads():
    w = t64([[1.0, -2.0, 3.0]])
    h = ag.silu(ag.add(w, w))
    loss = ag.cross_entropy(h, TARGET)
    ag.backward(loss)
    assert h.grad is None and h._node.parents == ()
    assert w.grad is not None and loss.grad is not None


def test_backward_through_a_freed_graph_raises():
    w = t64([[1.0, -2.0, 3.0]])
    v = t64([0.5, 0.5, 0.5])
    h = ag.silu(ag.add(w, w))
    ag.backward(ag.cross_entropy(h, TARGET))
    kept = w.grad.copy()
    second = ag.cross_entropy(ag.add(h, v), TARGET)
    with pytest.raises(RuntimeError, match="freed by an earlier backward"):
        ag.backward(second)
    # raised before any gradient was accumulated
    assert np.array_equal(w.grad, kept) and v.grad is None


def test_backward_skips_frozen_leaves():
    w = t64(np.ones((1, 3)), requires_grad=False)
    x = t64(np.ones(3), requires_grad=True)
    loss = ag.cross_entropy(ag.add(w, x), TARGET)
    ag.backward(loss)
    assert w.grad is None
    assert x.grad is not None


def test_fully_frozen_graph_backward_is_noop():
    w = t64(np.ones((1, 3)), requires_grad=False)
    loss = ag.cross_entropy(ag.add(w, w), TARGET)
    ag.backward(loss)  # must not raise
    assert w.grad is None


def test_no_grad_suppresses_recording():
    w = t64(np.ones(3))
    with ag.no_grad():
        out = ag.add(w, w)
    assert not out.requires_grad
    assert out._node.parents == () and out._backward is None


# --- retention: the tape keeps only what a backward reads ---------------------

@pytest.mark.parametrize("kind", ag.op_kinds())
def test_partial_needs_give_the_same_gradients(kind):
    """A kernel told that only some inputs need a gradient returns exactly
    those, bitwise as when every input needs one, and None for the rest."""
    rng = np.random.default_rng(3)
    for seed in range(4):
        arrays, attrs = _case_for(kind, rng, seed)
        out, backward = ag._OPS[kind](arrays, attrs)
        g = rng.standard_normal(out.shape)
        full = backward(g, (True,) * len(arrays))
        for needs in product((False, True), repeat=len(arrays)):
            got_out, got_backward = ag._OPS[kind](arrays, attrs, needs)
            assert got_out.tobytes() == out.tobytes()
            if not any(needs):
                assert got_backward is None
                continue
            for need, got, want in zip(needs, got_backward(g, needs), full, strict=True):
                assert (got is None) if not need else got.tobytes() == want.tobytes()


@pytest.mark.parametrize("frozen", ["requires_grad", "no_grad"])
@pytest.mark.parametrize("kind", ag.op_kinds())
def test_an_op_no_input_needs_a_gradient_for_keeps_nothing(kind, frozen):
    arrays, attrs = _case_for(kind, np.random.default_rng(0), 0)
    inputs = [ag.tensor(a, requires_grad=frozen == "no_grad") for a in arrays]
    refs = [weakref.ref(a) for a in arrays]
    del arrays
    with ag.no_grad() if frozen == "no_grad" else contextlib.nullcontext():
        out = ag.op_forward(kind, inputs, attrs)
    assert out._backward is None and out._node.parents == ()
    assert not out.requires_grad
    del inputs
    assert [r() for r in refs] == [None] * len(refs)


@pytest.mark.parametrize("frozen", ["weight", "x"])
def test_matmul_with_one_side_frozen_drops_the_other(frozen):
    """x is kept only for the weight's gradient and the weight only for
    x's, so the operand that trains is not kept for its own."""
    rng = np.random.default_rng(1)
    x = ag.tensor(rng.standard_normal((4, 3)), requires_grad=frozen == "weight")
    w = ag.tensor(rng.standard_normal((2, 3)), requires_grad=frozen == "x")
    trained = x if frozen == "weight" else w
    node, dropped = trained._node, weakref.ref(trained.data)
    out = ag.matmul(x, w)
    del x, w, trained
    assert dropped() is None
    ag.backward(ag.cross_entropy(out, np.array([0, 1, 1, 0])))
    assert node.grad.shape == ((4, 3) if frozen == "weight" else (2, 3))


def test_silu_backward_keeps_only_its_slope():
    """silu's backward keeps one array, silu'(x) made in the forward, and
    neither x nor the sigmoid; the output is a buffer of its own."""
    x = np.random.default_rng(2).standard_normal((4, 6)).astype(np.float32)
    out, backward = ag._OPS["silu"]([x], {}, (True,))
    kept = [c.cell_contents for c in backward.__closure__
            if isinstance(c.cell_contents, np.ndarray)]
    assert len(kept) == 1
    (slope,) = kept
    assert slope.shape == x.shape and slope.dtype == x.dtype
    assert not np.shares_memory(slope, x) and not np.shares_memory(slope, out)


def test_silu_exp_overflow_is_silent():
    """exp(-x) overflows to inf for very negative x, where the sigmoid is
    exactly 0; that raises no warning, and the output and gradient are finite."""
    x = np.array([-100.0, 0.5, 100.0], dtype=np.float32)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out, backward = ag._OPS["silu"]([x], {}, (True,))
        (gx,) = backward(np.ones_like(x), (True,))
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(gx))
    assert out[0] == 0.0 and out[2] == 100.0 and gx[0] == 0.0 and gx[2] == 1.0


# --- errors -------------------------------------------------------------------

def test_matmul_shape_error_names_kind_and_shapes():
    # an (out, in) weight whose in does not match, and a 3-d weight: the op
    # computes x @ W.T for a 2-d W only, never a batched product
    for x_shape, w_shape in (((2, 3), (4, 2)), ((2, 3), (2, 3, 4))):
        with pytest.raises(ag.ShapeError) as exc:
            ag.matmul(t64(np.ones(x_shape)), t64(np.ones(w_shape)))
        assert exc.value.kind == "matmul"
        assert x_shape in exc.value.shapes and w_shape in exc.value.shapes


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
        ag.backward(ag.add(x, x))


def test_double_backward_without_rebuild_raises():
    x = t64([[1.0, 2.0]])
    loss = ag.cross_entropy(x, TARGET)
    ag.backward(loss)
    with pytest.raises(RuntimeError):
        ag.backward(loss)


def test_cross_entropy_rejects_out_of_range_targets():
    logits = t64(np.zeros((1, 3, 5)))
    for bad in (-2, 5):
        with pytest.raises(ValueError, match="out of range"):
            ag.cross_entropy(logits, np.array([[bad, 1, -1]]))
    ag.cross_entropy(logits, np.array([[0, 4, ag.IGNORE]]))  # every class and the ignore value


def test_mixed_dtype_graph_rejected():
    a = ag.tensor(np.ones(2, dtype=np.float32), requires_grad=True)
    b = ag.tensor(np.ones(2, dtype=np.float64), requires_grad=True)
    with pytest.raises(ValueError):
        ag.add(a, b)


# --- in-place kernels against the expressions they replaced ------------------

def ref_silu(arrays, attrs):
    (x,) = arrays
    sig = 1.0 / (1.0 + np.exp(-x))
    return x * sig, lambda g: (g * ((1.0 + x * (1.0 - sig)) * sig),)


def ref_norm_backward(gy, y, inv_scale, subtract_mean):
    gx = gy - y * (gy * y).mean(axis=-1, keepdims=True)
    if subtract_mean:
        gx = gx - gy.mean(axis=-1, keepdims=True)
    return gx * inv_scale


def ref_layer_norm(arrays, attrs):
    x, gain, bias = arrays
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    sigma = np.sqrt(var + attrs["eps"])
    y = xc / sigma
    return y * gain + bias, lambda g: (
        ref_norm_backward(g * gain, y, 1.0 / sigma, subtract_mean=True),
        ag._unbroadcast(g * y, gain.shape), ag._unbroadcast(g, bias.shape))


def ref_rms_norm(arrays, attrs):
    x, gain = arrays
    ms = (x * x).mean(axis=-1, keepdims=True)
    scale = np.sqrt(ms + attrs["eps"])
    y = x / scale
    return y * gain, lambda g: (
        ref_norm_backward(g * gain, y, 1.0 / scale, subtract_mean=False),
        ag._unbroadcast(g * y, gain.shape))


def ref_causal_attention(arrays, attrs):
    q, k, v = arrays
    bsz, length, d = q.shape
    n_heads = attrs["n_heads"]
    hd = d // n_heads
    scale = hd ** -0.5

    def split(t):
        return t.reshape(bsz, length, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(t):
        return t.transpose(0, 2, 1, 3).reshape(bsz, length, d)

    qh, kh, vh = split(q), split(k), split(v)
    scores = (qh @ kh.swapaxes(-1, -2)) * scale
    scores[..., np.triu(np.ones((length, length), dtype=bool), k=1)] = -np.inf
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    att = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        gh = split(g)
        gatt = gh @ vh.swapaxes(-1, -2)
        gs = (gatt - (gatt * att).sum(axis=-1, keepdims=True)) * att * scale
        return (merge(gs @ kh), merge(gs.swapaxes(-1, -2) @ qh),
                merge(att.swapaxes(-1, -2) @ gh))

    return merge(att @ vh), backward


def ref_cross_entropy(arrays, attrs):
    (logits,) = arrays
    flat = logits.reshape(-1, logits.shape[-1])
    tgt = np.asarray(attrs["targets"]).reshape(-1)
    valid = tgt != -1
    count = int(valid.sum())
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(flat.shape[0]), np.where(valid, tgt, 0)]
    nll = np.where(valid, logz - picked, 0.0)

    def backward(g):
        p = np.exp(shifted - logz[:, None])
        p[np.arange(flat.shape[0]), np.where(valid, tgt, 0)] -= 1.0
        p[~valid] = 0.0
        gl = (p * (np.asarray(g).reshape(()) / count)).astype(logits.dtype)
        return (gl.reshape(logits.shape),)

    return np.asarray(nll.sum() / count, dtype=logits.dtype), backward


def _kernel_cases(dtype):
    rng = np.random.default_rng(11)

    def r(*shape):
        return rng.standard_normal(shape).astype(dtype)

    targets = rng.integers(0, 10, size=(2, 6))
    sparse = targets.copy()
    sparse.reshape(-1)[rng.permutation(12)[:8]] = -1  # 8 of 12 rows ignored
    return [
        ("silu", [4.0 * r(3, 7)], {}, ref_silu),
        ("layer_norm", [r(3, 5, 8), r(8), r(8)], {"eps": 1e-5}, ref_layer_norm),
        ("rms_norm", [r(3, 5, 8), r(8)], {"eps": 1e-5}, ref_rms_norm),
        ("causal_attention", [r(2, 5, 8), r(2, 5, 8), r(2, 5, 8)],
         {"n_heads": 2, "groups": [(2, 5)]}, ref_causal_attention),
        ("cross_entropy", [r(2, 6, 10)], {"targets": targets}, ref_cross_entropy),
        ("cross_entropy", [r(2, 6, 10)], {"targets": sparse}, ref_cross_entropy),
    ]


def assert_same_bits(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype and got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_rewritten_kernels_match_reference_bitwise(dtype):
    rng = np.random.default_rng(5)
    for kind, arrays, attrs, reference in _kernel_cases(dtype):
        inputs = [a.copy() for a in arrays]
        out, backward = ag._OPS[kind](inputs, attrs)
        want_out, want_backward = reference(arrays, attrs)
        assert_same_bits(out, want_out, f"{kind} forward")
        g = (np.asarray(0.75, dtype=dtype) if out.ndim == 0
             else rng.standard_normal(out.shape).astype(dtype))
        g_before = g.copy()
        grads = backward(g, [True] * len(arrays))
        for i, (got, want) in enumerate(zip(grads, want_backward(g), strict=True)):
            assert_same_bits(got, want, f"{kind} gradient {i}")
        # in place only on buffers the kernel made itself
        assert np.array_equal(g, g_before)
        for a, b in zip(inputs, arrays):
            assert np.array_equal(a, b)


# --- memory: the tape and the allocator ---------------------------------------

def _default_step_peaks(kind, task="mm-adapt"):
    """tracemalloc peaks in bytes of a default-size (loss, loss + backward)."""
    protocol = tr.AdaptProtocol(n_train=64, n_eval=8)
    train_ds = (protocol.text_dataset() if task == "text-pretrain"
                else protocol.mm_datasets()[0])
    model = md.build(protocol.model, seed=0)
    if kind == "lora":
        inject_lora(model, seed=0)
    select_trainable(TuningStrategy(kind), model.tree)
    batch = tr._batches(train_ds, slice(0, protocol.batch))
    model.loss(*batch)  # warm-up
    tracemalloc.start()
    try:
        loss = model.loss(*batch)
        forward_peak = tracemalloc.get_traced_memory()[1]
        ag.backward(loss)
        step_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return forward_peak, step_peak


def test_norm_tuning_step_peak_below_finetune():
    """With every weight frozen, no matmul keeps its input, so a
    layernorm-simple step holds far less than a finetune step of the same
    batch."""
    _, norm_only = _default_step_peaks("layernorm-simple")
    _, finetune = _default_step_peaks("finetune")
    assert norm_only <= 0.8 * finetune, (norm_only, finetune)


@pytest.mark.parametrize("kind, task", [("finetune", "mm-adapt"), ("lora", "mm-adapt"),
                                        ("finetune", "text-pretrain")],
                         ids=["finetune", "lora", "text-pretrain"])
def test_step_peak_memory_close_to_forward(kind, task):
    """A default-size step (loss + backward) holds little beyond its forward:
    backward frees each node's arrays once its parents have their gradients.
    The text-pretrain finetune step is the largest a comparison runs."""
    forward_peak, step_peak = _default_step_peaks(kind, task)
    assert step_peak <= 1.25 * forward_peak, (step_peak, forward_peak)


def test_lora_forward_peak_close_to_finetune():
    """An adapted projection adds x @ A.T, its product with B.T and the sum to
    the tape, and no scaled copy of that product."""
    lora, _ = _default_step_peaks("lora")
    finetune, _ = _default_step_peaks("finetune")
    assert lora <= 1.9 * finetune, (lora, finetune)


FAULT_PROBE = """
import resource
import numpy as np
from normadapt import autograd as ag, model as md, training as tr
from normadapt.strategies import TuningStrategy, select_trainable

protocol = tr.AdaptProtocol(n_train=64, n_eval=8)
train_ds, _ = protocol.mm_datasets()
model = md.build(protocol.model, seed=0)
report = select_trainable(TuningStrategy("layernorm-simple"), model.tree)
opt = tr.Adam([model.tree[p] for p in report.selected])
rng = np.random.default_rng(0)


def step():
    idx = rng.integers(0, len(train_ds), size=protocol.batch)
    ag.backward(model.loss(train_ds.tokens[idx], train_ds.features[idx],
                           train_ds.targets[idx]))
    opt.step(1e-3)
    opt.zero_grad()


for _ in range(3):
    step()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(5):
    step()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


def _glibc_mallopt():
    return platform.libc_ver()[0] == "glibc" and hasattr(ctypes.CDLL(None), "mallopt")


@pytest.mark.skipif(not _glibc_mallopt(), reason="C library without glibc's mallopt")
def test_training_steps_keep_freed_pages():
    """Steady-state training steps reuse the pages earlier steps freed instead
    of returning them to the kernel and faulting them in again.  Runs in a
    fresh interpreter, so the heap holds only what the steps left."""
    env = dict(os.environ, PYTHONPATH=str(Path(ag.__file__).resolve().parents[1]),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", FAULT_PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    faults = int(proc.stdout.split()[-1])
    assert faults < 100, f"{faults} minor faults in 5 steps"
