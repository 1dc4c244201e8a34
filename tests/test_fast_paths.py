"""Property-based checks that each fast path computes what its slow reference does.

The examples are derandomized, so every run draws the same ones.  The module
runs in a few seconds.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from normadapt import autograd as ag
from normadapt import data as dt
from normadapt import model as md
from normadapt.strategies import inject_lora

from test_autograd import (assert_same_bits, ref_causal_attention, ref_cross_entropy,
                           ref_layer_norm, ref_rms_norm, ref_silu)
from test_data import assert_matches_reference
from test_model import _loss_and_grads

N_VIS, D_VISUAL, VOCAB = 3, 5, 11


@st.composite
def loss_cases(draw):
    """(float64 model, tokens, visual features or None, targets).

    The model may carry LoRA adapters of rank 1 to 3, with B moved off zero.
    The batch always holds a sample with nothing scored, one scored inside
    its visual prefix only (position 0 alone without visual features), one
    scored up to a position inside the sequence and one up to its end, so
    there are at least 3 distinct prefix lengths; up to two more samples
    score up to any position.  The samples come in any order.
    """
    cfg = md.ModelConfig(
        n_layers=draw(st.integers(1, 3), label="n_layers"), d_model=8,
        n_heads=draw(st.sampled_from([1, 2, 4]), label="n_heads"), d_ff=16,
        vocab_size=VOCAB, max_seq=16, n_visual_tokens=N_VIS, d_visual=D_VISUAL,
        norm_kind=draw(st.sampled_from(md.NORM_KINDS), label="norm_kind"),
        tie_embeddings=draw(st.booleans(), label="tie_embeddings"))
    model = md.build(cfg, dtype=np.float64)
    rank = draw(st.integers(0, 3), label="lora rank")
    if rank:
        inject_lora(model, rank=rank)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    for _, t in model.tree.items():  # move norms and B off 1 and 0, and sharpen attention
        t.data += rng.normal(0.0, 0.3, t.shape)

    n_vis = N_VIS if draw(st.booleans(), label="visual") else 0
    n_tok = draw(st.integers(3, 6), label="n_tokens")
    length = n_vis + n_tok
    short = max(n_vis, 1)
    ends = [0, draw(st.integers(1, short)), draw(st.integers(short + 1, length - 1)),
            length]
    ends += draw(st.lists(st.integers(0, length), max_size=2), label="more ends")
    ends = draw(st.permutations(ends), label="sample order")
    targets = np.full((len(ends), length), ag.IGNORE)
    for b, end in enumerate(ends):
        scored = np.arange(length) < end
        if end and draw(st.booleans(), label="sparse"):
            scored[:end - 1] &= rng.random(end - 1) < 0.5  # the last one stays scored
        targets[b, scored] = rng.integers(0, VOCAB, np.count_nonzero(scored))
    tokens = rng.integers(0, VOCAB, (len(ends), n_tok))
    feats = rng.standard_normal((len(ends), N_VIS, D_VISUAL)) if n_vis else None
    return model, tokens, feats, targets


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=loss_cases())
def test_loss_matches_cross_entropy_of_forward(case):
    """`Model.loss` runs packed sample groups and the scored rows alone; its
    loss and every gradient match the dense forward's to 1e-12."""
    model, tokens, feats, targets = case
    ref_loss, ref_grads = _loss_and_grads(
        model, lambda: ag.cross_entropy(model.forward(tokens, feats), targets))
    got_loss, got_grads = _loss_and_grads(model, lambda: model.loss(tokens, feats, targets))
    assert abs(got_loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert set(got_grads) == set(ref_grads)
    for p, ref in ref_grads.items():
        err = np.abs(got_grads[p] - ref).max()
        assert err <= 1e-12 * np.abs(ref).max(), (p, err)


@st.composite
def task_cases(draw):
    """A TaskSpec of any kind, 2-5 attributes, any mixture (categories may
    be missing), seeds small, near 2**32 or near the largest, 2**64 - 1, and
    visual features 1-5 wide or of the default 64."""
    K = draw(st.integers(2, 5), label="n_attrs")
    weights = draw(st.lists(st.integers(0, 4), min_size=3, max_size=3)
                   .filter(any), label="mixture weights")
    seed = st.one_of(st.integers(0, 2**16), st.integers(2**32 - 40, 2**34),
                     st.integers(2**64 - 40, 2**64 - 1))
    return dt.TaskSpec(
        kind=draw(st.sampled_from(dt.TASK_KINDS), label="kind"),
        n_samples=draw(st.integers(1, 40), label="n_samples"),
        mixture=tuple(w / sum(weights) for w in weights), n_attrs=K,
        seed=draw(seed, label="seed"),
        d_visual=draw(st.one_of(st.integers(1, 5), st.just(64)), label="d_visual"))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(spec=task_cases())
def test_generate_matches_per_sample_reference(spec):
    """Bulk `generate` writes every array as the plain-Python per-sample
    reference of its recipe."""
    assert_matches_reference(spec)


@st.composite
def scatter_cases(draw):
    """(table, ids, g): a float32 or float64 zero table of 1-300 rows, 1-130
    wide, 1- or 2-d ids into a few of its rows, so ids repeat, and an output
    gradient with some -0.0 entries."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    rows = draw(st.integers(1, 300), label="rows")
    width = draw(st.integers(1, 130), label="width")
    dtype = draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    shape = tuple(draw(st.lists(st.integers(2, 40), min_size=1, max_size=2),
                       label="ids shape"))
    ids = rng.integers(0, draw(st.integers(1, rows), label="rows used"), shape)
    ids.flat[-1] = ids.flat[0]
    g = rng.standard_normal(shape + (width,)).astype(dtype)
    g[rng.random(g.shape) < 0.2] = -0.0
    return np.zeros((rows, width), dtype), ids, g


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=scatter_cases())
def test_embed_lookup_scatter_matches_add_at(case):
    """`embed_lookup`'s backward on repeated ids, one 1-d `np.add.at` into
    the flattened table, is 2-d `np.add.at` byte for byte."""
    table, ids, g = case
    _, backward = ag._OPS["embed_lookup"]([table], {"ids": ids})
    (got,) = backward(g, [True])
    want = np.zeros_like(table)
    np.add.at(want, ids, g)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def ref_grouped_attention(arrays, attrs):
    """`ref_causal_attention` on each (count, length) group's rows alone."""
    n_heads, starts, parts = attrs["n_heads"], [0], []
    for count, length in attrs["groups"]:
        rows = slice(starts[-1], starts[-1] + count * length)
        parts.append(ref_causal_attention(
            [a[rows].reshape(count, length, -1) for a in arrays], {"n_heads": n_heads}))
        starts.append(rows.stop)
    d = arrays[0].shape[-1]

    def backward(g):
        grads = [part[1](g[lo:hi].reshape(part[0].shape))
                 for part, lo, hi in zip(parts, starts, starts[1:])]
        return tuple(np.concatenate([gr[i].reshape(-1, d) for gr in grads])
                     for i in range(3))

    return np.concatenate([out.reshape(-1, d) for out, _ in parts]), backward


@st.composite
def kernel_cases(draw):
    """(kind, arrays, attrs, reference, dtype) for an in-place kernel: silu
    and the norms on 0-3 leading axes of 1-6 and a last axis of 1-40, the
    norms' input off centre; cross entropy on (batch, pos) logits of 1-30
    classes with any share of the targets ignored but one; attention on
    1-3 groups of equal-length samples, 1, 2 or 4 heads of width 1-6."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1), label="seed"))
    dtype = draw(st.sampled_from([np.float32, np.float64]), label="dtype")
    kind = draw(st.sampled_from(["silu", "layer_norm", "rms_norm", "cross_entropy",
                                 "causal_attention"]), label="kind")

    def r(*shape, scale=1.0, offset=0.0):
        return (offset + scale * rng.standard_normal(shape)).astype(dtype)

    lead = tuple(draw(st.lists(st.integers(1, 6), max_size=3), label="leading axes"))
    width = draw(st.integers(1, 40), label="width")
    scale = draw(st.sampled_from([0.01, 1.0, 8.0]), label="scale")
    offset = draw(st.sampled_from([0.0, 3.0]), label="offset")
    eps = {"eps": draw(st.sampled_from([1e-5, 1e-8]), label="eps")}
    if kind == "silu":
        return kind, [r(*lead, width, scale=scale)], {}, ref_silu, dtype
    if kind == "layer_norm":
        return (kind, [r(*lead, width, scale=scale, offset=offset), r(width), r(width)],
                eps, ref_layer_norm, dtype)
    if kind == "rms_norm":
        return (kind, [r(*lead, width, scale=scale, offset=offset), r(width)], eps,
                ref_rms_norm, dtype)
    if kind == "cross_entropy":
        shape = (draw(st.integers(1, 5), label="batch"), draw(st.integers(1, 8), label="pos"))
        classes = draw(st.integers(1, 30), label="classes")
        targets = rng.integers(0, classes, shape)
        targets[rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9]))] = ag.IGNORE
        targets.flat[rng.integers(targets.size)] = rng.integers(classes)
        return (kind, [r(*shape, classes, scale=scale)], {"targets": targets},
                ref_cross_entropy, dtype)
    n_heads = draw(st.sampled_from([1, 2, 4]), label="n_heads")
    d = n_heads * draw(st.integers(1, 6), label="head width")
    groups = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 8)),
                           min_size=1, max_size=3), label="groups")
    rows = sum(count * length for count, length in groups)
    return (kind, [r(rows, d, scale=scale) for _ in range(3)],
            {"n_heads": n_heads, "groups": groups}, ref_grouped_attention, dtype)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=kernel_cases())
def test_in_place_kernels_match_reference_bitwise(case):
    """Forward and every gradient are the reference expression's bytes, and
    the kernel writes only into buffers it made: its inputs and the output
    gradient are unchanged."""
    kind, arrays, attrs, reference, dtype = case
    inputs = [a.copy() for a in arrays]
    out, backward = ag._OPS[kind](inputs, attrs)
    want_out, want_backward = reference(arrays, attrs)
    assert_same_bits(out, want_out, f"{kind} forward")
    rng = np.random.default_rng(out.size)
    g = (np.asarray(0.75, dtype=dtype) if out.ndim == 0
         else rng.standard_normal(out.shape).astype(dtype))
    g_before = g.copy()
    grads = backward(g, [True] * len(arrays))
    for i, (got, want) in enumerate(zip(grads, want_backward(g), strict=True)):
        assert_same_bits(got, want, f"{kind} gradient {i}")
    assert g.tobytes() == g_before.tobytes()
    for a, b in zip(inputs, arrays):
        assert a.tobytes() == b.tobytes()
