import json
import re
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normadapt import autograd as ag
from normadapt import budget
from normadapt import data as dt
from normadapt import model as md
from normadapt import training as tr
from normadapt.strategies import inject_lora, merge_lora

from finite_diff import central_difference, max_relative_error
from test_acceptance import MICRO


def tiny_config(**overrides):
    base = dict(n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab_size=11,
                max_seq=16, norm_kind="rms", n_visual_tokens=3, d_visual=5,
                tie_embeddings=False)
    base.update(overrides)
    return md.ModelConfig(**base)


@pytest.mark.parametrize("field, value", [
    ("n_layers", 0), ("d_model", -8), ("vocab_size", 0), ("n_heads", 3),
    ("norm_kind", "batch"), ("n_visual_tokens", 99),
    ("n_layers", None), ("n_layers", True), ("tie_embeddings", "no"),
])
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError) as err:
        tiny_config(**{field: value})
    # the message names the offending constraint
    assert field.split("_")[0] in str(err.value) or field in str(err.value)


def test_norm_param_count_hand_arithmetic():
    # 2 layers x 2 norms x 8 gains + final 8 = 40 scalars, rms so no biases
    m = md.build(tiny_config())
    norm_scalars = sum(t.data.size for p, t in m.tree.items() if "norm" in p)
    assert norm_scalars == 40


def test_norm_gains_init_to_one_and_biases_zero():
    m = md.build(tiny_config(norm_kind="standard"), seed=3)
    for p, t in m.tree.items():
        if "norm" in p and p.endswith(".weight"):
            assert (t.data == 1.0).all()
        if "norm" in p and p.endswith(".bias"):
            assert (t.data == 0.0).all()


def test_tied_embeddings_drop_head():
    tied = md.build(tiny_config(tie_embeddings=True))
    untied = md.build(tiny_config())
    assert "head.weight" not in tied.tree
    assert "head.weight" in untied.tree
    assert untied.tree.total_scalars() - tied.tree.total_scalars() == 11 * 8
    # tied logits really use the embedding matrix
    ids = np.array([[1, 4, 2, 9]])
    with ag.no_grad():
        before = tied.forward(ids).data.copy()
        tied.tree["embed.weight"].data = tied.tree["embed.weight"].data * 2.0
        after = tied.forward(ids).data
    assert not np.allclose(before, after)


@pytest.mark.parametrize("seed", range(10))
def test_param_count_matches_independent_arithmetic(seed):
    rng = np.random.default_rng(seed)
    heads = int(rng.integers(1, 5))
    cfg = md.ModelConfig(
        n_layers=int(rng.integers(1, 5)),
        d_model=heads * int(rng.integers(2, 9)),
        n_heads=heads,
        d_ff=int(rng.integers(4, 40)),
        vocab_size=int(rng.integers(5, 50)),
        max_seq=int(rng.integers(8, 33)),
        norm_kind=["standard", "rms"][int(rng.integers(2))],
        n_visual_tokens=int(rng.integers(1, 5)),
        d_visual=int(rng.integers(2, 9)),
        tie_embeddings=bool(rng.integers(2)),
    )
    m = md.build(cfg, seed=seed)
    d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    per_norm = d * (1 if cfg.norm_kind == "rms" else 2)
    want = v * d + cfg.max_seq * d + d * cfg.d_visual + d
    want += cfg.n_layers * (2 * per_norm + 4 * d * d + ff * d + d * ff)
    want += per_norm
    if not cfg.tie_embeddings:
        want += v * d
    assert m.tree.total_scalars() == want
    assert sorted(m.tree.paths()) == sorted(set(m.tree.paths()))
    # one grammar: the built tree is the budget inventory, path for path, in order
    assert [(p, t.data.shape) for p, t in m.tree.items()] == \
        budget.preset_from_config(cfg).inventory()


def test_logit_shape_with_visual_prefix():
    m = md.build(tiny_config(n_visual_tokens=4, max_seq=16, d_visual=5))
    visual = np.zeros((1, 4, 5))
    out = m.forward(np.arange(7)[None] % 11, visual)
    assert out.data.shape == (1, 11, 11)


def test_zero_connector_equals_zero_embedding_prefix():
    cfg = tiny_config(n_visual_tokens=3)
    m = md.build(cfg, seed=5)
    m.tree["connector.weight"].data = np.zeros_like(m.tree["connector.weight"].data)
    zz = 0  # sacrifice token id 0: zero its embedding row
    m.tree["embed.weight"].data[zz] = 0.0
    text = np.array([[3, 1, 4, 1, 5]])
    visual = np.random.default_rng(0).standard_normal((1, 3, 5))
    with ag.no_grad():
        via_visual = m.forward(text, visual).data
        via_tokens = m.forward(np.concatenate([[[zz] * 3], text], axis=1)).data
    np.testing.assert_array_equal(via_visual, via_tokens)


def test_batch_permutation_invariance():
    m = md.build(tiny_config(), seed=1)
    rng = np.random.default_rng(2)
    ids = rng.integers(0, 11, size=(4, 6))
    visual = rng.standard_normal((4, 3, 5))
    perm = np.array([2, 0, 3, 1])
    with ag.no_grad():
        straight = m.forward(ids, visual).data
        shuffled = m.forward(ids[perm], visual[perm]).data
    np.testing.assert_array_equal(straight[perm], shuffled)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_causality_probe(dtype):
    m = md.build(tiny_config(n_layers=3), seed=7, dtype=dtype)
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 11, size=(2, 9))
    t = 5
    bumped = ids.copy()
    bumped[:, t] = (bumped[:, t] + 1) % 11
    with ag.no_grad():
        a = m.forward(ids).data
        b = m.forward(bumped).data
    np.testing.assert_array_equal(a[:, :t], b[:, :t])
    assert not np.allclose(a[:, t:], b[:, t:])


def test_capture_layer_outputs_count_and_detachment():
    m = md.build(tiny_config(n_layers=4, d_model=8, n_heads=2))
    states = m.capture_layer_outputs(np.arange(5)[None] % 11)
    assert len(states) == 4
    for s in states:
        assert isinstance(s, np.ndarray)
        assert s.shape == (1, 5, 8)


def test_captured_state_feeds_next_block():
    m = md.build(tiny_config(n_layers=3), seed=9)
    ids = np.arange(6)[None] % 11
    states = m.capture_layer_outputs(ids)
    with ag.no_grad():
        refed = m._block(1, ag.tensor(states[0]), [(1, 6)]).data
    np.testing.assert_array_equal(refed, states[1])


def test_sequence_overflow_and_bad_ids():
    m = md.build(tiny_config(max_seq=8, n_visual_tokens=3))
    with pytest.raises(ValueError, match="max_seq"):
        m.forward(np.zeros((1, 9), dtype=int))
    with pytest.raises(ValueError, match="max_seq"):
        m.forward(np.zeros((1, 6), dtype=int), np.zeros((1, 3, 5)))
    with pytest.raises(ValueError, match="out of range"):
        m.forward(np.array([[0, 11]]))
    with pytest.raises(ValueError, match="visual"):
        m.forward(np.array([[1, 2]]), np.zeros((1, 2, 5)))


def test_frozen_tree_backward_leaves_no_grads():
    m = md.build(tiny_config(), seed=2)
    m.tree.freeze_all()
    ids = np.arange(4)[None] % 11
    loss = ag.cross_entropy(m.forward(ids), np.array([[1, 2, 3, 4]]))
    ag.backward(loss)
    assert all(t.grad is None for _, t in m.tree.items())


def test_end_to_end_gradcheck_on_selected_params():
    cfg = tiny_config(n_layers=2)
    m = md.build(cfg, seed=4, dtype=np.float64)
    ids = np.array([[1, 2, 3, 4, 5]])
    visual = np.random.default_rng(5).standard_normal((1, 3, 5))
    targets = np.array([[-1, -1, -1, 2, 3, 4, 5, 1]])  # length 3 + 5

    probes = ["blocks.0.input_norm.weight", "final_norm.weight",
              "connector.weight", "blocks.1.attn.q_proj.weight"]

    loss = ag.cross_entropy(m.forward(ids, visual), targets)
    ag.backward(loss)
    analytic = [m.tree[p].grad.copy() for p in probes]

    def f(arrays):
        with ag.no_grad():
            for p, a in zip(probes, arrays):
                m.tree[p].data = a
            out = m.forward(ids, visual)
            return float(ag.cross_entropy(out, targets).data)

    numeric = central_difference(f, [m.tree[p].data.copy() for p in probes])
    for got, fd in zip(analytic, numeric):
        assert max_relative_error(got, fd) <= 1e-6


LOSS_CASES = {
    "mm": dict(cfg={}, visual=True),
    "text": dict(cfg={}, visual=False),
    "tied": dict(cfg=dict(tie_embeddings=True), visual=True),
    "rms": dict(cfg=dict(norm_kind="rms"), visual=True),
    "lora": dict(cfg={}, visual=True, lora=True),
    "early-stop": dict(cfg={}, visual=True, stop=6),
    "uneven-rows": dict(cfg={}, visual=True, uneven=True),
    "ragged": dict(cfg={}, visual=True, ragged=True),
}


def _loss_and_grads(m, compute):
    for _, t in m.tree.items():
        t.grad = None
    loss = compute()
    ag.backward(loss)
    return float(loss.data), {p: t.grad.copy() for p, t in m.tree.items()
                              if t.grad is not None}


@pytest.mark.parametrize("case", list(LOSS_CASES))
def test_loss_matches_cross_entropy_of_forward(case):
    spec = LOSS_CASES[case]
    m = md.build(tiny_config(**{"norm_kind": "standard", **spec["cfg"]}), seed=3,
                 dtype=np.float64)
    if spec.get("lora"):
        # B starts at zero; make A's grad live
        for target in inject_lora(m, rank=2, seed=1):
            B = m.tree[target + ".lora_B"]
            B.data = np.random.default_rng(2).normal(0, 0.1, B.shape)
    rng = np.random.default_rng(4)
    ids = rng.integers(0, 11, size=(3, 9))
    visual = rng.standard_normal((3, 3, 5)) if spec["visual"] else None
    n_vis = 3 if spec["visual"] else 0
    targets = np.where(rng.random((3, n_vis + 9)) < 0.4,
                       rng.integers(0, 11, size=(3, n_vis + 9)), -1)
    targets[:, :n_vis] = -1
    stop = spec.get("stop", n_vis + 9)
    targets[:, stop:] = -1
    if spec.get("uneven"):
        targets[1] = -1  # a batch row with nothing scored
        targets[2, n_vis] = 5  # and one scoring its first text position
    if spec.get("ragged"):  # per-sample prefixes of 12, 0 and 6 positions
        targets[1] = -1
        targets[2, n_vis + 3:] = -1
        targets[2, n_vis + 2] = 4
    targets[0, stop - 1] = 7  # the last kept column is scored

    ref_loss, ref_grads = _loss_and_grads(
        m, lambda: ag.cross_entropy(m.forward(ids, visual), targets))
    got_loss, got_grads = _loss_and_grads(m, lambda: m.loss(ids, visual, targets))
    assert abs(got_loss - ref_loss) <= 1e-12 * abs(ref_loss)
    assert set(got_grads) == set(ref_grads)
    for p, ref in ref_grads.items():
        err = np.abs(got_grads[p] - ref).max()
        assert err <= 1e-12 * np.abs(ref).max(), (p, err)


def test_loss_runs_last_block_mlp_and_head_on_scored_rows(monkeypatch):
    m = md.build(tiny_config(norm_kind="standard"), seed=3, dtype=np.float64)
    rng = np.random.default_rng(4)
    ids = rng.integers(0, 11, size=(3, 9))
    visual = rng.standard_normal((3, 3, 5))
    targets = np.full((3, 12), -1)
    targets[0, [4, 9]] = 1
    targets[2, 3] = 2
    last = f"blocks.{m.config.n_layers - 1}.mlp.fc1.weight"
    watched = {id(m.tree[last]): "fc1", id(m.tree["head.weight"]): "head",
               id(m.tree["blocks.0.mlp.fc1.weight"]): "first fc1"}
    rows = {}
    real_op_forward = ag.op_forward

    def counting(kind, inputs, attrs=None):
        if kind == "matmul" and id(inputs[1]) in watched:
            rows[watched[id(inputs[1])]] = inputs[0].data.shape[:-1]
        return real_op_forward(kind, inputs, attrs)

    monkeypatch.setattr(ag, "op_forward", counting)
    m.loss(ids, visual, targets)
    # each sample keeps its prefix up to its last scored position: 10 rows,
    # none and 4 rows; 3 rows are scored
    assert rows == {"first fc1": (14,), "fc1": (3,), "head": (3,)}


def test_mm_loss_looks_up_block0_input_from_one_table():
    # the token and visual rows from the embedding table joined with the
    # connector's rows, the positions, and the last block's kept rows twice
    m = md.build(md.ModelConfig())
    ds = dt.generate(dt.TaskSpec(kind="mm-adapt", n_samples=4),
                     tr.AdaptProtocol().stub())
    loss = m.loss(ds.tokens, ds.features, ds.targets)
    ops = [node.op for node in ag._toposort(loss._node)]
    assert ops.count("embed_lookup") == 4 and ops.count("concat") == 1


def test_forward_rows_in_any_order_match_the_dense_logits():
    m = md.build(tiny_config(norm_kind="standard"), seed=3, dtype=np.float64)
    rng = np.random.default_rng(6)
    ids = rng.integers(0, 11, size=(4, 9))
    visual = rng.standard_normal((4, 3, 5))
    # unsorted, one pair twice, a visual position and no row of sample 3
    rows = (np.array([2, 0, 1, 2, 0, 0]), np.array([7, 11, 1, 3, 2, 11]))
    with ag.no_grad():
        dense = m.forward(ids, visual).data[rows]
        got = m.forward(ids, visual, rows=rows).data
    np.testing.assert_allclose(got, dense, rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="out of range"):
        m.forward(ids, visual, rows=(np.array([4]), np.array([0])))
    with pytest.raises(ValueError, match="out of range"):
        m.forward(ids, visual, rows=(np.array([0]), np.array([12])))
    with pytest.raises(ValueError, match="equal-length"):
        m.forward(ids, visual, rows=(np.array([0, 1]), np.array([0])))


def test_loss_checks_the_uncut_input():
    m = md.build(tiny_config(max_seq=8, n_visual_tokens=3))
    targets = np.full((1, 5), -1)
    targets[0, 0] = 1  # scores column 0 only, so the cut keeps one token
    with pytest.raises(ValueError, match="out of range"):
        m.loss(np.array([[1, 2, 3, 4, 11]]), None, targets)  # bad id in a cut column
    with pytest.raises(ValueError, match="exceeds max_seq"):
        m.loss(np.zeros((1, 9), dtype=int), None, np.full((1, 9), 1))
    with pytest.raises(ValueError, match="exceeds max_seq"):
        m.loss(np.zeros((1, 6), dtype=int), np.zeros((1, 3, 5)),
               np.pad(targets, ((0, 0), (0, 4)), constant_values=-1))
    with pytest.raises(ValueError, match="visual"):
        m.loss(np.array([[1, 2]]), np.zeros((1, 2, 5)), np.full((1, 5), 1))
    with pytest.raises(ValueError, match="incompatible shapes"):
        m.loss(np.array([[1, 2]]), None, np.full((1, 3), 1))
    with pytest.raises(ValueError, match="no targets"):
        m.loss(np.array([[1, 2, 3]]), None, np.full((1, 3), -1))


def test_checkpoint_roundtrip(tmp_path):
    cfg = tiny_config(norm_kind="standard", tie_embeddings=False)
    m = md.build(cfg, seed=8)
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(m, path)
    back = md.load_checkpoint(path)
    assert back.config == cfg
    assert back.dtype == m.dtype
    for p, t in m.tree.items():
        np.testing.assert_array_equal(t.data, back.tree[p].data)
    ids = np.arange(5)[None] % 11
    with ag.no_grad():
        np.testing.assert_array_equal(m.forward(ids).data, back.forward(ids).data)


def test_checkpoint_refuses_unmerged_adapters(tmp_path):
    m = md.build(tiny_config(norm_kind="standard"), seed=8)
    inject_lora(m, rank=2)
    path = tmp_path / "m.ckpt"
    with pytest.raises(ValueError, match="unmerged adapters"):
        md.save_checkpoint(m, path)
    assert not path.exists()
    merge_lora(m)
    md.save_checkpoint(m, path)
    back = md.load_checkpoint(path)
    assert back.tree.paths() == m.tree.paths()
    for p, t in m.tree.items():
        np.testing.assert_array_equal(t.data, back.tree[p].data)


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTACKPT99" + b"\x00" * 40)
    with pytest.raises(ValueError, match="NORMADAPT2"):
        md.load_checkpoint(path)
    md.save_checkpoint(md.build(tiny_config()), path)  # as the first format wrote it:
    blob = path.read_bytes()                            # old magic, no trailer
    path.write_bytes(b"NORMADAPT1" + blob[len(md.CHECKPOINT_MAGIC):-4])
    with pytest.raises(ValueError, match="not a NORMADAPT2 checkpoint"):
        md.load_checkpoint(path)


def test_checkpoint_rejects_truncation(tmp_path):
    m = md.build(tiny_config())
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(m, path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) - 7])
    with pytest.raises(ValueError, match="truncated"):
        md.load_checkpoint(path)


@pytest.mark.parametrize("edit, message", [
    (lambda c: c.update(n_experts=8), "unknown key 'n_experts'"),
    (lambda c: c.pop("d_ff"), "missing key 'd_ff'"),
    (lambda c: c.update(n_layers=None), "n_layers must be a positive integer"),
], ids=["unknown", "missing", "null"])
def test_checkpoint_rejects_malformed_config(tmp_path, edit, message):
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(md.build(tiny_config()), path)
    rewrite_header(path, lambda header: edit(header["config"]))
    with pytest.raises(ValueError, match=message):
        md.load_checkpoint(path)


def rewrite_header(path, edit):
    """Apply `edit` to the JSON header of the checkpoint at `path`; the file
    keeps a valid checksum trailer."""
    blob = path.read_bytes()
    start = len(md.CHECKPOINT_MAGIC)
    (hlen,) = struct.unpack("<I", blob[start:start + 4])
    header = json.loads(blob[start + 4:start + 4 + hlen])
    edit(header)
    new = json.dumps(header).encode()
    body = blob[:start] + struct.pack("<I", len(new)) + new + blob[start + 4 + hlen:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))


@pytest.mark.parametrize("dtype", ["foo", "int64", "float16", None])
def test_checkpoint_refuses_a_header_dtype_not_float(tmp_path, dtype):
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(md.build(tiny_config()), path)
    rewrite_header(path, lambda header: header.update(dtype=dtype))
    with pytest.raises(ValueError, match=re.escape(
            f"checkpoint dtype must be float32 or float64, got {dtype!r}")):
        md.load_checkpoint(path)


def test_checkpoint_refuses_a_record_dtype_not_the_headers(tmp_path):
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(md.build(tiny_config()), path)  # float32 records
    rewrite_header(path, lambda header: header.update(dtype="float64"))
    with pytest.raises(ValueError, match=re.escape(
            "dtype '<f4' is not the header's float64 ('<f8')")):
        md.load_checkpoint(path)
    md.save_checkpoint(md.build(tiny_config()), path)
    body = path.read_bytes()[:-4].replace(b"<f4", b"<zz", 1)  # does not parse
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(ValueError, match=re.escape(
            "dtype '<zz' is not the header's float32 ('<f4')")):
        md.load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(md.build(tiny_config()), path)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing bytes"):
        md.load_checkpoint(path)


@pytest.fixture(scope="module")
def micro_checkpoint(tmp_path_factory):
    path = tmp_path_factory.mktemp("ckpt") / "micro.ckpt"
    md.save_checkpoint(md.build(md.ModelConfig(**MICRO), seed=1), path)
    return path, path.read_bytes()


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_checkpoint_corruption_never_loads(micro_checkpoint, data):
    path, blob = micro_checkpoint
    corrupt = path.with_name("corrupt.ckpt")
    if data.draw(st.booleans(), label="truncate"):
        cut = data.draw(st.integers(0, len(blob) - 1), label="length")
        corrupt.write_bytes(blob[:cut])
    else:
        at = data.draw(st.integers(0, len(blob) - 1), label="offset")
        flip = data.draw(st.integers(1, 255), label="xor")
        corrupt.write_bytes(blob[:at] + bytes([blob[at] ^ flip]) + blob[at + 1:])
    with pytest.raises(ValueError):
        md.load_checkpoint(corrupt)


@pytest.mark.parametrize("norm_kind, tie, dtype", [
    ("standard", False, np.float32), ("rms", True, np.float64)])
def test_checkpoint_load_keeps_build_layout(tmp_path, norm_kind, tie, dtype):
    m = md.build(tiny_config(norm_kind=norm_kind, tie_embeddings=tie),
                 seed=4, dtype=dtype)
    m.tree.set_trainable(["final_norm.weight"])
    path = tmp_path / "m.ckpt"
    md.save_checkpoint(m, path)
    back = md.load_checkpoint(path)
    assert back.tree.paths() == m.tree.paths()
    for p, t in back.tree.items():
        assert t.data.dtype == np.dtype(dtype) and t.requires_grad
        np.testing.assert_array_equal(t.data, m.tree[p].data)
