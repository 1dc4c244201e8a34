import numpy as np
import pytest

from normadapt import autograd as ag
from normadapt import model as md
from normadapt import strategies as st


def build_tiny(**overrides):
    base = dict(n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab_size=11,
                max_seq=16, norm_kind="rms", n_visual_tokens=3, d_visual=5)
    base.update(overrides)
    return md.build(md.ModelConfig(**base), seed=0)


def test_layernorm_simple_hand_count():
    # rms, 2 layers: 2x2 block gains + final gain = 5 vectors of 8 = 40 scalars
    m = build_tiny()
    report = st.select_trainable(st.TuningStrategy("layernorm-simple"), m.tree)
    assert len(report.selected) == 5
    assert report.trainable == 40
    assert all("norm" in p for p in report.selected)


def test_finetune_fraction_is_exactly_one():
    m = build_tiny()
    report = st.select_trainable(st.TuningStrategy("finetune"), m.tree)
    assert report.fraction == 1.0
    assert report.trainable == report.total == sum(t.data.size for t in m.tree.values())


def test_attn_qv_hand_count():
    m = build_tiny()
    report = st.select_trainable(st.TuningStrategy("attn-qv"), m.tree)
    qv = [p for p in report.selected if ".attn." in p]
    assert sum(m.tree[p].data.size for p in qv) == 2 * 2 * 64  # layers x {q, v} x 8*8
    defaults = (8 * 5 + 8) + 11 * 8 + 11 * 8 + 16 * 8  # connector, embed, head, pos
    assert report.trainable == 256 + defaults


def test_selection_subset_chain():
    paths = list(build_tiny().tree)
    simple = set(st.selection_paths(st.TuningStrategy("layernorm-simple"), paths))
    norm = set(st.selection_paths(st.TuningStrategy("layernorm"), paths))
    full = set(st.selection_paths(st.TuningStrategy("finetune"), paths))
    assert simple < norm < full


def test_report_fraction_recounts_from_paths():
    m = build_tiny()
    report = st.select_trainable(st.TuningStrategy("attn-mlp"), m.tree)
    recount = sum(m.tree[p].data.size for p in report.selected)
    assert recount == report.trainable
    assert report.fraction == report.trainable / report.total
    assert set(report.selected) <= set(m.tree)


def test_unselected_params_untouched_by_a_step():
    m = build_tiny()
    st.select_trainable(st.TuningStrategy("layernorm"), m.tree)
    frozen_before = {p: t.data.copy() for p, t in m.tree.items()
                     if not t.requires_grad}
    ids = np.arange(6)[None] % 11
    visual = np.random.default_rng(0).standard_normal((1, 3, 5))
    targets = np.concatenate([np.full((1, 3), -1), ids], axis=1)
    loss = ag.cross_entropy(m.forward(ids, visual), targets)
    ag.backward(loss)
    for _, t in m.tree.items():
        if t.requires_grad:
            t.data = t.data - 0.1 * t.grad
    for p, before in frozen_before.items():
        np.testing.assert_array_equal(m.tree[p].data, before)


def test_connector_only_selects_connector_paths():
    m = build_tiny()
    report = st.select_trainable(st.TuningStrategy("connector-only"), m.tree)
    assert sorted(report.selected) == ["connector.bias", "connector.weight"]
    assert report.trainable == 8 * 5 + 8


def test_layernorm_simple_forces_defaults_off():
    m = build_tiny()
    report = st.select_trainable(st.TuningStrategy("layernorm-simple"), m.tree)
    assert not set(st.default_paths(m.tree)) & set(report.selected)


def test_tied_tree_skips_head_in_defaults():
    m = build_tiny(tie_embeddings=True)
    report = st.select_trainable(st.TuningStrategy("layernorm"), m.tree)
    assert "head.weight" not in report.selected
    assert "embed.weight" in report.selected


def test_strategy_validation():
    with pytest.raises(ValueError, match="unknown strategy"):
        st.TuningStrategy("prefix")
    for kind in ("lora", "finetune", "layernorm-simple"):  # whatever the kind
        with pytest.raises(ValueError, match="^lora_rank must be >= 1, got 0$"):
            st.TuningStrategy(kind, lora_rank=0)


def test_lora_selection_without_injection_errors():
    m = build_tiny()
    with pytest.raises(st.SelectionError, match="inject"):
        st.select_trainable(st.TuningStrategy("lora"), m.tree)


def test_lora_injection_preserves_forward_exactly():
    m = build_tiny()
    ids = np.arange(7)[None] % 11
    with ag.no_grad():
        before = m.forward(ids).data.copy()
    st.inject_lora(m, rank=4)
    with ag.no_grad():
        after = m.forward(ids).data
    assert np.max(np.abs(before - after)) == 0.0


def test_lora_adapter_counts():
    # an adapter pair on an (out, in) target adds rank * (out + in) scalars
    assert sum(np.prod(s) for _, s in md.lora_entries("w", (4096, 4096), 32)) == 262_144
    m = build_tiny()
    targets = st.inject_lora(m, rank=4)
    adapter_scalars = sum(m.tree[t + suffix].data.size for t in targets
                          for suffix in (".lora_A", ".lora_B"))
    assert adapter_scalars == sum(4 * sum(m.tree[t].data.shape) for t in targets)
    # default targets: every 2-d matrix in the blocks, nothing else
    assert len(targets) == 2 * 6
    assert md.lora_targets(m.tree) == targets
    report = st.select_trainable(st.TuningStrategy("lora", lora_rank=4), m.tree)
    assert report.trainable == adapter_scalars + sum(
        m.tree[p].data.size for p in st.default_paths(m.tree))


def test_lora_bases_freeze_on_injection():
    m = build_tiny()
    for target in st.inject_lora(m, rank=2):
        assert not m.tree[target].requires_grad


def test_lora_duplicate_and_bad_target_errors():
    m = build_tiny()
    targets = st.inject_lora(m, rank=2)
    with pytest.raises(ValueError, match="already"):
        st.inject_lora(m, rank=2)
    # the target rule refuses vectors and matrices outside the blocks
    fresh = build_tiny()
    for bad in ("final_norm.weight", "blocks.0.input_norm.weight",
                "embed.weight", "connector.weight", "head.weight"):
        assert not st.is_lora_target(bad, fresh.tree[bad].data.shape)
        assert bad not in targets
    assert "blocks.0.attn.q_proj.weight" in targets


def test_refused_lora_injection_leaves_the_tree_unchanged():
    m = build_tiny()
    targets = st.inject_lora(m, rank=2)
    before = {p: (t.requires_grad, t.data.shape) for p, t in m.tree.items()}
    with pytest.raises(ValueError, match="already"):
        st.inject_lora(m, rank=3)
    assert {p: (t.requires_grad, t.data.shape) for p, t in m.tree.items()} == before
    assert md.lora_targets(m.tree) == targets


def test_lora_merge_matches_adapter_forward():
    m = build_tiny()
    targets = st.inject_lora(m, rank=4, seed=3)
    rng = np.random.default_rng(4)
    for t in targets:  # give B real content
        B = m.tree[t + ".lora_B"]
        B.data = rng.normal(0.0, 0.05, B.data.shape).astype(np.float32)
    ids = np.arange(6)[None] % 11
    with ag.no_grad():
        with_adapters = m.forward(ids).data.copy()
    st.merge_lora(m)
    assert not md.lora_targets(m.tree)
    assert all(".lora_" not in p for p in m.tree)
    with ag.no_grad():
        merged = m.forward(ids).data
    assert np.max(np.abs(with_adapters - merged)) <= 1e-6


def test_lora_merge_untrained_is_noop_and_double_merge_errors():
    m = build_tiny()
    bases = {p: t.data.copy() for p, t in m.tree.items()}
    st.inject_lora(m, rank=3)
    st.merge_lora(m)
    for p, before in bases.items():
        np.testing.assert_array_equal(m.tree[p].data, before)
    with pytest.raises(ValueError, match="merge"):
        st.merge_lora(m)
