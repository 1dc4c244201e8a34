import numpy as np
import pytest

from normadapt import budget as bg
from normadapt import model as md
from normadapt import strategies as st


def test_llama7b_totals_spelled_out():
    p = bg.PRESETS["llama7b"]
    embed = 32000 * 4096
    connector = 1024 * 4096 + 4096
    per_layer = 4 * 4096 ** 2 + 3 * 4096 * 11008 + 2 * 4096
    llm = 2 * embed + connector + 32 * per_layer + 4096
    assert p.model_params() == llm
    assert p.total_params() == llm + 303_500_000
    assert p.total_params() == 7_046_114_016


def test_llama13b_totals_spelled_out():
    p = bg.PRESETS["llama13b"]
    embed = 32000 * 5120
    connector = 1024 * 5120 + 5120
    per_layer = 4 * 5120 ** 2 + 3 * 5120 * 13824 + 2 * 5120
    llm = 2 * embed + connector + 40 * per_layer + 5120
    assert p.total_params() == llm + 303_500_000 == 13_324_612_320


def test_layernorm_simple_counts_and_percentage():
    rep = bg.count(bg.PRESETS["llama7b"], st.TuningStrategy("layernorm-simple"))
    assert rep.trainable == 32 * 2 * 4096 + 4096 == 266_240
    assert abs(rep.percentage - 0.004) <= 0.002

    rep13 = bg.count(bg.PRESETS["llama13b"], st.TuningStrategy("layernorm-simple"))
    assert rep13.trainable == 40 * 2 * 5120 + 5120
    assert abs(rep13.percentage - 0.003) <= 0.002


def test_finetune_percentage():
    rep = bg.count(bg.PRESETS["llama7b"], st.TuningStrategy("finetune"))
    assert rep.trainable == rep.total - 303_500_000
    assert abs(rep.percentage - 95.70) <= 0.5


def test_attn_counts_with_defaults():
    defaults = (1024 * 4096 + 4096) + 2 * 32000 * 4096
    qv = bg.count(bg.PRESETS["llama7b"], st.TuningStrategy("attn-qv"))
    assert qv.trainable == 32 * 2 * 4096 ** 2 + defaults
    assert abs(qv.percentage - 19.02) <= 0.5

    mlp = bg.count(bg.PRESETS["llama7b"], st.TuningStrategy("attn-mlp"))
    assert mlp.trainable == 32 * 3 * 4096 * 11008 + defaults
    assert abs(mlp.percentage - 65.21) <= 0.5


def test_lora_count_arithmetic():
    # per layer: 4 attention squares + 3 gated-mlp rectangles at rank 32
    per_layer = 4 * 32 * (4096 + 4096) + 3 * 32 * (4096 + 11008)
    defaults = (1024 * 4096 + 4096) + 2 * 32000 * 4096
    rep = bg.count(bg.PRESETS["llama7b"], st.TuningStrategy("lora", lora_rank=32))
    assert rep.trainable == 32 * per_layer + defaults == 346_296_320
    # the reference 5.92% is not recovered by this rule; the row is flagged
    assert abs(rep.percentage - 5.92) > 0.5


def test_reference_table_rows():
    rows = bg.reference_table()
    assert len(rows) == 12 and all(isinstance(r, bg.ReferenceRow) for r in rows)
    by_key = {(r.preset, r.strategy): r for r in rows}
    for key, ref in bg.REFERENCE_PERCENTAGES.items():
        assert by_key[key].reference == ref
    for row in rows:
        if row.gated:
            assert row.within, f"{row.preset}/{row.strategy}: {row.computed} vs {row.reference}"
        else:
            assert row.strategy == "lora" and not row.within


@pytest.mark.parametrize("preset", ["llama7b", "llama13b"])
def test_percentage_monotonicity(preset):
    order = ["layernorm-simple", "layernorm", "attn-qv", "attn-mlp", "finetune"]
    pcts = [bg.count(bg.PRESETS[preset], st.TuningStrategy(k)).percentage
            for k in order]
    assert all(a < b for a, b in zip(pcts, pcts[1:]))
    assert all(0.0 <= p <= 100.0 for p in pcts)


def test_memory_estimate_linearity():
    rep4 = bg.count(bg.PRESETS["llama7b"], st.TuningStrategy("layernorm"), 4)
    rep8 = bg.count(bg.PRESETS["llama7b"], st.TuningStrategy("layernorm"), 8)
    assert rep4.memory_bytes == rep4.trainable * 4 * 3
    assert rep8.memory_bytes == 2 * rep4.memory_bytes


@pytest.mark.parametrize("bytes_per_param", [0, -4])
def test_bytes_per_param_below_one_is_refused(bytes_per_param):
    with pytest.raises(ValueError,
                       match=f"^bytes_per_param must be >= 1, got {bytes_per_param}$"):
        bg.count(bg.PRESETS["llama7b"], st.TuningStrategy("layernorm"),
                 bytes_per_param)


# each id names what departs from the default standard-norm untied model
@pytest.mark.parametrize("kind, norm_kind, tie", [
    pytest.param(kind, norm_kind, tie, id="-".join(
        [kind] + [norm_kind] * (norm_kind != "standard") + ["tied"] * tie))
    for kind in st.STRATEGY_KINDS for norm_kind in md.NORM_KINDS
    for tie in (False, True)])
def test_toy_consistency_with_built_model(kind, norm_kind, tie):
    cfg = md.ModelConfig(n_layers=2, d_model=8, n_heads=2, d_ff=16, vocab_size=11,
                         max_seq=16, norm_kind=norm_kind, n_visual_tokens=3,
                         d_visual=5, tie_embeddings=tie)
    m = md.build(cfg, seed=0)
    strategy = st.TuningStrategy(kind, lora_rank=2)
    if kind == "lora":
        st.inject_lora(m, rank=2)
    report = st.select_trainable(strategy, m.tree)
    analytic = bg.count(bg.preset_from_config(cfg), strategy)
    assert (report.trainable, report.total) == (analytic.trainable, analytic.total)


def test_preset_validation():
    with pytest.raises(ValueError, match="positive"):
        bg.ArchPreset(name="bad", n_layers=0, d_model=8, d_ff=16,
                      vocab_size=10, d_visual=4, vision_params=0)


def test_vision_params_never_selected():
    rep = bg.count(bg.PRESETS["llama7b"], st.TuningStrategy("finetune"))
    assert rep.trainable == bg.PRESETS["llama7b"].model_params()
    assert rep.total - rep.trainable == 303_500_000
