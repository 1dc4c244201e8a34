import csv
import json
import math

import numpy as np
import pytest

from normadapt import autograd as ag
from normadapt import data as dt
from normadapt import model as md
from normadapt import training as tr
from normadapt.analysis import GradTrace
from normadapt.strategies import TuningStrategy, inject_lora

MICRO_MODEL = dict(n_layers=2, d_model=32, n_heads=2, d_ff=64, vocab_size=96,
                   max_seq=32, norm_kind="standard", n_visual_tokens=4,
                   d_visual=8)


def micro_protocol(**overrides):
    base = dict(model=md.ModelConfig(**MICRO_MODEL), n_train=96, n_eval=48,
                pretrain_steps=40, connector_steps=6, adapt_steps=12,
                batch=16, seed=0)
    base.update(overrides)
    return tr.AdaptProtocol(**base)


def micro_setup(kind="text-pretrain", n=64, seed=0):
    model = md.build(md.ModelConfig(**MICRO_MODEL), seed=seed)
    stub = md.VisionStub(d_visual=8, n_slots=64, seed=7)
    seq_len = 20 if kind == "text-pretrain" else 12
    ds = dt.generate(dt.TaskSpec(kind=kind, n_samples=n, seq_len=seq_len, seed=seed),
                     stub if kind == "mm-adapt" else None)
    return model, ds


def reference_schedule(step, total, ratio, base):
    warmup = int(ratio * total)
    if step < warmup:
        return base * step / warmup
    progress = (step - warmup) / (total - warmup)
    return base * (1 + math.cos(math.pi * progress)) / 2


@pytest.mark.parametrize("total,ratio", [(1, 0.0), (3, 0.5), (100, 0.03),
                                         (10_000, 0.03), (500, 0.0)])
def test_lr_schedule_matches_closed_form_exhaustively(total, ratio):
    for step in range(total + 1):
        got = tr.lr_schedule(step, total, ratio, 2e-3)
        assert got == reference_schedule(step, total, ratio, 2e-3)


def test_lr_schedule_named_points():
    total, ratio, base = 1000, 0.1, 3e-4
    warmup = 100
    assert tr.lr_schedule(warmup, total, ratio, base) == base
    assert tr.lr_schedule(total, total, ratio, base) == pytest.approx(0.0, abs=1e-20)
    mid = warmup + (total - warmup) // 2
    assert tr.lr_schedule(mid, total, ratio, base) == pytest.approx(base / 2)
    with pytest.raises(ValueError, match="outside"):
        tr.lr_schedule(total + 1, total, ratio, base)
    with pytest.raises(ValueError, match="total"):
        tr.lr_schedule(0, 0, ratio, base)


def test_adam_single_step_arithmetic():
    p = ag.tensor(np.array([1.0]), requires_grad=True)
    p.grad = np.array([0.5])
    opt = tr.Adam([p])
    opt.step(0.1)
    mhat = 0.05 / (1 - 0.9)
    vhat = (0.001 * 0.25) / (1 - 0.999)
    want = 1.0 - 0.1 * mhat / (np.sqrt(vhat) + 1e-8)
    assert p.data[0] == pytest.approx(want, rel=1e-12)


def test_adam_decoupled_weight_decay():
    p = ag.tensor(np.array([2.0]), requires_grad=True)
    p.grad = np.array([0.0])
    opt = tr.Adam([p], weight_decay=0.5)
    opt.step(0.1)
    # zero gradient: only the decay term moves the weight
    assert p.data[0] == pytest.approx(2.0 * (1 - 0.1 * 0.5))


def test_train_config_validation():
    with pytest.raises(ValueError, match="warmup"):
        tr.TrainConfig(lr=1e-3, steps=10, warmup_ratio=1.0)
    with pytest.raises(ValueError, match="lr"):
        tr.TrainConfig(lr=-1e-3, steps=10)
    with pytest.raises(ValueError, match="batch"):
        tr.TrainConfig(lr=1e-3, steps=10, batch=0)


def test_lr_zero_is_a_bitwise_null_update():
    model, ds = micro_setup()
    before = {p: t.data.copy() for p, t in model.tree.items()}
    cfg = tr.TrainConfig(lr=0.0, steps=5, batch=8, seed=1)
    tr.train(model, TuningStrategy("finetune"), ds, None, cfg)
    for p, old in before.items():
        np.testing.assert_array_equal(model.tree[p].data, old)


def test_frozen_paths_are_bitwise_unchanged():
    model, ds = micro_setup()
    before = model.tree["embed.weight"].data.copy()
    pos_before = model.tree["pos.weight"].data.copy()
    cfg = tr.TrainConfig(lr=1e-3, steps=8, batch=8, seed=1)
    tr.train(model, TuningStrategy("layernorm-simple"), ds, None, cfg)
    np.testing.assert_array_equal(model.tree["embed.weight"].data, before)
    np.testing.assert_array_equal(model.tree["pos.weight"].data, pos_before)
    assert not np.array_equal(model.tree["final_norm.weight"].data,
                              np.ones(32, dtype=np.float32))


def test_identical_seeds_reproduce_loss_series_bitwise():
    recs = []
    for _ in range(2):
        model, ds = micro_setup(seed=3)
        cfg = tr.TrainConfig(lr=1e-3, steps=10, batch=8, seed=3)
        recs.append(tr.train(model, TuningStrategy("finetune"), ds, None, cfg))
    assert recs[0].train_curve == recs[1].train_curve


def test_loss_decreases_over_a_short_run():
    model, ds = micro_setup(n=128)
    cfg = tr.TrainConfig(lr=1e-3, steps=80, batch=16, seed=0)
    rec = tr.train(model, TuningStrategy("finetune"), ds, None, cfg)
    losses = [l for _, l, _ in rec.train_curve]
    assert np.mean(losses[-10:]) < np.mean(losses[:10])


def test_non_finite_loss_aborts_with_diagnostic():
    model, ds = micro_setup()
    model.tree["embed.weight"].data[:] = np.nan
    cfg = tr.TrainConfig(lr=1e-3, steps=10, batch=8)
    rec = tr.train(model, TuningStrategy("finetune"), ds, None, cfg)
    assert rec.aborted
    assert rec.diagnostic["step"] == 0
    assert "non-finite" in rec.diagnostic["reason"]
    assert len(rec.train_curve) == 1


def test_artifacts_written(tmp_path):
    model, ds = micro_setup()
    _, eval_ds = micro_setup(seed=5)
    cfg = tr.TrainConfig(lr=1e-3, steps=4, batch=8, eval_interval=2)
    trace = GradTrace()
    rec = tr.train(model, TuningStrategy("layernorm"), ds, eval_ds, cfg,
                   outdir=tmp_path / "run", trace=trace)
    metrics = (tmp_path / "run" / "metrics.csv").read_text().splitlines()
    assert metrics[0] == "step,split,loss,lr"
    assert any(",eval," in line for line in metrics)
    payload = json.loads((tmp_path / "run" / "run.json").read_text())
    assert payload["selection"]["strategy"] == "layernorm"
    assert math.isfinite(payload["final_eval"])
    reloaded = md.load_checkpoint(tmp_path / "run" / "model.ckpt")
    np.testing.assert_array_equal(reloaded.tree["final_norm.weight"].data,
                                  model.tree["final_norm.weight"].data)
    assert all("norm" in e.path for e in trace.entries)
    with open(tmp_path / "run" / "gradtrace.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0][4:] == [f"bin_{lo!r}" for lo in trace.edges[:-1].tolist()]
    assert len(rows) == 1 + len(trace.entries)
    for row, entry in zip(rows[1:], trace.entries):
        counts = [int(c) for c in row[4:]]
        assert row[1] == entry.path and counts == entry.hist.tolist()
        assert sum(counts) == model.tree[entry.path].data.size


def test_evaluate_batch_size_invariance():
    model, ds = micro_setup(kind="mm-adapt", n=33)
    a = tr.evaluate(model, ds, batch=7)
    b = tr.evaluate(model, ds, batch=33)
    assert a == pytest.approx(b, rel=1e-6)


def test_evaluate_skips_batches_with_no_scored_target():
    model, ds = micro_setup(kind="mm-adapt", n=4)
    ds.targets[2:] = dt.IGNORE
    whole = tr.evaluate(model, ds, batch=4)
    forwarded = []
    real_forward = model.forward

    def counting_forward(tokens, feats, rows=None):
        forwarded.append(len(tokens))
        return real_forward(tokens, feats, rows=rows)

    model.forward = counting_forward
    assert tr.evaluate(model, ds, batch=2) == pytest.approx(whole, rel=1e-6)
    assert forwarded == [2]  # the all-ignored batch runs no forward pass
    ds.targets[:] = dt.IGNORE
    with pytest.raises(ValueError, match="no targets"):
        tr.evaluate(model, ds, batch=2)


def test_frozen_run_evaluates_without_training():
    model, ds = micro_setup(kind="mm-adapt", n=32)
    before = {p: t.data.copy() for p, t in model.tree.items()}
    cfg = tr.TrainConfig(lr=1e-3, steps=0, batch=8)
    rec = tr.train(model, None, ds, ds, cfg)
    assert rec.selection["strategy"] == "frozen"
    assert rec.selection["fraction"] == 0.0
    assert rec.final_eval is not None
    for p, old in before.items():
        np.testing.assert_array_equal(model.tree[p].data, old)


def test_sweep_singleton_and_ties():
    model, ds = micro_setup(kind="mm-adapt", n=32)
    cfg = tr.TrainConfig(lr=1.0, steps=0, batch=8)

    single = tr.sweep_lr([3e-4], lambda: tr.clone_model(model),
                         TuningStrategy("layernorm"), ds, ds, cfg)
    assert single.best_lr == 3e-4

    # zero steps: every lr evaluates identically, so the tie rule decides
    tied = tr.sweep_lr([3e-4, 1e-4], lambda: tr.clone_model(model),
                       TuningStrategy("layernorm"), ds, ds, cfg)
    assert tied.rows[0][1] == tied.rows[1][1]
    assert tied.best_lr == 1e-4

    named = tr.sweep_lr("paper-grid", lambda: tr.clone_model(model),
                        TuningStrategy("layernorm"), ds, ds, cfg)
    assert [lr for lr, _ in named.rows] == list(tr.LR_GRIDS["paper-grid"])

    with pytest.raises(ValueError, match="empty"):
        tr.sweep_lr([], lambda: model, TuningStrategy("layernorm"), ds, ds, cfg)


def test_lora_run_merges_adapters_and_isolates_bases():
    model, ds = micro_setup()
    attn_before = model.tree["blocks.0.attn.k_proj.weight"].data.copy()
    cfg = tr.TrainConfig(lr=1e-3, steps=6, batch=8)
    rec = tr.train(model, TuningStrategy("lora", lora_rank=2), ds, None, cfg)
    assert not md.lora_targets(model.tree)
    assert all(".lora_" not in p for p in model.tree.paths())
    assert rec.selection["strategy"] == "lora"
    assert "blocks.0.attn.k_proj.weight" not in rec.selection["paths"]
    # k_proj base was frozen; the merge folded in B@A, which trained away from 0
    assert not np.array_equal(model.tree["blocks.0.attn.k_proj.weight"].data,
                              attn_before)


def test_outdir_refuses_caller_adapters_before_training(tmp_path):
    model, ds = micro_setup("mm-adapt", n=8)
    inject_lora(model, rank=2)
    before = {p: (t.data.copy(), t.requires_grad) for p, t in model.tree.items()}
    cfg = tr.TrainConfig(lr=1e-2, steps=2, batch=4)
    with pytest.raises(ValueError, match="unmerged adapters"):
        tr.train(model, TuningStrategy("lora", lora_rank=2), ds, None, cfg,
                 outdir=tmp_path / "run")
    assert model.tree.paths() == list(before)
    for p, (old, flag) in before.items():
        np.testing.assert_array_equal(model.tree[p].data, old)
        assert model.tree[p].requires_grad == flag, p
    assert list(tmp_path.iterdir()) == []


def test_clone_of_an_injected_model_is_equal_and_independent():
    model, ds = micro_setup("mm-adapt", n=8)
    rng = np.random.default_rng(5)
    for target in inject_lora(model, rank=2, seed=1):  # B starts at zero
        B = model.tree[target + ".lora_B"]
        B.data = rng.normal(0.0, 0.05, B.shape).astype(np.float32)
    twin = tr.clone_model(model)
    assert twin.tree.paths() == model.tree.paths()
    for p, t in model.tree.items():
        assert twin.tree[p].requires_grad == t.requires_grad
        assert not np.shares_memory(twin.tree[p].data, t.data), p
    with ag.no_grad():
        want = model.forward(ds.tokens, ds.features).data
        got = twin.forward(ds.tokens, ds.features).data
    np.testing.assert_array_equal(got, want)


def test_compare_strategies_micro_run():
    proto = micro_protocol()
    report = tr.compare_strategies(["finetune", "layernorm"], proto, seeds=(0, 1))
    assert len(report.rows) == 2 * 3  # frozen + two strategies, per seed
    for seed in (0, 1):
        by_name = {r.strategy: r for r in report.rows if r.seed == seed}
        assert by_name["frozen"].gain == 0.0
        assert by_name["finetune"].gain == pytest.approx(1.0)
        assert 0.0 < by_name["layernorm"].fraction < 1.0
    assert report.median_gain("finetune") == pytest.approx(1.0)
    assert report.median_gain("frozen") == 0.0


@pytest.mark.parametrize("names, lrs, error", [
    (["finetune", "layernrom"], dict(tr.DEFAULT_ADAPT_LRS), ValueError),
    (["finetune", "lora"], {"finetune": 6e-4}, KeyError),
])
def test_compare_strategies_checks_names_before_training(monkeypatch, names,
                                                         lrs, error):
    calls = []

    def counting_train(*args, **kwargs):
        calls.append(args[1])
        return tr.RunRecord(config={}, selection={"fraction": 1.0},
                            train_curve=[], eval_curve=[], final_eval=1.0,
                            wall_clock=0.0)

    monkeypatch.setattr(tr, "train", counting_train)
    with pytest.raises(error, match=names[-1]):
        tr.compare_strategies(names, micro_protocol(adapt_lrs=lrs))
    assert calls == []


def test_comparison_report_serialization():
    proto = micro_protocol(pretrain_steps=10, connector_steps=2, adapt_steps=2)
    report = tr.compare_strategies(["finetune"], proto, seeds=(0,))
    payload = json.loads(report.to_json())
    assert payload["protocol"]["adapt_steps"] == 2
    assert len(payload["rows"]) == 2
    import io
    buf = io.StringIO()
    report.to_csv(buf)
    assert buf.getvalue().splitlines()[0].startswith("seed,strategy,")
