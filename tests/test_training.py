import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from normadapt import autograd as ag
from normadapt import data as dt
from normadapt import model as md
from normadapt import training as tr
from normadapt.analysis import GradTrace
from normadapt.strategies import STRATEGY_KINDS, TuningStrategy, inject_lora

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
    stub = dt.VisionStub(d_visual=8, n_slots=64, seed=7)
    ds = dt.generate(dt.TaskSpec(kind=kind, n_samples=n, seed=seed),
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


def old_adam_step(opt, lr):
    """`Adam.step` as it was before it wrote in place: a new array per term."""
    opt.t += 1
    b1c = 1.0 - opt.beta1 ** opt.t
    b2c = 1.0 - opt.beta2 ** opt.t
    for p, m, v in zip(opt.params, opt.m, opt.v):
        g = p.grad
        if g is None:
            continue
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * (g * g)
        if lr == 0.0:
            continue
        if opt.weight_decay:
            p.data = p.data - lr * opt.weight_decay * p.data
        p.data = p.data - lr * ((m / b1c) / (np.sqrt(v / b2c) + opt.eps))


@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_adam_in_place_matches_the_old_expression_bitwise(weight_decay):
    """12 steps over every parameter of a micro model, float32 and float64,
    with an lr-0 step, a parameter with no gradient on some steps and
    gradients of very different scales: `p.data`, m and v keep their bytes,
    and `p.data` is the array the tensor started with."""
    rng = np.random.default_rng(3)
    for dtype in (np.float32, np.float64):
        models = [md.build(md.ModelConfig(**MICRO_MODEL), seed=1, dtype=dtype)
                  for _ in range(2)]
        opts = [tr.Adam([t for _, t in m.tree.items()], weight_decay=weight_decay)
                for m in models]
        arrays = [t.data for t in opts[0].params]
        for step in range(12):
            grads = [None if step % 3 == 1 and i % 4 == 0 else
                     (rng.standard_normal(t.shape) * 10.0 ** rng.integers(-6, 3))
                     .astype(dtype) for i, t in enumerate(opts[0].params)]
            lr = 0.0 if step == 5 else 1e-3 * (step + 1)
            for opt in opts:
                for t, g in zip(opt.params, grads):
                    t.grad = None if g is None else g.copy()
            opts[0].step(lr)
            old_adam_step(opts[1], lr)
        for new, old in zip(opts[0].params, opts[1].params):
            assert new.data.dtype == old.data.dtype == dtype
            assert new.data.tobytes() == old.data.tobytes()
        for state in ("m", "v"):
            for new, old in zip(getattr(opts[0], state), getattr(opts[1], state)):
                assert new.tobytes() == old.tobytes()
        assert all(t.data is a for t, a in zip(opts[0].params, arrays))


def test_train_config_validation():
    with pytest.raises(ValueError, match="warmup"):
        tr.TrainConfig(lr=1e-3, steps=10, warmup_ratio=1.0)
    with pytest.raises(ValueError, match="lr"):
        tr.TrainConfig(lr=-1e-3, steps=10)
    with pytest.raises(ValueError, match="batch"):
        tr.TrainConfig(lr=1e-3, steps=10, batch=0)
    with pytest.raises(ValueError, match="eval_interval must be >= 0, got -2"):
        tr.TrainConfig(lr=1e-3, steps=10, eval_interval=-2)
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        tr.TrainConfig(lr=1e-3, steps=10, seed=-3)
    for lr in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match=f"lr must be finite and >= 0, got {lr}"):
            tr.TrainConfig(lr=lr, steps=10)
    for wd in (math.nan, math.inf, -1.0):
        with pytest.raises(ValueError,
                           match=f"weight_decay must be finite and >= 0, got {wd}"):
            tr.TrainConfig(lr=1e-3, steps=10, weight_decay=wd)
    with pytest.raises(ValueError, match="steps must be >= 0, got -1"):
        tr.TrainConfig(lr=1e-3, steps=-1)
    with pytest.raises(ValueError, match="batch must be >= 1, got 0"):
        tr.TrainConfig(lr=1e-3, steps=10, batch=0)


def test_train_refuses_trace_every_below_one():
    model, ds = micro_setup()
    before = {p: t.data.copy() for p, t in model.tree.items()}
    cfg = tr.TrainConfig(lr=1e-3, steps=2, batch=4)
    for every in (0, -2):
        with pytest.raises(ValueError, match=f"trace_every must be >= 1, got {every}"):
            tr.train(model, TuningStrategy("layernorm"), ds, None, cfg,
                     trace=GradTrace(), trace_every=every)
    # refused before the first step
    assert all(np.array_equal(t.data, before[p]) for p, t in model.tree.items())


@pytest.mark.parametrize("kind", ["connector-only", "lora", "attn-qv", "attn-mlp"])
def test_trace_refuses_a_strategy_without_norms(kind):
    model, ds = micro_setup()
    before = {p: t.data.copy() for p, t in model.tree.items()}
    cfg = tr.TrainConfig(lr=1e-3, steps=2, batch=4)
    with pytest.raises(ValueError, match=f"strategy '{kind}' trains no norm parameter"):
        tr.train(model, TuningStrategy(kind), ds, None, cfg, trace=GradTrace())
    # refused before any adapter is injected or any step runs
    assert set(model.tree.paths()) == set(before)
    assert all(np.array_equal(t.data, before[p]) for p, t in model.tree.items())


def test_lr_zero_is_a_bitwise_null_update():
    model, ds = micro_setup()
    before = {p: t.data.copy() for p, t in model.tree.items()}
    cfg = tr.TrainConfig(lr=0.0, steps=5, batch=8, seed=1)
    tr.train(model, TuningStrategy("finetune"), ds, None, cfg)
    for p, old in before.items():
        np.testing.assert_array_equal(model.tree[p].data, old)


@pytest.fixture
def calls(monkeypatch):
    """Counts of the `ag.backward` and `Adam.step` calls made from here on."""
    counts = {"backward": 0, "step": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(ag, "backward", counting("backward", ag.backward))
    monkeypatch.setattr(tr.Adam, "step", counting("step", tr.Adam.step))
    return counts


@pytest.mark.parametrize("steps, lr, updates", [(1, 1e-3, 0), (5, 1e-3, 4),
                                                (5, 0.0, 0)])
def test_steps_after_the_last_nonzero_lr_run_forward_only(calls, steps, lr, updates):
    model, ds = micro_setup()
    before = {p: t.data.copy() for p, t in model.tree.items()}
    cfg = tr.TrainConfig(lr=lr, steps=steps, batch=8, seed=1)
    rec = tr.train(model, TuningStrategy("finetune"), ds, None, cfg)
    assert calls == {"backward": updates, "step": updates}
    assert [s for s, _, _ in rec.train_curve] == list(range(steps))
    assert rec.train_curve[-1][2] == 0.0
    assert all(math.isfinite(loss) for _, loss, _ in rec.train_curve)
    if updates == 0:
        for p, old in before.items():
            np.testing.assert_array_equal(model.tree[p].data, old)


def test_a_traced_null_step_runs_backward_and_changes_no_bits(calls):
    """The last step's forward-only loss is the loss its backward would read."""
    runs = []
    for trace in (GradTrace(), None):
        model, ds = micro_setup(seed=2)
        cfg = tr.TrainConfig(lr=1e-2, steps=5, batch=8, seed=2)
        rec = tr.train(model, TuningStrategy("layernorm-simple"), ds, None, cfg,
                       trace=trace, trace_every=1)
        runs.append((rec.train_curve, model))
        if trace is not None:
            assert calls["backward"] == 5
            assert trace.steps == [0, 1, 2, 3, 4]
    assert calls["backward"] == 5 + 4
    (traced_curve, traced), (plain_curve, plain) = runs
    assert traced_curve == plain_curve
    for p, t in plain.tree.items():
        np.testing.assert_array_equal(traced.tree[p].data, t.data)


def test_a_non_finite_loss_on_a_null_step_still_aborts(calls):
    model, ds = micro_setup()
    model.tree["embed.weight"].data[:] = np.nan
    cfg = tr.TrainConfig(lr=1e-3, steps=1, batch=8)
    rec = tr.train(model, TuningStrategy("finetune"), ds, None, cfg)
    assert rec.aborted and rec.diagnostic["step"] == 0
    assert calls == {"backward": 0, "step": 0}


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


def test_sweep_singleton_and_ties():
    model, ds = micro_setup(kind="mm-adapt", n=32)
    cfg = tr.TrainConfig(lr=1.0, steps=0, batch=8)

    single = tr.sweep_lr([3e-4], model, TuningStrategy("layernorm"), ds, ds, cfg)
    assert single.best_lr == 3e-4

    # zero steps: every lr evaluates identically, so the tie rule decides
    tied = tr.sweep_lr([3e-4, 1e-4], model, TuningStrategy("layernorm"), ds, ds, cfg)
    assert tied.rows[0][1] == tied.rows[1][1]
    assert tied.best_lr == 1e-4

    named = tr.sweep_lr(tr.LR_GRIDS["paper-grid"], model, TuningStrategy("layernorm"),
                        ds, ds, cfg)
    assert [lr for lr, _ in named.rows] == list(tr.LR_GRIDS["paper-grid"])

    with pytest.raises(ValueError, match="empty"):
        tr.sweep_lr([], model, TuningStrategy("layernorm"), ds, ds, cfg)


def test_sweep_checks_every_grid_point_before_the_first_run(monkeypatch):
    model, ds = micro_setup(kind="mm-adapt", n=8)
    calls = []
    monkeypatch.setattr(tr, "train", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match="lr must be finite and >= 0, got -1"):
        tr.sweep_lr([1e-3, 2e-3, -1.0], model, TuningStrategy("layernorm"),
                    ds, ds, tr.TrainConfig(lr=1.0, steps=2, batch=4))
    assert calls == []


def test_sweep_refuses_a_repeated_grid_point_before_the_first_run(monkeypatch):
    model, ds = micro_setup(kind="mm-adapt", n=8)
    calls = []
    monkeypatch.setattr(tr, "train", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=r"repeated lr in \[0.001, 0.002, 0.001\]"):
        tr.sweep_lr([1e-3, 2e-3, 1e-3], model, TuningStrategy("layernorm"),
                    ds, ds, tr.TrainConfig(lr=1.0, steps=2, batch=4))
    assert calls == []


def test_train_makes_its_outdir_before_the_first_step(tmp_path):
    model, ds = micro_setup("mm-adapt", n=8)

    def loss(*args):
        raise AssertionError("a step ran")

    model.loss = loss
    blocker = tmp_path / "file"
    blocker.write_text("")
    with pytest.raises(NotADirectoryError):
        tr.train(model, TuningStrategy("layernorm"), ds, None,
                 tr.TrainConfig(lr=1e-3, steps=2, batch=4), outdir=blocker / "run")


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
        assert not twin.tree[p].data.flags.writeable, p
        with pytest.raises(ValueError, match="read-only"):
            twin.tree[p].data += 1
    with ag.no_grad():
        want = model.forward(ds.tokens, ds.features).data
        got = twin.forward(ds.tokens, ds.features).data
    np.testing.assert_array_equal(got, want)
    before = {p: t.data.copy() for p, t in model.tree.items()}
    cfg = tr.TrainConfig(lr=1e-2, steps=3, batch=4)
    for kind in STRATEGY_KINDS:
        rec = tr.train(tr.clone_model(model), TuningStrategy(kind, lora_rank=2),
                       ds, None, cfg)
        assert not rec.aborted, kind
        for p, old in before.items():
            np.testing.assert_array_equal(model.tree[p].data, old, err_msg=kind)
            assert model.tree[p].data.flags.writeable, (kind, p)


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


def test_a_micro_protocol_with_three_visual_tokens_compares():
    """Every split has one attribute per visual token of the protocol's
    model, so stage 1 reads features of the model's shape."""
    model = md.ModelConfig(**{**MICRO_MODEL, "n_visual_tokens": 3})
    proto = micro_protocol(model=model, pretrain_steps=2, connector_steps=2,
                           adapt_steps=2)
    report = tr.compare_strategies(["finetune", "layernorm"], proto)
    assert [r.strategy for r in report.rows] == ["frozen", "finetune", "layernorm"]
    assert all(math.isfinite(r.final_eval) for r in report.rows)


@pytest.mark.parametrize("tokens, text_len, mm_len", [(4, 20, 12), (5, 22, 12)])
def test_protocol_splits_take_their_shape_from_the_model(tokens, text_len, mm_len):
    proto = tr.AdaptProtocol(model=md.ModelConfig(n_visual_tokens=tokens),
                             n_train=8, n_eval=8)
    text, (mm, _) = proto.text_dataset(), proto.mm_datasets()
    assert (text.spec.n_attrs, text.spec.seq_len) == (tokens, text_len)
    assert (mm.spec.n_attrs, mm.spec.seq_len) == (tokens, mm_len)
    assert mm.features.shape == (8, tokens, proto.model.d_visual)
    assert proto.stub().n_slots == tokens * dt.N_VALUES
    for ds in (text, mm):  # one PAD past the longest sample
        assert (ds.tokens[:, -1] == dt.PAD).all()


# a MICRO pretrain and comparison; prints one SHA-256 of the comparison rows
# (wall clocks left out) and the pretrained parameters
REPRO_SCRIPT = f"""
import hashlib
from normadapt import model as md, training as tr
proto = tr.AdaptProtocol(model=md.ModelConfig(**{MICRO_MODEL!r}), n_train=64,
                         n_eval=32, pretrain_steps=8, connector_steps=3,
                         adapt_steps=4, batch=8)
base, _ = tr.pretrain(proto)
report = tr.compare_strategies(["finetune", "layernorm-simple"], proto, base=base)
h = hashlib.sha256()
for r in report.rows:
    h.update(repr((r.seed, r.strategy, r.final_eval, r.gain, r.fraction)).encode())
for p, t in base.tree.items():
    h.update(p.encode() + t.data.tobytes())
print(h.hexdigest())
"""


def test_a_comparison_is_bitwise_equal_in_two_fresh_processes():
    env = dict(os.environ, NORMADAPT_THREADS="1")
    digests = [subprocess.run([sys.executable, "-c", REPRO_SCRIPT], env=env,
                              capture_output=True, text=True, check=True).stdout
               for _ in range(2)]
    assert len(digests[0].strip()) == 64
    assert digests[0] == digests[1]


def test_compare_strategies_checks_names_before_training(monkeypatch, tmp_path):
    calls = []

    def counting_train(*args, **kwargs):
        calls.append(args[1])
        return tr.RunRecord(config={}, selection={"fraction": 1.0},
                            train_curve=[], eval_curve=[], final_eval=1.0,
                            wall_clock=0.0)

    monkeypatch.setattr(tr, "train", counting_train)
    outdir = tmp_path / "cmp"
    with pytest.raises(ValueError, match="layernrom"):
        tr.compare_strategies(["finetune", "layernrom"], micro_protocol(),
                              outdir=outdir)
    assert calls == []
    assert not outdir.exists()


def test_every_strategy_has_a_stage_2_lr():
    assert set(tr.DEFAULT_ADAPT_LRS) == set(STRATEGY_KINDS)


@pytest.mark.parametrize("aborts", ["layernorm", "finetune", "stage 1"])
def test_an_aborted_run_keeps_the_comparison(monkeypatch, tmp_path, aborts):
    """An lr of 1e300 makes the run's loss non-finite; its row has no loss,
    and a gain that needs an aborted loss is None, but every row and both
    tables are still written."""
    if aborts == "stage 1":
        monkeypatch.setattr(tr, "CONNECTOR_LR", 1e300)
    else:
        monkeypatch.setitem(tr.DEFAULT_ADAPT_LRS, aborts, 1e300)
    proto = micro_protocol(pretrain_steps=2, connector_steps=3, adapt_steps=3)
    with np.errstate(over="ignore", invalid="ignore"):
        report = tr.compare_strategies(["finetune", "layernorm"], proto,
                                       outdir=tmp_path / "cmp")
    rows = {r.strategy: r for r in report.rows}
    assert list(rows) == ["frozen", "finetune", "layernorm"]
    gains = {name: r.gain for name, r in rows.items()}
    if aborts == "layernorm":
        assert rows["layernorm"].final_eval is None
        assert gains == {"frozen": 0.0, "finetune": 1.0, "layernorm": None}
    elif aborts == "finetune":
        assert rows["finetune"].final_eval is None
        assert math.isfinite(rows["layernorm"].final_eval)
        assert gains == {"frozen": 0.0, "finetune": None, "layernorm": None}
    else:
        assert rows["frozen"].final_eval is None
        assert gains == {"frozen": None, "finetune": None, "layernorm": None}
    with open(tmp_path / "cmp" / "compare.csv", newline="") as f:
        table = list(csv.DictReader(f))
    for line, row in zip(table, report.rows):
        assert line["final_eval"] == ("" if row.final_eval is None
                                      else repr(row.final_eval))
        assert line["gain"] == ("" if row.gain is None else repr(row.gain))
    assert json.loads((tmp_path / "cmp" / "compare.json").read_text())["rows"] == [
        dataclasses.asdict(r) for r in report.rows]


def test_compare_refuses_an_unknown_stub_mode_before_pretraining(monkeypatch):
    def pretrain(protocol):
        raise AssertionError("pretrain ran")

    monkeypatch.setattr(tr, "pretrain", pretrain)
    with pytest.raises(ValueError, match="mode must be one of .* got 'conv'"):
        tr.compare_strategies(["finetune"], micro_protocol(stub_mode="conv"))


@pytest.mark.parametrize("names, seeds, message", [
    (["finetune", "layernorm"], (0, 0, 1), "repeated seed in \\[0, 0, 1\\]"),
    (["finetune", "finetune"], (0,), "repeated strategy in \\['finetune', 'finetune'\\]"),
], ids=["seed", "strategy"])
def test_compare_strategies_refuses_repeats_before_pretraining(monkeypatch, tmp_path,
                                                                names, seeds, message):
    def pretrain(protocol):
        raise AssertionError("pretrain ran")

    monkeypatch.setattr(tr, "pretrain", pretrain)
    outdir = tmp_path / "cmp"
    with pytest.raises(ValueError, match=message):
        tr.compare_strategies(names, micro_protocol(), seeds=seeds, outdir=outdir)
    assert not outdir.exists()


def test_compare_strategies_writes_both_tables(tmp_path):
    proto = micro_protocol(pretrain_steps=2, connector_steps=2, adapt_steps=2)
    outdir = tmp_path / "cmp"
    report = tr.compare_strategies(["finetune"], proto, outdir=outdir)
    buf = io.StringIO()
    report.to_csv(buf)
    with open(outdir / "compare.csv", newline="") as f:
        assert f.read() == buf.getvalue()
    assert (outdir / "compare.json").read_text() == report.to_json()


@pytest.mark.parametrize("field, value, message", [
    ("pretrain_steps", -1, "pretrain_steps must be >= 0, got -1"),
    ("connector_steps", -1, "connector_steps must be >= 0, got -1"),
    ("adapt_steps", -2, "adapt_steps must be >= 0, got -2"),
    ("batch", 0, "batch must be >= 1, got 0"),
    ("model", md.ModelConfig(**{**MICRO_MODEL, "vocab_size": 60}),
     "model vocab_size 60 is below the task's vocab 77"),
    ("model", md.ModelConfig(**{**MICRO_MODEL, "max_seq": 19}),
     "model max_seq 19 is below the task's sequence length 20"),
    ("model", md.ModelConfig(**{**MICRO_MODEL, "n_visual_tokens": 1}),
     "it needs n_attrs >= 2, got 1"),
    ("seed", -1, "^seed must be >= 0, got -1$"),
    ("noise_std", math.nan, "noise_std must be finite and >= 0, got nan"),
    ("noise_std", -1.0, "noise_std must be finite and >= 0, got -1.0"),
    ("mixture", (math.nan, 0.5, 0.5), "mixture needs 3 finite non-negative"),
    ("n_train", 0, "^n_train must be >= 1, got 0$"),
    ("n_eval", -4, "^n_eval must be >= 1, got -4$"),
])
def test_protocol_refuses_stage_settings_before_any_training(monkeypatch, field,
                                                             value, message):
    """Each field is refused, by name, when the protocol is built, so
    `compare_strategies` never reaches stage 0's pretraining."""
    calls = []
    monkeypatch.setattr(tr, "train", lambda *args, **kwargs: calls.append(args))
    with pytest.raises(ValueError, match=message):
        tr.compare_strategies(["finetune"], micro_protocol(
            **{"pretrain_steps": 3, field: value}))
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
