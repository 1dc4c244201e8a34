"""Acceptance gates: the end-to-end checks that define "done" for this lab.

Each test states its tolerance and time budget inline.  The toy adaptation
experiment is the slow one (minutes); everything else is seconds.
"""

import math
import time

import numpy as np
import pytest

from normadapt import analysis as an
from normadapt import autograd as ag
from normadapt import budget as bg
from normadapt import data as dt
from normadapt import model as md
from normadapt import normmath as nm
from normadapt import training as tr
from normadapt.strategies import (STRATEGY_KINDS, TuningStrategy, inject_lora,
                                  merge_lora, select_trainable)

from finite_diff import central_difference, max_relative_error
from test_autograd import run_gradcheck

MICRO = dict(n_layers=2, d_model=32, n_heads=2, d_ff=64, vocab_size=96,
             max_seq=32, norm_kind="standard", n_visual_tokens=4, d_visual=8)


def micro_mm(n=48, seed=0):
    model = md.build(md.ModelConfig(**MICRO), seed=seed)
    ds = dt.generate(dt.TaskSpec(kind="mm-adapt", n_samples=n, seed=seed, d_visual=8))
    return model, ds


# 1 ------------------------------------------------- analytic budget table

def test_budget_reference_percentages():
    """All gated cells within 0.5pp (0.002pp for the gain-only row); the
    low-rank row is reported with its divergence flagged, never gated."""
    expected = {
        ("llama7b", "finetune"): (95.70, 0.5),
        ("llama7b", "attn-qv"): (19.02, 0.5),
        ("llama7b", "attn-mlp"): (65.21, 0.5),
        ("llama7b", "layernorm"): (3.78, 0.5),
        ("llama7b", "layernorm-simple"): (0.004, 0.002),
        ("llama13b", "finetune"): (97.72, 0.5),
        ("llama13b", "attn-qv"): (18.24, 0.5),
        ("llama13b", "attn-mlp"): (66.24, 0.5),
        ("llama13b", "layernorm"): (2.50, 0.5),
        ("llama13b", "layernorm-simple"): (0.003, 0.002),
    }
    started = time.perf_counter()
    for (preset, kind), (ref, tol) in expected.items():
        got = bg.count(bg.PRESETS[preset], TuningStrategy(kind)).percentage
        assert abs(got - ref) <= tol, \
            f"{preset}/{kind}: computed {got:.4f} vs reference {ref} (tol {tol})"

    rows = bg.reference_table()
    assert len(rows) == 12
    for row in rows:
        if row.gated:
            assert row.within, f"{row.preset}/{row.strategy} outside tolerance"
    lora_rows = [r for r in rows if r.strategy == "lora"]
    assert len(lora_rows) == 2 and not any(r.gated for r in lora_rows)
    # the divergence is real; it must stay visible, not get absorbed
    assert all(r.diff > r.tolerance for r in lora_rows)
    assert time.perf_counter() - started < 1.0


# 2 ------------------------------------------------ norm backward math suite

def test_norm_backward_math_suite():
    """Zero mean, annihilated directions, projector idempotency for every
    N in 3..512, a contraction bound over 3,000 draws, and closed form vs
    autodiff (1e-10) vs finite differences (1e-6).  Budget: 10 s."""
    started = time.perf_counter()
    rng = np.random.default_rng(0)

    for n in (4, 16, 128, 512):
        for _ in range(5):
            inst = nm.ln_stats(rng.standard_normal(n))
            a = nm.ln_backward_closed_form(inst, rng.standard_normal(n))
            scale = max(np.linalg.norm(a), 1e-30)
            assert abs(a.mean()) <= 1e-10 * scale
            assert abs(a @ np.ones(n)) <= 1e-10 * scale * math.sqrt(n)
            assert abs(a @ inst.y) <= 1e-10 * scale * np.linalg.norm(inst.y)

    for n in range(3, 513):
        inst = nm.ln_stats(rng.standard_normal(n))
        assert nm.check_projection(inst).max_defect() <= 1e-10, f"N={n}"

    violations = 0
    for n in (8, 64, 512):
        for _ in range(1000):
            inst = nm.ln_stats(rng.standard_normal(n))
            if not nm.variance_bound_check(inst, rng.standard_normal(n)).holds:
                violations += 1
    assert violations == 0

    for seed in range(5):
        srng = np.random.default_rng(seed)
        x = srng.standard_normal(8)
        b = srng.standard_normal(8)
        inst = nm.ln_stats(x)
        a = nm.ln_backward_closed_form(inst, b)

        _, backward = ag._OPS["layer_norm"]([x.reshape(1, 8), np.ones(8), np.zeros(8)],
                                            {"eps": 0.0})
        gx = backward(b.reshape(1, 8), [True, False, False])[0]  # g = d(y . b)/dy
        np.testing.assert_allclose(a, gx.ravel(), atol=1e-10)

        def scalar(arrs):
            return float(nm.ln_stats(arrs[0]).y @ b)

        numeric = central_difference(scalar, [x.copy()], step=1e-5)[0]
        assert max_relative_error(a, numeric) <= 1e-6

    assert time.perf_counter() - started < 10.0


# 3 ------------------------------------------------------- variance decay

def test_variance_decay_monotone_with_slope_reported():
    """Median Var(a) strictly decreasing over N = 16..1024 under the
    softmax-style upstream sampler; slope is measured, not asserted."""
    started = time.perf_counter()
    study = nm.variance_scaling_study([16, 64, 256, 1024], trials=200, seed=0)
    med = study.median_var
    assert all(b < a for a, b in zip(med, med[1:])), med
    assert math.isfinite(study.loglog_slope)
    print(f"variance decay medians={['%.3e' % v for v in med]} "
          f"log-log slope={study.loglog_slope:.3f}")
    assert time.perf_counter() - started < 30.0


# 4 -------------------------------------------------- autodiff correctness

def test_autodiff_gradcheck_every_op_kind():
    """Every registered op kind against float64 central differences,
    relative error <= 1e-5, 20 seeds each.  Budget: 60 s."""
    started = time.perf_counter()
    kinds = ag.op_kinds()
    assert kinds == ["add", "causal_attention", "concat", "cross_entropy",
                     "embed_lookup", "layer_norm", "matmul", "rms_norm", "silu"]
    for kind in kinds:
        for seed in range(20):
            run_gradcheck(kind, seed, tol=1e-5)
    assert time.perf_counter() - started < 60.0


# 5 --------------------------------------------- strategy isolation + lora

def test_strategy_isolation_bitwise():
    """After a real training run under every strategy, parameters outside
    the selection are bitwise untouched (adapters injected here, so train
    leaves them unmerged and the check applies to the raw result)."""
    for kind in STRATEGY_KINDS:
        model, ds = micro_mm(n=32, seed=3)
        before = {p: t.data.copy() for p, t in model.tree.items()}
        strategy = TuningStrategy(kind, lora_rank=2)
        cfg = tr.TrainConfig(lr=1e-3, steps=3, batch=8, seed=0)
        if kind == "lora":
            inject_lora(model, rank=2, seed=cfg.seed)
        rec = tr.train(model, strategy, ds, None, cfg)
        selected = set(rec.selection["paths"])
        touched = [p for p in before
                   if p not in selected
                   and not np.array_equal(model.tree[p].data, before[p])]
        assert not touched, f"{kind} changed unselected params: {touched}"
        changed = [p for p in selected
                   if p in before
                   and not np.array_equal(model.tree[p].data, before[p])]
        assert changed, f"{kind} trained nothing"


def test_lora_inject_exact_and_merge_close():
    model, ds = micro_mm(n=16, seed=9)
    logits_before = model.forward(ds.tokens[:4], ds.features[:4]).data.copy()
    inject_lora(model, rank=2, seed=0)
    logits_injected = model.forward(ds.tokens[:4], ds.features[:4]).data
    assert np.max(np.abs(logits_injected - logits_before)) == 0.0

    cfg = tr.TrainConfig(lr=1e-3, steps=4, batch=8, seed=1)
    tr.train(model, TuningStrategy("lora", lora_rank=2), ds, None, cfg)
    with_adapters = model.forward(ds.tokens[:4], ds.features[:4]).data.copy()
    merge_lora(model)
    merged = model.forward(ds.tokens[:4], ds.features[:4]).data
    assert model.dtype == np.float32
    assert np.max(np.abs(merged - with_adapters)) <= 1e-6


# 6 ------------------------------------------------ toy adaptation gains

def test_toy_adaptation_gains():
    """Two-stage protocol, 3 seeds: gain = (frozen - strategy)/(frozen -
    finetune) on held-out loss.  Median gain: norm tuning >= 0.7, gain-only
    norm tuning >= 0.4.  Budget: 10 minutes of wall time."""
    started = time.perf_counter()
    protocol = tr.AdaptProtocol()
    report = tr.compare_strategies(
        ["finetune", "layernorm", "layernorm-simple"], protocol,
        seeds=(0, 1, 2))
    elapsed = time.perf_counter() - started

    medians = {name: report.median_gain(name)
               for name in ("finetune", "layernorm", "layernorm-simple")}
    print(f"median gains: {medians} ({elapsed:.0f}s)")
    assert medians["finetune"] == pytest.approx(1.0)
    assert medians["layernorm"] >= 0.7, medians
    assert medians["layernorm-simple"] >= 0.4, medians
    assert elapsed < 600.0


# 7 ------------------------------------------------ connector ablation trio

def test_connector_ablation_trio_exact_paths():
    model = md.build(md.ModelConfig(**MICRO), seed=0)
    norm_paths = {"final_norm.weight", "final_norm.bias"}
    for i in range(MICRO["n_layers"]):
        for where in ("input_norm", "post_norm"):
            norm_paths |= {f"blocks.{i}.{where}.weight",
                           f"blocks.{i}.{where}.bias"}
    defaults = {"connector.weight", "connector.bias", "embed.weight",
                "head.weight", "pos.weight"}

    both = select_trainable(TuningStrategy("layernorm"), model.tree)
    conn = select_trainable(TuningStrategy("connector-only"), model.tree)
    norm_only = select_trainable(TuningStrategy("layernorm-simple"), model.tree)

    assert set(both.selected) == norm_paths | defaults
    assert set(conn.selected) == {"connector.weight", "connector.bias"}
    assert set(norm_only.selected) == norm_paths
    trio = [frozenset(r.selected) for r in (both, conn, norm_only)]
    assert len(set(trio)) == 3


# 8 ------------------------------------------------------ similarity gates

def test_similarity_gates_and_reference_arithmetic():
    # blocks forced to identity -> every layer carries the same vector
    model, ds = micro_mm(n=6, seed=2)
    for i in range(MICRO["n_layers"]):
        model.tree[f"blocks.{i}.attn.o_proj.weight"].data[:] = 0.0
        model.tree[f"blocks.{i}.mlp.fc2.weight"].data[:] = 0.0
    rep = an.layer_similarity(model, ds.tokens, ds.features)
    assert np.allclose(rep.matrix, 1.0, atol=1e-12)
    assert rep.average == pytest.approx(1.0, abs=1e-12)

    rep_orth = an.similarity_from_representations(list(np.eye(4)))
    assert np.array_equal(rep_orth.matrix, np.eye(4))
    assert rep_orth.average == 0.0

    drop = an.mean_relative_drop()
    assert 0.105 <= drop <= 0.107

    # informational (ungated): norm tuning vs full finetune at micro scale
    base, train_ds = micro_mm(n=48, seed=4)
    cfg = tr.TrainConfig(lr=1e-3, steps=10, batch=8, seed=0)
    reports = []
    for kind in ("layernorm", "finetune"):
        m = tr.clone_model(base)
        tr.train(m, TuningStrategy(kind), train_ds, None, cfg)
        reports.append(an.layer_similarity(m, train_ds.tokens[:16],
                                           train_ds.features[:16], label=kind))
    a, b = reports
    print(f"informational: layer-similarity {a.label}={a.average:.4f} "
          f"{b.label}={b.average:.4f} "
          f"relative_diff={an.relative_drop(a.average, b.average):+.4f}")


# 9 --------------------------------------------- schedule + reproducibility

def test_schedule_closed_form_and_bitwise_repro():
    def reference(step, total, ratio, base):
        warmup = int(ratio * total)
        if step < warmup:
            return base * step / warmup
        progress = (step - warmup) / (total - warmup)
        return base * (1 + math.cos(math.pi * progress)) / 2

    for total, ratio in ((10, 0.0), (333, 0.1), (10_000, 0.03)):
        for step in range(total + 1):
            assert tr.lr_schedule(step, total, ratio, 2e-3) == \
                reference(step, total, ratio, 2e-3)

    base, train_ds = micro_mm(n=48, seed=5)
    _, eval_ds = micro_mm(n=24, seed=6)

    def run():
        m = tr.clone_model(base)
        cfg = tr.TrainConfig(lr=1e-3, steps=8, batch=8, seed=11)
        rec = tr.train(m, TuningStrategy("layernorm"), train_ds, eval_ds, cfg)
        return rec.train_curve, rec.final_eval

    first, second = run(), run()
    assert first == second
