"""Training loop, LR schedule, sweeps, and the two-stage adaptation protocol.

Protocol: a text-pretrained base first learns the retrieval task from token
declarations; adaptation then swaps declarations for connector-projected
visual features.  Stage 1 trains the connector alone; stage 2 applies the
strategy under comparison.  Adaptation gain for a strategy is

    (loss_frozen - loss_strategy) / (loss_frozen - loss_finetune)

on held-out visual-task loss, where "frozen" is the stage-1 model untouched.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass, field, asdict, replace

import numpy as np

from . import autograd as ag
from . import data as dt
from .analysis import GradTrace
from .model import (Model, ModelConfig, ParamTree, VisionStub, build,
                    lora_targets, save_checkpoint)
from .strategies import TuningStrategy, inject_lora, merge_lora, select_trainable

LR_GRIDS = {
    # 11-point reference grid used by the large-scale sweeps we mirror
    "paper-grid": (2e-3, 1e-3, 6e-4, 3e-4, 1e-4, 5e-5, 2e-5, 1e-5, 6e-6, 1e-6, 1e-7),
}


def lr_schedule(step, total, warmup_ratio, base_lr) -> float:
    """Linear ramp to base_lr over floor(warmup_ratio*total), cosine to 0 after."""
    if total < 1:
        raise ValueError(f"total must be >= 1, got {total}")
    if not 0 <= step <= total:
        raise ValueError(f"step {step} outside [0, {total}]")
    warmup = int(warmup_ratio * total)
    if step < warmup:
        return base_lr * step / warmup
    progress = (step - warmup) / (total - warmup)
    return base_lr * 0.5 * (1.0 + math.cos(math.pi * progress))


class Adam:
    """Decoupled-weight-decay Adam over a list of tensors."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8, weight_decay=0.0):
        self.params = list(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self.m = [np.zeros_like(t.data) for t in self.params]
        self.v = [np.zeros_like(t.data) for t in self.params]
        self.t = 0

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr):
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad
            if g is None:  # parameter absent from this step's graph
                continue
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            if lr == 0.0:
                continue  # keep the lr=0 null update bitwise exact
            if self.weight_decay:
                p.data = p.data - lr * self.weight_decay * p.data
            p.data = p.data - lr * ((m / b1c) / (np.sqrt(v / b2c) + self.eps))


@dataclass
class TrainConfig:
    lr: float
    steps: int
    batch: int = 32
    warmup_ratio: float = 0.03
    weight_decay: float = 0.0
    seed: int = 0
    eval_interval: int = 0  # 0: evaluate at the end only

    def __post_init__(self):
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if self.steps < 0 or self.batch < 1:
            raise ValueError("steps must be >= 0 and batch >= 1")


@dataclass
class RunRecord:
    config: dict
    selection: dict
    train_curve: list       # (step, loss, lr)
    eval_curve: list        # (step, loss)
    final_eval: float
    wall_clock: float
    aborted: bool = False
    diagnostic: dict = None
    artifacts: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2, default=str)


def _batches(ds: dt.Dataset, idx):
    feats = None if ds.features is None else ds.features[idx]
    return ds.tokens[idx], feats, ds.targets[idx]


def evaluate(model: Model, ds: dt.Dataset, batch=64) -> float:
    """Mean held-out cross entropy, weighted by scored-token counts.

    Batches with no scored target are skipped without a forward pass; only a
    split with no scored target at all raises.
    """
    total_nll = 0.0
    total_count = 0
    with ag.no_grad():
        for lo in range(0, len(ds), batch):
            idx = np.arange(lo, min(lo + batch, len(ds)))
            tokens, feats, targets = _batches(ds, idx)
            count = int((targets != dt.IGNORE).sum())
            if count == 0:
                continue
            loss = model.loss(tokens, feats, targets)
            total_nll += float(loss.data) * count
            total_count += count
    if total_count == 0:
        raise ValueError("evaluate: no targets to score in the whole split")
    return total_nll / total_count


def clone_model(model: Model) -> Model:
    """Fresh tensors holding copies of every parameter (adapters included),
    flags and dtype kept."""
    tree = ParamTree()
    for p, t in model.tree.items():
        tree.add(p, ag.tensor(t.data.copy(), requires_grad=t.requires_grad))
    return Model(model.config, tree, model.dtype)


def train(model: Model, strategy, train_ds: dt.Dataset, eval_ds, config: TrainConfig,
          outdir=None, trace: GradTrace = None, trace_every: int = 10) -> RunRecord:
    """Run one training stage.  strategy=None evaluates a fully frozen model.

    A LoRA strategy on a model without adapters injects them and folds them
    back into the base weights at the end; adapters the caller injected are
    trained and left for the caller to merge, so with an outdir, whose
    checkpoint cannot hold them, they are refused before the first step.
    A trace records the selected norm parameters every `trace_every` steps.
    Non-finite loss aborts the run and flags the record instead of raising.
    """
    if outdir is not None and lora_targets(model.tree):
        raise ValueError("model has unmerged adapters, which a checkpoint cannot "
                         "hold; merge them or train without outdir")
    if train_ds.vocab_required > model.config.vocab_size:
        raise ValueError(f"task needs vocab {train_ds.vocab_required}, "
                         f"model has {model.config.vocab_size}")
    injected = []
    if strategy is not None:
        if strategy.kind == "lora" and not lora_targets(model.tree):
            injected = inject_lora(model, rank=strategy.lora_rank, seed=config.seed)
        report = select_trainable(strategy, model.tree)
        selection = {"strategy": strategy.kind, "paths": list(report.selected),
                     "trainable": report.trainable, "total": report.total,
                     "fraction": report.fraction}
        trainable = [model.tree[p] for p in report.selected]
    else:
        model.tree.freeze_all()
        selection = {"strategy": "frozen", "paths": [], "trainable": 0,
                     "total": model.tree.total_scalars(), "fraction": 0.0}
        trainable = []

    traced = [p for p in selection["paths"] if "norm" in p]
    opt = Adam(trainable, weight_decay=config.weight_decay)
    rng = np.random.default_rng(config.seed)
    record = RunRecord(
        config={**asdict(config), "strategy": selection["strategy"]},
        selection=selection, train_curve=[], eval_curve=[],
        final_eval=None, wall_clock=0.0)
    started = time.perf_counter()

    for step in range(config.steps):
        lr = lr_schedule(step + 1, config.steps, config.warmup_ratio, config.lr)
        idx = rng.integers(0, len(train_ds), size=config.batch)
        tokens, feats, targets = _batches(train_ds, idx)
        loss = model.loss(tokens, feats, targets)
        loss_val = float(loss.data)
        record.train_curve.append((step, loss_val, lr))
        if not math.isfinite(loss_val):
            record.aborted = True
            record.diagnostic = {"step": step, "loss": repr(loss_val),
                                 "reason": "non-finite training loss"}
            break
        ag.backward(loss)
        if trace is not None and step % trace_every == 0 and traced:
            trace.record(step, model.tree, traced)
        opt.step(lr)
        opt.zero_grad()
        if (config.eval_interval and eval_ds is not None
                and (step + 1) % config.eval_interval == 0
                and step + 1 < config.steps):
            record.eval_curve.append((step + 1, evaluate(model, eval_ds)))

    if injected:
        merge_lora(model)
    if eval_ds is not None and not record.aborted:
        record.final_eval = evaluate(model, eval_ds)
        record.eval_curve.append((config.steps, record.final_eval))
    record.wall_clock = time.perf_counter() - started

    if outdir is not None:
        _write_artifacts(record, model, outdir, trace)
    return record


def _write_artifacts(record: RunRecord, model: Model, outdir, trace):
    from pathlib import Path
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    metrics = out / "metrics.csv"
    with open(metrics, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["step", "split", "loss", "lr"])
        for step, loss, lr in record.train_curve:
            w.writerow([step, "train", repr(loss), repr(lr)])
        for step, loss in record.eval_curve:
            w.writerow([step, "eval", repr(loss), ""])
    ckpt = out / "model.ckpt"
    save_checkpoint(model, ckpt)
    record.artifacts["metrics"] = str(metrics)
    record.artifacts["checkpoint"] = str(ckpt)
    if trace is not None and trace.entries:
        trace_path = out / "gradtrace.csv"
        with open(trace_path, "w", newline="") as f:
            trace.to_csv(f)
        record.artifacts["gradtrace"] = str(trace_path)
    run_json = out / "run.json"
    run_json.write_text(record.to_json())
    record.artifacts["run"] = str(run_json)


@dataclass
class SweepResult:
    rows: list              # (lr, final_eval)
    best_lr: float
    best_loss: float
    records: list


def sweep_lr(grid, model_factory, strategy, train_ds, eval_ds,
             config: TrainConfig) -> SweepResult:
    """One run per grid point, shared seed; ties break toward the smaller lr."""
    if isinstance(grid, str):
        grid = LR_GRIDS[grid]
    grid = list(grid)
    if not grid:
        raise ValueError("empty learning-rate grid")
    rows, records = [], []
    for lr in grid:
        model = model_factory()
        rec = train(model, strategy, train_ds, eval_ds, replace(config, lr=lr))
        loss = rec.final_eval if rec.final_eval is not None else math.inf
        rows.append((lr, loss))
        records.append(rec)
    best_lr, best_loss = min(rows, key=lambda r: (r[1], r[0]))
    return SweepResult(rows=rows, best_lr=best_lr, best_loss=best_loss,
                       records=records)


# Per-strategy stage-2 learning rates, picked by sweep at the toy scale.
# The tiny gain-only selection wants a much hotter lr than full finetuning.
DEFAULT_ADAPT_LRS = {
    "finetune": 6e-4,
    "lora": 1e-3,
    "attn-qv": 6e-4,
    "attn-mlp": 6e-4,
    "layernorm": 2e-3,
    "layernorm-simple": 1e-2,
    "connector-only": 2e-3,
}


@dataclass
class AdaptProtocol:
    """Everything the two-stage comparison experiment needs, in one place."""
    model: ModelConfig = field(default_factory=ModelConfig)
    n_train: int = 4096
    n_eval: int = 512
    pretrain_seq_len: int = 20
    adapt_seq_len: int = 12
    mixture: tuple = (1 / 3, 1 / 3, 1 / 3)
    n_attrs: int = 4
    n_values: int = 16
    stub_mode: str = "aligned"
    noise_std: float = 0.05
    pretrain_steps: int = 2000
    pretrain_lr: float = 1e-3
    connector_steps: int = 200
    connector_lr: float = 2e-3  # stage-1 default
    adapt_steps: int = 400
    adapt_lrs: dict = field(default_factory=lambda: dict(DEFAULT_ADAPT_LRS))
    batch: int = 32
    seed: int = 0

    def stub(self) -> VisionStub:
        return VisionStub(d_visual=self.model.d_visual,
                          n_slots=self.n_attrs * self.n_values,
                          mode=self.stub_mode, seed=dt._DEFAULT_STUB_SEED,
                          noise_std=self.noise_std)

    def dataset(self, kind, n, seed) -> dt.Dataset:
        """n samples of task `kind`; the one place that knows the data recipe."""
        text = kind == "text-pretrain"
        seq_len = self.pretrain_seq_len if text else self.adapt_seq_len
        spec = dt.TaskSpec(kind=kind, n_samples=n, seq_len=seq_len,
                           mixture=self.mixture, n_attrs=self.n_attrs,
                           n_values=self.n_values, seed=seed)
        return dt.generate(spec, None if text else self.stub())

    def eval_dataset(self, kind):
        """Held-out split of `kind`; compare, train, sweep-lr, grad-stats score it."""
        return self.dataset(kind, self.n_eval, self.seed + 3000)

    def text_dataset(self):
        return self.dataset("text-pretrain", self.n_train, self.seed + 1000)

    def mm_datasets(self):
        return (self.dataset("mm-adapt", self.n_train, self.seed + 2000),
                self.eval_dataset("mm-adapt"))


def pretrain(protocol: AdaptProtocol, outdir=None):
    """Stage 0: teach the base model the retrieval task from text declarations."""
    model = build(protocol.model, seed=protocol.seed)
    ds = protocol.text_dataset()
    cfg = TrainConfig(lr=protocol.pretrain_lr, steps=protocol.pretrain_steps,
                      batch=protocol.batch, seed=protocol.seed)
    record = train(model, TuningStrategy("finetune"), ds, None, cfg, outdir=outdir)
    return model, record


@dataclass
class ComparisonRow:
    seed: int
    strategy: str
    final_eval: float
    gain: float
    fraction: float
    wall_clock: float


@dataclass
class ComparisonReport:
    rows: list
    protocol: dict

    def median_gain(self, strategy) -> float:
        gains = [r.gain for r in self.rows
                 if r.strategy == strategy and r.gain is not None]
        return float(np.median(gains)) if gains else None

    def to_csv(self, fileobj):
        w = csv.writer(fileobj)
        w.writerow(["seed", "strategy", "final_eval", "gain", "fraction",
                    "wall_clock"])
        for r in self.rows:
            w.writerow([r.seed, r.strategy, repr(r.final_eval),
                        "" if r.gain is None else repr(r.gain),
                        repr(r.fraction), f"{r.wall_clock:.2f}"])

    def to_json(self) -> str:
        return json.dumps({"protocol": self.protocol,
                           "rows": [asdict(r) for r in self.rows]},
                          indent=2, default=str)


def compare_strategies(strategy_names, protocol: AdaptProtocol, seeds=(0,),
                       base: Model = None) -> ComparisonReport:
    """Stage 1 (connector only) + stage 2 per strategy, per seed.

    Emits a frozen baseline row per seed (the stage-1 model, gain 0 by
    definition).  Gains require a finetune run in the same seed; rows from
    other strategies get gain=None when finetune is absent.  Every name and
    its stage-2 lr are checked before any training.
    """
    stage2 = [(name, TuningStrategy(name), protocol.adapt_lrs[name])
              for name in strategy_names]
    if base is None:
        base, _ = pretrain(protocol)
    mm_train, mm_eval = protocol.mm_datasets()
    rows = []
    for seed in seeds:
        stage1 = clone_model(base)
        cfg1 = TrainConfig(lr=protocol.connector_lr, steps=protocol.connector_steps,
                           batch=protocol.batch, seed=1000 * seed + 1)
        rec1 = train(stage1, TuningStrategy("connector-only"), mm_train, mm_eval, cfg1)
        loss_frozen = rec1.final_eval

        finals = {}
        clocks = {}
        fractions = {}
        for name, strategy, lr in stage2:
            model = clone_model(stage1)
            cfg2 = TrainConfig(lr=lr, steps=protocol.adapt_steps,
                               batch=protocol.batch, seed=1000 * seed + 2)
            rec = train(model, strategy, mm_train, mm_eval, cfg2)
            finals[name] = rec.final_eval
            clocks[name] = rec.wall_clock
            fractions[name] = rec.selection["fraction"]

        loss_ft = finals.get("finetune")
        denom = None if loss_ft is None else loss_frozen - loss_ft
        rows.append(ComparisonRow(seed=seed, strategy="frozen",
                                  final_eval=loss_frozen, gain=0.0,
                                  fraction=0.0, wall_clock=rec1.wall_clock))
        for name in strategy_names:
            gain = None
            if denom is not None and denom != 0:
                gain = (loss_frozen - finals[name]) / denom
            rows.append(ComparisonRow(seed=seed, strategy=name,
                                      final_eval=finals[name], gain=gain,
                                      fraction=fractions[name],
                                      wall_clock=clocks[name]))
    proto_dict = asdict(protocol)
    proto_dict["model"] = asdict(protocol.model)
    return ComparisonReport(rows=rows, protocol=proto_dict)
