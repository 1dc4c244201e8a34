"""Training loop, LR schedule, sweeps, and the two-stage adaptation protocol.

Protocol: a text-pretrained base first learns the retrieval task from token
declarations; adaptation then swaps declarations for connector-projected
visual features.  Stage 1 trains the connector alone; stage 2 applies the
strategy under comparison.  Adaptation gain for a strategy is

    (loss_frozen - loss_strategy) / (loss_frozen - loss_finetune)

on held-out visual-task loss, where "frozen" is the stage-1 model untouched.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import time
from dataclasses import dataclass, field, asdict, replace
from pathlib import Path

import numpy as np

from . import autograd as ag
from . import data as dt
from .analysis import GradTrace
from .model import Model, ModelConfig, build, lora_targets, save_checkpoint
from .strategies import (TuningStrategy, inject_lora, merge_lora, norm_paths,
                         select_trainable)

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
    """Adam over a list of tensors.

    `step` updates each `p.data` in place, so an array a caller kept of a
    parameter changes with it; copy it to keep a snapshot.  A read-only
    `p.data` (a `clone_model` view) is replaced by its own copy when the
    optimizer is built, so the clone's source is never written.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params):
        self.params = list(params)
        for p in self.params:
            if not p.data.flags.writeable:  # a clone's view of its source
                p.data = p.data.copy()
        self.m = [np.zeros_like(t.data) for t in self.params]
        self.v = [np.zeros_like(t.data) for t in self.params]
        self.t = 0
        # two scratch buffers per dtype, as large as its largest parameter,
        # and each parameter's views of them
        sizes = {}
        for t in self.params:
            sizes[t.dtype] = max(sizes.get(t.dtype, 0), t.size)
        buffers = {d: (np.empty(n, d), np.empty(n, d)) for d, n in sizes.items()}
        self._scratch = [tuple(buf[:t.size].reshape(t.shape) for buf in buffers[t.dtype])
                         for t in self.params]

    def zero_grad(self):
        for p in self.params:
            p.grad = None

    def step(self, lr):
        """One update of every parameter with a gradient, written into `m`,
        `v` and `p.data`; each temporary lives in the scratch buffers."""
        self.t += 1
        b1c = 1.0 - self.beta1 ** self.t
        b2c = 1.0 - self.beta2 ** self.t
        for p, m, v, (a, b) in zip(self.params, self.m, self.v, self._scratch):
            g = p.grad
            if g is None:  # parameter absent from this step's graph
                continue
            m *= self.beta1
            m += np.multiply(1.0 - self.beta1, g, out=a)
            v *= self.beta2
            np.multiply(g, g, out=a)
            a *= 1.0 - self.beta2
            v += a
            if lr == 0.0:
                continue  # keep the lr=0 null update bitwise exact
            np.divide(m, b1c, out=a)
            np.divide(v, b2c, out=b)
            np.sqrt(b, out=b)
            b += self.eps
            a /= b
            a *= lr
            p.data -= a


@dataclass
class TrainConfig:
    lr: float
    steps: int
    batch: int = 32
    warmup_ratio: float = 0.03
    seed: int = 0
    eval_interval: int = 0  # 0: evaluate at the end only

    def __post_init__(self):
        if not 0.0 <= self.warmup_ratio < 1.0:
            raise ValueError(f"warmup_ratio must be in [0, 1), got {self.warmup_ratio}")
        _check_rate("lr", self.lr)
        for name, low in (("steps", 0), ("batch", 1), ("eval_interval", 0),
                          ("seed", 0)):
            ag.check_count(name, getattr(self, name), low)


def _check_rate(name, value):
    if not (math.isfinite(value) and value >= 0):
        raise ValueError(f"{name} must be finite and >= 0, got {value}")


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
    ag.check_count("batch", batch, 1)
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
    """Fresh tensors over read-only views of every parameter array (adapters
    included), flags and dtype kept.

    Nothing is copied: an in-place write to a clone's array raises, and
    `Adam` gives each parameter it updates its own copy first, so training
    the clone never touches the source.  A later in-place write to the
    source shows through the clone, so clone after the source's last write.
    """
    tree = {}
    for p, t in model.tree.items():
        view = t.data.view()
        view.flags.writeable = False
        tree[p] = ag.tensor(view, requires_grad=t.requires_grad)
    return Model(model.config, tree, model.dtype)


def train(model: Model, strategy: TuningStrategy, train_ds: dt.Dataset, eval_ds,
          config: TrainConfig, outdir=None, trace: GradTrace = None,
          trace_every: int = 10) -> RunRecord:
    """Run one training stage.

    A LoRA strategy on a model without adapters injects them and folds them
    back into the base weights at the end; adapters the caller injected are
    trained and left for the caller to merge, so with an outdir, whose
    checkpoint cannot hold them, they are refused before the first step.
    A trace records the selected norm parameters every `trace_every` steps;
    a strategy that trains none is refused before anything runs.  The outdir
    is made after those checks and before the first step.
    Non-finite loss aborts the run and flags the record instead of raising.
    A step after the schedule's last nonzero lr (a run's last step, or every
    step at lr 0) can change no parameter, so it runs its forward under
    `no_grad` and records the loss only, unless the trace records that step.
    """
    ag.check_count("trace_every", trace_every, 1)
    if trace is not None and not norm_paths(strategy, model.tree):
        raise ValueError(f"strategy {strategy.kind!r} trains no norm parameter, "
                         "so there are no norm gradients to trace")
    if outdir is not None and lora_targets(model.tree):
        raise ValueError("model has unmerged adapters, which a checkpoint cannot "
                         "hold; merge them or train without outdir")
    if train_ds.vocab_required > model.config.vocab_size:
        raise ValueError(f"task needs vocab {train_ds.vocab_required}, "
                         f"model has {model.config.vocab_size}")
    if outdir is not None:
        Path(outdir).mkdir(parents=True, exist_ok=True)
    injected = []
    if strategy.kind == "lora" and not lora_targets(model.tree):
        injected = inject_lora(model, rank=strategy.lora_rank, seed=config.seed)
    report = select_trainable(strategy, model.tree)
    traced = norm_paths(strategy, report.selected)
    opt = Adam([model.tree[p] for p in report.selected])
    rng = np.random.default_rng(config.seed)
    record = RunRecord(
        config={**asdict(config), "strategy": strategy.kind},
        selection={"strategy": strategy.kind, "paths": list(report.selected),
                   "trainable": report.trainable, "total": report.total,
                   "fraction": report.fraction},
        train_curve=[], eval_curve=[], final_eval=None, wall_clock=0.0)
    lrs = [lr_schedule(step + 1, config.steps, config.warmup_ratio, config.lr)
           for step in range(config.steps)]
    # steps before `live` update (a zero lr inside the warm-up, from a
    # subnormal base lr, still feeds the moments that later updates read)
    live = max((step + 1 for step, lr in enumerate(lrs) if lr != 0.0), default=0)
    started = time.perf_counter()

    for step, lr in enumerate(lrs):
        idx = rng.integers(0, len(train_ds), size=config.batch)
        tokens, feats, targets = _batches(train_ds, idx)
        traced_step = trace is not None and step % trace_every == 0
        backprop = step < live or traced_step
        with contextlib.nullcontext() if backprop else ag.no_grad():
            loss = model.loss(tokens, feats, targets)
        loss_val = float(loss.data)
        record.train_curve.append((step, loss_val, lr))
        if not math.isfinite(loss_val):
            record.aborted = True
            record.diagnostic = {"step": step, "loss": repr(loss_val),
                                 "reason": "non-finite training loss"}
            break
        if backprop:
            ag.backward(loss)
            if traced_step:
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
    out = Path(outdir)
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
    if trace is not None:
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


def sweep_lr(grid, base: Model, strategy, train_ds, eval_ds,
             config: TrainConfig) -> SweepResult:
    """One run per grid point, each on a clone of `base`, shared seed; ties
    break toward the smaller lr.  Every grid point is checked before the
    first run."""
    grid = list(grid)
    if not grid:
        raise ValueError("empty learning-rate grid")
    if len(set(grid)) < len(grid):
        raise ValueError(f"repeated lr in {grid}")
    configs = [replace(config, lr=lr) for lr in grid]
    rows = []
    for cfg in configs:
        rec = train(clone_model(base), strategy, train_ds, eval_ds, cfg)
        loss = rec.final_eval if rec.final_eval is not None else math.inf
        rows.append((cfg.lr, loss))
    best_lr, best_loss = min(rows, key=lambda r: (r[1], r[0]))
    return SweepResult(rows=rows, best_lr=best_lr, best_loss=best_loss)


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
PRETRAIN_LR = 1e-3  # stage 0
CONNECTOR_LR = 2e-3  # stage 1


@dataclass
class AdaptProtocol:
    """Everything the two-stage comparison experiment needs, in one place;
    the task has one attribute per visual token of `model` and features of
    its `d_visual` width, and each stage's lr is a module constant."""
    model: ModelConfig = field(default_factory=ModelConfig)
    n_train: int = 4096
    n_eval: int = 512
    mixture: tuple = (1 / 3, 1 / 3, 1 / 3)
    pretrain_steps: int = 2000
    connector_steps: int = 200
    adapt_steps: int = 400
    batch: int = 32
    seed: int = 0

    def __post_init__(self):
        # batch and the step counts by TrainConfig's rules, under this class's names
        for name, low in (("seed", 0), ("n_train", 1), ("n_eval", 1), ("batch", 1),
                          ("pretrain_steps", 0), ("connector_steps", 0),
                          ("adapt_steps", 0)):
            ag.check_count(name, getattr(self, name), low)
        vocab = dt.vocab_required(self.model.n_visual_tokens)
        if self.model.vocab_size < vocab:
            raise ValueError(f"model vocab_size {self.model.vocab_size} is below "
                             f"the task's vocab {vocab}")
        specs = [self._spec(kind, self.n_eval, 0)  # refusals in TaskSpec's words
                 for kind in dt.TASK_KINDS]
        # the model reads an mm-adapt sample's visual prefix and text as one sequence
        length = max(s.seq_len + (s.kind == "mm-adapt") * s.n_attrs for s in specs)
        if self.model.max_seq < length:
            raise ValueError(f"model max_seq {self.model.max_seq} is below the "
                             f"task's sequence length {length}")
        # refuse before any work a seed whose split TaskSpec refuses; the
        # held-out split's seed + 3000 is the largest
        try:
            self._spec("mm-adapt", self.n_eval, self.seed + 3000)
        except ValueError as err:
            raise ValueError(f"seed {self.seed} too large: the held-out split's "
                             f"seed + 3000 is refused ({err})") from None

    def _spec(self, kind, n, seed) -> dt.TaskSpec:
        return dt.TaskSpec(kind=kind, n_samples=n, mixture=self.mixture,
                           n_attrs=self.model.n_visual_tokens, seed=seed,
                           d_visual=self.model.d_visual)

    def dataset(self, kind, n, seed) -> dt.Dataset:
        """n samples of task `kind`, sized to `model`; `data.generate` is the recipe."""
        return dt.generate(self._spec(kind, n, seed))

    def eval_dataset(self, kind):
        """Held-out split of `kind`; compare, train and sweep-lr score it."""
        return self.dataset(kind, self.n_eval, self.seed + 3000)

    def text_dataset(self):
        return self.dataset("text-pretrain", self.n_train, self.seed + 1000)

    def mm_datasets(self):
        return (self.dataset("mm-adapt", self.n_train, self.seed + 2000),
                self.eval_dataset("mm-adapt"))


def pretrain(protocol: AdaptProtocol):
    """Stage 0: teach the base model the retrieval task from text declarations."""
    cfg = TrainConfig(lr=PRETRAIN_LR, steps=protocol.pretrain_steps,
                      batch=protocol.batch, seed=protocol.seed)
    model = build(protocol.model, seed=protocol.seed)
    ds = protocol.text_dataset()
    record = train(model, TuningStrategy("finetune"), ds, None, cfg)
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
        for r in self.rows:  # an empty cell for a missing loss or gain
            loss, gain = ("" if x is None else repr(x) for x in (r.final_eval, r.gain))
            w.writerow([r.seed, r.strategy, loss, gain, repr(r.fraction),
                        f"{r.wall_clock:.2f}"])

    def to_json(self) -> str:
        return json.dumps({"protocol": self.protocol,
                           "rows": [asdict(r) for r in self.rows]},
                          indent=2, default=str)


def compare_strategies(strategy_names, protocol: AdaptProtocol, seeds=(0,),
                       base: Model = None, outdir=None) -> ComparisonReport:
    """Stage 1 (connector only) + stage 2 per strategy, per seed.

    Emits a frozen baseline row per seed (the stage-1 model, gain 0 by
    definition, None if stage 1 aborted).  A strategy's gain needs the seed's
    stage 1 and finetune: it is None when finetune is absent, or when its run,
    stage 1 or finetune aborted.  A negative or repeated seed, a repeated name
    and an unknown name are refused before the outdir is made and before any
    training; the outdir then gets `compare.csv` and `compare.json`.
    """
    seeds, strategy_names = list(seeds), list(strategy_names)
    for what, items in (("seed", seeds), ("strategy", strategy_names)):
        if len(set(items)) < len(items):
            raise ValueError(f"repeated {what} in {items}")
    for seed in seeds:
        ag.check_count("seed", seed)
    stage2 = [(name, TuningStrategy(name)) for name in strategy_names]
    if outdir is not None:
        Path(outdir).mkdir(parents=True, exist_ok=True)
    if base is None:
        base, _ = pretrain(protocol)
    mm_train, mm_eval = protocol.mm_datasets()
    rows = []
    for seed in seeds:
        stage1 = clone_model(base)
        cfg1 = TrainConfig(lr=CONNECTOR_LR, steps=protocol.connector_steps,
                           batch=protocol.batch, seed=1000 * seed + 1)
        rec1 = train(stage1, TuningStrategy("connector-only"), mm_train, mm_eval, cfg1)
        loss_frozen = rec1.final_eval

        records = {}
        for name, strategy in stage2:
            cfg2 = TrainConfig(lr=DEFAULT_ADAPT_LRS[name], steps=protocol.adapt_steps,
                               batch=protocol.batch, seed=1000 * seed + 2)
            records[name] = train(clone_model(stage1), strategy, mm_train,
                                  mm_eval, cfg2)

        loss_ft = records["finetune"].final_eval if "finetune" in records else None
        denom = None if None in (loss_frozen, loss_ft) else loss_frozen - loss_ft
        rows.append(ComparisonRow(seed=seed, strategy="frozen", final_eval=loss_frozen,
                                  gain=None if loss_frozen is None else 0.0,
                                  fraction=0.0, wall_clock=rec1.wall_clock))
        for name, rec in records.items():
            gain = None
            if denom and rec.final_eval is not None:
                gain = (loss_frozen - rec.final_eval) / denom
            rows.append(ComparisonRow(seed=seed, strategy=name,
                                      final_eval=rec.final_eval, gain=gain,
                                      fraction=rec.selection["fraction"],
                                      wall_clock=rec.wall_clock))
    report = ComparisonReport(rows=rows, protocol={  # its fields and constants
        **asdict(protocol), "n_values": dt.N_VALUES, "noise_std": dt.NOISE_STD,
        "pretrain_lr": PRETRAIN_LR, "connector_lr": CONNECTOR_LR,
        "adapt_lrs": dict(DEFAULT_ADAPT_LRS)})
    if outdir is not None:
        with open(Path(outdir) / "compare.csv", "w", newline="") as f:
            report.to_csv(f)
        (Path(outdir) / "compare.json").write_text(report.to_json())
    return report
