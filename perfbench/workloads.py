"""The benchmark's three workloads: what each sets up and what one job runs.

Every workload derives all of its seeds from the one `--seed` it is given and
hands the library only generated inputs.  A job is one closed-loop training
run with a single caller; it returns the held-out losses it produced and any
checks particular to the workload.
"""

from __future__ import annotations

from dataclasses import dataclass

from normadapt import model as md
from normadapt import training as tr
from normadapt.analysis import GradTrace
from normadapt.strategies import TuningStrategy

# The acceptance tests' MICRO model (tests/test_acceptance.py); the self-test size.
MICRO = dict(n_layers=2, d_model=32, n_heads=2, d_ff=64, vocab_size=96,
             max_seq=32, norm_kind="standard", n_visual_tokens=4, d_visual=8)


@dataclass(frozen=True)
class Size:
    model: dict              # ModelConfig overrides; {} is the default model
    batch: int
    n_train: int
    n_eval: int              # finetune-train and normtune-probe
    protocol_n_eval: int
    pretrain_steps: int      # connector and adapt stages keep the gate's 2000:200:400
    finetune_steps: int
    probe_steps: int
    probe_eval_interval: int


SIZES = {
    # At one thread on a 2-vCPU x86 box a protocol job takes about 3.3 s and
    # the others about 1.4 s, so a 40 s run holds 8-10 or about 25 jobs: the
    # run's medians rest on many samples rather than three or four.
    "full": Size(model={}, batch=32, n_train=4096, n_eval=64, protocol_n_eval=64,
                 pretrain_steps=10, finetune_steps=10, probe_steps=12,
                 probe_eval_interval=3),
    "micro": Size(model=MICRO, batch=8, n_train=64, n_eval=32, protocol_n_eval=16,
                  pretrain_steps=40, finetune_steps=6, probe_steps=6,
                  probe_eval_interval=2),
}


@dataclass
class JobResult:
    losses: dict             # strategy -> final held-out loss (nats)
    checks: list             # (description, passed) particular to the workload


class Workload:
    name = ""
    tuned = ()               # strategies whose held-out loss the job reports
    jobs_per_lap = 3         # jobs run on each set-up

    def __init__(self, size: Size, seed: int):
        self.size = size
        self.seed = seed
        self.protocol = tr.AdaptProtocol(
            model=md.ModelConfig(**size.model), n_train=size.n_train,
            n_eval=size.n_eval, batch=size.batch, seed=seed)

    def setup(self):
        """Generate the datasets and build the initial model: what setup_s times."""
        train_ds, eval_ds = self.protocol.mm_datasets()
        return md.build(self.protocol.model, seed=self.seed), train_ds, eval_ds

    def frozen_loss(self, inputs):
        """Held-out loss of the untrained model; not timed."""
        base, _, eval_ds = inputs
        return tr.evaluate(base, eval_ds)

    def job(self, inputs) -> JobResult:
        raise NotImplementedError


class Protocol(Workload):
    """A shortened `test_toy_adaptation_gains` for one seed."""
    name = "protocol"
    tuned = ("finetune", "layernorm", "layernorm-simple")
    jobs_per_lap = 1         # a job is three times as long as the others'

    def __init__(self, size, seed):
        super().__init__(size, seed)
        p = self.protocol
        p.n_eval = size.protocol_n_eval
        p.pretrain_steps = size.pretrain_steps
        p.connector_steps = size.pretrain_steps // 10
        p.adapt_steps = size.pretrain_steps // 5

    def setup(self):
        # the same generation and build that pretrain and compare_strategies
        # repeat inside the job, as `normadapt compare` does
        text = self.protocol.text_dataset()
        return super().setup() + (text,)

    def frozen_loss(self, inputs):
        return None  # the comparison's stage-1 row

    def job(self, inputs):
        base, _ = tr.pretrain(self.protocol)
        report = tr.compare_strategies(list(self.tuned), self.protocol,
                                       seeds=(self.seed,), base=base)
        losses = {r.strategy: r.final_eval for r in report.rows}
        return JobResult(losses, [
            ("finetune held-out loss below frozen",
             losses["finetune"] < losses["frozen"])])


class FinetuneTrain(Workload):
    """One long full-finetune stage on mm-adapt with one final eval."""
    name = "finetune-train"
    tuned = ("finetune",)

    def job(self, inputs):
        base, train_ds, eval_ds = inputs
        cfg = tr.TrainConfig(lr=tr.DEFAULT_ADAPT_LRS["finetune"],
                             steps=self.size.finetune_steps,
                             batch=self.size.batch, seed=self.seed)
        rec = tr.train(tr.clone_model(base), TuningStrategy("finetune"),
                       train_ds, eval_ds, cfg)
        return JobResult({"finetune": rec.final_eval}, [])


class NormtuneProbe(Workload):
    """layernorm-simple with a grad trace every step and periodic held-out evals,
    as `grad-stats --trace-every 1` and `train --eval-interval` run them."""
    name = "normtune-probe"
    tuned = ("layernorm-simple",)

    def job(self, inputs):
        base, train_ds, eval_ds = inputs
        steps = self.size.probe_steps
        cfg = tr.TrainConfig(lr=tr.DEFAULT_ADAPT_LRS["layernorm-simple"],
                             steps=steps, batch=self.size.batch, seed=self.seed,
                             eval_interval=self.size.probe_eval_interval)
        trace = GradTrace()
        rec = tr.train(tr.clone_model(base), TuningStrategy("layernorm-simple"),
                       train_ds, eval_ds, cfg, trace=trace, trace_every=1)
        want_evals = (steps - 1) // self.size.probe_eval_interval + 1
        return JobResult({"layernorm-simple": rec.final_eval}, [
            ("grad trace recorded every step", trace.steps == list(range(steps))),
            ("held-out eval at every interval and the end",
             len(rec.eval_curve) == want_evals)])


WORKLOADS = {w.name: w for w in (Protocol, FinetuneTrain, NormtuneProbe)}
