"""normadapt benchmark: three training workloads, end to end and per layer.

    python3 perfbench/run.py --workload protocol --seed 1 --seconds 40 --trace 0

Runs from the root of a source checkout and imports the library from `src/`.
BLAS and OpenMP threads are pinned to 1 before numpy loads, and the loaded
OpenBLAS is asked to confirm it.  The load is a closed loop with one caller,
the training loop: a job starts when the previous one has returned.

A run repeats laps for `--seconds` seconds, starting another only while it
is expected to finish in time.  A lap sets the workload up once (dataset
generation plus model build) and runs the workload's `jobs_per_lap`
fixed-size jobs on that set-up.  Every figure is the median over the run's
set-ups or jobs.

End-to-end timings are read from the process CPU clock.  The job is one
thread that never waits on I/O (BLAS pinned to one thread), so its CPU time
is its time to result on a core it has to itself; unlike the wall clock, it
leaves out the time the shared host gives that core to someone else, which
made wall-clock figures of the same code spread by a third between runs.
Wall times of every job are kept in the result file.

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  protocol        shortened two-stage gate: pretrain, connector, then
                  finetune / layernorm / layernorm-simple, one seed
  finetune-train  one full-finetune stage on mm-adapt
  normtune-probe  layernorm-simple with a grad trace every step and
                  held-out evals at an interval

End-to-end metrics (`--trace 0`; spans only around train and evaluate):
  setup_s                 median set-up time (CPU)
  job_cpu_s               median job time, set-up excluded (CPU)
  train_tokens_per_cpu_s  batch x positions per training step, over CPU time
                          in training.train outside training.evaluate
  eval_tokens_per_cpu_s   held-out positions over CPU time in
                          training.evaluate
  heldout_loss.frozen     held-out loss of the untuned model (protocol: stage 1)
  heldout_loss.tuned      mean final held-out loss of the strategies trained
  peak_rss_mb             peak resident memory of the process

Per-layer metrics (`--trace 1`): each lap adds a traced set-up and a traced
job, which record a span at every public boundary listed in spans.py, on the
wall clock.
Unless its name says otherwise, a metric is the job's total divided by its
training steps: `*_ms` is ms per training step, `*_s` is seconds per job
(`data.generate_s` and `model.build_s` per traced set-up), and the counts are
per training step.  `training.clone_model_ms` and
`strategies.select_trainable_ms` are per call.  Self time is a span's
duration minus what its children cover.  The table, the spans and the full
result go to perfbench/out/.

The last line of standard output is the JSON result; `attempted` counts the
correctness checks made and `failed` those that did not hold.
"""

import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NORMADAPT_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"

# op kinds the default model runs, each with its own fwd/bwd row
KINDS = ("matmul", "add", "mul", "embed_lookup", "softmax", "silu", "layer_norm",
         "cross_entropy", "transpose", "reshape", "concat")
MODULES = ("data", "model", "autograd", "strategies", "training", "analysis", "bench")


def _import_library():
    """Put the checkout's own src/ first; refuse any other copy of normadapt."""
    if not (SRC / "normadapt" / "__init__.py").is_file():
        sys.exit(f"perfbench: no normadapt sources under {SRC}")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import normadapt
    if Path(normadapt.__file__).resolve().parent != SRC / "normadapt":
        sys.exit(f"perfbench: imported normadapt from {normadapt.__file__}, not {SRC}")


class Checks:
    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, what, ok):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


def _git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None  # not a git checkout


def _openblas():
    """(runtime config string, thread count) of the loaded OpenBLAS, or Nones."""
    with open("/proc/self/maps") as f:
        libs = sorted({line.split()[-1] for line in f
                       if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix, suffix in (("scipy_", "64_"), ("", "64_"), ("scipy_", ""), ("", "")):
            threads = getattr(lib, f"{prefix}openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"{prefix}openblas_get_config{suffix}", None)
            if threads is not None and config is not None:
                threads.restype = ctypes.c_int
                config.restype = ctypes.c_char_p
                return config().decode(), threads()
    return None, None


def environment():
    import numpy as np
    config, threads = _openblas()
    return {"git_sha": _git_sha(), "python": platform.python_version(),
            "numpy": np.__version__, "openblas": config, "blas_threads": threads,
            "nproc": len(os.sched_getaffinity(0))}


def _sums(rec):
    dur, count = {}, {}
    for s in rec.spans:
        dur[s.name] = dur.get(s.name, 0.0) + s.dur
        count[s.name] = count.get(s.name, 0) + 1
    return dur, count


def job_figures(rec):
    """End-to-end figures of one job from its train/evaluate spans, on the
    process CPU clock where the recorder kept it and the wall clock if not."""
    spans = rec.spans

    def dur(s):
        return s.cpu_dur if rec.cpu else s.dur

    trains = {i for i, s in enumerate(spans) if s.name == "training.train"}
    evals = [s for s in spans if s.name == "training.evaluate"]
    train_s = (sum(dur(spans[i]) for i in trains)
               - sum(dur(s) for s in evals if s.parent in trains))
    eval_s = sum(dur(s) for s in evals)
    return {
        "wall_s": spans[0].dur,
        "job_cpu_s": dur(spans[0]),
        "train_tokens_per_s": sum(spans[i].info["tokens"] for i in trains) / train_s,
        "eval_tokens_per_s": sum(s.info["tokens"] for s in evals) / eval_s,
        "records": [spans[i].info["record"] for i in sorted(trains)],
    }


def layer_metrics(rec, setup_rec):
    """Per-layer metrics of one traced job (see the module docstring)."""
    from perfbench.spans import self_times
    spans = rec.spans
    selfs = self_times(spans)
    dur, count = _sums(rec)
    self_by_name = {}
    for i, s in enumerate(spans):
        self_by_name[s.name] = self_by_name.get(s.name, 0.0) + selfs[i]
    steps = count.get("training.adam_step", 0)

    def per_step_ms(seconds):
        return 1000.0 * seconds / steps

    def per_call_ms(name):
        return 1000.0 * dur.get(name, 0.0) / count[name] if count.get(name) else 0.0

    m = {}
    for kind in KINDS:
        for phase in ("fwd", "bwd"):
            m[f"autograd.{kind}.{phase}_ms"] = per_step_ms(
                dur.get(f"autograd.{kind}.{phase}", 0.0))
    infos = [s.info for s in spans if s.info]
    flops = sum(i.get("flops", 0) for i in infos)
    matmul_s = dur.get("autograd.matmul.fwd", 0.0) + dur.get("autograd.matmul.bwd", 0.0)
    m["autograd.tape_nodes"] = sum(i.get("tape_node", 0) for i in infos) / steps
    m["autograd.matmul.calls"] = count.get("autograd.matmul.fwd", 0) / steps
    m["autograd.matmul.gflop"] = flops / 1e9 / steps
    m["autograd.matmul.gflop_per_s"] = flops / 1e9 / matmul_s
    m["autograd.backward.self_ms"] = per_step_ms(self_by_name.get("autograd.backward", 0.0))
    m["model.forward.self_ms"] = per_step_ms(self_by_name.get("model.forward", 0.0))
    m["training.train.self_ms"] = per_step_ms(self_by_name.get("training.train", 0.0))
    m["training.adam_step_ms"] = per_step_ms(dur.get("training.adam_step", 0.0))
    m["model.forward_nograd_ms"] = per_step_ms(dur.get("model.forward_nograd", 0.0))
    m["training.evaluate_s"] = dur.get("training.evaluate", 0.0)

    # a step runs from its grad-mode forward to the end of its optimizer update
    latencies, fwd_start = [], {}
    for s in spans:
        if s.name == "model.forward":
            fwd_start[s.parent] = s.start
        elif s.name == "training.adam_step":
            latencies.append(1000.0 * (s.end - fwd_start[s.parent]))
    p = statistics.quantiles(latencies, n=10, method="inclusive")
    m["training.step_ms.p50"] = statistics.median(latencies)
    m["training.step_ms.p90"] = p[8]

    m["training.pretrain_s"] = dur.get("training.pretrain", 0.0)
    m["training.compare_strategies_s"] = dur.get("training.compare_strategies", 0.0)
    m["training.clone_model_ms"] = per_call_ms("training.clone_model")
    setup_dur, _ = _sums(setup_rec)
    m["data.generate_s"] = setup_dur.get("data.generate", 0.0)
    m["model.build_s"] = setup_dur.get("model.build", 0.0)
    m["strategies.select_trainable_ms"] = per_call_ms("strategies.select_trainable")
    m["strategies.trainable_scalars"] = sum(
        s.info["record"].selection["trainable"]
        for s in spans if s.name == "training.train")
    m["analysis.grad_trace_record_ms"] = per_step_ms(
        dur.get("analysis.grad_trace_record", 0.0))
    for module in MODULES:
        m[f"module.{module}.self_ms"] = per_step_ms(sum(
            t for name, t in self_by_name.items() if name.split(".")[0] == module))
    return m, steps, sum(selfs)


# time metrics that are not a share of the traced job: latencies, per-call
# means, set-up figures and the tracing overhead
NO_SHARE = ("training.step_ms.p50", "training.step_ms.p90", "training.clone_model_ms",
            "strategies.select_trainable_ms", "data.generate_s", "model.build_s",
            "trace.overhead_s")


def write_table(path, metrics, units, wall_s, steps):
    """Per-layer table with each time metric's share of the traced job."""
    lines = [f"{'metric':40s} {'value':>14s} {'unit':10s} share_of_wall",
             f"{'(traced job)':40s} {wall_s:14.4f} {'s':10s} {steps} training steps"]
    for name, value in metrics.items():
        unit = units[name]
        share = None if name in NO_SHARE else {"ms": value * steps / 1000.0,
                                                "s": value}.get(unit)
        shown = "" if share is None else f"{100.0 * share / wall_s:6.2f}%"
        lines.append(f"{name:40s} {value:14.6g} {unit:10s} {shown}")
    path.write_text("\n".join(lines) + "\n")


def write_spans(path, rec):
    t0 = rec.spans[0].start
    with open(path, "w") as f:
        f.write("run,index,name,start_s,end_s,parent\n")
        for i, s in enumerate(rec.spans):
            f.write(f"{s.run},{i},{s.name},{s.start - t0:.9f},{s.end - t0:.9f},{s.parent}\n")


def check_job(checks, wl, result, records, reference):
    """Correctness of one job; `reference` is the first job's losses."""
    from normadapt import budget
    from normadapt.strategies import TuningStrategy
    preset = budget.preset_from_config(wl.protocol.model)
    for r in records:
        kind = r.selection["strategy"]
        checks.add(f"{kind}: run not aborted", not r.aborted)
        checks.add(f"{kind}: every loss finite",
                   all(math.isfinite(loss) for _, loss, _ in r.train_curve)
                   and (r.final_eval is None or math.isfinite(r.final_eval)))
        want = budget.count(preset, TuningStrategy(kind)).trainable
        checks.add(f"{kind}: trainable scalars {r.selection['trainable']} == "
                   f"budget {want}", r.selection["trainable"] == want)
    for what, ok in result.checks:
        checks.add(what, ok)
    if reference is not None:
        same = {k: v.hex() for k, v in result.losses.items()} == \
               {k: v.hex() for k, v in reference.items()}
        checks.add("held-out losses bitwise equal to the first, untraced job's", same)


def run(args):
    _import_library()
    from perfbench import spans, workloads

    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"known: {', '.join(workloads.WORKLOADS)}")
    checks = Checks()
    env = environment()
    checks.add("BLAS reports one thread", env["blas_threads"] in (1, None))
    wl = workloads.WORKLOADS[args.workload](workloads.SIZES[args.size], args.seed)

    run_ids = itertools.count()

    def one(traced, what, *call_args):
        rec = spans.Recorder(run=next(run_ids), cpu=not traced)
        patches = spans.trace_patches(rec) if traced else spans.meter_patches(rec)
        with spans.installed(patches), rec.span(f"bench.{what.__name__}"):
            result = what(*call_args)
        return rec, result

    setup_times, setup_recs, plain, traced = [], [], [], []
    frozen = reference = None
    started = time.perf_counter()
    while True:
        lap = time.perf_counter()
        # one set-up per lap spreads the set-ups over the run, so their
        # figure sees the same host as the jobs' figures
        rec, inputs = one(False, wl.setup)
        setup_times.append(rec.spans[0].cpu_dur)
        if frozen is None:
            frozen = wl.frozen_loss(inputs)
        for is_traced in (False,) * wl.jobs_per_lap + (True,) * args.trace:
            sink = traced if is_traced else plain
            if is_traced:
                rec, traced_inputs = one(True, wl.setup)
                setup_recs.append(rec)
                rec, result = one(True, wl.job, traced_inputs)
            else:
                rec, result = one(False, wl.job, inputs)
            if frozen is not None:
                result.losses["frozen"] = frozen
            figures = job_figures(rec)
            check_job(checks, wl, result, figures["records"], reference)
            reference = reference or result.losses
            sink.append((rec, figures))
        now = time.perf_counter()
        if (now - started) + (now - lap) > args.seconds:
            break

    losses = reference
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    detail = {"workload": wl.name, "seed": args.seed, "size": args.size,
              "trace": args.trace, "env": env, "jobs": len(plain),
              "heldout_loss": losses, "failed_checks": checks.failures,
              "setup_s": setup_times, "wall_s": [f["wall_s"] for _, f in plain]}
    if args.trace:
        rec, figures = traced[0]
        metrics, steps, self_sum = layer_metrics(rec, setup_recs[0])
        metrics["trace.overhead_s"] = (statistics.median([f["wall_s"] for _, f in traced])
                                       - statistics.median([f["wall_s"] for _, f in plain]))
        detail["traced_wall_s"] = figures["wall_s"]
        detail["self_time_sum_s"] = self_sum
        stem = f"{wl.name}-seed{args.seed}"
        OUT.mkdir(parents=True, exist_ok=True)
        write_table(OUT / f"{stem}-table.txt", metrics, units, figures["wall_s"], steps)
        write_spans(OUT / f"{stem}-spans.csv", rec)
    else:
        tuned = [losses[name] for name in wl.tuned]
        per_job = {k: [f[k] for _, f in plain]
                   for k in ("job_cpu_s", "train_tokens_per_s", "eval_tokens_per_s")}
        detail.update(per_job)
        metrics = {
            "setup_s": statistics.median(setup_times),
            "job_cpu_s": statistics.median(per_job["job_cpu_s"]),
            "train_tokens_per_cpu_s": statistics.median(per_job["train_tokens_per_s"]),
            "eval_tokens_per_cpu_s": statistics.median(per_job["eval_tokens_per_s"]),
            "heldout_loss.frozen": losses["frozen"],
            "heldout_loss.tuned": sum(tuned) / len(tuned),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    OUT.mkdir(parents=True, exist_ok=True)
    detail["metrics"] = metrics
    (OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=2))
    print(json.dumps({k: detail[k] for k in ("env", "heldout_loss", "failed_checks")}))
    print(json.dumps({
        "correct": not checks.failures, "attempted": checks.attempted,
        "failed": len(checks.failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "micro"), default="full",
                   help="micro: the acceptance tests' MICRO model, for the self-test")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


if __name__ == "__main__":
    run(_parse(sys.argv[1:]))
