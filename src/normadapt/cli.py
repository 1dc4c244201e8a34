"""Command-line surface: train, sweep-lr, compare, budget, similarity,
grad-stats, normcheck.

Only stdlib imports happen at module level; NORMADAPT_THREADS must take
effect before numpy loads its BLAS backend.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

def _parse_mixture(value):
    parts = [float(w) for w in value.split(",")]
    if len(parts) != 3:
        raise ValueError(f"mixture needs 3 comma-separated weights, got {value!r}")
    return tuple(parts)


def _parse_int_list(value):
    """argparse type of `--seeds` and `--n-grid`: comma-separated
    non-negative integers, as a tuple."""
    if not all(s.strip().isdecimal() for s in value.split(",")):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated non-negative integers, got {value!r}")
    return tuple(map(int, value.split(",")))


# Every config key, with the argparse keywords of its flag (`--lora-rank` for
# `lora_rank`); a config-file value goes through the same `type`.
OPTIONS = {
    "strategy": {},
    "lr": {"type": float},
    "steps": {"type": int},
    "batch": {"type": int},
    "warmup_ratio": {"type": float},
    "weight_decay": {"type": float},
    "seed": {"type": int},
    "preset": {},
    "mixture": {"type": _parse_mixture},
    "norm_kind": {"choices": ("standard", "rms")},
    "lora_rank": {"type": int},
    "outdir": {},
}


def parse_config_file(path, keys=tuple(OPTIONS)):
    """Flat `key = value` text; # starts a comment; only `keys` allowed,
    each at most once."""
    opts, seen = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected `key = value`")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in keys:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r} "
                             f"(known: {', '.join(keys)})")
        if key in seen:
            raise ValueError(f"{path}:{lineno}: key {key!r} already set on "
                             f"line {seen[key]}")
        seen[key] = lineno
        try:
            opts[key] = OPTIONS[key].get("type", str)(value)
        except ValueError as err:
            raise ValueError(f"{path}:{lineno}: {err}") from None
    return opts


def _cap_threads():
    cap = os.environ.get("NORMADAPT_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = cap


def _add_options(p, names, **defaults):
    """Flags and config keys `names`; `defaults` are this command's own."""
    p.add_argument("--config", help="flat key = value config file "
                   f"(keys: {', '.join(names)})")
    for name in names:
        p.add_argument("--" + name.replace("_", "-"), dest=name, default=None,
                       **OPTIONS[name])
    p.set_defaults(option_names=tuple(names), option_defaults=defaults)


def _options(args):
    """Own defaults, then config-file values, then flags.  An option none of
    them sets is left out, so the library's default applies."""
    opts = dict(args.option_defaults)
    if args.config:
        opts.update(parse_config_file(args.config, args.option_names))
    for name in args.option_names:
        if getattr(args, name) is not None:
            opts[name] = getattr(args, name)
    return opts


def _given(opts, *names):
    """The options among `names` that are set, as keyword arguments."""
    return {name: opts[name] for name in names if name in opts}


def _strategy_from_opts(opts):
    from .strategies import TuningStrategy
    return TuningStrategy(opts.get("strategy", "layernorm"),
                          **_given(opts, "lora_rank"))


def _model_config(opts):
    from .model import ModelConfig
    return ModelConfig(**_given(opts, "norm_kind"))


def _train_config(opts, **fixed):
    from .training import TrainConfig
    return TrainConfig(**_given(opts, "lr", "steps", "batch", "warmup_ratio",
                                "weight_decay", "seed"), **fixed)


def _build_or_load(opts, init_from):
    """A fresh model, or the checkpoint at init_from if the options agree."""
    from .model import build, load_checkpoint
    if not init_from:
        return build(_model_config(opts), **_given(opts, "seed"))
    model = load_checkpoint(init_from)
    kind = opts.get("norm_kind")
    if kind is not None and kind != model.config.norm_kind:
        raise ValueError(f"norm_kind {kind!r} contradicts the checkpoint "
                         f"{init_from}, which has norm_kind "
                         f"{model.config.norm_kind!r}")
    return model


def _protocol(opts, **fields):
    """AdaptProtocol with the batch, seed and mixture options, and `fields`."""
    from . import training as tr
    return tr.AdaptProtocol(**_given(opts, "batch", "seed", "mixture"), **fields)


def _run_inputs(args, **fixed):
    """Options, TrainConfig, model, and (train, eval) splits of a training
    command; the splits come from the protocol's recipe, as `compare` uses it."""
    opts = _options(args)
    cfg = _train_config(opts, **fixed)
    model = _build_or_load(opts, args.init_from)
    protocol = _protocol(opts, model=model.config, n_train=args.n_samples,
                         n_eval=args.n_eval)
    if args.task == "mm-adapt":
        return opts, cfg, model, *protocol.mm_datasets()
    return opts, cfg, model, protocol.text_dataset(), protocol.eval_dataset(args.task)


def cmd_train(args):
    from . import training as tr
    opts, cfg, model, train_ds, eval_ds = _run_inputs(
        args, eval_interval=args.eval_interval)
    outdir = opts["outdir"]
    record = tr.train(model, _strategy_from_opts(opts), train_ds, eval_ds, cfg,
                      outdir=outdir)
    print(json.dumps({"strategy": record.selection["strategy"],
                      "final_eval": record.final_eval,
                      "aborted": record.aborted,
                      "outdir": outdir}, indent=2))
    return 1 if record.aborted else 0


def cmd_sweep_lr(args):
    from . import training as tr
    grid = tr.LR_GRIDS.get(args.grid)
    if grid is None:
        try:
            grid = [float(x) for x in args.grid.split(",")]
        except ValueError:
            raise ValueError(f"--grid {args.grid!r} is neither a named grid "
                             f"({', '.join(tr.LR_GRIDS)}) nor comma-separated "
                             "learning rates") from None
    opts, cfg, base, train_ds, eval_ds = _run_inputs(args, lr=1.0)
    result = tr.sweep_lr(grid, base, _strategy_from_opts(opts), train_ds, eval_ds,
                         cfg)
    for lr, loss in result.rows:
        print(f"{lr:.1e}\t{loss:.6f}")
    print(json.dumps({"best_lr": result.best_lr, "best_loss": result.best_loss}))
    return 0


def cmd_compare(args):
    from . import training as tr
    opts = _options(args)
    base = _build_or_load(opts, args.init_from) if args.init_from else None
    given = {name: value for name in ("pretrain_steps", "connector_steps",
                                      "adapt_steps", "stub_mode", "noise_std")
             if (value := getattr(args, name)) is not None}
    protocol = _protocol(opts, model=base.config if base else _model_config(opts),
                         **given)
    strategies = args.strategies.split(",")
    report = tr.compare_strategies(strategies, protocol, seeds=args.seeds, base=base,
                                   outdir=opts["outdir"])
    medians = {name: report.median_gain(name)
               for name in ["frozen"] + strategies}
    print(json.dumps({"median_gain": medians, "outdir": str(Path(opts["outdir"]))},
                     indent=2))
    return 0


def cmd_budget(args):
    from . import budget as bg
    if args.reference_table:
        print("preset,strategy,computed,reference,diff,tolerance,within,gated")
        for row in bg.reference_table(args.bytes_per_param):
            print(f"{row.preset},{row.strategy},{row.computed:.6f},"
                  f"{row.reference},{row.diff:.6f},{row.tolerance},"
                  f"{row.within},{row.gated}")
        return 0
    opts = _options(args)
    name = opts["preset"]
    if name not in bg.PRESETS:
        raise ValueError(f"unknown preset {name!r} (known: "
                         f"{', '.join(sorted(bg.PRESETS))})")
    preset = bg.PRESETS[name]
    report = bg.count(preset, _strategy_from_opts(opts), args.bytes_per_param)
    print(json.dumps(report.as_dict(), indent=2))
    return 0


def cmd_similarity(args):
    from . import analysis as an
    from . import training as tr
    from .model import load_checkpoint

    def probe_report(ckpt, label):
        model = load_checkpoint(ckpt)
        ds = tr.AdaptProtocol(model=model.config).dataset(
            args.task, args.probe_samples, args.probe_seed)
        return an.layer_similarity(model, ds.tokens, ds.features,
                                   probe={"label": label,
                                          "seed": args.probe_seed,
                                          "samples": args.probe_samples})

    reports = [probe_report(args.ckpt, Path(args.ckpt).stem)]
    if args.ckpt_b:
        reports.append(probe_report(args.ckpt_b, Path(args.ckpt_b).stem))

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    summary = []
    for rep in reports:
        csv_path = outdir / f"similarity_{rep.probe['label']}.csv"
        with open(csv_path, "w") as f:
            for row in rep.matrix:
                f.write(",".join(repr(float(x)) for x in row) + "\n")
        summary.append({"label": rep.probe["label"], "average": rep.average,
                        "n_layers": rep.n_layers, "matrix_csv": str(csv_path)})
    payload = {"reports": summary}
    if len(reports) == 2:
        diff = an.compare_similarity(reports)[0]
        payload["relative_diff"] = diff.relative_diff
    print(json.dumps(payload, indent=2))
    return 0


def cmd_grad_stats(args):
    from . import training as tr
    from .analysis import GradTrace
    opts, cfg, model, train_ds, eval_ds = _run_inputs(args)
    trace = GradTrace()
    record = tr.train(model, _strategy_from_opts(opts), train_ds, eval_ds, cfg,
                      outdir=opts.get("outdir"), trace=trace,
                      trace_every=args.trace_every)
    if "gradtrace" in record.artifacts:
        print(record.artifacts["gradtrace"])
    else:
        trace.to_csv(sys.stdout)
    return 1 if record.aborted else 0


def cmd_normcheck(args):
    import numpy as np
    from . import normmath as nm
    grid = list(args.n_grid)
    study = nm.variance_scaling_study(grid, sampler=args.sampler,
                                      trials=args.trials, seed=args.seed)
    rng = np.random.default_rng(args.seed)

    max_defect = 0.0
    for n in range(3, 129):
        inst = nm.ln_stats(rng.standard_normal(n))
        max_defect = max(max_defect, nm.check_projection(inst).max_defect())

    violations = 0
    draws = 0
    for n in (8, 64, 512):
        for _ in range(args.trials):
            inst = nm.ln_stats(rng.standard_normal(n))
            if not nm.variance_bound_check(inst, rng.standard_normal(n)).holds:
                violations += 1
            draws += 1

    decreasing = all(b < a for a, b in
                     zip(study.median_var, study.median_var[1:]))
    payload = {
        "projection_max_defect": max_defect,
        "bound_violations": violations,
        "bound_draws": draws,
        "n_grid": grid,
        "median_var": study.median_var,
        "loglog_slope": study.loglog_slope,
        "strictly_decreasing": decreasing,
        "ok": bool(max_defect <= 1e-10 and violations == 0 and decreasing),
    }
    print(json.dumps(payload, indent=2))
    return 0 if payload["ok"] else 1


# Options of the training commands; `train` and `grad-stats` add lr and outdir.
_RUN_OPTIONS = ("strategy", "steps", "batch", "warmup_ratio", "weight_decay",
                "seed", "norm_kind", "lora_rank", "mixture")


def _add_data_args(p):
    p.add_argument("--task", default="mm-adapt",
                   choices=("text-pretrain", "mm-adapt"))
    p.add_argument("--init-from", dest="init_from", default=None,
                   help="checkpoint to start from")
    p.add_argument("--n-samples", dest="n_samples", type=int, default=2048)
    p.add_argument("--n-eval", dest="n_eval", type=int, default=256)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="normadapt",
        description="selective-parameter tuning lab for visual-prefix "
                    "transformers")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="run one training stage")
    _add_options(p, _RUN_OPTIONS + ("lr", "outdir"),
                 lr=1e-3, steps=200, outdir="runs/train")
    _add_data_args(p)
    p.add_argument("--eval-interval", dest="eval_interval", type=int, default=0)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("sweep-lr", help="grid-search the learning rate")
    _add_options(p, _RUN_OPTIONS, steps=100)
    _add_data_args(p)
    p.add_argument("--grid", default="paper-grid",
                   help="named grid or comma-separated values")
    p.set_defaults(func=cmd_sweep_lr)

    p = sub.add_parser("compare", help="two-stage strategy comparison")
    _add_options(p, ("batch", "seed", "norm_kind", "mixture", "outdir"),
                 outdir="runs/compare")
    p.add_argument("--strategies",
                   default="finetune,layernorm,layernorm-simple")
    p.add_argument("--seeds", type=_parse_int_list, default="0,1,2")
    # unset, each of these takes AdaptProtocol's default
    p.add_argument("--pretrain-steps", dest="pretrain_steps", type=int)
    p.add_argument("--connector-steps", dest="connector_steps", type=int)
    p.add_argument("--adapt-steps", dest="adapt_steps", type=int)
    p.add_argument("--stub-mode", dest="stub_mode", choices=("aligned", "unaligned"))
    p.add_argument("--noise-std", dest="noise_std", type=float)
    p.add_argument("--init-from", dest="init_from", default=None,
                   help="pretrained base checkpoint (skips stage 0)")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("budget", help="analytic trainable-parameter accounting")
    _add_options(p, ("strategy", "preset", "lora_rank"), preset="llama7b")
    p.add_argument("--bytes-per-param", dest="bytes_per_param", type=int,
                   default=4)
    p.add_argument("--reference-table", action="store_true",
                   help="emit the full reference comparison table as CSV")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("similarity", help="cross-layer representation cosine")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--ckpt-b", dest="ckpt_b", default=None)
    p.add_argument("--task", default="mm-adapt",
                   choices=("text-pretrain", "mm-adapt"))
    p.add_argument("--probe-seed", dest="probe_seed", type=int, default=17)
    p.add_argument("--probe-samples", dest="probe_samples", type=int, default=64)
    p.add_argument("--outdir", default="runs/similarity")
    p.set_defaults(func=cmd_similarity)

    p = sub.add_parser("grad-stats", help="trace per-step norm-gradient stats")
    _add_options(p, _RUN_OPTIONS + ("lr", "outdir"), lr=1e-3, steps=50)
    _add_data_args(p)
    p.add_argument("--trace-every", dest="trace_every", type=int, default=10)
    p.set_defaults(func=cmd_grad_stats)

    p = sub.add_parser("normcheck", help="verify normalization backward math")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=200)
    p.add_argument("--n-grid", dest="n_grid", type=_parse_int_list,
                   default="16,64,256,1024")
    p.add_argument("--sampler", default="softmax-xent",
                   choices=("softmax-xent", "gaussian", "in-kernel"))
    p.set_defaults(func=cmd_normcheck)

    return parser


def _path_error(args, err):
    """An OSError's reason, led by the flag whose path it failed on (or on a
    file under that path) when there is one."""
    if err.filename is not None:
        failed = os.fsdecode(err.filename)
        for name, value in vars(args).items():
            if isinstance(value, str) and value and (
                    failed == value or failed.startswith(os.path.join(value, ""))):
                return f"--{name.replace('_', '-')} {value}: {err.strerror}"
    return str(err)


def main(argv=None):
    """Run one subcommand; a ValueError from its inputs, or an OSError on a
    path it was given, is a usage error (message on stderr, exit status 2),
    as argparse reports a bad flag."""
    _cap_threads()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ValueError as err:
        parser.exit(2, f"{parser.prog} {args.command}: error: {err}\n")
    except OSError as err:
        parser.exit(2, f"{parser.prog} {args.command}: error: "
                       f"{_path_error(args, err)}\n")


if __name__ == "__main__":
    sys.exit(main())
