"""CLI surface: config parsing, every subcommand end to end (tiny sizes)."""

import argparse
import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import normadapt
from normadapt import cli
from normadapt import data as dt
from normadapt import normmath as nm
from normadapt import training as tr
from normadapt.model import NORM_KINDS, Model, ModelConfig, build, save_checkpoint

from test_model import rewrite_header


def write_config(tmp_path, text):
    p = tmp_path / "run.cfg"
    p.write_text(text)
    return str(p)


# ---------------------------------------------------------------- config file

def test_config_parses_types_and_comments(tmp_path):
    path = write_config(tmp_path, """
# stage-two settings
strategy = layernorm
lr = 2e-3          # trailing comment
steps = 40
batch = 8
warmup_ratio = 0.1
seed = 3
mixture = 0.5,0.25,0.25
lora_rank = 8
outdir = runs/demo
""")
    opts = cli.parse_config_file(path)
    assert opts == {"strategy": "layernorm", "lr": 2e-3, "steps": 40,
                    "batch": 8, "warmup_ratio": 0.1, "seed": 3,
                    "mixture": (0.5, 0.25, 0.25), "lora_rank": 8,
                    "outdir": "runs/demo"}
    assert isinstance(opts["steps"], int) and isinstance(opts["lr"], float)


def test_config_unknown_key_reports_location(tmp_path):
    path = write_config(tmp_path, "strategy = lora\nlr_max = 0.1\n")
    with pytest.raises(ValueError) as err:
        cli.parse_config_file(path)
    assert "lr_max" in str(err.value) and ":2" in str(err.value)


def test_config_bad_value_reports_location(tmp_path):
    path = write_config(tmp_path, "steps = soon\n")
    with pytest.raises(ValueError, match=":1"):
        cli.parse_config_file(path)
    with pytest.raises(ValueError, match="3 comma-separated"):
        cli.parse_config_file(write_config(tmp_path, "mixture = 0.5,0.5"))
    with pytest.raises(ValueError, match="key = value"):
        cli.parse_config_file(write_config(tmp_path, "just some words"))


def test_config_key_given_twice_names_both_lines(tmp_path):
    path = write_config(tmp_path, "steps = 10\n# again\nlr = 1e-3\nsteps = 20\n")
    with pytest.raises(ValueError,
                       match=r"run.cfg:4: key 'steps' already set on line 1"):
        cli.parse_config_file(path)


def test_cli_flags_override_config(tmp_path, capsys):
    path = write_config(tmp_path, "preset = llama7b\nstrategy = finetune\n")
    rc = cli.main(["budget", "--config", path, "--strategy",
                   "layernorm-simple"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["strategy"] == "layernorm-simple"
    assert out["trainable"] == 266_240


def test_thread_cap_exports_blas_vars(monkeypatch):
    monkeypatch.setenv("NORMADAPT_THREADS", "2")
    for var in normadapt._THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    with pytest.warns(RuntimeWarning, match="numpy was imported before normadapt"):
        normadapt._cap_threads()  # this process loaded numpy first
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


def test_thread_cap_holds_from_a_library_import():
    """A script that imports the library, not the CLI, gets the cap too."""
    blas_vars = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas_vars}
    env["NORMADAPT_THREADS"] = "1"
    code = ("import os, warnings\nwarnings.simplefilter('error')\n"
            "from normadapt import training\n"
            f"print(*map(os.environ.get, {blas_vars!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["1", "1"]


@pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", "1"])
def test_thread_cap_takes_only_a_positive_integer(value):
    """Anything else would leave BLAS at its own default thread count."""
    env = dict(os.environ, NORMADAPT_THREADS=value)
    out = subprocess.run([sys.executable, "-c", "import normadapt"], env=env,
                         capture_output=True, text=True)
    if value == "1":
        assert (out.returncode, out.stderr) == (0, "")
    else:
        assert out.returncode == 1
        assert out.stderr.endswith("ValueError: NORMADAPT_THREADS must be a positive "
                                   f"decimal integer, got {value!r}\n")


# a pytest plugin that prints the thread count of the loaded OpenBLAS
BLAS_PROBE = """
import ctypes

def pytest_sessionfinish(session):
    with open("/proc/self/maps") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line and ".so" in line}
    for lib in map(ctypes.CDLL, sorted(libs)):
        for name in ("scipy_openblas_get_num_threads64_",
                     "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, name):
                get = getattr(lib, name)
                get.argtypes, get.restype = [], ctypes.c_int
                print("blas threads", get())
                break
"""


def test_a_pytest_run_caps_blas_threads(tmp_path):
    """conftest.py imports normadapt before a test module that imports numpy
    first, so a pytest run under NORMADAPT_THREADS=1 runs BLAS on one thread."""
    (tmp_path / "blas_probe.py").write_text(BLAS_PROBE)
    repo = Path(__file__).resolve().parents[1]
    env = {k: v for k, v in os.environ.items() if k not in normadapt._THREAD_VARS}
    env.update(NORMADAPT_THREADS="1", PYTHONPATH=os.pathsep.join(
        [str(tmp_path), str(repo / "src"), env.get("PYTHONPATH", "")]))
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-s", "-p", "blas_probe",
         "-p", "no:cacheprovider", "tests/test_autograd.py::test_backward_quadratic"],
        cwd=repo, env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stdout + out.stderr
    assert re.findall(r"blas threads (\d+)", out.stdout) == ["1"]


def test_building_the_parser_does_not_import_numpy():
    """NORMADAPT_THREADS reaches BLAS only if numpy loads after `_cap_threads`."""
    code = ("import sys\nfrom normadapt import cli\ncli.build_parser()\n"
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


# ----------------------------------------------------------------- budget

def test_budget_json(capsys):
    rc = cli.main(["budget", "--preset", "llama13b", "--strategy", "layernorm"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["preset"] == "llama13b"
    assert out["total"] == 13_324_612_320
    assert out["memory_bytes"] == out["trainable"] * 4 * 3


def test_budget_table_csv(capsys):
    rc = cli.main(["budget", "--reference-table"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("preset,strategy,computed")
    assert len(lines) == 1 + 12
    ln7 = next(l for l in lines if l.startswith("llama7b,layernorm,"))
    assert ",True,True" in ln7


# `normadapt budget --reference-table`, with the rows held back until stdin
# closes, so a test can close stdout between the header and the rows
HELD_TABLE_SCRIPT = """
import sys
from normadapt import budget, cli
table = budget.reference_table
def held_table():
    sys.stdin.read()
    return table()
budget.reference_table = held_table
sys.exit(cli.main(["budget", "--reference-table"]))
"""


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_a_closed_stdout_ends_the_run_quietly(unbuffered):
    """`normadapt budget --reference-table | head -1`: the rows go to a pipe
    whose reader has gone.  That is no usage error: status 1 and nothing on
    stderr, whether each print writes at once or the run flushes at its end."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, "-c", HELD_TABLE_SCRIPT], env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)
    if unbuffered:  # the header is out before the rows are made
        assert proc.stdout.readline().startswith(b"preset,strategy,")
    proc.stdout.close()
    proc.stdin.close()
    status = proc.wait(timeout=60)
    with proc.stderr:
        assert (status, proc.stderr.read()) == (1, b"")


def usage_error(capsys, argv):
    """stderr of a command that must end as a usage error (status 2)."""
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    return capsys.readouterr().err


def subcommands():
    """Each subcommand's argparse parser, by name."""
    (commands,) = [a.choices for a in cli.build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction)]
    return commands


def test_budget_unknown_preset(capsys):
    err = usage_error(capsys, ["budget", "--preset", "llama70b"])
    assert err == ("normadapt budget: error: unknown preset 'llama70b' "
                   "(known: llama13b, llama7b)\n")


# ----------------------------------------------------------------- normcheck

def test_normcheck_passes_and_reports(capsys):
    rc = cli.main(["normcheck", "--trials", "25", "--n-grid", "16,64,256"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["ok"]
    assert out["projection_max_defect"] <= 1e-10
    assert out["bound_violations"] == 0
    assert out["strictly_decreasing"]
    assert out["loglog_slope"] < -0.5


def test_normcheck_gaussian_sampler_fails_decay(capsys):
    rc = cli.main(["normcheck", "--trials", "25", "--n-grid", "16,64,256",
                   "--sampler", "gaussian"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 1 and not out["strictly_decreasing"]


# ------------------------------------------------------- training commands

TINY = ["--steps", "3", "--batch", "4", "--n-samples", "16", "--n-eval", "8"]


def test_train_writes_artifacts_and_summary(tmp_path, capsys):
    outdir = tmp_path / "run"
    rc = cli.main(["train", "--task", "mm-adapt", "--strategy", "layernorm",
                   "--lr", "1e-3", "--outdir", str(outdir), *TINY])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["strategy"] == "layernorm" and not out["aborted"]
    assert sorted(p.name for p in outdir.iterdir()) == [
        "metrics.csv", "model.ckpt", "run.json"]


def test_train_init_from_checkpoint(tmp_path, capsys):
    model = build(ModelConfig(), seed=5)
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(model, ckpt)
    rc = cli.main(["train", "--task", "text-pretrain", "--strategy",
                   "finetune", "--lr", "1e-4", "--init-from", str(ckpt),
                   "--outdir", str(tmp_path / "resumed"), *TINY])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["final_eval"] > 0


@pytest.mark.parametrize("dtype", ["foo", "int64"])
def test_train_refuses_a_checkpoint_dtype_not_float(dtype, tmp_path, capsys):
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(build(ModelConfig(), seed=5), ckpt)
    rewrite_header(ckpt, lambda header: header.update(dtype=dtype))
    err = usage_error(capsys, ["train", "--init-from", str(ckpt),
                               "--outdir", str(tmp_path / "run"), *TINY])
    assert err == ("normadapt train: error: checkpoint dtype must be float32 or "
                   f"float64, got '{dtype}'\n")
    assert not (tmp_path / "run").exists()


def test_train_scores_on_the_protocol_splits(tmp_path, monkeypatch, capsys):
    seen = []

    def fake_train(model, strategy, train_ds, eval_ds, config, outdir=None):
        seen.append((train_ds, eval_ds))
        return tr.RunRecord(config={}, selection={"strategy": strategy.kind},
                            train_curve=[], eval_curve=[], final_eval=1.0,
                            wall_clock=0.0)

    monkeypatch.setattr(tr, "train", fake_train)
    rc = cli.main(["train", "--task", "mm-adapt", "--seed", "4",
                   "--outdir", str(tmp_path / "run"), *TINY])
    assert rc == 0
    want = tr.AdaptProtocol(model=ModelConfig(), n_train=16, n_eval=8,
                            seed=4).mm_datasets()
    (got,) = seen
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.tokens, w.tokens)
        np.testing.assert_array_equal(g.targets, w.targets)
        np.testing.assert_array_equal(g.features, w.features)


def test_train_takes_the_largest_seed(tmp_path, capsys):
    # its held-out split's seed + 3000 is 2**64 - 1
    assert cli.main(["train", "--steps", "1", "--batch", "2", "--n-samples", "4",
                     "--n-eval", "4", "--seed", str(2**64 - 3001),
                     "--outdir", str(tmp_path / "run")]) == 0


def test_sweep_lr_comma_grid(capsys):
    rc = cli.main(["sweep-lr", "--task", "mm-adapt", "--strategy",
                   "layernorm-simple", "--grid", "1e-3,1e-5", *TINY])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # two table rows + summary
    best = json.loads(lines[-1])
    assert best["best_lr"] in (1e-3, 1e-5)
    losses = [float(l.split("\t")[1]) for l in lines[:2]]
    assert best["best_loss"] == pytest.approx(min(losses), abs=1e-6)


def test_compare_writes_tables(tmp_path, capsys):
    outdir = tmp_path / "cmp"
    rc = cli.main(["compare", "--strategies", "finetune,layernorm",
                   "--seeds", "0", "--pretrain-steps", "3",
                   "--connector-steps", "2", "--adapt-steps", "2",
                   "--outdir", str(outdir)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["median_gain"]["frozen"] == 0.0
    assert out["median_gain"]["finetune"] == pytest.approx(1.0)
    assert (outdir / "compare.csv").exists()
    rows = json.loads((outdir / "compare.json").read_text())["rows"]
    assert {r["strategy"] for r in rows} == {"frozen", "finetune", "layernorm"}


TINY_COMPARE = ["--strategies", "layernorm", "--seeds", "0",
                "--pretrain-steps", "2", "--connector-steps", "2",
                "--adapt-steps", "2"]


def test_compare_takes_unset_protocol_flags_from_the_protocol(tmp_path, monkeypatch,
                                                             capsys):
    @dataclasses.dataclass
    class Shifted(tr.AdaptProtocol):  # other defaults, as if the protocol changed
        pretrain_steps: int = 7
        connector_steps: int = 5
        adapt_steps: int = 3

    seen = []

    def fake_compare(strategies, protocol, seeds, base, outdir):
        seen.append(protocol)
        return tr.ComparisonReport(rows=[], protocol=dataclasses.asdict(protocol))

    monkeypatch.setattr(tr, "AdaptProtocol", Shifted)
    monkeypatch.setattr(tr, "compare_strategies", fake_compare)
    outdir = str(tmp_path / "cmp")
    assert cli.main(["compare", "--outdir", outdir]) == 0
    assert cli.main(["compare", "--outdir", outdir, "--adapt-steps", "9"]) == 0
    fields = ("pretrain_steps", "connector_steps", "adapt_steps")
    assert [tuple(getattr(p, f) for f in fields) for p in seen] == [
        (7, 5, 3), (7, 5, 9)]


def test_compare_honours_norm_kind(tmp_path, capsys):
    outdir = tmp_path / "cmp"
    rc = cli.main(["compare", *TINY_COMPARE, "--norm-kind", "rms",
                   "--outdir", str(outdir)])
    assert rc == 0
    report = json.loads((outdir / "compare.json").read_text())
    assert report["protocol"]["model"]["norm_kind"] == "rms"
    with pytest.raises(SystemExit):
        cli.main(["compare", *TINY_COMPARE, "--norm-kind", "batch"])


def test_compare_init_from_takes_the_checkpoint_config(tmp_path, capsys):
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32,
                      vocab_size=80, max_seq=20, d_visual=8, norm_kind="rms")
    ckpt = tmp_path / "small.ckpt"
    save_checkpoint(build(cfg, seed=2), ckpt)
    outdir = tmp_path / "cmp"
    rc = cli.main(["compare", *TINY_COMPARE, "--init-from", str(ckpt),
                   "--outdir", str(outdir)])
    assert rc == 0
    report = json.loads((outdir / "compare.json").read_text())
    assert ModelConfig(**report["protocol"]["model"]) == cfg
    assert {r["strategy"] for r in report["rows"]} == {"frozen", "layernorm"}
    err = usage_error(capsys, ["compare", *TINY_COMPARE, "--init-from", str(ckpt),
                               "--norm-kind", "standard"])
    assert err.startswith("normadapt compare: error: norm_kind 'standard'")
    assert "'rms'" in err


@pytest.mark.parametrize("argv", [["train", "--task", "mm-adapt", *TINY],
                                  ["compare", *TINY_COMPARE]], ids=["train", "compare"])
def test_init_from_a_three_token_checkpoint(argv, tmp_path, capsys):
    """The protocol gives the task one attribute per visual token of the
    checkpoint's model."""
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=80,
                      max_seq=20, n_visual_tokens=3, d_visual=8)
    ckpt = tmp_path / "three.ckpt"
    save_checkpoint(build(cfg, seed=2), ckpt)
    assert cli.main([*argv, "--init-from", str(ckpt),
                     "--outdir", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("argv", [["train", "--task", "mm-adapt", *TINY],
                                  ["compare", *TINY_COMPARE]], ids=["train", "compare"])
def test_init_from_a_checkpoint_the_task_does_not_fit(argv, tmp_path, capsys):
    """A vocabulary too small for the task is refused before the outdir is made."""
    cfg = ModelConfig(n_layers=1, d_model=16, n_heads=2, d_ff=32, vocab_size=60,
                      max_seq=20, d_visual=8)
    ckpt = tmp_path / "small.ckpt"
    save_checkpoint(build(cfg, seed=2), ckpt)
    outdir = tmp_path / "out"
    err = usage_error(capsys, [*argv, "--init-from", str(ckpt), "--outdir", str(outdir)])
    assert err == (f"normadapt {argv[0]}: error: model vocab_size 60 is below the "
                   "task's vocab 77\n")
    assert not outdir.exists()


def test_lora_rank_below_one_is_refused_for_any_strategy(tmp_path, capsys):
    outdir = tmp_path / "out"
    err = usage_error(capsys, ["train", "--strategy", "finetune", "--lora-rank", "0",
                               "--outdir", str(outdir), *TINY])
    assert err == "normadapt train: error: lora_rank must be >= 1, got 0\n"
    assert not outdir.exists()


def test_similarity_single_and_pair(tmp_path, capsys):
    model = build(ModelConfig(), seed=1)
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(model, a)
    for p in ("blocks.0.attn.q_proj.weight", "blocks.1.mlp.fc1.weight"):
        model.tree[p].data += 0.05
    save_checkpoint(model, b)

    rc = cli.main(["similarity", "--ckpt", str(a), "--ckpt-b", str(b),
                   "--probe-samples", "6", "--outdir", str(tmp_path / "sim")])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out["reports"]) == 2
    assert "relative_diff" in out
    matrix = np.loadtxt(out["reports"][0]["matrix_csv"], delimiter=",")
    assert matrix.shape == (4, 4)
    assert np.allclose(np.diag(matrix), 1.0)


def test_a_refused_similarity_pair_writes_nothing(tmp_path, capsys):
    ckpts = [str(tmp_path / f"{n}.ckpt") for n in (2, 3)]
    for n, path in zip((2, 3), ckpts):
        save_checkpoint(build(ModelConfig(n_layers=n), seed=1), path)
    outdir = tmp_path / "sim"
    err = usage_error(capsys, ["similarity", "--ckpt", ckpts[0], "--ckpt-b", ckpts[1],
                               "--probe-samples", "4", "--outdir", str(outdir)])
    assert err == "normadapt similarity: error: mismatched layer counts: [2, 3]\n"
    assert not outdir.exists()


def test_similarity_refuses_a_one_layer_model(tmp_path, capsys):
    ckpt = tmp_path / "one.ckpt"
    save_checkpoint(build(ModelConfig(n_layers=1), seed=1), ckpt)
    outdir = tmp_path / "sim"
    err = usage_error(capsys, ["similarity", "--ckpt", str(ckpt),
                               "--probe-samples", "4", "--outdir", str(outdir)])
    assert err == ("normadapt similarity: error: similarity needs at least 2 "
                   "layers, got 1\n")
    assert not outdir.exists()


def test_train_trace_every_writes_the_csv(tmp_path, capsys):
    outdir = tmp_path / "gs"
    rc = cli.main(["train", "--task", "mm-adapt", "--strategy",
                   "layernorm-simple", "--lr", "1e-3", "--trace-every", "1",
                   "--outdir", str(outdir), *TINY])
    assert rc == 0
    csv_path = outdir / "gradtrace.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("step,path,mean,variance,bin_-0.01,")
    assert len(lines) > 1
    assert any("final_norm.weight" in l for l in lines[1:])


@pytest.mark.parametrize("strategy", ["connector-only", "lora", "attn-qv", "attn-mlp"])
def test_train_trace_refuses_a_strategy_without_norms(strategy, tmp_path, capsys):
    outdir = tmp_path / "gs"
    err = usage_error(capsys, ["train", "--trace-every", "1", "--strategy", strategy,
                               "--outdir", str(outdir), *TINY])
    assert err == (f"normadapt train: error: strategy {strategy!r} trains no "
                   "norm parameter, so there are no norm gradients to trace\n")
    assert not outdir.exists()


# ------------------------------------------------- options each command reads

@pytest.mark.parametrize("command", ["train", "sweep-lr"])
def test_warmup_ratio_reaches_train(command, tmp_path, monkeypatch, capsys):
    seen = []

    def fake_train(model, strategy, train_ds, eval_ds, config, **kwargs):
        seen.append(config)
        return tr.RunRecord(config={}, selection={"strategy": strategy.kind},
                            train_curve=[], eval_curve=[], final_eval=1.0,
                            wall_clock=0.0)

    monkeypatch.setattr(tr, "train", fake_train)
    extra = (["--grid", "1e-3"] if command == "sweep-lr" else
             ["--outdir", str(tmp_path / "run")])
    rc = cli.main([command, "--warmup-ratio", "0.5", *extra, *TINY])
    assert rc == 0
    (cfg,) = seen
    assert cfg.warmup_ratio == 0.5


@pytest.mark.parametrize("command, line, args", [
    ("compare", "strategy = lora", TINY_COMPARE),
    ("budget", "lr = 1e-3", []),
    ("budget", "include_defaults = false", []),
    ("train", "include_defaults = false", TINY),
    ("train", "weight_decay = 0", TINY),
])
def test_config_key_the_command_does_not_read_is_refused(
        tmp_path, monkeypatch, capsys, command, line, args):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, f"# {command}\n{line}\n")
    key = line.split()[0]
    err = usage_error(capsys, [command, "--config", path, *args])
    assert err.startswith(f"normadapt {command}: error: {path}:2: unknown key '{key}'")


@pytest.mark.parametrize("argv, message", [
    (["sweep-lr", "--grid", "paper-grd", *TINY],
     "normadapt sweep-lr: error: --grid 'paper-grd' is neither a named grid "
     "(paper-grid) nor comma-separated learning rates\n"),
    (["compare", "--strategies", "finetune,nope", "--seeds", "0"],
     "normadapt compare: error: unknown strategy 'nope'; expected one of "
     "('finetune', 'lora', 'attn-qv', 'attn-mlp', 'layernorm', "
     "'layernorm-simple', 'connector-only')\n"),
    (["train", "--trace-every", "0", *TINY],
     "normadapt train: error: trace_every must be >= 1, got 0\n"),
    (["train", "--trace-every", "-2", *TINY],
     "normadapt train: error: trace_every must be >= 1, got -2\n"),
    (["train", "--eval-interval", "-2", *TINY],
     "normadapt train: error: eval_interval must be >= 0, got -2\n"),
    (["train", "--steps", "1", "--batch", "2", "--n-samples", "4", "--n-eval", "4",
      "--seed", "-3"],
     "normadapt train: error: seed must be >= 0, got -3\n"),
    (["train", "--steps", "1", "--batch", "2", "--n-samples", "4", "--n-eval", "4",
      "--seed", str(2**64 - 3000)],
     f"normadapt train: error: seed {2**64 - 3000} too large: the held-out split's "
     f"seed + 3000 is refused (seed must be below 2**64, got {2**64})\n"),
    (["train", "--steps", "1", "--n-samples", "0"],
     "normadapt train: error: n_train must be >= 1, got 0\n"),
    (["train", "--steps", "1", "--n-eval", "0"],
     "normadapt train: error: n_eval must be >= 1, got 0\n"),
    (["sweep-lr", "--grid", "1e-3,1e-3", *TINY],
     "normadapt sweep-lr: error: repeated lr in [0.001, 0.001]\n"),
    (["budget", "--bytes-per-param", "-4"],
     "normadapt budget: error: bytes_per_param must be >= 1, got -4\n"),
    (["budget", "--bytes-per-param", "0", "--reference-table"],
     "normadapt budget: error: bytes_per_param must be >= 1, got 0\n"),
    (["normcheck", "--trials", "0"],
     "normadapt normcheck: error: variance_scaling_study: trials must be >= 1, "
     "got 0\n"),
    (["normcheck", "--trials", "-1"],
     "normadapt normcheck: error: variance_scaling_study: trials must be >= 1, "
     "got -1\n"),
    (["normcheck", "--n-grid", "16"],
     "normadapt normcheck: error: variance_scaling_study: n_grid needs at least "
     "2 sizes to fit a slope, got [16]\n"),
    (["normcheck", "--n-grid", "1,4"],
     "normadapt normcheck: error: variance_scaling_study: n_grid sizes must be "
     ">= 2, got [1, 4]\n"),
    (["compare", "--mixture", "1,2"],
     "normadapt compare: error: argument --mixture: mixture needs 3 "
     "comma-separated weights, got '1,2'\n"),
    (["train", "--mixture", "a,b,c"],
     "normadapt train: error: argument --mixture: mixture needs 3 "
     "comma-separated weights, got 'a,b,c'\n"),
], ids=["grid", "strategy", "trace-every-0", "trace-every-negative",
        "eval-interval-negative", "seed-negative", "seed-split-past-2-64",
        "n-samples-0", "n-eval-0", "sweep-repeated-lr", "bytes-per-param-negative",
        "bytes-per-param-0-table", "normcheck-trials-0", "normcheck-trials-negative",
        "normcheck-one-size", "normcheck-size-below-2", "mixture-two-weights",
        "mixture-not-numbers"])
def test_bad_input_is_a_usage_error(argv, message, capsys):
    """Refused before anything reaches stdout (a table's header included)."""
    # argparse leads the report of a bad flag value with the command's usage
    usage = subcommands()[argv[0]].format_usage() if ": argument --" in message else ""
    with pytest.raises(SystemExit) as exit_:
        cli.main(argv)
    assert exit_.value.code == 2
    assert capsys.readouterr() == ("", usage + message)


def test_compare_refuses_negative_seeds_before_pretraining(monkeypatch, capsys):
    def pretrain(protocol):
        raise AssertionError("pretrain ran")

    monkeypatch.setattr(tr, "pretrain", pretrain)
    err = usage_error(capsys, ["compare", *TINY_COMPARE, "--seeds", "0,-1"])
    assert err.endswith("normadapt compare: error: argument --seeds: expected "
                        "comma-separated non-negative integers, got '0,-1'\n")


@pytest.mark.parametrize("grid", ["16,abc", "16,-64", "16,,64"])
def test_normcheck_n_grid_names_its_flag(grid, capsys):
    err = usage_error(capsys, ["normcheck", "--n-grid", grid])
    assert err.endswith("normadapt normcheck: error: argument --n-grid: expected "
                        f"comma-separated non-negative integers, got '{grid}'\n")


def test_compare_refuses_a_seed_whose_split_passes_2_64_before_pretraining(
        monkeypatch, capsys):
    def pretrain(protocol):
        raise AssertionError("pretrain ran")

    monkeypatch.setattr(tr, "pretrain", pretrain)
    err = usage_error(capsys, ["compare", *TINY_COMPARE, "--seed", str(2**64 - 3000)])
    assert err.startswith(f"normadapt compare: error: seed {2**64 - 3000} too large: ")


@pytest.mark.parametrize("flag, value, message", [
    ("--connector-steps", "-1", "connector_steps must be >= 0, got -1"),
    ("--adapt-steps", "-3", "adapt_steps must be >= 0, got -3"),
    ("--pretrain-steps", "-2", "pretrain_steps must be >= 0, got -2"),
])
def test_compare_refuses_stage_settings_before_pretraining(flag, value, message,
                                                           monkeypatch, capsys):
    def train(*args, **kwargs):
        raise AssertionError("train ran")

    monkeypatch.setattr(tr, "train", train)
    err = usage_error(capsys, ["compare", *TINY_COMPARE, flag, value])
    assert err == f"normadapt compare: error: {message}\n"


@pytest.mark.parametrize("flags", [["--trials", "0"], ["--n-grid", "16"]],
                         ids=["trials", "n-grid"])
def test_normcheck_refuses_before_any_sampling(flags, monkeypatch, capsys):
    def ln_stats(x):
        raise AssertionError("sampling ran")

    monkeypatch.setattr(nm, "ln_stats", ln_stats)
    assert usage_error(capsys, ["normcheck", *flags]).startswith(
        "normadapt normcheck: error: variance_scaling_study: ")


def test_sweep_lr_checks_the_whole_grid_before_training(monkeypatch, capsys):
    def train(*args, **kwargs):
        raise AssertionError("train ran")

    monkeypatch.setattr(tr, "train", train)
    err = usage_error(capsys, ["sweep-lr", "--grid", "1e-3,2e-3,-1", *TINY])
    assert err == "normadapt sweep-lr: error: lr must be finite and >= 0, got -1.0\n"


@pytest.mark.parametrize("argv, owner, stage", [
    (["compare", *TINY_COMPARE], tr, "pretrain"),
    (["train", "--trace-every", "1", *TINY], Model, "loss"),
], ids=["compare", "train-trace"])
def test_outdir_is_made_before_any_training(argv, owner, stage, tmp_path,
                                            monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise AssertionError(f"{stage} ran")

    monkeypatch.setattr(owner, stage, fail)
    blocker = tmp_path / "file"
    blocker.write_text("")
    outdir = str(blocker / "sub")
    err = usage_error(capsys, [*argv, "--outdir", outdir])
    assert err == f"normadapt {argv[0]}: error: --outdir {outdir}: Not a directory\n"


@pytest.mark.parametrize("flags, message", [
    (["--strategies", "finetune,nope"], "unknown strategy 'nope'"),
    (["--strategies", "finetune,finetune"],
     "repeated strategy in ['finetune', 'finetune']"),
    (["--seeds", "0,0,1"], "repeated seed in [0, 0, 1]"),
], ids=["unknown-strategy", "repeated-strategy", "repeated-seed"])
def test_refused_compare_leaves_no_outdir(flags, message, tmp_path, monkeypatch,
                                          capsys):
    def pretrain(protocol):
        raise AssertionError("pretrain ran")

    monkeypatch.setattr(tr, "pretrain", pretrain)
    outdir = tmp_path / "cmp"
    err = usage_error(capsys, ["compare", *TINY_COMPARE, *flags,
                               "--outdir", str(outdir)])
    assert err.startswith(f"normadapt compare: error: {message}")
    assert not outdir.exists()


@pytest.mark.parametrize("argv, flag", [
    (["budget", "--config", "{missing}"], "--config"),
    (["budget", "--reference-table", "--config", "{missing}"], "--config"),
    (["train", "--init-from", "{missing}", "--steps", "1"], "--init-from"),
    (["similarity", "--ckpt", "{missing}"], "--ckpt"),
], ids=["config", "config-table", "init-from", "ckpt"])
def test_unreadable_path_is_a_usage_error(argv, flag, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    err = usage_error(capsys, [a.format(missing=missing) for a in argv])
    assert err == (f"normadapt {argv[0]}: error: {flag} {missing}: "
                   "No such file or directory\n")


def test_named_grid_resolves_in_the_cli(monkeypatch, capsys):
    seen = []

    def fake_sweep(grid, *args):
        seen.append(grid)
        return tr.SweepResult(rows=[], best_lr=grid[0], best_loss=1.0)

    monkeypatch.setattr(tr, "sweep_lr", fake_sweep)
    assert cli.main(["sweep-lr", "--grid", "paper-grid", *TINY]) == 0
    assert seen == [tr.LR_GRIDS["paper-grid"]]


@pytest.mark.parametrize("command", ["train", "sweep-lr", "budget"])
def test_include_defaults_flag_is_gone(command, capsys):
    err = usage_error(capsys, [command, "--include-defaults", "false"])
    assert "unrecognized arguments: --include-defaults" in err


@pytest.mark.parametrize("argv", [
    ["compare", "--stub-mode", "aligned"], ["compare", "--noise-std", "0.1"],
    ["train", "--weight-decay", "0"]], ids=["stub-mode", "noise-std", "weight-decay"])
def test_removed_flags_are_refused(argv, capsys):
    err = usage_error(capsys, argv)
    assert err.endswith(f"error: unrecognized arguments: {' '.join(argv[1:])}\n")


def test_grad_stats_command_is_gone(capsys):
    """`train --trace-every N` writes the trace it wrote."""
    err = usage_error(capsys, ["grad-stats"])
    assert "error: argument command: invalid choice: 'grad-stats'" in err


def test_docs_name_exactly_the_subcommands():
    """The README's command block and this module's docstring list the
    commands the parser has, no more and no fewer."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    in_readme = {line.split()[1] for line in block.splitlines()
                 if line.startswith("normadapt ")}
    listed = cli.__doc__.split(":", 1)[1].split(".", 1)[0]
    in_docstring = {name.strip() for name in listed.split(",")}
    assert in_readme == in_docstring == set(subcommands())


def test_train_trace_reads_outdir_from_config(tmp_path, capsys):
    outdir = tmp_path / "gs"
    path = write_config(tmp_path, f"outdir = {outdir}\n")
    rc = cli.main(["train", "--config", path, "--strategy",
                   "layernorm-simple", "--trace-every", "1", *TINY])
    assert rc == 0
    assert (outdir / "gradtrace.csv").read_text().startswith("step,path,")
    assert json.loads(capsys.readouterr().out)["outdir"] == str(outdir)


def test_train_trace_outdir_holds_the_run(tmp_path, capsys):
    outdir = tmp_path / "gs"
    assert cli.main(["train", "--strategy", "layernorm-simple", "--trace-every", "10",
                     "--outdir", str(outdir), *TINY]) == 0
    assert sorted(p.name for p in outdir.iterdir()) == [
        "gradtrace.csv", "metrics.csv", "model.ckpt", "run.json"]
    run = json.loads((outdir / "run.json").read_text())
    assert run["artifacts"]["gradtrace"] == str(outdir / "gradtrace.csv")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("trace", [[], ["--trace-every", "1"]],
                         ids=["train", "train-trace"])
def test_an_aborted_run_exits_1(trace, tmp_path, capsys):
    """A non-finite loss aborts the run; the command says so in its status."""
    outdir = tmp_path / "run"
    rc = cli.main(["train", *trace, "--lr", "1e30", "--strategy", "layernorm-simple",
                   "--outdir", str(outdir), "--steps", "4", "--batch", "2",
                   "--n-samples", "4", "--n-eval", "4"])
    assert rc == 1
    assert json.loads((outdir / "run.json").read_text())["aborted"]


def test_train_trace_with_no_steps_writes_a_header_only_trace(tmp_path, capsys):
    outdir = tmp_path / "gs"
    assert cli.main(["train", "--trace-every", "10", "--steps", "0",
                     "--outdir", str(outdir), *TINY[2:]]) == 0
    (header,) = (outdir / "gradtrace.csv").read_text().splitlines()
    assert header.startswith("step,path,mean,variance,")
    run = json.loads((outdir / "run.json").read_text())
    assert run["artifacts"]["gradtrace"] == str(outdir / "gradtrace.csv")


def test_sweep_lr_has_no_outdir(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["sweep-lr", "--grid", "1e-3", "--outdir",
                  str(tmp_path / "x"), *TINY])


@pytest.mark.parametrize("flag, library", [
    ("--norm-kind", NORM_KINDS), ("--task", dt.TASK_KINDS),
    ("--sampler", tuple(nm.SAMPLERS))])
def test_flag_choices_copy_the_library(flag, library):
    """cli.py imports only the stdlib at module level, so it repeats these
    choices; every subcommand's copy must equal the library's."""
    copies = {name: tuple(a.choices) for name, sub in subcommands().items()
              for a in sub._actions if flag in a.option_strings}
    assert copies and set(copies.values()) == {library}, copies
