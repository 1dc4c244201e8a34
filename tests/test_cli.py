"""CLI surface: config parsing, every subcommand end to end (tiny sizes)."""

import json
import os

import numpy as np
import pytest

from normadapt import cli
from normadapt import training as tr
from normadapt.model import ModelConfig, build, save_checkpoint


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
weight_decay = 0.01
seed = 3
mixture = 0.5,0.25,0.25
include_defaults = false
outdir = runs/demo
""")
    opts = cli.parse_config_file(path)
    assert opts == {"strategy": "layernorm", "lr": 2e-3, "steps": 40,
                    "batch": 8, "warmup_ratio": 0.1, "weight_decay": 0.01,
                    "seed": 3, "mixture": (0.5, 0.25, 0.25),
                    "include_defaults": False, "outdir": "runs/demo"}
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
    with pytest.raises(ValueError, match="boolean"):
        cli.parse_config_file(write_config(tmp_path, "include_defaults = maybe"))
    with pytest.raises(ValueError, match="3 comma-separated"):
        cli.parse_config_file(write_config(tmp_path, "mixture = 0.5,0.5"))
    with pytest.raises(ValueError, match="key = value"):
        cli.parse_config_file(write_config(tmp_path, "just some words"))


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
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    cli._cap_threads()
    assert os.environ["OMP_NUM_THREADS"] == "2"
    assert os.environ["OPENBLAS_NUM_THREADS"] == "2"


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


def test_budget_unknown_preset():
    with pytest.raises(SystemExit, match="unknown preset"):
        cli.main(["budget", "--preset", "llama70b"])


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
    for name in ("metrics.csv", "model.ckpt", "run.json"):
        assert (outdir / name).exists()


def test_train_init_from_checkpoint(tmp_path, capsys):
    model = build(ModelConfig(), seed=5)
    ckpt = tmp_path / "base.ckpt"
    save_checkpoint(model, ckpt)
    rc = cli.main(["train", "--task", "text-pretrain", "--strategy",
                   "finetune", "--lr", "1e-4", "--init-from", str(ckpt),
                   "--outdir", str(tmp_path / "resumed"), *TINY])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["final_eval"] > 0


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
    with pytest.raises(ValueError, match="'standard'.*'rms'"):
        cli.main(["compare", *TINY_COMPARE, "--init-from", str(ckpt),
                  "--norm-kind", "standard"])


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


def test_grad_stats_csv(tmp_path, capsys):
    outdir = tmp_path / "gs"
    rc = cli.main(["grad-stats", "--task", "mm-adapt", "--strategy",
                   "layernorm-simple", "--lr", "1e-3", "--trace-every", "1",
                   "--outdir", str(outdir), *TINY])
    assert rc == 0
    csv_path = outdir / "gradtrace.csv"
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].startswith("step,path,mean,variance,bin_-0.01,")
    assert len(lines) > 1
    assert any("final_norm.weight" in l for l in lines[1:])


def test_grad_stats_stdout_when_no_outdir(capsys):
    rc = cli.main(["grad-stats", "--task", "mm-adapt", "--strategy",
                   "layernorm-simple", "--lr", "1e-3", "--trace-every", "1",
                   "--steps", "2", "--batch", "4", "--n-samples", "8",
                   "--n-eval", "8"])
    assert rc == 0
    assert capsys.readouterr().out.startswith("step,path,mean,variance")


# ------------------------------------------------- options each command reads

@pytest.mark.parametrize("command", ["sweep-lr", "grad-stats"])
def test_warmup_and_weight_decay_reach_train(command, monkeypatch, capsys):
    seen = []

    def fake_train(model, strategy, train_ds, eval_ds, config, **kwargs):
        seen.append(config)
        return tr.RunRecord(config={}, selection={"strategy": strategy.kind},
                            train_curve=[], eval_curve=[], final_eval=1.0,
                            wall_clock=0.0)

    monkeypatch.setattr(tr, "train", fake_train)
    extra = ["--grid", "1e-3"] if command == "sweep-lr" else []
    rc = cli.main([command, "--warmup-ratio", "0.5", "--weight-decay", "0.5",
                   *extra, *TINY])
    assert rc == 0
    (cfg,) = seen
    assert (cfg.warmup_ratio, cfg.weight_decay) == (0.5, 0.5)


@pytest.mark.parametrize("command, line, args", [
    ("compare", "strategy = lora", TINY_COMPARE),
    ("budget", "lr = 1e-3", []),
])
def test_config_key_the_command_does_not_read_is_refused(
        tmp_path, monkeypatch, capsys, command, line, args):
    monkeypatch.chdir(tmp_path)
    path = write_config(tmp_path, f"# {command}\n{line}\n")
    key = line.split()[0]
    with pytest.raises(ValueError, match=f"run.cfg:2: unknown key '{key}'"):
        cli.main([command, "--config", path, *args])


def test_grad_stats_reads_outdir_from_config(tmp_path, capsys):
    outdir = tmp_path / "gs"
    path = write_config(tmp_path, f"outdir = {outdir}\n")
    rc = cli.main(["grad-stats", "--config", path, "--strategy",
                   "layernorm-simple", "--trace-every", "1", *TINY])
    assert rc == 0
    assert (outdir / "gradtrace.csv").read_text().startswith("step,path,")
    assert capsys.readouterr().out.strip() == str(outdir / "gradtrace.csv")


def test_sweep_lr_has_no_outdir(tmp_path, capsys):
    with pytest.raises(SystemExit):
        cli.main(["sweep-lr", "--grid", "1e-3", "--outdir",
                  str(tmp_path / "x"), *TINY])
