"""Self-test of the benchmark at the acceptance tests' MICRO model size.

    python3 -m pytest perfbench/test_bench.py -q

Each workload runs untraced once and traced twice through run.py, as the
benchmark command does.  The tests check that every metric BENCHMARK.json
names prints with its unit, that the exact counts repeat across runs, that
span self-times add up to the traced wall time, and that the benchmark
refuses to report without the library's sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNTS = ("autograd.tape_nodes", "autograd.matmul.calls", "autograd.matmul.gflop",
          "strategies.trainable_scalars")


def bench(workload, trace, cwd=ROOT, check=True):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--size", "micro"],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    if check:
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])
    return proc


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_at_micro_size(workload):
    plain = bench(workload, 0)
    traced = [bench(workload, 1) for _ in range(2)]

    for result, group in ((plain, "end_to_end"), (traced[0], "per_layer"),
                          (traced[1], "per_layer")):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == {m["name"]: m["unit"] for m in SPEC[group]}
        assert all(isinstance(m["value"], (int, float))
                   for m in result["metrics"].values())

    for name in COUNTS:
        values = [t["metrics"][name]["value"] for t in traced]
        assert values[0] > 0 and values[0] == values[1], (name, values)

    detail = json.loads(
        (ROOT / "perfbench" / "out" / f"{workload}-seed1-trace1.json").read_text())
    assert detail["self_time_sum_s"] == pytest.approx(detail["traced_wall_s"], rel=1e-9)


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("finetune-train", 0, cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""
