"""Smoke test: the demos run against the current library.

`04_toy_adaptation.py` is left out: it takes about 13 s on a 2-vCPU x86
host, and it is a shorter form of the toy adaptation gate in
`test_acceptance.py`, which already runs `compare_strategies` end to end.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_norm_backward_math.py",
                                  "02_parameter_budgets.py",
                                  "03_synthetic_tasks.py",
                                  "05_layer_similarity_and_grad_trace.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out
