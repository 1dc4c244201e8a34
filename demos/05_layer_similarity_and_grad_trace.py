# Two lenses on what norm tuning changes inside the network: pairwise
# cosine similarity between layer representations, and per-step statistics
# of the norm-vector gradients.

import io

import numpy as np

from normadapt import analysis as an
from normadapt import data as dt
from normadapt import model as md
from normadapt import training as tr
from normadapt.strategies import TuningStrategy

cfg = md.ModelConfig(n_layers=4, d_model=48, n_heads=2, d_ff=128,
                     vocab_size=96, max_seq=32, n_visual_tokens=4, d_visual=16)
base = md.build(cfg, seed=0)
ds = dt.generate(dt.TaskSpec(kind="mm-adapt", n_samples=256, seed=0, d_visual=16))

# train the same init two ways, trace the norm gradients of one of them
runs = {}
trace = an.GradTrace()
for kind in ("layernorm", "finetune"):
    m = tr.clone_model(base)
    tr.train(m, TuningStrategy(kind), ds, None,
             tr.TrainConfig(lr=1e-3, steps=60, batch=32, seed=0),
             trace=trace if kind == "layernorm" else None, trace_every=15)
    runs[kind] = m

reports = [an.layer_similarity(runs[k], ds.tokens[:64], ds.features[:64], label=k)
           for k in runs]
for rep in reports:
    print(f"{rep.label:10s} mean off-diagonal cosine "
          f"{rep.average:.4f}  ({rep.n_layers} layers)")
    print(np.round(rep.matrix, 3))
a, b = reports
print(f"relative difference ({a.label} vs {b.label}): "
      f"{an.relative_drop(a.average, b.average):+.3%}\n")

# the traced gradient stream: histogram mass equals the parameter count,
# and the first rows of the CSV the training loop would write
entry = trace.entries[0]
print(f"traced paths per step: {len({e.path for e in trace.entries})}, "
      f"hist mass of {entry.path} = {int(entry.hist.sum())}")
buf = io.StringIO()
trace.to_csv(buf)
lines = buf.getvalue().splitlines()
print(f"{lines[0].count(',') + 1} columns: 4 statistics, then one count per bin")
print("\n".join(",".join(line.split(",")[:6]) + ",..." for line in lines[:5]))

# the published three-row reference arithmetic behind "about 10.6% lower"
print(f"\nreference mean relative drop: {an.mean_relative_drop():.2%}")
