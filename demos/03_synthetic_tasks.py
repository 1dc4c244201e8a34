# The toy domain: a latent attribute vector rendered either as text
# declarations (pretraining) or as visual feature vectors (adaptation).
# Shows raw token layouts, the category mixture, and the oracle decoder.

import numpy as np

from normadapt import data as dt

spec = dt.TaskSpec(kind="text-pretrain", n_samples=6, mixture=(0.4, 0.3, 0.3),
                   seed=42)
ds = dt.generate(spec)
print("vocab required:", ds.vocab_required)
for i in range(3):
    cat = dt.CATEGORIES[ds.categories[i]]
    print(f"sample {i} ({cat:12s}) z={ds.values[i]} tokens={ds.tokens[i]}")

# same latent recipe, but declarations replaced by visual features from the
# fixed vision stub: the model sees K projected vectors in front of BOS
# instead of token pairs
mm = dt.generate(dt.TaskSpec(kind="mm-adapt", n_samples=6, mixture=(0.4, 0.3, 0.3),
                             seed=42))
print("\nmm-adapt tokens (no declarations, features carry the attributes):")
print(mm.tokens[0], " features", mm.features.shape)

# targets score only answer positions; everything else is ignore-marked
scored = (mm.targets[0] != dt.IGNORE).sum()
print("scored positions in sample 0:", int(scored), "of", mm.targets.shape[1])

# the answers are a pure function of the latent -- the oracle decoder
# recovers every (position, token) pair, which is what makes held-out loss
# on answer positions meaningful
ok = 0
for i in range(len(mm)):
    expected = dict(dt.expected_answers(mm.tokens[i], mm.values[i], mm.spec))
    positions = np.flatnonzero(mm.answer_mask[i])
    ok += (len(positions) == len(expected)
           and all(mm.tokens[i][p] == expected[p] for p in positions))
print("oracle-decoded samples:", ok, "/", len(mm))

# mixture bookkeeping: counts follow the weights
big = dt.generate(dt.TaskSpec(kind="text-pretrain", n_samples=3000,
                              mixture=(0.5, 0.25, 0.25), seed=7))
counts = np.bincount(big.categories, minlength=3)
print("\nmixture (0.5, 0.25, 0.25) over 3000 samples ->", counts)
