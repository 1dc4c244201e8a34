"""Synthetic attribute-retrieval tasks, text-only and visual-prefix variants.

Every sample hides a latent attribute vector z (n_attrs values, each in
[0, n_values)).  Text pretraining declares the attributes in-context as
(marker, value-token) pairs; the multimodal variant drops the declarations
and supplies one visual feature per attribute instead, so answering requires
reading the connector-projected prefix.  Three body categories:

  conversation  repeated (Q, ATTR_k -> VAL token) rounds
  description   enumerate all attribute values in order
  reasoning     compare two attributes, answer GT / LT / EQ

Targets are next-token ids with IGNORE (-1) everywhere loss is masked: text
pretraining scores every non-pad transition, adaptation scores answers only.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .autograd import IGNORE
from .model import VisionStub, sample_rngs

PAD, BOS, SEP, Q, DESC, CMP, GT, LT, EQ = range(9)
_N_SPECIALS = 9
N_ROUNDS = 3  # conversation rounds per sample

CATEGORIES = ("conversation", "description", "reasoning")
TASK_KINDS = ("text-pretrain", "mm-adapt")

# default stub shared by train/eval splits: same slot->feature table
_DEFAULT_STUB_SEED = 7
_FEATURE_ID_STRIDE = 1_000_003  # sample i's feature id is seed * stride + i


def attr_token(k):
    return _N_SPECIALS + k


def value_token(k, v, n_attrs, n_values):
    return _N_SPECIALS + n_attrs + k * n_values + v


def vocab_required(n_attrs, n_values):
    return _N_SPECIALS + n_attrs + n_attrs * n_values


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    n_samples: int
    seq_len: int = 24
    mixture: tuple = (1 / 3, 1 / 3, 1 / 3)
    n_attrs: int = 4
    n_values: int = 16
    seed: int = 0

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        if self.n_samples <= 0:
            raise ValueError(f"n_samples must be positive, got {self.n_samples}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if (self.kind == "mm-adapt"
                and self.seed > (2**64 - self.n_samples) // _FEATURE_ID_STRIDE):
            raise ValueError(f"seed {self.seed} too large: mm-adapt feature ids "
                             f"seed * {_FEATURE_ID_STRIDE} + i must stay below 2**64")
        mix = tuple(float(w) for w in self.mixture)
        if len(mix) != len(CATEGORIES) or any(w < 0 for w in mix):
            raise ValueError(f"mixture needs {len(CATEGORIES)} non-negative weights")
        if abs(sum(mix) - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got {sum(mix)}")
        object.__setattr__(self, "mixture", mix)
        if mix[2] > 0 and self.n_attrs < 2:
            raise ValueError("reasoning compares two attributes: it needs "
                             f"n_attrs >= 2, got {self.n_attrs}")
        if self.seq_len < self.max_body_len():
            raise ValueError(
                f"seq_len {self.seq_len} below worst-case sample length "
                f"{self.max_body_len()} for kind {self.kind}")

    def max_body_len(self) -> int:
        head = 2  # BOS, SEP
        if self.kind == "text-pretrain":
            head += 2 * self.n_attrs
        body = max(3 * N_ROUNDS, 1 + self.n_attrs, 3)
        return head + body


@dataclass
class Dataset:
    spec: TaskSpec
    tokens: np.ndarray        # (n, seq_len) int64, PAD-filled
    targets: np.ndarray       # (n, L) int64; L = seq_len (+ n_attrs when visual)
    answer_mask: np.ndarray   # (n, seq_len) bool over text positions
    categories: np.ndarray    # (n,) int index into CATEGORIES
    values: np.ndarray        # (n, n_attrs) latent attribute values
    features: np.ndarray = None  # (n, n_attrs, d_visual) for mm-adapt

    def __len__(self):
        return self.tokens.shape[0]

    @property
    def vocab_required(self):
        return vocab_required(self.spec.n_attrs, self.spec.n_values)


def generate(spec: TaskSpec, stub: VisionStub = None) -> Dataset:
    """Build the dataset of `spec`; visual features come from `stub`.

    Sample i depends only on (spec.seed, i): one generator, in the state
    `np.random.default_rng` gives that pair, draws in order the category (one
    uniform against the mixture CDF, as Generator.choice does), the latent z
    (integers(0, n_values, n_attrs)) and, for conversation and reasoning, a
    permutation of the attributes.  Its visual noise depends only on
    (stub.seed, spec.seed * 1_000_003 + i) in the same way, that id taken
    exactly, as a uint64.  `sample_rngs` hashes the seeds of all samples in
    one vectorized pass and makes each generator as the loop reaches it.
    Only those draws run per sample; tokens, masks and targets are written
    one category at a time.
    """
    K, M = spec.n_attrs, spec.n_values
    n, T = spec.n_samples, spec.seq_len
    visual = spec.kind == "mm-adapt"
    if visual and stub is None:
        stub = VisionStub(d_visual=64, n_slots=K * M, mode="aligned",
                          seed=_DEFAULT_STUB_SEED)

    rounds = min(N_ROUNDS, K)
    cdf = np.cumsum(spec.mixture)
    cdf /= cdf[-1]
    cdf = cdf.tolist()
    categories = np.empty(n, dtype=np.int64)
    values = np.empty((n, K), dtype=np.int64)
    picks = np.zeros((n, rounds), dtype=np.int64)  # leading attribute permutation
    for i, rng in enumerate(sample_rngs(spec.seed, np.arange(n))):
        cat = bisect_right(cdf, rng.random())
        categories[i] = cat
        values[i] = rng.integers(0, M, size=K)
        if cat != 1:
            picks[i] = rng.permutation(K)[:rounds]

    attrs = np.arange(K)
    value_tokens = value_token(attrs, values, K, M)  # (n, K)
    tokens = np.full((n, T), PAD, dtype=np.int64)
    answer_mask = np.zeros((n, T), dtype=bool)
    tokens[:, 0] = BOS
    if not visual:
        tokens[:, 1:2 * K:2] = attr_token(attrs)
        tokens[:, 2:2 * K + 1:2] = value_tokens
    b = 1 if visual else 2 * K + 1
    tokens[:, b] = SEP
    b += 1  # first body position

    rows = np.flatnonzero(categories == 0)  # conversation
    k = picks[rows]
    tokens[rows, b:b + 3 * rounds:3] = Q
    tokens[rows, b + 1:b + 3 * rounds:3] = attr_token(k)
    tokens[rows, b + 2:b + 3 * rounds:3] = np.take_along_axis(
        value_tokens[rows], k, axis=1)
    answer_mask[rows, b + 2:b + 3 * rounds:3] = True

    rows = np.flatnonzero(categories == 1)  # description
    tokens[rows, b] = DESC
    tokens[rows, b + 1:b + 1 + K] = value_tokens[rows]
    answer_mask[rows, b + 1:b + 1 + K] = True

    rows = np.flatnonzero(categories == 2)  # reasoning
    if rows.size:  # n_attrs may be 1 when the mixture has no reasoning
        first, second = picks[rows, 0], picks[rows, 1]
        z1, z2 = values[rows, first], values[rows, second]
        tokens[rows, b] = CMP
        tokens[rows, b + 1] = attr_token(first)
        tokens[rows, b + 2] = attr_token(second)
        tokens[rows, b + 3] = np.where(z1 > z2, GT, np.where(z1 < z2, LT, EQ))
        answer_mask[rows, b + 3] = True

    # next-token targets over the combined (prefix + text) sequence
    prefix = K if visual else 0
    scored = answer_mask[:, 1:] if visual else tokens[:, 1:] != PAD
    targets = np.full((n, prefix + T), IGNORE, dtype=np.int64)
    targets[:, prefix:prefix + T - 1] = np.where(scored, tokens[:, 1:], IGNORE)

    features = None
    if visual:
        features = stub.features(attrs * M + values,
                                 np.uint64(spec.seed * _FEATURE_ID_STRIDE)
                                 + np.arange(n, dtype=np.uint64))
    return Dataset(spec=spec, tokens=tokens, targets=targets,
                   answer_mask=answer_mask, categories=categories,
                   values=values, features=features)


def expected_answers(sample_tokens, z, spec: TaskSpec):
    """Oracle: recompute every masked answer token from the latent alone.

    Returns (position, token) pairs over the text sequence.
    """
    K, M = spec.n_attrs, spec.n_values
    toks = list(sample_tokens)
    out = []
    i = toks.index(SEP) + 1
    while i < len(toks) and toks[i] != PAD:
        if toks[i] == Q:
            k = toks[i + 1] - _N_SPECIALS
            out.append((i + 2, value_token(k, z[k], K, M)))
            i += 3
        elif toks[i] == DESC:
            for k in range(K):
                out.append((i + 1 + k, value_token(k, z[k], K, M)))
            i += 1 + K
        elif toks[i] == CMP:
            a = toks[i + 1] - _N_SPECIALS
            b = toks[i + 2] - _N_SPECIALS
            rel = GT if z[a] > z[b] else (LT if z[a] < z[b] else EQ)
            out.append((i + 3, rel))
            i += 4
        else:
            raise ValueError(f"unparseable body token {toks[i]} at {i}")
    return out
