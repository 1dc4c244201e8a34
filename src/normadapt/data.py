"""Synthetic attribute-retrieval tasks, text-only and visual-prefix variants.

Every sample hides a latent attribute vector z (n_attrs values, each in
[0, N_VALUES)).  Text pretraining declares the attributes in-context as
(marker, value-token) pairs; the multimodal variant drops the declarations
and supplies one visual feature per attribute instead, so answering requires
reading the connector-projected prefix.  Three body categories:

  conversation  repeated (Q, ATTR_k -> VAL token) rounds
  description   enumerate all attribute values in order
  reasoning     compare two attributes, answer GT / LT / EQ

Targets are next-token ids with IGNORE (-1) everywhere loss is masked: text
pretraining scores every non-pad transition, adaptation scores answers only.
Sample i depends only on (seed, i): its draws and its visual noise are read
from uint64 words of a SplitMix64 counter hash of the seed, i and the word's
index (`_words`), so no random generator is seeded per sample.  The visual
features stand in for a frozen vision encoder's: a fixed table of one
feature vector per (attribute, value) slot, numpy's `Generator` draw from
`STUB_SEED`, plus per-sample noise of scale `NOISE_STD`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import IGNORE, check_count

PAD, BOS, SEP, Q, DESC, CMP, GT, LT, EQ = range(9)
_N_SPECIALS = 9
N_ROUNDS = 3  # conversation rounds per sample
N_VALUES = 16  # values per attribute; a power of two, so a word mod it is uniform
NOISE_STD = 0.05  # scale of a visual feature's per-sample Gaussian noise
STUB_SEED = 7  # seeds the slot table every mm-adapt split shares

CATEGORIES = ("conversation", "description", "reasoning")
TASK_KINDS = ("text-pretrain", "mm-adapt")


def attr_token(k):
    return _N_SPECIALS + k


def value_token(k, v, n_attrs):
    return _N_SPECIALS + n_attrs + k * N_VALUES + v


def vocab_required(n_attrs):
    return _N_SPECIALS + n_attrs + n_attrs * N_VALUES


@dataclass(frozen=True)
class TaskSpec:
    kind: str
    n_samples: int
    mixture: tuple = (1 / 3, 1 / 3, 1 / 3)
    n_attrs: int = 4
    seed: int = 0
    d_visual: int = 64  # width of a visual feature; ModelConfig's default

    def __post_init__(self):
        if self.kind not in TASK_KINDS:
            raise ValueError(f"kind must be one of {TASK_KINDS}, got {self.kind!r}")
        for name, low in (("n_samples", 1), ("seed", 0), ("n_attrs", 1),
                          ("d_visual", 1)):
            check_count(name, getattr(self, name), low)
        if self.seed >= 2**64:  # the hash takes it as one uint64
            raise ValueError(f"seed must be below 2**64, got {self.seed}")
        mix = tuple(float(w) for w in self.mixture)
        if len(mix) != len(CATEGORIES) or not all(0 <= w < np.inf for w in mix):
            raise ValueError(f"mixture needs {len(CATEGORIES)} finite non-negative "
                             f"weights, got {mix}")
        if abs(sum(mix) - 1.0) > 1e-9:
            raise ValueError(f"mixture weights must sum to 1, got {sum(mix)}")
        object.__setattr__(self, "mixture", mix)
        if mix[2] > 0 and self.n_attrs < 2:
            raise ValueError("reasoning compares two attributes: it needs "
                             f"n_attrs >= 2, got {self.n_attrs}")

    @property
    def seq_len(self) -> int:  # the longest sample of its kind plus one PAD
        return self.max_body_len() + 1

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
    features: np.ndarray = None  # (n, n_attrs, d_visual) float32 for mm-adapt

    def __len__(self):
        return self.tokens.shape[0]

    @property
    def vocab_required(self):
        return vocab_required(self.spec.n_attrs)


# SplitMix64 (Steele, Lea & Flood 2014): its Weyl increment and the two
# multipliers of its output mix
_G = np.uint64(0x9E3779B97F4A7C15)
_MIX_A, _MIX_B = np.uint64(0xBF58476D1CE4E5B9), np.uint64(0x94D049BB133111EB)


def _mix(z):
    """SplitMix64's output function of a uint64 array, mod 2**64."""
    z = z ^ (z >> 30)
    z *= _MIX_A
    z ^= z >> 27
    z *= _MIX_B
    z ^= z >> 31
    return z


def _words(key, ids, width):
    """(len(ids), width) uint64 words, a counter hash: word j of row r mixes
    the int tuple `key`, ids[r] and j, so a row depends on nothing else.  The
    key is hashed as an array, as numpy warns when a uint64 scalar wraps."""
    h = np.zeros(1, dtype=np.uint64)
    for k in key:
        h = _mix((h ^ np.uint64(k)) + _G)
    rows = _mix(h ^ np.asarray(ids, dtype=np.uint64))
    return _mix(rows[:, None] + _G * np.arange(1, width + 1, dtype=np.uint64))


_FEATURE_CHUNK = 256  # samples of float64 noise `_features` holds at once


def _features(spec, slots):
    """(n, n_attrs) slot ids -> (n, n_attrs, d_visual) float32, each value
    `table[slot] + NOISE_STD * noise` computed in float64 and rounded once.

    The table is `default_rng(STUB_SEED)`'s normal draw of one row per slot.
    Sample i's noise is Box-Muller over its ceil(n_attrs * d_visual / 2) words
    `_words((STUB_SEED, spec.seed), [i], .)`: a word's high half gives the
    radius, its low half the angle, and every cosine comes before every sine.
    Samples go through float64 `_FEATURE_CHUNK` at a time, so no full-size
    float64 array is made.
    """
    table = np.random.default_rng(STUB_SEED).normal(
        0.0, 1.0, (spec.n_attrs * N_VALUES, spec.d_visual))
    features = np.empty(slots.shape + (spec.d_visual,), dtype=np.float32)
    size, ids = features[0].size, np.arange(len(slots))
    for start in range(0, len(slots), _FEATURE_CHUNK):
        chunk = slice(start, start + _FEATURE_CHUNK)
        w = _words((STUB_SEED, spec.seed), ids[chunk], -(-size // 2))
        radius = np.sqrt(-2.0 * np.log(((w >> 32) + 0.5) * 2.0**-32))
        angle = (w & 0xFFFFFFFF) * (2 * np.pi * 2.0**-32)
        noise = np.concatenate([radius * np.cos(angle),
                                radius * np.sin(angle)], axis=1)[:, :size]
        features[chunk] = (table[slots[chunk]]
                           + NOISE_STD * noise.reshape(-1, *features.shape[1:]))
    return features


def generate(spec: TaskSpec) -> Dataset:
    """Build the dataset of `spec`, the whole data recipe.

    Sample i depends only on (spec.seed, i).  Its 1 + 2 * n_attrs words
    `_words((spec.seed,), [i], .)` give, in order, the category (the top 53
    bits as a uniform against the mixture CDF), the latent z (each word mod
    N_VALUES) and the attribute order (a stable argsort of the last n_attrs
    words), which conversation and reasoning read.  An mm-adapt sample's
    feature k is the slot table's row k * N_VALUES + z[k] plus noise keyed by
    (STUB_SEED, spec.seed) and i (`_features`).  Every sample is drawn at
    once, and tokens, masks and targets are written one category at a time.
    """
    K = spec.n_attrs
    n, T = spec.n_samples, spec.seq_len
    visual = spec.kind == "mm-adapt"

    rounds = min(N_ROUNDS, K)
    cdf = np.cumsum(spec.mixture)
    cdf /= cdf[-1]
    w = _words((spec.seed,), np.arange(n), 1 + 2 * K)
    categories = np.searchsorted(cdf, (w[:, 0] >> 11) * 2.0**-53, side="right")
    values = (w[:, 1:1 + K] % np.uint64(N_VALUES)).astype(np.int64)
    picks = np.argsort(w[:, 1 + K:], axis=1, kind="stable")[:, :rounds]

    attrs = np.arange(K)
    value_tokens = value_token(attrs, values, K)  # (n, K)
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

    features = _features(spec, attrs * N_VALUES + values) if visual else None
    return Dataset(spec=spec, tokens=tokens, targets=targets,
                   answer_mask=answer_mask, categories=categories,
                   values=values, features=features)


def expected_answers(sample_tokens, z, spec: TaskSpec):
    """Oracle: recompute every masked answer token from the latent alone.

    Returns (position, token) pairs over the text sequence.
    """
    K = spec.n_attrs
    toks = list(sample_tokens)
    out = []
    i = toks.index(SEP) + 1
    while i < len(toks) and toks[i] != PAD:
        if toks[i] == Q:
            k = toks[i + 1] - _N_SPECIALS
            out.append((i + 2, value_token(k, z[k], K)))
            i += 3
        elif toks[i] == DESC:
            for k in range(K):
                out.append((i + 1 + k, value_token(k, z[k], K)))
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
