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
Sample i's draws come from the generator `np.random.default_rng((seed, i))`
would make: `_sample_states` hashes every sample's seed words and
`_pcg64_seed` seeds its PCG64 at once in numpy integer arithmetic, and
`_pcg64_words` steps them all.  Visual features come from `VisionStub`,
whose noise is drawn from those seeded states too.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .autograd import IGNORE

PAD, BOS, SEP, Q, DESC, CMP, GT, LT, EQ = range(9)
_N_SPECIALS = 9
N_ROUNDS = 3  # conversation rounds per sample

CATEGORIES = ("conversation", "description", "reasoning")
TASK_KINDS = ("text-pretrain", "mm-adapt")
VISION_MODES = ("aligned", "unaligned")
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
        if self.n_attrs < 1:
            raise ValueError(f"n_attrs must be positive, got {self.n_attrs}")
        if not 1 <= self.n_values <= 2**32:  # generate's draws are 32-bit
            raise ValueError(f"n_values must be in [1, 2**32], got {self.n_values}")
        if (self.kind == "mm-adapt"
                and self.seed > (2**64 - self.n_samples) // _FEATURE_ID_STRIDE):
            raise ValueError(f"seed {self.seed} too large: mm-adapt feature ids "
                             f"seed * {_FEATURE_ID_STRIDE} + i must stay below 2**64")
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
    features: np.ndarray = None  # (n, n_attrs, d_visual) float32 for mm-adapt

    def __len__(self):
        return self.tokens.shape[0]

    @property
    def vocab_required(self):
        return vocab_required(self.spec.n_attrs, self.spec.n_values)


# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of 4
# uint32 words and its multipliers.
_POOL = 4
_INIT_A, _MULT_A = 0x43b0d7e5, 0x931e8875
_INIT_B, _MULT_B = 0x8b51f9dd, 0x58f38ded
_MIX_L, _MIX_R = np.uint32(0xca01f9dd), np.uint32(0x4973f715)
_MASK32 = 0xFFFFFFFF


def _seed_states(entropy):
    """`SeedSequence(entropy).generate_state(4, np.uint64)` for many rows at
    once: `entropy` is a list of uint32 columns, one per entropy word, and
    the result is (rows, 4) uint64.  The hash constants depend only on the
    word position, so every row runs the same uint32 operations."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = h * _MULT_A & _MASK32
        value = value * np.uint32(h)
        return value ^ (value >> 16)

    def mix(x, y):
        out = x * _MIX_L - y * _MIX_R
        return out ^ (out >> 16)

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:  # entropy longer than the pool
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    h = _INIT_B
    state = np.empty((len(zero), 2 * _POOL), dtype=np.uint32)
    for i in range(2 * _POOL):
        value = pool[i % _POOL] ^ np.uint32(h)
        h = h * _MULT_B & _MASK32
        value = value * np.uint32(h)
        state[:, i] = value ^ (value >> 16)
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _sample_states(key, ids):
    """The PCG64 seed words `np.random.default_rng((key, id))` hashes for
    each of the int array `ids`, as (len(ids), 4) uint64 rows.

    The seeding hash runs for all ids at once.  A key or id is one uint32 word
    per 32 bits, so an id from 2**32 up makes its row's entropy one word
    longer: every row is hashed with a one-word id, and those rows again with
    a two-word one.
    """
    key = operator.index(key)
    ids = np.asarray(ids).reshape(-1)
    if ids.dtype.kind not in "iu":
        raise TypeError(f"ids must be integers, got {ids.dtype}")
    if key < 0 or (ids.size and ids.min() < 0):
        raise ValueError("key and ids must be non-negative")
    ids = ids.astype(np.uint64)
    low = (ids & _MASK32).astype(np.uint32)
    high = (ids >> 32).astype(np.uint32)
    # the key's uint32 words, low first, as SeedSequence splits an int
    head = [np.full(ids.size, key >> shift & _MASK32, dtype=np.uint32)
            for shift in range(0, max(key.bit_length(), 1), 32)]
    states = _seed_states(head + [low])
    long = high != 0
    if long.any():
        states[long] = _seed_states([w[long] for w in head] + [low[long], high[long]])
    return states


# numpy's PCG64 (numpy/random/src/pcg64/pcg64.h): a 128-bit LCG with this
# multiplier and an XSL-RR output, its 128-bit words held as (high, low) uint64
_PCG_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_PCG_MULT_LO = np.uint64(0x4385DF649FCCF645)


def _pcg64_step(hi, lo, inc_hi, inc_lo):
    """state * multiplier + inc, mod 2**128.  The high word of the low words'
    product is built from 32-bit halves, whose products fit in 64 bits."""
    l0, l1 = lo & _MASK32, lo >> 32
    m0, m1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32
    t = l0 * m0
    mid = l1 * m0 + (t >> 32)
    carry = l1 * m1 + (mid >> 32) + ((l0 * m1 + (mid & _MASK32)) >> 32)
    new_lo = lo * _PCG_MULT_LO + inc_lo
    new_hi = (hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + carry + inc_hi
              + (new_lo < inc_lo))
    return new_hi, new_lo


def _pcg64_seed(states):
    """numpy's `pcg64_set_seed` for every row of the (rows, 4) uint64 seed
    words `states` (as `_sample_states` returns them): the state before the
    first output and the increment, as uint64 columns (hi, lo, inc_hi, inc_lo).

    The state is words 0 and 1 (high first), the stream words 2 and 3,
    inc = stream << 1 | 1; one step from state 0, the state added, one more
    step.
    """
    s_hi, s_lo, q_hi, q_lo = states.T
    inc_hi = (q_hi << 1) | (q_lo >> 63)
    inc_lo = (q_lo << 1) | 1
    lo = inc_lo + s_lo  # the first step from 0 leaves inc
    hi = inc_hi + s_hi + (lo < s_lo)
    return (*_pcg64_step(hi, lo, inc_hi, inc_lo), inc_hi, inc_lo)


def _pcg64_words(states, n):
    """The first n raw outputs (`random_raw(n)`) of the PCG64 that
    `_pcg64_seed` seeds from each row of `states`, as (rows, n) uint64, every
    row stepped at once.  Each output is a step, then the high word ^ the low
    word rotated right by the top 6 bits of the state.
    """
    hi, lo, inc_hi, inc_lo = _pcg64_seed(states)
    out = np.empty((len(hi), n), dtype=np.uint64)
    for j in range(n):
        hi, lo = _pcg64_step(hi, lo, inc_hi, inc_lo)
        x, rot = hi ^ lo, hi >> 58
        out[:, j] = (x >> rot) | (x << ((64 - rot) & 63))  # rot 0 shifts by 0, not 64
    return out


_FEATURE_CHUNK = 256  # samples of float64 noise `VisionStub.features` holds at once


class VisionStub:
    """Deterministic stand-in for a frozen vision encoder.

    A fixed table of per-slot feature vectors (drawn once from `seed`) plus
    per-sample noise keyed by (seed, sample_id).  `unaligned` warps the table
    through a fixed random tanh layer so no linear connector can match the
    aligned geometry.  Never trainable.
    """

    def __init__(self, d_visual, n_slots, mode="aligned", seed=0, noise_std=0.05):
        if mode not in VISION_MODES:
            raise ValueError(f"mode must be one of {VISION_MODES}, got {mode!r}")
        self.d_visual = int(d_visual)
        self.n_slots = int(n_slots)
        self.mode = mode
        self.seed = int(seed)
        self.noise_std = float(noise_std)
        if not 0 <= self.noise_std < np.inf:
            raise ValueError(f"noise_std must be finite and >= 0, got {self.noise_std}")
        rng = np.random.default_rng(self.seed)
        table = rng.normal(0.0, 1.0, (self.n_slots, self.d_visual))
        if mode == "unaligned":
            warp = rng.normal(0.0, 1.0, (self.d_visual, self.d_visual))
            table = np.tanh(table @ (warp / np.sqrt(self.d_visual))) * 1.5
        self._table = table

    def features(self, slot_ids, sample_id) -> np.ndarray:
        """(n, n_tokens) slot ids and n sample ids -> (n, n_tokens, d_visual)
        float32.  Each sample's noise is numpy's `standard_normal` from one
        generator set, before each sample, to the PCG64 state numpy's
        `default_rng` gives the seed (seed, sample_id) (see `_pcg64_seed`).
        Every value is computed in float64, `table[slot] + noise_std * noise`,
        and rounded to float32 once; samples go through float64 in chunks of
        `_FEATURE_CHUNK`, so no full-size float64 array is made.
        """
        slots = np.asarray(slot_ids)
        ids = np.asarray(sample_id)
        if slots.ndim != 2 or ids.shape != slots.shape[:1]:
            raise ValueError(f"sample_id shape {ids.shape} does not match "
                             f"(n, n_tokens) slot_ids shape {slots.shape}")
        if slots.min() < 0 or slots.max() >= self.n_slots:
            raise ValueError(f"slot id out of range [0, {self.n_slots})")
        seeded = [w.tolist() for w in _pcg64_seed(_sample_states(self.seed, ids))]
        bits = np.random.PCG64(0)
        rng = np.random.Generator(bits)
        pcg = {"state": 0, "inc": 0}  # refilled for each sample; the setter copies it
        state = {"bit_generator": "PCG64", "state": pcg, "has_uint32": 0, "uinteger": 0}
        features = np.empty(slots.shape + (self.d_visual,), dtype=np.float32)
        noise = np.empty((min(len(slots), _FEATURE_CHUNK),) + features.shape[1:])
        for start in range(0, len(slots), _FEATURE_CHUNK):
            chunk = noise[:len(slots) - start]
            for out, hi, lo, inc_hi, inc_lo in zip(
                    chunk, *(w[start:start + _FEATURE_CHUNK] for w in seeded)):
                pcg["state"], pcg["inc"] = hi << 64 | lo, inc_hi << 64 | inc_lo
                bits.state = state
                rng.standard_normal(out=out)
            chunk *= self.noise_std
            chunk += self._table[slots[start:start + _FEATURE_CHUNK]]
            features[start:start + len(chunk)] = chunk
        return features


_FIRST_WORDS = 8  # PCG64 outputs a sample draws at first; 4 attributes use about 5


def _draws(words, cdf, K, M, rounds):
    """What a Generator whose PCG64 outputs the rows of `words` draws for
    `generate`, by numpy's own algorithms, for all rows at once: the category
    (`random()` against the mixture `cdf`), the latent z (`integers(0, M,
    size=K)`) and, unless the category is description, the first `rounds`
    of `permutation(K)`.  Returns those and the rows whose words ran out.
    """
    n = len(words)
    categories = np.searchsorted(cdf, (words[:, 0] >> 11) * 2.0**-53, side="right")
    # next_uint32 takes a word's low half, then its high half; reads past
    # the last half land on a zero pad and mark the row short
    width = 2 * words.shape[1] - 2
    halves = np.zeros((n, width + 1), dtype=np.uint64)
    halves[:, :width:2] = words[:, 1:] & _MASK32
    halves[:, 1:width:2] = words[:, 1:] >> 32
    at = np.zeros(n, dtype=np.int64)  # each row's next half

    def draw(rows, take):  # take: halves -> (values, accepted); rejected rows read on
        out = np.empty(rows.size, dtype=np.uint64)
        need = np.arange(rows.size)
        while need.size:
            r = rows[need]
            out[need], ok = take(halves[r, np.minimum(at[r], width)])
            at[r] += 1
            need = need[~ok & (at[r] <= width)]
        return out

    def lemire(h):  # bounded_lemire_uint32
        m = h * np.uint64(M)
        return m >> 32, (m & _MASK32) >= (2**32 - M) % M

    values = np.zeros((n, K), dtype=np.int64)
    if M > 1:  # a range of one value draws nothing
        for k in range(K):
            values[:, k] = draw(np.arange(n), lemire)
    # Fisher-Yates with random_interval's masked rejection, as shuffle does
    rows = np.flatnonzero(categories != 1)
    perm = np.tile(np.arange(K), (rows.size, 1))
    index = np.arange(rows.size)
    for i in range(K - 1, 0, -1):
        mask = (1 << i.bit_length()) - 1
        # a short row may stop on a rejected draw; clip it to stay in range
        j = np.minimum(draw(rows, lambda h: (h & mask, (h & mask) <= i)), i)
        perm[index, i], perm[index, j] = perm[index, j], perm[index, i]
    picks = np.zeros((n, rounds), dtype=np.int64)
    picks[rows] = perm[:, :rounds]
    return categories, values, picks, at > width


def generate(spec: TaskSpec, stub: VisionStub = None) -> Dataset:
    """Build the dataset of `spec`; an mm-adapt spec's visual features come
    from `stub`, which it requires.

    Sample i depends only on (spec.seed, i): one generator, in the state
    `np.random.default_rng` gives that pair, draws in order the category (one
    uniform against the mixture CDF, as Generator.choice does), the latent z
    (integers(0, n_values, n_attrs)) and, for conversation and reasoning, a
    permutation of the attributes.  Every sample's raw PCG64 outputs are
    computed at once (`_pcg64_words`), and so are the draws made from them
    (`_draws`); no bit generator is made.  Its visual noise depends only on
    (stub.seed, spec.seed * 1_000_003 + i) in the same way, that id taken
    exactly, as a uint64; numpy's normal sampler draws it from one generator
    whose state is set per sample (`VisionStub.features`).  Tokens, masks and
    targets are written one category at a time.
    """
    K, M = spec.n_attrs, spec.n_values
    n, T = spec.n_samples, spec.seq_len
    visual = spec.kind == "mm-adapt"
    if visual and stub is None:
        raise ValueError("mm-adapt needs a VisionStub for its features "
                         "(AdaptProtocol.stub() is the protocol's)")

    rounds = min(N_ROUNDS, K)
    cdf = np.cumsum(spec.mixture)
    cdf /= cdf[-1]
    states = _sample_states(spec.seed, np.arange(n))
    categories = np.empty(n, dtype=np.int64)
    values = np.empty((n, K), dtype=np.int64)
    picks = np.empty((n, rounds), dtype=np.int64)  # leading attribute permutation
    todo, n_words = np.arange(n), _FIRST_WORDS
    while todo.size:  # rows whose words ran out redraw twice as many
        categories[todo], values[todo], picks[todo], short = _draws(
            _pcg64_words(states[todo], n_words), cdf, K, M, rounds)
        todo, n_words = todo[short], 2 * n_words

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
