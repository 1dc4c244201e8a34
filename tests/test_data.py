import hashlib
import math
import re
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest

from normadapt import data as dt
from normadapt import training as tr

_M32, _M64 = 2**32 - 1, 2**64 - 1
_G = 0x9E3779B97F4A7C15


def ref_mix(z):
    z ^= z >> 30
    z = z * 0xBF58476D1CE4E5B9 & _M64
    z ^= z >> 27
    z = z * 0x94D049BB133111EB & _M64
    return z ^ z >> 31


def ref_words(key, i, width):
    """Sample i's words under the int tuple `key`, in Python ints."""
    h = 0
    for k in key:
        h = ref_mix(((h ^ k) + _G) & _M64)
    row = ref_mix(h ^ i)
    return [ref_mix((row + (j + 1) * _G) & _M64) for j in range(width)]


def ref_noise(key, i, size):
    """Box-Muller: radii from the high halves, angles from the low halves,
    every cosine before every sine."""
    words = ref_words(key, i, -(-size // 2))
    radii = [math.sqrt(-2.0 * math.log(((w >> 32) + 0.5) * 2.0**-32)) for w in words]
    angles = [(w & _M32) * (2 * math.pi * 2.0**-32) for w in words]
    return ([r * math.cos(a) for r, a in zip(radii, angles)]
            + [r * math.sin(a) for r, a in zip(radii, angles)])[:size]


def reference_generate(spec):
    """The recipe `generate` computes in bulk, one sample at a time."""
    K, M = spec.n_attrs, dt.N_VALUES
    n, T = spec.n_samples, spec.seq_len
    visual = spec.kind == "mm-adapt"
    cdf = list(accumulate(spec.mixture))
    cdf = [c / cdf[-1] for c in cdf]
    tokens = np.full((n, T), dt.PAD, dtype=np.int64)
    answer_mask = np.zeros((n, T), dtype=bool)
    categories = np.zeros(n, dtype=np.int64)
    values = np.zeros((n, K), dtype=np.int64)
    d = spec.d_visual
    features = np.zeros((n, K, d)) if visual else None
    table = np.random.default_rng(dt.STUB_SEED).normal(0.0, 1.0, (K * M, d))
    prefix = K if visual else 0
    targets = np.full((n, prefix + T), dt.IGNORE, dtype=np.int64)
    for i in range(n):
        w = ref_words((spec.seed,), i, 1 + 2 * K)
        cat = bisect_right(cdf, (w[0] >> 11) * 2.0**-53)
        z = [w[1 + k] % M for k in range(K)]
        order = sorted(range(K), key=lambda k: w[1 + K + k])  # a stable sort
        toks, mask = [dt.BOS], [False]
        if not visual:
            for k in range(K):
                toks += [dt.attr_token(k), dt.value_token(k, z[k], K)]
                mask += [False, False]
        toks.append(dt.SEP)
        mask.append(False)
        if cat == 0:
            for k in order[:dt.N_ROUNDS]:
                toks += [dt.Q, dt.attr_token(k), dt.value_token(k, z[k], K)]
                mask += [False, False, True]
        elif cat == 1:
            toks.append(dt.DESC)
            mask.append(False)
            for k in range(K):
                toks.append(dt.value_token(k, z[k], K))
                mask.append(True)
        else:
            a, b = order[:2]
            rel = dt.GT if z[a] > z[b] else (dt.LT if z[a] < z[b] else dt.EQ)
            toks += [dt.CMP, dt.attr_token(a), dt.attr_token(b), rel]
            mask += [False, False, False, True]
        tokens[i, :len(toks)] = toks
        answer_mask[i, :len(mask)] = mask
        categories[i] = cat
        values[i] = z
        if visual:
            noise = ref_noise((dt.STUB_SEED, spec.seed), i, K * d)
            for k in range(K):
                row = table[k * M + z[k]].tolist()
                features[i, k] = [row[c] + dt.NOISE_STD * noise[k * d + c]
                                  for c in range(d)]
        for j in range(len(toks) - 1):
            score = mask[j + 1] if visual else toks[j + 1] != dt.PAD
            if score:
                targets[i, prefix + j] = toks[j + 1]
    if visual:  # computed in float64, rounded once
        features = features.astype(np.float32)
    return dict(tokens=tokens, targets=targets, answer_mask=answer_mask,
                categories=categories, values=values, features=features)


def assert_is_reference(ds):
    """Integer arrays bitwise; features to 1 float32 ulp, as numpy's log, cos
    and sin may differ from the C library's by an ulp in float64."""
    for name, expect in reference_generate(ds.spec).items():
        actual = getattr(ds, name)
        if expect is None:
            assert actual is None
            continue
        assert actual.dtype == expect.dtype and actual.shape == expect.shape, name
        if name == "features":
            np.testing.assert_array_max_ulp(actual, expect, maxulp=1)
        else:
            assert actual.tobytes() == expect.tobytes(), name


def assert_matches_reference(sp):
    assert_is_reference(dt.generate(sp))


def spec(**overrides):
    base = dict(kind="text-pretrain", n_samples=50, seed=0)
    base.update(overrides)
    return dt.TaskSpec(**base)


def test_same_seed_is_bitwise_identical():
    a = dt.generate(spec(kind="mm-adapt"))
    b = dt.generate(spec(kind="mm-adapt"))
    np.testing.assert_array_equal(a.tokens, b.tokens)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.features, b.features)
    c = dt.generate(spec(kind="mm-adapt", seed=1))
    assert not np.array_equal(a.tokens, c.tokens)


# stub case -> (STUB_SEED, noise scale) patched into `data`.  The case named
# "unaligned" keeps its test id and covers the largest stub seed.
ORACLE_STUBS = {
    "unaligned": (2**64 - 1, dt.NOISE_STD),
    "noiseless": (2, 0.0),
}


@pytest.mark.parametrize("kind, stub", [
    ("text-pretrain", "default"), ("mm-adapt", "default"),
    ("mm-adapt", "unaligned"), ("mm-adapt", "noiseless")])
@pytest.mark.parametrize("attrs_values", [(4, 16), (3, 5), (5, 7), (2, 1)],
                         ids=lambda kv: f"K{kv[0]}M{kv[1]}")
@pytest.mark.parametrize("mixture", [
    (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
    (0.6, 0.2, 0.2)], ids=["uniform", "conv", "desc", "reason", "skewed"])
def test_generate_matches_per_sample_reference(monkeypatch, kind, stub, mixture,
                                               attrs_values):
    """K attributes, and M values each: the recipe's arithmetic holds at any
    value count `data.N_VALUES` is set to, not only at its 16."""
    K, M = attrs_values
    monkeypatch.setattr(dt, "N_VALUES", M)
    d_visual = 64  # TaskSpec's default
    if stub != "default":
        stub_seed, noise = ORACLE_STUBS[stub]
        monkeypatch.setattr(dt, "STUB_SEED", stub_seed)
        monkeypatch.setattr(dt, "NOISE_STD", noise)
        d_visual = 6
    # seeds past 2**63 reach the hash as uint64, up to the largest
    for seed in (0, 3, 11, 2**32 + 5, 2**63 + 7, 2**64 - 1):
        assert_matches_reference(spec(kind=kind, n_samples=40, mixture=mixture,
                                      n_attrs=K, seed=seed, d_visual=d_visual))


@pytest.mark.parametrize("kind", dt.TASK_KINDS)
def test_generate_single_attribute_without_reasoning(kind):
    for mixture in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0)):
        assert_matches_reference(spec(kind=kind, n_samples=20, n_attrs=1,
                                      mixture=mixture))


@pytest.mark.parametrize("split", ["text_dataset", "mm_datasets"])
def test_default_protocol_training_splits_match_reference(split):
    """All 4096 samples of the default protocol's training splits."""
    proto = tr.AdaptProtocol()
    ds = getattr(proto, split)()
    ds = ds[0] if split == "mm_datasets" else ds
    assert len(ds) == 4096
    assert_is_reference(ds)


def test_degenerate_mixture_labels_all_conversation():
    ds = dt.generate(spec(mixture=(1.0, 0.0, 0.0)))
    assert (ds.categories == 0).all()
    # every body starts with the question marker right after SEP
    for row in ds.tokens:
        assert row[list(row).index(dt.SEP) + 1] == dt.Q


def test_mixture_validation():
    with pytest.raises(ValueError, match="sum to 1"):
        spec(mixture=(0.5, 0.2, 0.2))
    with pytest.raises(ValueError, match="non-negative"):
        spec(mixture=(1.5, -0.5, 0.0))
    for mixture in ((np.nan, 0.5, 0.5), (np.inf, 0.0, 0.0), (0.5, 0.5, -np.inf)):
        with pytest.raises(ValueError, match="mixture needs 3 finite non-negative"):
            spec(mixture=mixture)
    with pytest.raises(ValueError, match="n_samples"):
        spec(n_samples=0)
    with pytest.raises(ValueError, match="kind"):
        spec(kind="video")
    with pytest.raises(ValueError, match="n_attrs >= 2"):
        spec(n_attrs=1, mixture=(0.5, 0.0, 0.5))
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        spec(seed=-3)
    with pytest.raises(ValueError, match="n_attrs must be >= 1, got 0"):
        spec(n_attrs=0, mixture=(0.5, 0.5, 0.0))
    for d_visual in (0, -1):
        with pytest.raises(ValueError, match=f"d_visual must be >= 1, got {d_visual}"):
            spec(d_visual=d_visual)


def test_category_counts_track_mixture():
    ds = dt.generate(spec(n_samples=3000, mixture=(0.6, 0.2, 0.2), seed=3))
    freq = np.bincount(ds.categories, minlength=3) / len(ds)
    np.testing.assert_allclose(freq, [0.6, 0.2, 0.2], atol=0.05)


def test_oracle_decoder_recovers_every_answer():
    for kind in dt.TASK_KINDS:
        ds = dt.generate(spec(kind=kind, n_samples=200, seed=5))
        for i in range(len(ds)):
            expect = dict(dt.expected_answers(ds.tokens[i], ds.values[i], ds.spec))
            masked = np.flatnonzero(ds.answer_mask[i])
            assert set(masked) == set(expect)
            for pos in masked:
                assert ds.tokens[i, pos] == expect[pos]


def test_text_targets_score_all_transitions():
    ds = dt.generate(spec(kind="text-pretrain", n_samples=20, seed=2))
    assert ds.targets.shape == ds.tokens.shape
    for i in range(len(ds)):
        row, tgt = ds.tokens[i], ds.targets[i]
        for j in range(ds.spec.seq_len - 1):
            if row[j + 1] != dt.PAD:
                assert tgt[j] == row[j + 1]
            else:
                assert tgt[j] == dt.IGNORE
        assert tgt[-1] == dt.IGNORE


def test_mm_targets_are_answer_only_with_prefix_offset():
    ds = dt.generate(spec(kind="mm-adapt", n_samples=20, seed=2))
    K = ds.spec.n_attrs
    assert ds.targets.shape == (20, K + ds.spec.seq_len)
    assert (ds.targets[:, :K] == dt.IGNORE).all()
    for i in range(len(ds)):
        scored = np.flatnonzero(ds.targets[i] != dt.IGNORE)
        answers = np.flatnonzero(ds.answer_mask[i])
        np.testing.assert_array_equal(scored, answers - 1 + K)
        for pos in scored:
            assert ds.targets[i, pos] == ds.tokens[i, pos - K + 1]


def test_features_follow_latent_slots(monkeypatch):
    monkeypatch.setattr(dt, "NOISE_STD", 0.0)
    monkeypatch.setattr(dt, "STUB_SEED", 11)
    ds = dt.generate(spec(kind="mm-adapt", n_samples=10, seed=4, d_visual=8))
    table = np.random.default_rng(11).normal(0.0, 1.0, (4 * 16, 8))
    for i in range(10):
        slots = np.arange(4) * 16 + ds.values[i]
        assert ds.features.dtype == np.float32
        np.testing.assert_array_equal(ds.features[i], table[slots].astype(np.float32))


def test_vocab_requirement_arithmetic():
    ds = dt.generate(spec(n_samples=5))
    assert ds.vocab_required == 9 + 4 + 64 == 77
    assert ds.tokens.max() < ds.vocab_required


def test_reasoning_relation_tokens():
    ds = dt.generate(spec(mixture=(0.0, 0.0, 1.0), n_samples=300, seed=9))
    seen = set()
    for i in range(len(ds)):
        row = ds.tokens[i]
        pos = list(row).index(dt.CMP)
        a = row[pos + 1] - 9
        b = row[pos + 2] - 9
        rel = row[pos + 3]
        za, zb = ds.values[i, a], ds.values[i, b]
        want = dt.GT if za > zb else (dt.LT if za < zb else dt.EQ)
        assert rel == want
        seen.add(int(rel))
    assert seen == {dt.GT, dt.LT, dt.EQ}  # all three outcomes occur at n=300


def test_features_across_chunks(monkeypatch):
    """Samples past the first float64 chunk are drawn and rounded to float32
    as the first ones are, for split seeds and stub seeds up to 2**64 - 1."""
    monkeypatch.setattr(dt, "STUB_SEED", 2**64 - 1)
    n = 2 * dt._FEATURE_CHUNK + 5
    ds = dt.generate(spec(kind="mm-adapt", n_samples=n, n_attrs=2, seed=2**64 - 1,
                          d_visual=3))
    assert ds.features.dtype == np.float32 and ds.features.shape == (n, 2, 3)
    table = np.random.default_rng(2**64 - 1).normal(0.0, 1.0, (2 * dt.N_VALUES, 3))
    for i in (0, dt._FEATURE_CHUNK - 1, dt._FEATURE_CHUNK, 2 * dt._FEATURE_CHUNK, n - 1):
        noise = np.reshape(ref_noise((2**64 - 1, 2**64 - 1), i, 6), (2, 3))
        slots = np.arange(2) * dt.N_VALUES + ds.values[i]
        want = (table[slots] + dt.NOISE_STD * noise).astype(np.float32)
        np.testing.assert_array_max_ulp(ds.features[i], want, maxulp=1)


def test_generate_makes_no_bit_generator_for_its_draws(monkeypatch):
    """Every draw and all visual noise come from the counter hash: a text
    split makes no numpy generator, and an mm-adapt split makes one, seeded
    by STUB_SEED, for its slot table."""
    made = []
    default_rng = np.random.default_rng

    def record(*args, **kwargs):
        made.append((args, kwargs))
        return default_rng(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("generate made a numpy generator")

    monkeypatch.setattr(np.random, "default_rng", record)
    for name in ("Generator", "PCG64"):
        monkeypatch.setattr(np.random, name, refuse)
    assert len(dt.generate(spec(n_samples=300))) == 300
    assert made == []
    assert len(dt.generate(spec(kind="mm-adapt", n_samples=300))) == 300
    assert made == [((dt.STUB_SEED,), {})]


@pytest.mark.parametrize("kind", dt.TASK_KINDS)
def test_a_split_is_a_prefix_of_a_longer_one(kind):
    """Sample i depends only on (seed, i), across feature chunks too."""
    n = 2 * dt._FEATURE_CHUNK + 37
    whole = dt.generate(spec(kind=kind, n_samples=n, seed=12))
    for k in (1, dt._FEATURE_CHUNK + 3, n - 1):
        head = dt.generate(spec(kind=kind, n_samples=k, seed=12))
        for name in ("tokens", "targets", "answer_mask", "categories", "values",
                     "features"):
            if getattr(whole, name) is None:
                assert getattr(head, name) is None
                continue
            assert getattr(head, name).tobytes() == getattr(whole, name)[:k].tobytes(), name


def test_text_split_hash_is_committed():
    """The recipe is owned, not borrowed: integer arithmetic, a searchsorted
    and a stable argsort make a text split, with no BLAS and no libm, so its
    bytes are the same on every host and numpy version."""
    ds = dt.generate(spec(n_samples=64))
    digest = hashlib.sha256()
    for a in (ds.tokens, ds.targets, ds.answer_mask, ds.categories, ds.values):
        digest.update(a.astype("<i8").tobytes())
    assert digest.hexdigest() == "ea468f6b542cb697ab9abf6c476be1da1285c198e78db730927a29a6d23c98df"


def test_seeds_from_2_64_up_are_refused_by_name():
    with pytest.raises(ValueError, match=re.escape(f"seed must be below 2**64, got {2**64}")):
        spec(seed=2**64)
    assert spec(kind="mm-adapt", seed=2**64 - 1).seed == 2**64 - 1
    # the held-out split's seed + 3000 is the largest split seed
    assert tr.AdaptProtocol(seed=2**64 - 3001).seed == 2**64 - 3001
    with pytest.raises(ValueError, match=re.escape(
            f"seed {2**64 - 3000} too large: the held-out split's seed + 3000 is refused")):
        tr.AdaptProtocol(seed=2**64 - 3000)
