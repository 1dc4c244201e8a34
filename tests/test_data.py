from bisect import bisect_right

import numpy as np
import pytest
from numpy.random.bit_generator import ISeedSequence

from normadapt import data as dt
from normadapt import training as tr


def reference_generate(spec, stub=None):
    """The per-sample generator `generate` replaced, kept as its oracle."""
    K, M = spec.n_attrs, spec.n_values
    n, T = spec.n_samples, spec.seq_len
    visual = spec.kind == "mm-adapt"
    tokens = np.full((n, T), dt.PAD, dtype=np.int64)
    answer_mask = np.zeros((n, T), dtype=bool)
    categories = np.zeros(n, dtype=np.int64)
    values = np.zeros((n, K), dtype=np.int64)
    features = np.zeros((n, K, stub.d_visual)) if visual else None
    prefix = K if visual else 0
    targets = np.full((n, prefix + T), dt.IGNORE, dtype=np.int64)
    for i in range(n):
        rng = np.random.default_rng((spec.seed, i))
        cat = int(rng.choice(len(dt.CATEGORIES), p=spec.mixture))
        z = rng.integers(0, M, size=K)
        toks, mask = [dt.BOS], [False]
        if not visual:
            for k in range(K):
                toks += [dt.attr_token(k), dt.value_token(k, z[k], K, M)]
                mask += [False, False]
        toks.append(dt.SEP)
        mask.append(False)
        if cat == 0:
            for k in rng.permutation(K)[:dt.N_ROUNDS]:
                toks += [dt.Q, dt.attr_token(k), dt.value_token(k, z[k], K, M)]
                mask += [False, False, True]
        elif cat == 1:
            toks.append(dt.DESC)
            mask.append(False)
            for k in range(K):
                toks.append(dt.value_token(k, z[k], K, M))
                mask.append(True)
        else:
            a, b = rng.permutation(K)[:2]
            rel = dt.GT if z[a] > z[b] else (dt.LT if z[a] < z[b] else dt.EQ)
            toks += [dt.CMP, dt.attr_token(a), dt.attr_token(b), rel]
            mask += [False, False, False, True]
        tokens[i, :len(toks)] = toks
        answer_mask[i, :len(mask)] = mask
        categories[i] = cat
        values[i] = z
        if visual:
            slots = np.arange(K) * M + z
            noise = np.random.default_rng(
                (stub.seed, spec.seed * 1_000_003 + i)).standard_normal(
                    (K, stub.d_visual))
            features[i] = stub._table[slots] + stub.noise_std * noise
        for j in range(len(toks) - 1):
            score = mask[j + 1] if visual else toks[j + 1] != dt.PAD
            if score:
                targets[i, prefix + j] = toks[j + 1]
    return dict(tokens=tokens, targets=targets, answer_mask=answer_mask,
                categories=categories, values=values, features=features)


def assert_matches_reference(sp, stub=None):
    got = dt.generate(sp, stub)
    for name, expect in reference_generate(sp, stub).items():
        actual = getattr(got, name)
        if expect is None:
            assert actual is None
            continue
        assert actual.dtype == expect.dtype and actual.shape == expect.shape
        np.testing.assert_array_equal(actual, expect, err_msg=name)


def spec(**overrides):
    base = dict(kind="text-pretrain", n_samples=50, seq_len=24, seed=0)
    base.update(overrides)
    return dt.TaskSpec(**base)


STUB = tr.AdaptProtocol().stub()  # for the default 4 attributes of 16 values


def test_same_seed_is_bitwise_identical():
    a = dt.generate(spec(kind="mm-adapt"), STUB)
    b = dt.generate(spec(kind="mm-adapt"), STUB)
    np.testing.assert_array_equal(a.tokens, b.tokens)
    np.testing.assert_array_equal(a.targets, b.targets)
    np.testing.assert_array_equal(a.features, b.features)
    c = dt.generate(spec(kind="mm-adapt", seed=1), STUB)
    assert not np.array_equal(a.tokens, c.tokens)


ORACLE_STUBS = {
    "unaligned": dict(mode="unaligned", seed=5),
    "noiseless": dict(seed=2, noise_std=0.0),
}


@pytest.mark.parametrize("kind, stub", [
    ("text-pretrain", "default"), ("mm-adapt", "default"),
    ("mm-adapt", "unaligned"), ("mm-adapt", "noiseless")])
@pytest.mark.parametrize("attrs_values", [(4, 16), (3, 5), (5, 7), (2, 1)],
                         ids=lambda kv: f"K{kv[0]}M{kv[1]}")
@pytest.mark.parametrize("mixture", [
    (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
    (0.6, 0.2, 0.2)], ids=["uniform", "conv", "desc", "reason", "skewed"])
def test_generate_matches_per_sample_reference(kind, stub, mixture,
                                               attrs_values):
    K, M = attrs_values
    head = 2 + (2 * K if kind == "text-pretrain" else 0)
    tight = head + max(3 * dt.N_ROUNDS, 1 + K)
    # 4295's feature ids (4295 * 1_000_003 + i) and 2**32 + 5's sample keys
    # are two uint32 words each; 10**13's feature ids pass 2**63
    for seed, slack in ((0, 0), (3, 5), (11, 1), (4295, 2), (2**32 + 5, 0),
                        (10**13, 0)):
        sp = spec(kind=kind, n_samples=40, mixture=mixture, n_attrs=K,
                  n_values=M, seq_len=tight + slack, seed=seed)
        if stub == "default":
            st = tr.AdaptProtocol(n_attrs=K, n_values=M).stub()
        else:
            st = dt.VisionStub(d_visual=6, n_slots=K * M, **ORACLE_STUBS[stub])
        assert_matches_reference(sp, st)


@pytest.mark.parametrize("kind", dt.TASK_KINDS)
def test_generate_single_attribute_without_reasoning(kind):
    for mixture in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.5, 0.0)):
        stub = tr.AdaptProtocol(n_attrs=1, n_values=3, mixture=mixture).stub()
        assert_matches_reference(spec(kind=kind, n_samples=20, n_attrs=1,
                                      n_values=3, mixture=mixture), stub)


_M32 = 0xFFFFFFFF


def numpy_c_draws(words, cdf, K, M):
    """A plain-Python copy of the numpy C behind one sample's draws, run on
    its PCG64 outputs `words`: `random()` (next_double), `integers(0, M,
    size=K)` (random_bounded_uint64_fill) and, unless the category is
    description, `permutation(K)` (shuffle's random_interval), all 32-bit
    draws reading pcg64_next32's low-then-high halves.  (category, z,
    permutation), or None when the words run out."""
    words = iter(words)
    spare = []

    def next_uint32():
        if spare:
            return spare.pop()
        word = next(words)
        spare.append(word >> 32)
        return word & _M32

    def bounded_lemire_uint32(rng):
        rng_excl = rng + 1
        m = next_uint32() * rng_excl
        leftover = m & _M32
        if leftover < rng_excl:
            threshold = (_M32 - rng) % rng_excl
            while leftover < threshold:
                m = next_uint32() * rng_excl
                leftover = m & _M32
        return m >> 32

    def random_interval(max_):
        mask = max_
        for shift in (1, 2, 4, 8, 16, 32):
            mask |= mask >> shift
        while (value := next_uint32() & mask) > max_:
            pass
        return value

    try:
        cat = bisect_right(cdf, (next(words) >> 11) * (1.0 / 9007199254740992.0))
        rng = M - 1
        if rng == 0:
            z = [0] * K
        elif rng == _M32:
            z = [next_uint32() for _ in range(K)]
        else:
            z = [bounded_lemire_uint32(rng) for _ in range(K)]
        perm = list(range(K))
        if cat != 1:
            for i in range(K - 1, 0, -1):
                j = random_interval(i)
                perm[i], perm[j] = perm[j], perm[i]
    except StopIteration:
        return None
    return cat, z, perm


CDF = [0.3, 0.6, 1.0]


@pytest.mark.parametrize("K, M", [(4, 16), (5, 17), (2, 1), (3, 2**32)])
def test_numpy_c_copy_matches_numpy(K, M):
    for i in range(200):
        rng = np.random.default_rng((9, i))
        words = np.random.default_rng((9, i)).bit_generator.random_raw(40).tolist()
        cat, z, perm = numpy_c_draws(words, CDF, K, M)
        assert cat == bisect_right(CDF, rng.random())
        assert z == rng.integers(0, M, size=K).tolist()
        if cat != 1:
            assert perm == rng.permutation(K).tolist()


@pytest.mark.parametrize("K, M", [(1, 3), (2, 1), (3, 17), (4, 16), (5, 17),
                                  (4, 2**32)])
def test_draws_match_numpys_c_on_crafted_words(K, M):
    """Rows of 1 to 7 words.  Every third row's words 1 and 2 are zero: with
    M = 17 a zero half is rejected, as (2**32 - 17) % 17 == 1.  A row whose
    words run out is reported short, whatever it drew."""
    rng = np.random.default_rng(K * 31 + M % 97)
    rounds = min(dt.N_ROUNDS, K)
    seen_short = seen_whole = 0
    for n_words in range(1, 8):
        words = rng.bit_generator.random_raw((300, n_words))
        words[::3, 1:3] = 0
        cats, values, picks, short = dt._draws(words, np.array(CDF), K, M, rounds)
        for row, got in enumerate(zip(cats, values, picks, short)):
            want = numpy_c_draws(words[row].tolist(), CDF, K, M)
            assert got[3] == (want is None), (n_words, row)
            if want is None:
                seen_short += 1
                continue
            seen_whole += 1
            cat, z, perm = want
            assert got[0] == cat and got[1].tolist() == z
            assert got[2].tolist() == (perm[:rounds] if cat != 1 else [0] * rounds)
            if M == 17 and row % 3 == 0 and n_words > 3:  # 4 zero halves rejected
                assert z[0] == (int(words[row, 3]) & _M32) * 17 >> 32
    assert seen_whole and seen_short


@pytest.mark.parametrize("kind", dt.TASK_KINDS)
def test_rows_that_run_out_of_words_redraw_more(kind, monkeypatch):
    """With one word drawn at first, every row that draws a value runs out
    and redraws 2, 4, 8 and 16 words."""
    monkeypatch.setattr(dt, "_FIRST_WORDS", 1)
    for K, M in ((4, 16), (5, 17), (3, 1)):
        stub = tr.AdaptProtocol(n_attrs=K, n_values=M).stub()
        assert_matches_reference(spec(kind=kind, n_samples=60, n_attrs=K,
                                      n_values=M, seed=3), stub)


@pytest.mark.parametrize("split", ["text_dataset", "mm_datasets"])
def test_default_protocol_training_splits_match_reference(split):
    """All 4096 samples of the default protocol's training splits."""
    proto = tr.AdaptProtocol()
    ds = getattr(proto, split)()
    ds = ds[0] if split == "mm_datasets" else ds
    stub = proto.stub() if split == "mm_datasets" else None
    assert len(ds) == 4096
    for name, expect in reference_generate(ds.spec, stub).items():
        actual = getattr(ds, name)
        if expect is None:
            assert actual is None
            continue
        assert actual.dtype == expect.dtype and actual.tobytes() == expect.tobytes(), name


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
    with pytest.raises(ValueError, match="seq_len"):
        spec(seq_len=10)
    with pytest.raises(ValueError, match="n_attrs >= 2"):
        spec(n_attrs=1, mixture=(0.5, 0.0, 0.5))
    with pytest.raises(ValueError, match="seed must be >= 0, got -3"):
        spec(seed=-3)
    with pytest.raises(ValueError, match="n_attrs must be positive, got 0"):
        spec(n_attrs=0, mixture=(0.5, 0.5, 0.0))
    with pytest.raises(ValueError, match=r"n_values must be in \[1, 2\*\*32\], got 0"):
        spec(n_values=0)
    with pytest.raises(ValueError, match=f"n_values must be .* got {2**32 + 1}"):
        spec(n_values=2**32 + 1)


def test_generate_takes_the_widest_32_bit_range():
    """n_values = 2**32 is numpy's unbounded 32-bit draw, which Lemire's
    method with a zero threshold reproduces."""
    assert_matches_reference(spec(n_samples=30, n_values=2**32, seed=7))


def test_category_counts_track_mixture():
    ds = dt.generate(spec(n_samples=3000, mixture=(0.6, 0.2, 0.2), seed=3))
    freq = np.bincount(ds.categories, minlength=3) / len(ds)
    np.testing.assert_allclose(freq, [0.6, 0.2, 0.2], atol=0.05)


def test_oracle_decoder_recovers_every_answer():
    for kind in dt.TASK_KINDS:
        ds = dt.generate(spec(kind=kind, n_samples=200, seed=5), STUB)
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
    ds = dt.generate(spec(kind="mm-adapt", n_samples=20, seed=2), STUB)
    K = ds.spec.n_attrs
    assert ds.targets.shape == (20, K + ds.spec.seq_len)
    assert (ds.targets[:, :K] == dt.IGNORE).all()
    for i in range(len(ds)):
        scored = np.flatnonzero(ds.targets[i] != dt.IGNORE)
        answers = np.flatnonzero(ds.answer_mask[i])
        np.testing.assert_array_equal(scored, answers - 1 + K)
        for pos in scored:
            assert ds.targets[i, pos] == ds.tokens[i, pos - K + 1]


def test_features_follow_latent_slots():
    st = dt.VisionStub(d_visual=8, n_slots=4 * 16, seed=11, noise_std=0.0)
    ds = dt.generate(spec(kind="mm-adapt", n_samples=10, seed=4), stub=st)
    for i in range(10):
        slots = np.arange(4) * 16 + ds.values[i]
        np.testing.assert_array_equal(ds.features[i], st._table[slots])


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


def test_mm_adapt_needs_a_stub():
    with pytest.raises(ValueError, match="VisionStub"):
        dt.generate(dt.TaskSpec(kind="mm-adapt", n_samples=4, seq_len=12))


_KEYS = pytest.mark.parametrize(
    "key", [0, 7, 2**32 - 1, 2**32 + 3, 2**64 + 5, 2**96 + 1],
    ids=["0", "7", "2^32-1", "2^32+3", "2^64+5", "2^96+1"])
# ids of 1 and 2 uint32 words: a 3-word key with a 2-word id runs the
# entropy past SeedSequence's 4-word pool
_IDS = np.array([0, 1, 2**32 - 1, 2**32, 2**32 + 1, 5 * 10**12, 2**63 - 1, 2**64 - 1],
                dtype=np.uint64)


@_KEYS
def test_pcg64_words_match_tuple_seeded_default_rng(key):
    """Keys of 1 to 4 uint32 words: every sample's raw outputs, from which
    `generate` draws, are those of `default_rng((key, id))`."""
    words = dt._pcg64_words(dt._sample_states(key, _IDS), 8)
    for row, i in zip(words, _IDS.tolist(), strict=True):
        want = np.random.default_rng((key, i)).bit_generator.random_raw(8)
        assert row.tobytes() == want.tobytes(), i


@_KEYS
def test_vision_stub_noise_matches_tuple_seeded_default_rng(key):
    stub = dt.VisionStub(d_visual=5, n_slots=12, seed=key)
    slots = np.arange(len(_IDS) * 3).reshape(-1, 3) % 12
    got = stub.features(slots, _IDS)
    for row, s, i in zip(got, slots, _IDS.tolist(), strict=True):
        noise = np.random.default_rng((key, i)).standard_normal((3, 5))
        want = stub._table[s] + stub.noise_std * noise
        assert row.tobytes() == want.tobytes(), i


def test_sample_states_refuse_negative_keys_and_ids():
    with pytest.raises(ValueError, match="non-negative"):
        dt._sample_states(-1, np.arange(3))
    with pytest.raises(ValueError, match="non-negative"):
        dt._sample_states(0, np.array([4, -2, 1]))
    with pytest.raises(TypeError, match="integers"):
        dt._sample_states(0, np.array([0.5]))


def test_vision_stub_determinism_and_modes():
    a = dt.VisionStub(d_visual=6, n_slots=10, seed=3)
    b = dt.VisionStub(d_visual=6, n_slots=10, seed=3)
    slots = np.array([[1, 4, 7]])
    np.testing.assert_array_equal(a.features(slots, [17]), b.features(slots, [17]))
    assert not np.allclose(a.features(slots, [17]), a.features(slots, [18]))

    warped = dt.VisionStub(d_visual=6, n_slots=10, seed=3, mode="unaligned")
    assert not np.allclose(a.features(slots, [17]), warped.features(slots, [17]))
    with pytest.raises(ValueError):
        dt.VisionStub(d_visual=6, n_slots=10, mode="conv")
    with pytest.raises(ValueError):
        a.features(np.array([[10]]), [0])

    # a batched call is its one-row batches stacked, bitwise
    batch = np.array([[1, 4, 7], [0, 9, 2], [3, 3, 5], [8, 6, 1]])
    ids = np.array([17, 18, 5, 400_000_000_000])
    for stub in (a, warped, dt.VisionStub(d_visual=6, n_slots=10, seed=3,
                                          noise_std=0.0)):
        rows = stub.features(batch, ids)
        assert rows.shape == (4, 3, 6)
        for i in range(len(batch)):
            np.testing.assert_array_equal(
                rows[i:i + 1], stub.features(batch[i:i + 1], ids[i:i + 1]))
    with pytest.raises(ValueError, match="sample_id shape"):
        a.features(batch, 17)
    with pytest.raises(ValueError, match="sample_id shape"):
        a.features(batch[0], 17)  # one sample is a one-row batch
    with pytest.raises(ValueError, match="out of range"):
        a.features(np.array([[1, 2], [3, -1]]), [0, 1])


_M64 = 2**64 - 1
_PCG_M = int(dt._PCG_MULT_HI) << 64 | int(dt._PCG_MULT_LO)


def pcg64_seed_words(first_state, stream):
    """The seed words whose PCG64 steps to `first_state` for its first
    output, on stream `stream`: numpy's set-seed and step run backwards."""
    inc = (stream << 1 | 1) & (2**128 - 1)
    m_inv = pow(_PCG_M, -1, 2**128)
    seeded = (first_state - inc) * m_inv % 2**128
    state = ((seeded - inc) * m_inv - inc) % 2**128
    return [state >> 64, state & _M64, stream >> 64, stream & _M64]


class SeedWords(ISeedSequence):
    """Hands numpy's PCG64 the given seed words, so numpy's own seeding is
    the oracle for `_pcg64_seed`."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.uint64)

    def generate_state(self, n_words, dtype=np.uint32):
        assert n_words == self.words.size and np.dtype(dtype) == np.uint64
        return self.words


def assert_pcg64_words_match_numpy(states, n):
    got = dt._pcg64_words(states, n)
    assert got.dtype == np.uint64 and got.shape == (len(states), n)
    for row, words in zip(got, states):
        want = np.random.PCG64(SeedWords(words)).random_raw(n)
        assert row.tobytes() == want.tobytes(), words


def test_pcg64_words_match_numpy_on_crafted_words():
    """A low state word near 2**64, so adding it to inc carries; a stream
    whose top bit `<< 1` drops; outputs whose rotation is 0, and words of
    all zeros and all ones."""
    rows = [[5, _M64, 9, 3], [2**63, _M64 - 4, 2**63 | 7, _M64],
            [0, 0, 0, 0], [_M64] * 4, [1, 2**63, _M64, 2**63]]
    unrotated = [pcg64_seed_words(state, stream) for state, stream in (
        (0x0123456789ABCDEF << 64 | 0xFEDCBA9876543210, 2**127 + 5),
        (2**122 - 1, 0),
        (0, _M64),
        ((2**58 - 1) << 64 | _M64, (2**128 - 1) >> 1))]
    for words in unrotated:  # numpy agrees the first output's rotation is 0
        rng = np.random.PCG64(SeedWords(words))
        rng.random_raw(1)
        assert rng.state["state"]["state"] >> 122 == 0
    states = np.array(rows + unrotated, dtype=np.uint64)
    assert_pcg64_words_match_numpy(states, 12)
    assert_pcg64_words_match_numpy(states[:1], 0)


def test_pcg64_words_match_numpy_in_bulk():
    """12,000 sample seeds, half of them with ids past 2**32, and the words
    a short row redraws are the first words a longer draw gives."""
    ids = np.concatenate([np.arange(6000), 2**32 - 3000 + np.arange(6000)])
    states = dt._sample_states(4242, ids)
    assert_pcg64_words_match_numpy(states, 9)
    np.testing.assert_array_equal(dt._pcg64_words(states[:50], 16)[:, :9],
                                  dt._pcg64_words(states[:50], 9))


def test_generate_makes_no_bit_generator_for_its_draws(monkeypatch):
    """Text makes no PCG64 at all; mm-adapt makes one, for all its visual
    noise, even with a single first word so every row redraws."""
    made = []
    pcg64 = np.random.PCG64

    def counting(*args):
        made.append(args)
        return pcg64(*args)

    monkeypatch.setattr(np.random, "PCG64", counting)
    for first_words in (8, 1):
        monkeypatch.setattr(dt, "_FIRST_WORDS", first_words)
        text = dt.generate(spec(n_samples=300))
        assert len(made) == 0 and len(text) == 300
        dt.generate(spec(kind="mm-adapt", n_samples=300), STUB)
        assert len(made) == 1
        made.clear()


def test_vision_stub_refuses_non_finite_or_negative_noise():
    for noise in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError, match=f"noise_std must be finite and >= 0, "
                                             f"got {noise}"):
            dt.VisionStub(d_visual=4, n_slots=8, noise_std=noise)
