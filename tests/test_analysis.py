import io

import numpy as np
import pytest

from normadapt import analysis as an
from normadapt import autograd as ag
from normadapt import model as md


def build_tiny(**overrides):
    base = dict(n_layers=3, d_model=8, n_heads=2, d_ff=16, vocab_size=11,
                max_seq=16, norm_kind="standard", n_visual_tokens=3, d_visual=5)
    base.update(overrides)
    return md.build(md.ModelConfig(**base), seed=0)


def test_identical_representations_give_all_ones():
    rep = np.array([1.0, -2.0, 0.5])
    report = an.similarity_from_representations([rep, rep.copy(), rep.copy()])
    np.testing.assert_allclose(report.matrix, 1.0, atol=1e-12)
    assert report.average == pytest.approx(1.0, abs=1e-12)


def test_identity_blocks_give_all_ones_on_a_real_model():
    m = build_tiny()
    for p, t in m.tree.items():
        # zero every projection inside the blocks: each block becomes h -> h
        if p.startswith("blocks.") and t.data.ndim == 2:
            t.data = np.zeros_like(t.data)
    report = an.layer_similarity(m, np.arange(6)[None] % 11)
    np.testing.assert_allclose(report.matrix, 1.0, atol=1e-6)
    assert report.average == pytest.approx(1.0, abs=1e-6)


def test_orthogonal_fixture_gives_zero_off_diagonals():
    reps = list(np.eye(4))
    report = an.similarity_from_representations(reps)
    assert report.average == 0.0
    np.testing.assert_array_equal(report.matrix, np.eye(4))


def test_zero_norm_representation_names_the_layer():
    with pytest.raises(ValueError, match="layer 1"):
        an.similarity_from_representations([np.ones(3), np.zeros(3)])


def test_cosine_invariant_to_positive_rescaling():
    rng = np.random.default_rng(0)
    reps = [rng.standard_normal(6) for _ in range(4)]
    a = an.similarity_from_representations(reps)
    b = an.similarity_from_representations([7.5 * r for r in reps])
    np.testing.assert_allclose(a.matrix, b.matrix, atol=1e-12)


def test_real_model_report_invariants_and_determinism():
    m = build_tiny()
    ids = np.random.default_rng(17).integers(0, 11, size=(8, 6))
    one = an.layer_similarity(m, ids, probe={"label": "base"})
    two = an.layer_similarity(m, ids)
    np.testing.assert_array_equal(one.matrix, two.matrix)
    assert one.matrix.shape == (3, 3)
    np.testing.assert_allclose(np.diag(one.matrix), 1.0, atol=1e-6)
    np.testing.assert_allclose(one.matrix, one.matrix.T, atol=1e-12)
    assert (np.abs(one.matrix) <= 1.0).all()
    off = one.matrix[np.triu_indices(3, k=1)]
    assert one.average == pytest.approx(off.mean())
    assert one.probe["label"] == "base"


def test_compare_similarity_pairs_and_errors():
    rng = np.random.default_rng(1)
    reps = [rng.standard_normal(5) for _ in range(3)]
    a = an.similarity_from_representations(reps, probe={"label": "a"})
    same = an.similarity_from_representations(reps, probe={"label": "b"})
    rows = an.compare_similarity([a, same])
    assert len(rows) == 1
    assert rows[0].relative_diff == 0.0
    assert (rows[0].label_a, rows[0].label_b) == ("a", "b")

    short = an.similarity_from_representations(reps[:2])
    with pytest.raises(ValueError, match="mismatched"):
        an.compare_similarity([a, short])


def test_reference_pair_arithmetic():
    drop = an.SimilarityDiff("x", "y", 0.624, 0.585).relative_diff
    assert drop == pytest.approx((0.624 - 0.585) / 0.624)
    assert drop == pytest.approx(0.0625, abs=5e-4)
    # aggregate over the three reference pairs
    assert 0.105 <= an.mean_relative_drop() <= 0.107


def test_grad_trace_zero_and_constant_gradients():
    m = build_tiny(n_layers=1)
    path = "blocks.0.input_norm.weight"
    t = m.tree[path]
    trace = an.GradTrace()

    t.grad = np.zeros(8, dtype=np.float32)
    trace.record(0, m.tree, [path])
    entry = trace.entries[-1]
    assert entry.mean == 0.0 and entry.variance == 0.0
    assert entry.hist.sum() == 8 and entry.hist.max() == 8

    t.grad = np.full(8, 0.003, dtype=np.float32)
    trace.record(1, m.tree, [path])
    entry = trace.entries[-1]
    assert entry.mean == pytest.approx(0.003)
    assert entry.variance == 0.0
    assert entry.hist.sum() == 8


def test_grad_trace_clamps_out_of_range_mass():
    m = build_tiny(n_layers=1)
    path = "final_norm.weight"
    m.tree[path].grad = np.array([-5.0, -0.001, 0.0, 12.0, 0.02, 0.005, 0.0, 1.0])
    trace = an.GradTrace()
    trace.record(3, m.tree, [path])
    assert trace.entries[0].hist.sum() == 8


def test_grad_trace_step_ordering_and_missing_grad():
    m = build_tiny(n_layers=1)
    path = "final_norm.weight"
    m.tree[path].grad = np.zeros(8)
    trace = an.GradTrace()
    trace.record(5, m.tree, [path])
    with pytest.raises(ValueError, match="not greater"):
        trace.record(5, m.tree, [path])
    trace.record(6, m.tree, [path])
    assert trace.steps == [5, 6]

    m.tree["blocks.0.post_norm.weight"].grad = None
    with pytest.raises(ValueError, match="post_norm"):
        trace.record(7, m.tree, ["blocks.0.post_norm.weight"])


def test_grad_trace_variance_matches_float64_shadow():
    m = build_tiny()
    ids = np.random.default_rng(4).integers(0, 11, size=(2, 7))
    loss = ag.cross_entropy(m.forward(ids), ids)
    ag.backward(loss)
    norm_paths = [p for p in m.tree.paths() if "norm" in p and p.endswith("weight")]
    trace = an.GradTrace()
    trace.record(0, m.tree, norm_paths)
    for entry in trace.entries:
        g = np.asarray(m.tree[entry.path].grad, dtype=np.float64).ravel()
        assert abs(entry.variance - g.var()) <= 1e-10
        assert abs(entry.mean - g.mean()) <= 1e-12
        assert entry.hist.sum() == g.size


def test_grad_trace_matches_each_path_alone_bitwise():
    """One pass over all paths gives each entry exactly what np.histogram,
    mean and var of that path's gradient alone give."""
    rng = np.random.default_rng(12)
    edges = an.GradTrace().edges
    grads = {
        "edges": edges.copy(),                          # every bin edge, both ends
        "edges-reversed": edges[::-1].astype(np.float32),
        "outside": np.array([-5.0, -0.0100001, 0.0100001, 12.0, -np.inf, np.inf]),
        "gaussian": rng.normal(0.0, 0.01, (3, 5)).astype(np.float32),
        "same-size": rng.normal(0.001, 0.004, 15),      # a second row of size 15
        "large": rng.normal(0.0, 0.02, 70_001),         # past numpy's pairwise blocks
        "one": np.array([0.003]),
        "nan": np.array([0.001, np.nan, -0.02]),
    }
    tree = {p: ag.tensor(np.zeros_like(g)) for p, g in grads.items()}
    for p, g in grads.items():
        tree[p].grad = g
    trace = an.GradTrace()
    with np.errstate(invalid="ignore"):  # inf - inf in "outside"
        trace.record(0, tree, list(grads))
    assert [e.path for e in trace.entries] == list(grads)
    for entry in trace.entries:
        flat = np.asarray(grads[entry.path], dtype=np.float64).ravel()
        hist, _ = np.histogram(np.clip(flat, an.HIST_LO, an.HIST_HI), bins=edges)
        with np.errstate(invalid="ignore"):
            mean, var = flat.mean(), flat.var()
        assert np.float64(entry.mean).tobytes() == mean.tobytes(), entry.path
        assert np.float64(entry.variance).tobytes() == var.tobytes(), entry.path
        assert entry.hist.dtype == hist.dtype, entry.path
        np.testing.assert_array_equal(entry.hist, hist, err_msg=entry.path)
    assert trace.entries[0].hist.tolist() == [1] * 63 + [2]
    assert trace.entries[2].hist.tolist() == [3] + [0] * 62 + [3]


def test_grad_trace_csv_long_format():
    m = build_tiny(n_layers=1)
    m.tree["final_norm.weight"].grad = np.zeros(8)
    trace = an.GradTrace()
    trace.record(0, m.tree, ["final_norm.weight"])
    buf = io.StringIO()
    trace.to_csv(buf)
    lines = buf.getvalue().strip().splitlines()
    bins = ",".join(f"bin_{lo!r}" for lo in np.linspace(-0.01, 0.01, 65)[:-1].tolist())
    assert lines[0] == "step,path,mean,variance," + bins
    assert lines[1].startswith("0,final_norm.weight,")
    assert lines[1].endswith(",0" * 32 + ",8" + ",0" * 31)  # zeros land in [0, 0.0003125)
