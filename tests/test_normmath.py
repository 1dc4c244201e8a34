import numpy as np
import pytest

from normadapt import autograd as ag
from normadapt import normmath as nm

from finite_diff import central_difference, max_relative_error


def test_two_point_stats():
    inst = nm.ln_stats([1.0, 3.0])
    assert inst.mu == 2.0 and inst.sigma == 1.0
    np.testing.assert_array_equal(inst.y, [-1.0, 1.0])


def test_four_point_stats_float64():
    inst = nm.ln_stats([0.0, 1.0, 2.0, 3.0])
    assert inst.mu == 1.5
    assert inst.sigma == np.sqrt(1.25)
    expected = (np.arange(4.0) - 1.5) / np.sqrt(1.25)
    np.testing.assert_allclose(inst.y, expected, rtol=0)
    np.testing.assert_allclose(inst.y, [-1.3416407865, -0.4472135955,
                                        0.4472135955, 1.3416407865], atol=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_normalized_vector_has_zero_mean_unit_variance(seed):
    rng = np.random.default_rng(seed)
    inst = nm.ln_stats(rng.standard_normal(rng.integers(2, 200)))
    assert abs(inst.y.mean()) <= 1e-12
    assert abs((inst.y ** 2).mean() - 1.0) <= 1e-12


def test_constant_input_raises_degenerate_sigma():
    with pytest.raises(ag.DegenerateSigmaError):
        nm.ln_stats(np.full(8, 3.0))


def test_backward_n2_collapses_to_zero():
    inst = nm.ln_stats([1.0, 3.0])
    rng = np.random.default_rng(0)
    for _ in range(5):
        a = nm.ln_backward_closed_form(inst, rng.standard_normal(2))
        np.testing.assert_allclose(a, 0.0, atol=1e-15)


def test_backward_length_mismatch():
    inst = nm.ln_stats([1.0, 2.0, 4.0])
    with pytest.raises(ValueError):
        nm.ln_backward_closed_form(inst, np.ones(4))


@pytest.mark.parametrize("seed", range(5))
def test_closed_form_matches_autodiff_and_finite_differences(seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(8)
    b = rng.standard_normal(8)
    inst = nm.ln_stats(x)
    a = nm.ln_backward_closed_form(inst, b)

    # autodiff route: layer_norm with unit gain, zero bias, eps 0
    _, backward = ag._OPS["layer_norm"]([x.reshape(1, 8), np.ones(8), np.zeros(8)],
                                        {"eps": 0.0})
    gx = backward(b.reshape(1, 8), [True, False, False])[0]  # g = d(y . b)/dy
    np.testing.assert_allclose(a, gx.ravel(), atol=1e-10)

    # finite-difference route, fully independent of both analytic paths
    def scalar(arrs):
        inst2 = nm.ln_stats(arrs[0])
        return float(inst2.y @ b)

    numeric = central_difference(scalar, [x.copy()], step=1e-5)[0]
    assert max_relative_error(a, numeric) <= 1e-6


@pytest.mark.parametrize("seed", range(20))
def test_zero_mean_and_orthogonality(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 300))
    inst = nm.ln_stats(rng.standard_normal(n))
    a = nm.ln_backward_closed_form(inst, rng.standard_normal(n) * 3.0)
    scale = max(np.linalg.norm(a), 1e-30)
    assert abs(a.sum()) <= 1e-10 * scale
    assert abs(a @ inst.y) <= 1e-10 * scale * np.linalg.norm(inst.y)


@pytest.mark.parametrize("n", [3, 4, 16, 33, 128, 512])
def test_projection_diagnostics(n):
    rng = np.random.default_rng(n)
    inst = nm.ln_stats(rng.standard_normal(n))
    diag = nm.check_projection(inst)
    assert diag.idempotency_defect <= 1e-10
    assert diag.symmetry_defect <= 1e-10
    assert diag.ones_residual <= 1e-10
    assert diag.y_residual <= 1e-10


def test_projection_matrix_against_direct_construction():
    # independent construction: subtract rank-1 projectors explicitly
    rng = np.random.default_rng(11)
    inst = nm.ln_stats(rng.standard_normal(16))
    ones = np.ones(16)
    direct = (np.eye(16)
              - np.outer(inst.y, inst.y) / (inst.y @ inst.y)
              - np.outer(ones, ones) / (ones @ ones))
    # ||y||^2 = N for a normalized vector, so both forms agree
    np.testing.assert_allclose(nm.projection_matrix(inst), direct, atol=1e-12)


def test_bound_constant_upstream_gives_zero():
    inst = nm.ln_stats(np.random.default_rng(1).standard_normal(32))
    rec = nm.variance_bound_check(inst, np.full(32, 7.25))
    assert rec.var_a == 0.0 and rec.holds


def test_bound_y_direction_gives_zero():
    inst = nm.ln_stats(np.random.default_rng(2).standard_normal(32))
    a = nm.ln_backward_closed_form(inst, inst.y / inst.sigma)
    np.testing.assert_allclose(a, 0.0, atol=1e-14)


def test_bound_monte_carlo_no_violations():
    rng = np.random.default_rng(3)
    for _ in range(1000):
        inst = nm.ln_stats(rng.standard_normal(64))
        rec = nm.variance_bound_check(inst, rng.standard_normal(64) * 2.0)
        assert rec.holds


def test_scaling_study_decreases_and_reproduces():
    grid = [16, 64, 256, 1024]
    study = nm.variance_scaling_study(grid, trials=50, seed=9)
    again = nm.variance_scaling_study(grid, trials=50, seed=9)
    assert study.median_var == again.median_var
    assert all(b < a for a, b in zip(study.median_var, study.median_var[1:]))


def test_scaling_study_in_kernel_sampler_is_zero():
    study = nm.variance_scaling_study([8, 32], sampler="in-kernel", trials=20, seed=4)
    assert all(v <= 1e-28 for v in study.median_var)


def test_scaling_study_rejects_unsorted_grid():
    with pytest.raises(ValueError):
        nm.variance_scaling_study([64, 16], trials=5)


@pytest.mark.parametrize("grid, trials, message", [
    ([16, 64], 0, "trials must be >= 1, got 0"),
    ([16, 64], -1, "trials must be >= 1, got -1"),
    ([16], 5, "n_grid needs at least 2 sizes"),
    ([], 5, "n_grid needs at least 2 sizes"),
    ([1, 4], 5, r"n_grid sizes must be >= 2, got \[1, 4\]"),
    ([0, 16], 5, r"n_grid sizes must be >= 2, got \[0, 16\]"),
], ids=["trials-0", "trials-negative", "one-size", "no-size", "size-1", "size-0"])
def test_scaling_study_refuses_too_few_trials_or_sizes(grid, trials, message):
    with pytest.raises(ValueError, match=message):
        nm.variance_scaling_study(grid, trials=trials)
