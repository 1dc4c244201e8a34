"""Exact LayerNorm gradient identities in float64.

Covers the closed-form backward map through the normalization, the
zero-mean property of the downstream gradient, the projection operator it
factors through, and the variance contraction that operator implies.
All statistics are population form (divisor N), with no epsilon: callers
get a degenerate-sigma error instead of a fudge factor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import DegenerateSigmaError


@dataclass
class NormInstance:
    """One normalization: input x, its mean/std, and the normalized y."""

    x: np.ndarray
    mu: float
    sigma: float
    y: np.ndarray

    @property
    def n(self) -> int:
        return self.x.size


def ln_stats(x) -> NormInstance:
    """Population mean/std of x and y = (x - mu) / sigma over the last axis."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1 or x.size < 2:
        raise ValueError(f"ln_stats: need a vector of length >= 2, got shape {x.shape}")
    mu = float(x.mean())
    sigma = float(np.sqrt(((x - mu) ** 2).mean()))
    if sigma == 0.0:
        raise DegenerateSigmaError("ln_stats: constant input (sigma = 0)")
    return NormInstance(x=x, mu=mu, sigma=sigma, y=(x - mu) / sigma)


def ln_backward_closed_form(inst: NormInstance, b) -> np.ndarray:
    """Map upstream gradient b to a = (1/sigma) (I - y y^T/N - 1 1^T/N) b."""
    b = np.asarray(b, dtype=np.float64)
    if b.shape != inst.y.shape:
        raise ValueError(f"ln_backward_closed_form: length mismatch {b.shape} vs {inst.y.shape}")
    n = inst.n
    return (b - inst.y * (inst.y @ b) / n - b.sum() / n) / inst.sigma


def projection_matrix(inst: NormInstance) -> np.ndarray:
    """Explicit W1 = I - (y y^T + 1 1^T) / N. For diagnostics; O(N^2) memory."""
    n = inst.n
    return np.eye(n) - (np.outer(inst.y, inst.y) + np.ones((n, n))) / n


@dataclass
class ProjectionDiagnostics:
    n: int
    idempotency_defect: float   # max |W1^2 - W1|
    symmetry_defect: float      # max |W1 - W1^T|
    ones_residual: float        # ||W1 @ 1||
    y_residual: float           # ||W1 @ y||

    def max_defect(self) -> float:
        return max(self.idempotency_defect, self.symmetry_defect,
                   self.ones_residual, self.y_residual)


def check_projection(inst: NormInstance) -> ProjectionDiagnostics:
    """Verify W1 is a symmetric idempotent that annihilates 1 and y."""
    w1 = projection_matrix(inst)
    return ProjectionDiagnostics(
        n=inst.n,
        idempotency_defect=float(np.abs(w1 @ w1 - w1).max()),
        symmetry_defect=float(np.abs(w1 - w1.T).max()),
        ones_residual=float(np.linalg.norm(w1 @ np.ones(inst.n))),
        y_residual=float(np.linalg.norm(w1 @ inst.y)),
    )


@dataclass
class BoundRecord:
    """The variance contraction the projection form implies, for one (x, b) pair."""

    n: int
    var_a: float                # sum a_i^2 / N  (a has zero mean)
    var_b_centered: float       # sum (b_i - b_mean)^2 / N
    sigma: float
    holds: bool                 # sigma^2 * var_a <= var_b_centered (+roundoff)

    @property
    def scaled_bound_slack(self) -> float:
        return self.var_b_centered - self.sigma ** 2 * self.var_a


def variance_bound_check(inst: NormInstance, b) -> BoundRecord:
    """Check the sigma-scaled contraction D_a <= D_b / sigma^2 for one draw."""
    b = np.asarray(b, dtype=np.float64)
    a = ln_backward_closed_form(inst, b)
    n = inst.n
    var_a = float((a * a).sum() / n)
    bc = b - b.mean()
    var_b = float((bc * bc).sum() / n)
    lhs = inst.sigma ** 2 * var_a
    return BoundRecord(
        n=n,
        var_a=var_a,
        var_b_centered=var_b,
        sigma=inst.sigma,
        holds=bool(lhs <= var_b * (1.0 + 1e-12) + 1e-300),
    )


# Upstream-gradient samplers for the scaling study. Each takes (rng, inst)
# and returns b with O(1) entries.

def sample_b_softmax_xent(rng: np.random.Generator, inst: NormInstance) -> np.ndarray:
    """Cross-entropy-at-the-top gradient: softmax(y) minus a random one-hot."""
    e = np.exp(inst.y - inst.y.max())
    p = e / e.sum()
    b = p.copy()
    b[rng.integers(inst.n)] -= 1.0
    return b


def sample_b_gaussian(rng: np.random.Generator, inst: NormInstance) -> np.ndarray:
    """Unstructured unit-variance upstream gradient (no decay expected)."""
    return rng.standard_normal(inst.n)


def sample_b_in_kernel(rng: np.random.Generator, inst: NormInstance) -> np.ndarray:
    """Upstream gradient inside span{1, y}: annihilated exactly."""
    return float(rng.standard_normal()) * inst.y + float(rng.standard_normal())


SAMPLERS = {
    "softmax-xent": sample_b_softmax_xent,
    "gaussian": sample_b_gaussian,
    "in-kernel": sample_b_in_kernel,
}


@dataclass
class ScalingStudy:
    sampler: str
    trials: int
    seed: int
    n_grid: list[int]
    median_var: list[float]
    loglog_slope: float = field(init=False)

    def __post_init__(self):
        logs_n = np.log(np.asarray(self.n_grid, dtype=np.float64))
        logs_v = np.log(np.maximum(np.asarray(self.median_var), 1e-300))
        self.loglog_slope = float(np.polyfit(logs_n, logs_v, 1)[0])


def variance_scaling_study(n_grid, sampler="softmax-xent", trials=200,
                           seed=0) -> ScalingStudy:
    """Median per-draw Var(a) at each N, plus the fitted log-log slope.

    The N-dependence is an empirical observation, not a theorem: the
    provable statement is only the per-draw contraction checked by
    variance_bound_check, so no decay exponent is asserted here.
    """
    n_grid = list(n_grid)
    if trials < 1:
        raise ValueError(f"variance_scaling_study: trials must be >= 1, got {trials}")
    if len(n_grid) < 2:
        raise ValueError("variance_scaling_study: n_grid needs at least 2 sizes "
                         f"to fit a slope, got {n_grid}")
    if min(n_grid) < 2:  # ln_stats normalizes a vector of length >= 2
        raise ValueError(f"variance_scaling_study: n_grid sizes must be >= 2, got {n_grid}")
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])):
        raise ValueError("variance_scaling_study: n_grid must be strictly ascending")
    draw_b = SAMPLERS[sampler]
    rng = np.random.default_rng(seed)
    medians = []
    for n in n_grid:
        variances = np.empty(trials)
        for t in range(trials):
            inst = ln_stats(rng.standard_normal(n))
            a = ln_backward_closed_form(inst, draw_b(rng, inst))
            variances[t] = (a * a).sum() / n - a.mean() ** 2
        medians.append(float(np.median(variances)))
    return ScalingStudy(sampler=sampler, trials=trials, seed=seed,
                        n_grid=n_grid, median_var=medians)
