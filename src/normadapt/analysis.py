"""Cross-layer representation similarity and per-step gradient statistics."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .model import Model

# Large-scale reference averages (full finetune vs norm-only tuning) kept for
# context in comparison reports; desk-scale runs do not reproduce them.
REFERENCE_SIMILARITY_PAIRS = ((0.624, 0.585), (0.591, 0.504), (0.617, 0.550))

# GradTrace histogram: 64 equal bins over [-0.01, 0.01], out-of-range
# gradients clamped into the edge bins.
HIST_LO, HIST_HI, HIST_BINS = -0.01, 0.01, 64


@dataclass(frozen=True)
class SimilarityReport:
    matrix: np.ndarray          # (L, L) cosine similarities
    average: float              # mean over the off-diagonal upper triangle
    probe: dict                 # dataset id / batch size / seed / label

    @property
    def n_layers(self) -> int:
        return self.matrix.shape[0]


def similarity_from_representations(reps, probe=None) -> SimilarityReport:
    """reps: list of (d,) layer vectors, at least 2 -> pairwise-cosine report."""
    reps = [np.asarray(r, dtype=np.float64) for r in reps]
    if len(reps) < 2:
        raise ValueError(f"similarity needs at least 2 layers, got {len(reps)}")
    norms = [np.linalg.norm(r) for r in reps]
    for i, n in enumerate(norms):
        if n == 0.0:
            raise ValueError(f"layer {i} pooled representation has zero norm")
    stacked = np.stack([r / n for r, n in zip(reps, norms)])
    matrix = np.clip(stacked @ stacked.T, -1.0, 1.0)
    upper = matrix[np.triu_indices(len(reps), k=1)]
    return SimilarityReport(matrix=matrix, average=float(upper.mean()),
                            probe=dict(probe or {}))


def layer_similarity(model: Model, tokens, visual=None, probe=None) -> SimilarityReport:
    """Mean-pool each block's output over batch and positions, then cosine."""
    states = model.capture_layer_outputs(tokens, visual)
    reps = [s.mean(axis=(0, 1)) for s in states]
    info = {"batch": int(np.asarray(tokens).shape[0]),
            "n_layers": len(states)}
    info.update(probe or {})
    return similarity_from_representations(reps, probe=info)


@dataclass(frozen=True)
class GradEntry:
    step: int
    path: str
    mean: float
    variance: float
    hist: np.ndarray  # (HIST_BINS,) counts, clamp-to-edge; sums to param count


@dataclass
class GradTrace:
    entries: list = field(default_factory=list)

    @property
    def steps(self):
        out = []
        for e in self.entries:
            if not out or e.step != out[-1]:
                out.append(e.step)
        return out

    @property
    def edges(self) -> np.ndarray:
        """(HIST_BINS + 1,) histogram bin edges from HIST_LO to HIST_HI."""
        return np.linspace(HIST_LO, HIST_HI, HIST_BINS + 1)

    def record(self, step, tree, paths):
        """Append stats per path; call after backward, before the optimizer.

        One pass over every path's gradient, each entry bitwise what
        `np.histogram`, `mean` and `var` of that gradient alone give:
        gradients of one size are reduced as the rows of one array (numpy
        sums a row as it sums a 1-d array), and all values are binned by one
        search over the lower edges (a NaN, which `np.histogram` drops, is
        counted nowhere).
        """
        if self.entries and step <= self.entries[-1].step:
            raise ValueError(
                f"step {step} not greater than last recorded {self.entries[-1].step}")
        names, grads = [], []
        for p in paths:
            g = tree[p].grad
            if g is None:
                raise ValueError(f"no gradient materialized for {p!r}")
            names.append(p)
            grads.append(np.asarray(g, dtype=np.float64).ravel())
        if not grads:
            return
        means, variances = np.empty(len(grads)), np.empty(len(grads))
        by_size = {}
        for i, g in enumerate(grads):
            by_size.setdefault(g.size, []).append(i)
        for rows in by_size.values():
            stacked = np.stack([grads[i] for i in rows])
            means[rows] = mean = stacked.mean(axis=1)
            stacked -= mean[:, None]
            stacked *= stacked
            variances[rows] = stacked.mean(axis=1)

        flat = np.concatenate(grads)
        # bin i holds [edge i, edge i + 1); the last bin also its upper edge
        index = np.searchsorted(self.edges[:-1], np.clip(flat, HIST_LO, HIST_HI),
                                side="right") - 1
        index += np.repeat(np.arange(0, len(grads) * HIST_BINS, HIST_BINS),
                           [g.size for g in grads])
        hists = np.bincount(index[~np.isnan(flat)], minlength=len(grads) * HIST_BINS)
        for p, mean, var, hist in zip(names, means.tolist(), variances.tolist(),
                                      hists.reshape(len(grads), HIST_BINS)):
            self.entries.append(GradEntry(step=int(step), path=p, mean=mean,
                                          variance=var, hist=hist))

    def to_csv(self, fileobj):
        """One row per entry; the histogram takes one column per bin, headed
        `bin_<lower edge>`."""
        writer = csv.writer(fileobj)
        writer.writerow(["step", "path", "mean", "variance"]
                        + [f"bin_{lo!r}" for lo in self.edges[:-1].tolist()])
        for e in self.entries:
            writer.writerow([e.step, e.path, repr(e.mean), repr(e.variance),
                             *e.hist.tolist()])


@dataclass(frozen=True)
class SimilarityDiff:
    label_a: str
    label_b: str
    average_a: float
    average_b: float

    @property
    def relative_diff(self) -> float:
        return (self.average_a - self.average_b) / self.average_a


def compare_similarity(reports):
    """Pairwise relative difference of averages; informational, no direction claim."""
    layer_counts = {r.n_layers for r in reports}
    if len(layer_counts) > 1:
        raise ValueError(f"mismatched layer counts: {sorted(layer_counts)}")
    rows = []
    for i, a in enumerate(reports):
        for j in range(i + 1, len(reports)):
            b = reports[j]
            rows.append(SimilarityDiff(
                label_a=str(a.probe.get("label", f"run{i}")),
                label_b=str(b.probe.get("label", f"run{j}")),
                average_a=a.average, average_b=b.average))
    return rows


def mean_relative_drop() -> float:
    """Mean of (a - b)/a over the (higher, lower) reference average-similarity
    pairs."""
    return float(np.mean([(a - b) / a for a, b in REFERENCE_SIMILARITY_PAIRS]))
