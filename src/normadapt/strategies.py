"""Tuning strategies as explicit trainable-path selections over a ParamTree.

Each strategy is a set of path patterns; selection flips requires_grad flags
and reports exact scalar counts.  LoRA is the one strategy that adds
parameters: rank-r adapter pairs injected next to their base matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from . import autograd as ag
from .model import LORA_A, LORA_B, Model, ParamTree, lora_entries, lora_targets

STRATEGY_KINDS = ("finetune", "lora", "attn-qv", "attn-mlp",
                  "layernorm", "layernorm-simple", "connector-only")

# kinds whose point is tuning *only* the named piece; defaults stay frozen
_NO_DEFAULTS = ("layernorm-simple", "connector-only")

_NORM_PATTERNS = ("blocks.*.input_norm.*", "blocks.*.post_norm.*", "final_norm.*")

_CORE_PATTERNS = {
    "finetune": ("*",),
    "lora": ("*" + LORA_A, "*" + LORA_B),
    "attn-qv": ("blocks.*.attn.q_proj.weight", "blocks.*.attn.v_proj.weight"),
    "attn-mlp": ("blocks.*.mlp.*",),
    "layernorm": _NORM_PATTERNS,
    "layernorm-simple": _NORM_PATTERNS,
    "connector-only": ("connector.*",),
}


class SelectionError(ValueError):
    pass


@dataclass(frozen=True)
class TuningStrategy:
    kind: str
    lora_rank: int = 32
    include_defaults: bool = True

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; "
                             f"expected one of {STRATEGY_KINDS}")
        if self.kind == "lora" and self.lora_rank < 1:
            raise ValueError(f"lora_rank must be >= 1, got {self.lora_rank}")
        if self.kind in _NO_DEFAULTS:
            object.__setattr__(self, "include_defaults", False)


@dataclass(frozen=True)
class SelectionReport:
    strategy: TuningStrategy
    selected: tuple
    trainable: int
    total: int

    @property
    def fraction(self) -> float:
        return self.trainable / self.total


def default_paths(paths):
    """Connector + embedding + head + positions, given any container of paths.

    head.weight is absent on tied trees and pos.weight on preset inventories
    without a learned position table; both follow the embedding when present.
    """
    chosen = ["connector.weight", "connector.bias", "embed.weight"]
    for optional in ("head.weight", "pos.weight"):
        if optional in paths:
            chosen.append(optional)
    return chosen


def selection_paths(strategy: TuningStrategy, paths):
    """Resolve a strategy to concrete paths, from any container of path
    strings (a tree's `paths()`, an inventory's `{path: shape}`)."""
    chosen = []
    for pattern in _CORE_PATTERNS[strategy.kind]:
        hits = [p for p in paths if fnmatchcase(p, pattern)]
        if not hits:
            hint = "; inject adapters first" if strategy.kind == "lora" else ""
            raise SelectionError(f"pattern {pattern!r} matched no parameters{hint}")
        chosen.extend(hits)
    if strategy.include_defaults:
        chosen.extend(default_paths(paths))
    seen = set()
    return [p for p in chosen if not (p in seen or seen.add(p))]


def select_trainable(strategy: TuningStrategy, tree: ParamTree) -> SelectionReport:
    paths = selection_paths(strategy, tree.paths())
    tree.set_trainable(paths)
    trainable = sum(tree[p].data.size for p in paths)
    return SelectionReport(strategy=strategy, selected=tuple(paths),
                           trainable=trainable, total=tree.total_scalars())


def is_lora_target(path: str, shape) -> bool:
    """The default LoRA rule: a 2-d weight matrix inside the blocks."""
    return path.startswith("blocks.") and path.endswith(".weight") and len(shape) == 2


def default_lora_targets(tree: ParamTree):
    """All 2-d weight matrices inside the blocks."""
    return [p for p, t in tree.items() if is_lora_target(p, t.data.shape)]


def inject_lora(model: Model, rank: int = 32, targets=None, seed: int = 0):
    """Add a zero-B adapter pair to the tree next to each target and freeze the
    targets; forward output is unchanged at injection.  Returns the targets."""
    tree = model.tree
    if lora_targets(tree):
        raise ValueError("adapters already injected")
    if targets is None:
        paths = default_lora_targets(tree)
    else:
        patterns = [targets] if isinstance(targets, str) else list(targets)
        paths, seen = [], set()
        for pattern in patterns:
            hits = [p for p in tree.paths() if fnmatchcase(p, pattern)]
            if not hits:
                raise SelectionError(f"lora target {pattern!r} matched no parameters")
            paths.extend(p for p in hits if not (p in seen or seen.add(p)))
    rng = np.random.default_rng(seed)
    for p in paths:
        base = tree[p]
        if base.data.ndim != 2:
            raise ValueError(f"lora target {p!r} is {base.data.ndim}-d, need a matrix")
        base.requires_grad = False
        (a_path, a_shape), (b_path, b_shape) = lora_entries(p, base.data.shape, rank)
        tree.add(a_path, ag.tensor(rng.normal(0.0, 0.02, a_shape).astype(model.dtype),
                                   requires_grad=True))
        tree.add(b_path, ag.tensor(np.zeros(b_shape, dtype=model.dtype),
                                   requires_grad=True))
    return paths


def merge_lora(model: Model) -> ParamTree:
    """Fold B @ A into each adapted base weight and drop the adapter entries."""
    tree = model.tree
    targets = lora_targets(tree)
    if not targets:
        raise ValueError("no adapters to merge (already merged?)")
    for p in targets:
        base = tree[p]
        base.data = base.data + (tree[p + LORA_B].data @ tree[p + LORA_A].data
                                 ).astype(model.dtype)
        tree.remove(p + LORA_A)
        tree.remove(p + LORA_B)
    return tree
