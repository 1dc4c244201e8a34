"""Tuning strategies as explicit trainable-path selections over a model's
parameter tree (a path -> Tensor dict).

Each strategy is a set of path patterns; selection flips requires_grad flags
and reports exact scalar counts.  LoRA is the one strategy that adds
parameters: rank-r adapter pairs injected next to their base matrices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fnmatch import fnmatchcase

import numpy as np

from . import autograd as ag
from .model import LORA_A, LORA_B, Model, lora_entries, lora_targets

_NORM_PATTERNS = ("blocks.*.input_norm.*", "blocks.*.post_norm.*", "final_norm.*")

# kind -> (path patterns, whether connector, embedding, head and positions
# train too).  finetune's "*" already holds them; layernorm-simple and
# connector-only tune only the named piece.
SELECTIONS = {
    "finetune": (("*",), False),
    "lora": (("*" + LORA_A, "*" + LORA_B), True),
    "attn-qv": (("blocks.*.attn.q_proj.weight", "blocks.*.attn.v_proj.weight"), True),
    "attn-mlp": (("blocks.*.mlp.*",), True),
    "layernorm": (_NORM_PATTERNS, True),
    "layernorm-simple": (_NORM_PATTERNS, False),
    "connector-only": (("connector.*",), False),
}
STRATEGY_KINDS = tuple(SELECTIONS)


class SelectionError(ValueError):
    pass


@dataclass(frozen=True)
class TuningStrategy:
    kind: str
    lora_rank: int = 32

    def __post_init__(self):
        if self.kind not in STRATEGY_KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; "
                             f"expected one of {STRATEGY_KINDS}")
        ag.check_count("lora_rank", self.lora_rank, 1)


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
    strings (a tree, an inventory's `{path: shape}`)."""
    patterns, with_defaults = SELECTIONS[strategy.kind]
    chosen = []
    for pattern in patterns:
        hits = [p for p in paths if fnmatchcase(p, pattern)]
        if not hits:
            hint = "; inject adapters first" if strategy.kind == "lora" else ""
            raise SelectionError(f"pattern {pattern!r} matched no parameters{hint}")
        chosen.extend(hits)
    return chosen + default_paths(paths) if with_defaults else chosen


def norm_paths(strategy: TuningStrategy, paths):
    """The norm gains and biases among `paths` that `strategy` trains.  LoRA
    adapters sit on matrices only, so the answer is the same before they are
    injected as after."""
    patterns, _ = SELECTIONS[strategy.kind]
    return [p for p in paths
            if "norm" in p and any(fnmatchcase(p, pattern) for pattern in patterns)]


def select_trainable(strategy: TuningStrategy, tree: dict) -> SelectionReport:
    """Train exactly the strategy's paths, every grad cleared.  As in
    `budget.count`, the total is the base model's scalars: LoRA adapter
    scalars count as trainable but do not enter it."""
    paths = selection_paths(strategy, tree)
    chosen, total = set(paths), 0
    for p, t in tree.items():
        t.requires_grad, t.grad = p in chosen, None
        if not p.endswith((LORA_A, LORA_B)):
            total += t.data.size
    trainable = sum(tree[p].data.size for p in paths)
    return SelectionReport(strategy=strategy, selected=tuple(paths),
                           trainable=trainable, total=total)


def is_lora_target(path: str, shape) -> bool:
    """The LoRA rule: a 2-d weight matrix inside the blocks."""
    return path.startswith("blocks.") and path.endswith(".weight") and len(shape) == 2


def inject_lora(model: Model, rank: int = 32, seed: int = 0):
    """Add a zero-B adapter pair to the tree next to each `is_lora_target`
    matrix and freeze it; forward output is unchanged at injection.  Returns
    the targets."""
    tree = model.tree
    if lora_targets(tree):
        raise ValueError("adapters already injected")
    paths = [p for p, t in tree.items() if is_lora_target(p, t.data.shape)]
    rng = np.random.default_rng(seed)
    for p in paths:
        base = tree[p]
        base.requires_grad = False
        (a_path, a_shape), (b_path, b_shape) = lora_entries(p, base.data.shape, rank)
        tree[a_path] = ag.tensor(rng.normal(0.0, 0.02, a_shape).astype(model.dtype),
                                 requires_grad=True)
        tree[b_path] = ag.tensor(np.zeros(b_shape, dtype=model.dtype),
                                 requires_grad=True)
    return paths


def merge_lora(model: Model):
    """Fold B @ A into each adapted base weight and drop the adapter entries."""
    tree = model.tree
    targets = lora_targets(tree)
    if not targets:
        raise ValueError("no adapters to merge (already merged?)")
    for p in targets:
        base = tree[p]
        base.data = base.data + (tree[p + LORA_B].data @ tree[p + LORA_A].data
                                 ).astype(model.dtype)
        del tree[p + LORA_A], tree[p + LORA_B]
