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
from .model import Model, ParamTree

STRATEGY_KINDS = ("finetune", "lora", "attn-qv", "attn-mlp",
                  "layernorm", "layernorm-simple", "connector-only")

# kinds whose point is tuning *only* the named piece; defaults stay frozen
_NO_DEFAULTS = ("layernorm-simple", "connector-only")

_NORM_PATTERNS = ("blocks.*.input_norm.*", "blocks.*.post_norm.*", "final_norm.*")

_CORE_PATTERNS = {
    "finetune": ("*",),
    "lora": ("*.lora_A", "*.lora_B"),
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


def default_paths(tree: ParamTree):
    """Connector + embedding + head + positions.

    head.weight is absent on tied trees and pos.weight on preset inventories
    without a learned position table; both follow the embedding when present.
    """
    paths = ["connector.weight", "connector.bias", "embed.weight"]
    for optional in ("head.weight", "pos.weight"):
        if optional in tree:
            paths.append(optional)
    return paths


def selection_paths(strategy: TuningStrategy, tree: ParamTree):
    """Resolve a strategy to concrete tree paths without touching flags."""
    chosen = []
    for pattern in _CORE_PATTERNS[strategy.kind]:
        hits = [p for p in tree.paths() if fnmatchcase(p, pattern)]
        if not hits:
            hint = "; inject adapters first" if strategy.kind == "lora" else ""
            raise SelectionError(f"pattern {pattern!r} matched no parameters{hint}")
        chosen.extend(hits)
    if strategy.include_defaults:
        chosen.extend(default_paths(tree))
    seen = set()
    return [p for p in chosen if not (p in seen or seen.add(p))]


def select_trainable(strategy: TuningStrategy, tree: ParamTree) -> SelectionReport:
    paths = selection_paths(strategy, tree)
    tree.set_trainable(paths)
    trainable = sum(tree[p].data.size for p in paths)
    return SelectionReport(strategy=strategy, selected=tuple(paths),
                           trainable=trainable, total=tree.total_scalars())


@dataclass
class LoraAdapter:
    target: str
    A: ag.Tensor          # (rank, in)
    B: ag.Tensor          # (out, rank)
    scaling: float


@dataclass
class LoraAdapterSet:
    rank: int
    scaling: float
    adapters: dict  # target path -> LoraAdapter

    def param_count(self) -> int:
        return sum(a.A.data.size + a.B.data.size for a in self.adapters.values())


def adapter_param_count(rank: int, shape) -> int:
    """Scalars one adapter pair adds to an (out, in) target: rank * (out + in)."""
    out, in_ = shape
    return rank * (out + in_)


def is_lora_target(path: str, shape) -> bool:
    """The default LoRA rule: a 2-d weight matrix inside the blocks."""
    return path.startswith("blocks.") and path.endswith(".weight") and len(shape) == 2


def default_lora_targets(tree: ParamTree):
    """All 2-d weight matrices inside the blocks."""
    return [p for p, t in tree.items() if is_lora_target(p, t.data.shape)]


def inject_lora(model: Model, rank: int = 32, targets=None, seed: int = 0,
                alpha: float = None) -> LoraAdapterSet:
    """Attach zero-initialised adapters; forward output is unchanged at injection."""
    if model.adapters:
        raise ValueError("adapters already injected")
    tree = model.tree
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
    scaling = (rank if alpha is None else alpha) / rank
    rng = np.random.default_rng(seed)
    adapters = {}
    for p in paths:
        base = tree[p]
        if base.data.ndim != 2:
            raise ValueError(f"lora target {p!r} is {base.data.ndim}-d, need a matrix")
        out, in_ = base.data.shape
        base.requires_grad = False
        A = ag.tensor(rng.normal(0.0, 0.02, (rank, in_)).astype(model.dtype),
                      requires_grad=True)
        B = ag.tensor(np.zeros((out, rank), dtype=model.dtype), requires_grad=True)
        tree.add(p + ".lora_A", A)
        tree.add(p + ".lora_B", B)
        adapters[p] = LoraAdapter(target=p, A=A, B=B, scaling=scaling)
    model.adapters = adapters
    return LoraAdapterSet(rank=rank, scaling=scaling, adapters=adapters)


def merge_lora(model: Model) -> ParamTree:
    """Fold base + scaling*B@A into the base weights and drop the adapters."""
    if not model.adapters:
        raise ValueError("no adapters to merge (already merged?)")
    tree = model.tree
    for p, ad in model.adapters.items():
        base = tree[p]
        base.data = base.data + (ad.scaling * (ad.B.data @ ad.A.data)).astype(model.dtype)
        tree.remove(p + ".lora_A")
        tree.remove(p + ".lora_B")
    model.adapters = {}
    return tree
