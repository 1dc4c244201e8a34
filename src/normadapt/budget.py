"""Analytic trainable-parameter accounting over architecture presets.

Counts come from the model's own path inventory (`model.param_inventory`), so
the same selection rules as the strategies module apply without allocating
tensors.  The llama presets use gain-only norms and the gated three-matrix
MLP; the frozen vision encoder enters the total but is never selectable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

from .model import ModelConfig, inventory_args, lora_entries, param_inventory
from .strategies import TuningStrategy, is_lora_target, selection_paths


@dataclass(frozen=True)
class ArchPreset:
    name: str
    n_layers: int
    d_model: int
    d_ff: int
    vocab_size: int
    d_visual: int
    vision_params: int
    norm_bias: bool = False        # a bias next to every norm gain
    gated_mlp: bool = True         # a third (gate) MLP matrix per block
    tie_embeddings: bool = False
    max_seq: int = 0               # 0: no learned position table

    def __post_init__(self):
        for field in ("n_layers", "d_model", "d_ff", "vocab_size", "d_visual"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive")
        if self.vision_params < 0 or self.max_seq < 0:
            raise ValueError("vision_params and max_seq must be >= 0")

    def inventory(self):
        """(path, shape) pairs of `param_inventory`, the model's path grammar."""
        return param_inventory(
            self.n_layers, self.d_model, self.d_ff, self.vocab_size, self.d_visual,
            norm_bias=self.norm_bias, gated_mlp=self.gated_mlp,
            tie_embeddings=self.tie_embeddings, max_seq=self.max_seq)

    def model_params(self) -> int:
        return sum(prod(shape) for _, shape in self.inventory())

    def total_params(self) -> int:
        return self.model_params() + self.vision_params


PRESETS = {
    "llama7b": ArchPreset(name="llama7b", n_layers=32, d_model=4096, d_ff=11008,
                          vocab_size=32000, d_visual=1024,
                          vision_params=303_500_000),
    "llama13b": ArchPreset(name="llama13b", n_layers=40, d_model=5120, d_ff=13824,
                           vocab_size=32000, d_visual=1024,
                           vision_params=303_500_000),
}


def preset_from_config(cfg: ModelConfig) -> ArchPreset:
    """Preset "toy" whose inventory matches a built toy model path-for-path;
    the stub vision encoder has no parameters."""
    return ArchPreset(name="toy", vision_params=0, **inventory_args(cfg))


@dataclass(frozen=True)
class BudgetReport:
    preset: str
    strategy: TuningStrategy
    trainable: int
    total: int
    bytes_per_param: int = 4

    @property
    def percentage(self) -> float:
        return 100.0 * self.trainable / self.total

    @property
    def memory_bytes(self) -> int:
        # gradient + two Adam moment buffers per trainable scalar
        return self.trainable * self.bytes_per_param * 3

    def as_dict(self):
        return {"preset": self.preset, "strategy": self.strategy.kind,
                "trainable": self.trainable, "total": self.total,
                "percentage": self.percentage,
                "memory_bytes": self.memory_bytes}


def count(preset: ArchPreset, strategy: TuningStrategy,
          bytes_per_param: int = 4) -> BudgetReport:
    """Apply the strategy's selection rules to the analytic inventory.

    The total is the base model plus the frozen vision encoder; LoRA adapter
    scalars count as trainable but do not enter the total.
    """
    if bytes_per_param < 1:
        raise ValueError(f"bytes_per_param must be >= 1, got {bytes_per_param}")
    entries = preset.inventory()
    total = sum(prod(s) for _, s in entries) + preset.vision_params
    if strategy.kind == "lora":
        entries += [entry for path, shape in entries if is_lora_target(path, shape)
                    for entry in lora_entries(path, shape, strategy.lora_rank)]
    shapes = dict(entries)
    if len(shapes) != len(entries):
        raise ValueError("duplicate path in inventory")
    trainable = sum(prod(shapes[p]) for p in selection_paths(strategy, shapes))
    return BudgetReport(preset=preset.name, strategy=strategy,
                        trainable=trainable, total=total,
                        bytes_per_param=bytes_per_param)


# Reference percentages from the published large-scale runs this lab models.
REFERENCE_PERCENTAGES = {
    ("llama7b", "finetune"): 95.70,
    ("llama7b", "lora"): 5.92,
    ("llama7b", "attn-qv"): 19.02,
    ("llama7b", "attn-mlp"): 65.21,
    ("llama7b", "layernorm"): 3.78,
    ("llama7b", "layernorm-simple"): 0.004,
    ("llama13b", "finetune"): 97.72,
    ("llama13b", "lora"): 4.30,
    ("llama13b", "attn-qv"): 18.24,
    ("llama13b", "attn-mlp"): 66.24,
    ("llama13b", "layernorm"): 2.50,
    ("llama13b", "layernorm-simple"): 0.003,
}

_TABLE_ORDER = ("finetune", "lora", "attn-qv", "attn-mlp",
                "layernorm", "layernorm-simple")

# |computed - reference| ceiling in percentage points; the lora row is
# reported but never gated (its reference target set is not recoverable
# from the stated rank-32 rule, see strategy docs).
TOLERANCE_PP = {kind: 0.5 for kind in _TABLE_ORDER}
TOLERANCE_PP["layernorm-simple"] = 0.002


@dataclass(frozen=True)
class ReferenceRow:
    preset: str
    strategy: str
    computed: float
    reference: float
    diff: float
    tolerance: float
    gated: bool

    @property
    def within(self) -> bool:
        return self.diff <= self.tolerance


def reference_table():
    """All twelve (preset, strategy) cells against the reference column."""
    rows = []
    for preset_name in ("llama7b", "llama13b"):
        preset = PRESETS[preset_name]
        for kind in _TABLE_ORDER:
            strategy = TuningStrategy(kind)
            got = count(preset, strategy).percentage
            ref = REFERENCE_PERCENTAGES[(preset_name, kind)]
            rows.append(ReferenceRow(
                preset=preset_name, strategy=kind, computed=got,
                reference=ref, diff=abs(got - ref),
                tolerance=TOLERANCE_PP[kind], gated=kind != "lora"))
    return rows
