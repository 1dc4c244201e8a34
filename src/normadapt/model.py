"""Decoder-only transformer with a visual-prefix connector on the tape autograd.

Parameters live in a flat ParamTree keyed by dot-separated paths; that grammar
is written once, in `param_inventory`, which `build` and the budget module's
presets both iterate.  Projection weights are stored (out, in) and applied as
x @ W.T.  A LoRA adapter is one more pair of tree entries next to its target,
named and shaped by `lora_entries`.
"""

from __future__ import annotations

import io
import json
import struct
import zlib
from dataclasses import dataclass, asdict, fields

import numpy as np

from . import autograd as ag

CHECKPOINT_MAGIC = b"NORMADAPT2"
NORM_KINDS = ("standard", "rms")
VISION_MODES = ("aligned", "unaligned")


@dataclass
class ModelConfig:
    n_layers: int = 4
    d_model: int = 128
    n_heads: int = 4
    d_ff: int = 512
    vocab_size: int = 256
    max_seq: int = 96
    norm_kind: str = "standard"
    n_visual_tokens: int = 4
    d_visual: int = 64
    tie_embeddings: bool = False

    def __post_init__(self):
        for name in ("n_layers", "d_model", "n_heads", "d_ff", "vocab_size",
                     "max_seq", "n_visual_tokens", "d_visual"):
            value = getattr(self, name)
            if int(value) != value or value <= 0:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
            setattr(self, name, int(value))
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")
        if self.n_visual_tokens > self.max_seq:
            raise ValueError(
                f"n_visual_tokens {self.n_visual_tokens} exceeds max_seq {self.max_seq}")
        self.tie_embeddings = bool(self.tie_embeddings)


def param_inventory(n_layers, d_model, d_ff, vocab_size, d_visual, *,
                    norm_bias, gated_mlp, tie_embeddings, max_seq):
    """(path, shape) pairs of the ParamTree grammar, in build order.

    norm_bias adds a bias next to every norm gain, gated_mlp a third MLP matrix
    per block; max_seq 0 means no learned position table.
    """
    d, ff, v = d_model, d_ff, vocab_size
    norm = (".weight", ".bias") if norm_bias else (".weight",)
    entries = [("embed.weight", (v, d))]
    if max_seq:
        entries.append(("pos.weight", (max_seq, d)))
    entries += [("connector.weight", (d, d_visual)), ("connector.bias", (d,))]
    for i in range(n_layers):
        p = f"blocks.{i}."
        entries += [(p + "input_norm" + s, (d,)) for s in norm]
        entries += [(p + f"attn.{name}.weight", (d, d))
                    for name in ("q_proj", "k_proj", "v_proj", "o_proj")]
        entries += [(p + "post_norm" + s, (d,)) for s in norm]
        entries += [(p + "mlp.fc1.weight", (ff, d)), (p + "mlp.fc2.weight", (d, ff))]
        if gated_mlp:
            entries.append((p + "mlp.gate.weight", (ff, d)))
    entries += [("final_norm" + s, (d,)) for s in norm]
    if not tie_embeddings:
        entries.append(("head.weight", (v, d)))
    return entries


LORA_A, LORA_B = ".lora_A", ".lora_B"


def lora_entries(target, shape, rank):
    """(path, shape) of the adapter pair on an (out, in) target: A (rank, in)
    and B (out, rank), so the adapted projection is x @ W.T + (x @ A.T) @ B.T."""
    out, in_ = shape
    return [(target + LORA_A, (rank, in_)), (target + LORA_B, (out, rank))]


def lora_targets(tree):
    """Paths of the tree's matrices that carry an adapter pair, in tree order."""
    return [p[:-len(LORA_A)] for p in tree.paths() if p.endswith(LORA_A)]


class ParamTree:
    """Ordered path -> Tensor map; trainability is the tensor's requires_grad."""

    def __init__(self):
        self._params = {}

    def add(self, path: str, t: ag.Tensor):
        if path in self._params:
            raise ValueError(f"duplicate param path {path!r}")
        self._params[path] = t

    def remove(self, path: str):
        del self._params[path]

    def __contains__(self, path):
        return path in self._params

    def __getitem__(self, path) -> ag.Tensor:
        try:
            return self._params[path]
        except KeyError:
            raise KeyError(f"no parameter at path {path!r}") from None

    def __len__(self):
        return len(self._params)

    def paths(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def total_scalars(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def trainable_scalars(self) -> int:
        return sum(t.data.size for t in self._params.values() if t.requires_grad)

    def freeze_all(self):
        for t in self._params.values():
            t.requires_grad = False
            t.grad = None

    def set_trainable(self, paths):
        self.freeze_all()
        for p in paths:
            self[p].requires_grad = True


class Model:
    def __init__(self, config: ModelConfig, tree: ParamTree, dtype):
        self.config = config
        self.tree = tree
        self.dtype = np.dtype(dtype)

    def _proj(self, x, path):
        out = ag.matmul(x, self.tree[path], transpose_b=True)
        if path + LORA_A in self.tree:
            low = ag.matmul(x, self.tree[path + LORA_A], transpose_b=True)  # (..., rank)
            out = ag.add(out, ag.matmul(low, self.tree[path + LORA_B], transpose_b=True))
        return out

    def _norm(self, x, prefix):
        gain = self.tree[prefix + ".weight"]
        if self.config.norm_kind == "rms":
            return ag.rms_norm(x, gain)
        return ag.layer_norm(x, gain, self.tree[prefix + ".bias"])

    def _block(self, i, h, rows=None):
        p = f"blocks.{i}."
        x = self._norm(h, p + "input_norm")
        ctx = ag.causal_attention(self._proj(x, p + "attn.q_proj.weight"),
                                  self._proj(x, p + "attn.k_proj.weight"),
                                  self._proj(x, p + "attn.v_proj.weight"),
                                  self.config.n_heads)
        if rows is not None:
            # keys and values cover every position; the rest of the block is
            # per position, so it runs on the gathered rows alone
            ctx, h = ag.embed_lookup(ctx, rows), ag.embed_lookup(h, rows)
        h = ag.add(h, self._proj(ctx, p + "attn.o_proj.weight"))
        y = self._norm(h, p + "post_norm")
        y = self._proj(ag.silu(self._proj(y, p + "mlp.fc1.weight")),
                       p + "mlp.fc2.weight")
        return ag.add(h, y)

    def _check_inputs(self, tokens, visual):
        """(ids (B, T), features (B, n_vis, d_visual) or None), or ValueError."""
        cfg = self.config
        ids = np.asarray(tokens)
        if ids.ndim == 1:
            ids = ids[None, :]
        if ids.ndim != 2:
            raise ValueError(f"tokens must be 1-d or 2-d, got shape {ids.shape}")
        if ids.size == 0:
            raise ValueError("empty token sequence")
        if ids.min() < 0 or ids.max() >= cfg.vocab_size:
            raise ValueError(
                f"token id out of range [0, {cfg.vocab_size}): "
                f"min {ids.min()}, max {ids.max()}")
        feats = None
        if visual is not None:
            feats = np.asarray(visual, dtype=self.dtype)
            if feats.ndim == 2:
                feats = feats[None]
            if feats.shape != (ids.shape[0], cfg.n_visual_tokens, cfg.d_visual):
                raise ValueError(
                    f"visual features must be (batch, {cfg.n_visual_tokens}, "
                    f"{cfg.d_visual}), got {feats.shape}")
        length = ids.shape[1] + (0 if feats is None else cfg.n_visual_tokens)
        if length > cfg.max_seq:
            raise ValueError(f"sequence length {length} exceeds max_seq {cfg.max_seq}")
        return ids, feats

    def forward(self, tokens, visual=None, capture=None, rows=None) -> ag.Tensor:
        """tokens (B, T) int ids, visual optional (B, n_visual_tokens, d_visual).

        Returns logits (B, n_vis + T, vocab).  capture, if given, is a list that
        collects each block's post-residual output as a detached array.  rows,
        if given, is a (batch indices, position indices) pair of N equal-length
        int arrays: the logits are then (N, vocab), those rows of the full
        logits, and the last block's o_proj and MLP, the final norm and the
        head run on those N rows only.
        """
        cfg = self.config
        ids, feats = self._check_inputs(tokens, visual)
        h = ag.embed_lookup(self.tree["embed.weight"], ids)
        if feats is not None:
            prefix = ag.add(
                ag.matmul(ag.tensor(feats), self.tree["connector.weight"],
                          transpose_b=True),
                self.tree["connector.bias"])
            h = ag.concat([prefix, h], axis=1)
        h = ag.add(h, ag.embed_lookup(self.tree["pos.weight"], np.arange(h.shape[1])))

        for i in range(cfg.n_layers):
            h = self._block(i, h, rows if i == cfg.n_layers - 1 else None)
            if capture is not None:
                capture.append(h.data.copy())
        h = self._norm(h, "final_norm")
        head = self.tree["embed.weight" if cfg.tie_embeddings else "head.weight"]
        return ag.matmul(h, head, transpose_b=True)

    def loss(self, tokens, visual, targets) -> ag.Tensor:
        """`cross_entropy(forward(tokens, visual), targets)` without the work
        that scalar never reads.

        The inputs are checked uncut, exactly as `forward` checks them.  Token
        columns after the batch's last scored position (target != -1) are then
        dropped, keeping at least one token, and `forward` runs on the rest:
        attention is causal, so no kept position reads a dropped one and the
        cut is exact.  `forward` then gets the scored (batch, position) pairs
        as `rows`, so the last block's o_proj and MLP, the final norm and the
        head run on scored rows only.
        """
        ids, feats = self._check_inputs(tokens, visual)
        n_vis = 0 if feats is None else feats.shape[1]
        targets = np.asarray(targets)
        if targets.shape != (ids.shape[0], n_vis + ids.shape[1]):
            raise ag.ShapeError("cross_entropy", [targets.shape],
                                f"targets must be (batch, {n_vis + ids.shape[1]})")
        scored = np.flatnonzero((targets != -1).any(axis=0))
        # a batch with nothing scored keeps one token; cross_entropy raises on it
        length = max(n_vis + 1, scored[-1] + 1 if scored.size else 0)
        rows = np.nonzero(targets[:, :length] != -1)
        return ag.cross_entropy(self.forward(ids[:, :length - n_vis], feats, rows=rows),
                                targets[rows])

    def capture_layer_outputs(self, tokens, visual=None):
        """Per-block post-residual hidden states, one (B, L, d) array per layer."""
        grabbed = []
        with ag.no_grad():
            self.forward(tokens, visual, capture=grabbed)
        return grabbed


def _inventory(config: ModelConfig):
    """(path, shape) pairs of the tree `build` makes for `config`."""
    return param_inventory(
        config.n_layers, config.d_model, config.d_ff, config.vocab_size,
        config.d_visual, norm_bias=config.norm_kind == "standard",
        gated_mlp=False, tie_embeddings=config.tie_embeddings,
        max_seq=config.max_seq)


def build(config: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    """Init in inventory order: biases 0, norm gains 1, all else normal(0, 0.02)."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    tree = ParamTree()
    for path, shape in _inventory(config):
        if path.endswith(".bias"):
            data = np.zeros(shape, dtype=dt)
        elif path.endswith("norm.weight"):
            data = np.ones(shape, dtype=dt)
        else:
            data = rng.normal(0.0, 0.02, shape).astype(dt)
        tree.add(path, ag.tensor(data, requires_grad=True))
    return Model(config, tree, dt)


class VisionStub:
    """Deterministic stand-in for a frozen vision encoder.

    A fixed table of per-slot feature vectors (drawn once from `seed`) plus
    per-sample noise keyed by (seed, sample_id).  `unaligned` warps the table
    through a fixed random tanh layer so no linear connector can match the
    aligned geometry.  Never trainable.
    """

    def __init__(self, d_visual, n_slots, mode="aligned", seed=0, noise_std=0.05):
        if mode not in VISION_MODES:
            raise ValueError(f"mode must be one of {VISION_MODES}, got {mode!r}")
        self.d_visual = int(d_visual)
        self.n_slots = int(n_slots)
        self.mode = mode
        self.seed = int(seed)
        self.noise_std = float(noise_std)
        rng = np.random.default_rng(self.seed)
        table = rng.normal(0.0, 1.0, (self.n_slots, self.d_visual))
        if mode == "unaligned":
            warp = rng.normal(0.0, 1.0, (self.d_visual, self.d_visual))
            table = np.tanh(table @ (warp / np.sqrt(self.d_visual))) * 1.5
        self._table = table

    def features(self, slot_ids, sample_id) -> np.ndarray:
        """(..., n_tokens) slot ids -> (..., n_tokens, d_visual) float64.

        `sample_id` has the leading shape of `slot_ids`: one id for a 1-d
        call, n ids for (n, n_tokens) slots.  Each sample's noise is drawn
        from its own generator seeded with (seed, sample_id).
        """
        slots = np.asarray(slot_ids)
        ids = np.asarray(sample_id)
        if ids.shape != slots.shape[:-1]:
            raise ValueError(f"sample_id shape {ids.shape} does not match "
                             f"slot_ids shape {slots.shape}")
        if slots.min() < 0 or slots.max() >= self.n_slots:
            raise ValueError(f"slot id out of range [0, {self.n_slots})")
        noise = np.empty(slots.shape + (self.d_visual,))
        for sid, out in zip(ids.reshape(-1), noise.reshape(-1, *noise.shape[-2:])):
            np.random.default_rng((self.seed, int(sid))).standard_normal(out=out)
        noise *= self.noise_std
        noise += self._table[slots]
        return noise


def save_checkpoint(model: Model, path):
    """Flat (path, dtype, shape, raw LE buffer) records behind a config header,
    then a little-endian zlib.crc32 of every byte before it."""
    if lora_targets(model.tree):
        raise ValueError("model has unmerged adapters; merge before saving")
    header = json.dumps({"config": asdict(model.config),
                         "dtype": model.dtype.name}).encode()
    f = io.BytesIO()
    f.write(CHECKPOINT_MAGIC)
    f.write(struct.pack("<I", len(header)))
    f.write(header)
    f.write(struct.pack("<I", len(model.tree)))
    for p, t in model.tree.items():
        arr = np.ascontiguousarray(t.data)
        dstr = arr.dtype.newbyteorder("<").str.encode()
        name = p.encode()
        f.write(struct.pack("<H", len(name)))
        f.write(name)
        f.write(struct.pack("<H", len(dstr)))
        f.write(dstr)
        f.write(struct.pack("<B", arr.ndim))
        f.write(struct.pack(f"<{arr.ndim}q", *arr.shape))
        f.write(arr.astype(arr.dtype.newbyteorder("<"), copy=False).tobytes())
    data = f.getvalue()
    with open(path, "wb") as out:
        out.write(data)
        out.write(struct.pack("<I", zlib.crc32(data)))


def _read_exact(f, n):
    buf = f.read(n)
    if len(buf) != n:
        raise ValueError("truncated checkpoint")
    return buf


def _parse_header(header):
    """(ModelConfig, dtype) from a header holding exactly the keys save writes."""
    if not isinstance(header, dict) or not isinstance(header.get("config"), dict):
        raise ValueError("checkpoint header needs a 'config' object")
    if "dtype" not in header:
        raise ValueError("checkpoint header missing key 'dtype'")
    known, got = {f.name for f in fields(ModelConfig)}, set(header["config"])
    if got != known:
        key = min(got - known) if got - known else min(known - got)
        state = "unknown" if key in got else "missing"
        raise ValueError(f"checkpoint config: {state} key {key!r}")
    return ModelConfig(**header["config"]), np.dtype(header["dtype"])


def load_checkpoint(path) -> Model:
    """The saved model; its tree is laid out in `build`'s path order.

    The checksum is verified before any record is parsed, so a truncated or
    corrupted file raises ValueError and never loads.
    """
    with open(path, "rb") as f:
        blob = f.read()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC.decode()} checkpoint")
    body, trailer = blob[:-4], blob[-4:]
    if (len(blob) < len(CHECKPOINT_MAGIC) + 4
            or struct.unpack("<I", trailer)[0] != zlib.crc32(body)):
        raise ValueError(f"{path}: checksum mismatch; the file is truncated, "
                         "corrupt or has trailing bytes")
    with io.BytesIO(body[len(CHECKPOINT_MAGIC):]) as f:
        (hlen,) = struct.unpack("<I", _read_exact(f, 4))
        config, dtype = _parse_header(json.loads(_read_exact(f, hlen)))
        shapes = dict(_inventory(config))
        arrays = {}
        (n_records,) = struct.unpack("<I", _read_exact(f, 4))
        for _ in range(n_records):
            (plen,) = struct.unpack("<H", _read_exact(f, 2))
            p = _read_exact(f, plen).decode()
            (dlen,) = struct.unpack("<H", _read_exact(f, 2))
            dt = np.dtype(_read_exact(f, dlen).decode())
            (ndim,) = struct.unpack("<B", _read_exact(f, 1))
            shape = struct.unpack(f"<{ndim}q", _read_exact(f, 8 * ndim))
            raw = _read_exact(f, dt.itemsize * int(np.prod(shape, dtype=np.int64)))
            if p not in shapes:
                raise ValueError(f"checkpoint record {p!r} not in model tree")
            if shape != shapes[p]:
                raise ValueError(f"{p}: shape {shape} != expected {shapes[p]}")
            arrays[p] = np.array(np.frombuffer(raw, dtype=dt).reshape(shape),
                                 dtype=dtype)
        if len(arrays) != len(shapes):
            missing = sorted(set(shapes) - set(arrays))
            raise ValueError(f"checkpoint missing {len(missing)} params, e.g. {missing[:3]}")
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after the last record")
    tree = ParamTree()
    for p in shapes:
        tree.add(p, ag.tensor(arrays[p], requires_grad=True))
    return Model(config, tree, dtype)
