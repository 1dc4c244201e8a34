"""Decoder-only transformer with a visual-prefix connector on the tape autograd.

Parameters live in a flat dict of tensors (`Model.tree`) keyed by dot-separated
paths, in build order, and a tensor trains when its requires_grad is set; the
path grammar is written once, in `param_inventory`, which `build`, the
checkpoint format and the budget module's presets all iterate.  Projection
weights are stored (out, in) and applied as x @ W.T.  A LoRA adapter is one
more pair of tree entries next to its target, named and shaped by
`lora_entries`.
"""

from __future__ import annotations

import json
import struct
import zlib
from dataclasses import dataclass, asdict, fields
from itertools import zip_longest
from math import prod
from pathlib import Path

import numpy as np

from . import autograd as ag

CHECKPOINT_MAGIC = b"NORMADAPT3"
NORM_KINDS = ("standard", "rms")


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
            setattr(self, name, ag.check_count(name, getattr(self, name), 1))
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.norm_kind not in NORM_KINDS:
            raise ValueError(f"norm_kind must be one of {NORM_KINDS}, got {self.norm_kind!r}")
        if self.n_visual_tokens > self.max_seq:
            raise ValueError(
                f"n_visual_tokens {self.n_visual_tokens} exceeds max_seq {self.max_seq}")
        if not isinstance(self.tie_embeddings, bool):
            raise ValueError(f"tie_embeddings must be true or false, "
                             f"got {self.tie_embeddings!r}")


def param_inventory(n_layers, d_model, d_ff, vocab_size, d_visual, *,
                    norm_bias, gated_mlp, tie_embeddings, max_seq):
    """(path, shape) pairs of the parameter tree, in build order.

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
    return [p[:-len(LORA_A)] for p in tree if p.endswith(LORA_A)]


class Model:
    def __init__(self, config: ModelConfig, tree: dict, dtype):
        self.config = config
        self.tree = tree
        self.dtype = np.dtype(dtype)

    def _proj(self, x, path):
        out = ag.matmul(x, self.tree[path])
        if path + LORA_A in self.tree:
            low = ag.matmul(x, self.tree[path + LORA_A])  # (..., rank)
            out = ag.add(out, ag.matmul(low, self.tree[path + LORA_B]))
        return out

    def _norm(self, x, prefix):
        gain = self.tree[prefix + ".weight"]
        if self.config.norm_kind == "rms":
            return ag.rms_norm(x, gain)
        return ag.layer_norm(x, gain, self.tree[prefix + ".bias"])

    def _block(self, i, h, groups, sel=None):
        """Block i on h: a dense (B, L, d) batch with groups [(B, L)], or the
        (N, d) packed rows that `groups` (the attention's sample groups) lays
        out.  sel, if given, indexes the rows the block's output keeps."""
        p = f"blocks.{i}."
        x = self._norm(h, p + "input_norm")
        ctx = ag.causal_attention(self._proj(x, p + "attn.q_proj.weight"),
                                  self._proj(x, p + "attn.k_proj.weight"),
                                  self._proj(x, p + "attn.v_proj.weight"),
                                  self.config.n_heads, groups)
        if sel is not None:
            # the rest of the block is per row, so it runs on the kept rows alone
            ctx, h = ag.embed_lookup(ctx, sel), ag.embed_lookup(h, sel)
        h = ag.add(h, self._proj(ctx, p + "attn.o_proj.weight"))
        y = self._norm(h, p + "post_norm")
        y = self._proj(ag.silu(self._proj(y, p + "mlp.fc1.weight")),
                       p + "mlp.fc2.weight")
        return ag.add(h, y)

    def _check_inputs(self, tokens, visual):
        """(ids (B, T), features (B, n_vis, d_visual) or None, the sequence
        shape (B, n_vis + T)), or ValueError."""
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
        return ids, feats, (ids.shape[0], length)

    def forward(self, tokens, visual=None, capture=None, rows=None) -> ag.Tensor:
        """tokens (B, T) int ids, visual optional (B, n_visual_tokens, d_visual).

        Returns logits (B, n_vis + T, vocab).  capture, if given, is a list that
        collects each block's post-residual output as a detached array.

        rows, if given, is a (batch indices, position indices) pair of N
        equal-length int arrays, and the logits are then (N, vocab): those
        rows of the full logits.  Every block then runs only on each sample's
        prefix, its positions 0 up to its last requested one, packed as one
        (N_kept, d) array of samples in groups of equal prefix length (see
        `_pack_rows`); a sample with no requested position adds no row.
        That is exact because attention is causal: a kept position reads only
        earlier positions of its own sample, and those are kept too.  The
        last block's o_proj and MLP, the final norm and the head run on the
        N requested rows only, and capture collects packed rows.
        """
        cfg = self.config
        ids, feats, shape = self._check_inputs(tokens, visual)
        if rows is None:  # the dense batch is one group
            b, p = np.indices(shape)
            groups, sel = [shape], None
        else:
            b, p, groups, sel = _pack_rows(shape, rows)
        h = self._embed(ids, feats, b, p)

        for i in range(cfg.n_layers):
            h = self._block(i, h, groups, sel if i == cfg.n_layers - 1 else None)
            if capture is not None:
                capture.append(h.data.copy())
        h = self._norm(h, "final_norm")
        head = self.tree["embed.weight" if cfg.tie_embeddings else "head.weight"]
        return ag.matmul(h, head)

    def _embed(self, ids, feats, b, p):
        """Block 0's input at the rows (b, p), equal-shape arrays of batch and
        position indices: one lookup into the embedding table with the
        connector's projections of the visual rows (p < n_vis, in the order
        listed) appended, plus one into the position table."""
        n_vis = 0 if feats is None else feats.shape[1]
        table = self.tree["embed.weight"]
        src = ids[b, np.maximum(p - n_vis, 0)]
        if n_vis:
            vis = p < n_vis
            x = ag.matmul(ag.tensor(feats[b[vis], p[vis]]), self.tree["connector.weight"])
            prefix = ag.add(x, self.tree["connector.bias"])
            src[vis] = len(table.data) + np.arange(len(prefix.data))
            table = ag.concat([table, prefix])
        return ag.add(ag.embed_lookup(table, src),
                      ag.embed_lookup(self.tree["pos.weight"], p))

    def loss(self, tokens, visual, targets) -> ag.Tensor:
        """`cross_entropy(forward(tokens, visual), targets)` without the work
        that scalar never reads.

        The inputs are checked uncut, exactly as `forward` checks them.
        `forward` then gets the scored (target != IGNORE) (batch, position)
        pairs as `rows`, so every block runs only on each sample's prefix up
        to its last scored position, and the last block's o_proj and MLP, the
        final norm and the head on the scored rows alone (see `forward`).
        """
        ids, feats, shape = self._check_inputs(tokens, visual)
        targets = np.asarray(targets)
        if targets.shape != shape:
            raise ag.ShapeError("cross_entropy", [targets.shape],
                                f"targets must be (batch, {shape[1]})")
        rows = np.nonzero(targets != ag.IGNORE)
        if not rows[0].size:
            raise ValueError("cross_entropy: no targets to score (all ignored)")
        return ag.cross_entropy(self.forward(ids, feats, rows=rows), targets[rows])

    def capture_layer_outputs(self, tokens, visual=None):
        """Per-block post-residual hidden states, one (B, L, d) array per layer."""
        grabbed = []
        with ag.no_grad():
            self.forward(tokens, visual, capture=grabbed)
        return grabbed


def _pack_rows(shape, rows):
    """(batch, position) of each packed row, the attention's groups and the
    requested rows' indices among the packed ones, for `rows` of a `shape`
    (B, L) batch: each sample's positions up to its last requested one, one
    sample after another, the samples stably sorted by that prefix length;
    each run of equal lengths is one (count, length) group."""
    batch, pos = map(np.asarray, rows)
    if batch.ndim != 1 or batch.shape != pos.shape or not batch.size:
        raise ValueError("rows must be two equal-length, non-empty 1-d index arrays")
    if (min(batch.min(), pos.min()) < 0 or batch.max() >= shape[0]
            or pos.max() >= shape[1]):
        raise ValueError(f"rows out of range for a {shape} batch")
    ends = np.zeros(shape[0], dtype=np.intp)
    np.maximum.at(ends, batch, pos + 1)
    samples = np.argsort(ends, kind="stable")
    samples = samples[ends[samples] > 0]  # the samples with a requested row
    lengths = ends[samples]
    starts = np.zeros(shape[0], dtype=np.intp)  # each sample's first packed row
    starts[samples] = np.cumsum(lengths) - lengths
    packed_b = np.repeat(samples, lengths)
    packed_p = np.arange(packed_b.size) - starts[packed_b]
    group_lengths, group_counts = np.unique(lengths, return_counts=True)
    groups = list(zip(group_counts.tolist(), group_lengths.tolist()))
    return packed_b, packed_p, groups, starts[batch] + pos


def inventory_args(config: ModelConfig) -> dict:
    """`param_inventory`'s arguments for the tree `build` makes for `config`:
    a norm bias iff standard norms, no gate matrix."""
    return dict(n_layers=config.n_layers, d_model=config.d_model, d_ff=config.d_ff,
                vocab_size=config.vocab_size, d_visual=config.d_visual,
                norm_bias=config.norm_kind == "standard", gated_mlp=False,
                tie_embeddings=config.tie_embeddings, max_seq=config.max_seq)


def _inventory(config: ModelConfig):
    """(path, shape) pairs of the tree `build` makes for `config`."""
    return param_inventory(**inventory_args(config))


def build(config: ModelConfig, seed: int = 0, dtype=np.float32) -> Model:
    """Init in inventory order: biases 0, norm gains 1, all else normal(0, 0.02)."""
    rng = np.random.default_rng(seed)
    dt = np.dtype(dtype)
    tree = {}
    for path, shape in _inventory(config):
        if path.endswith(".bias"):
            data = np.zeros(shape, dtype=dt)
        elif path.endswith("norm.weight"):
            data = np.ones(shape, dtype=dt)
        else:
            data = rng.normal(0.0, 0.02, shape).astype(dt)
        tree[path] = ag.tensor(data, requires_grad=True)
    return Model(config, tree, dt)


def save_checkpoint(model: Model, path):
    """Magic, u32 header length and a JSON header (config, dtype), then each
    parameter's little-endian bytes in inventory order, then a little-endian
    zlib.crc32 of every byte before it."""
    if lora_targets(model.tree):
        raise ValueError("model has unmerged adapters; merge before saving")
    want = [(p, shape, model.dtype.name) for p, shape in _inventory(model.config)]
    have = [(p, t.data.shape, t.data.dtype.name) for p, t in model.tree.items()]
    for w, h in zip_longest(want, have):
        if w != h:  # a value saved under another path would load into it
            raise ValueError(f"model tree has {h} where build's layout has {w}")
    header = json.dumps({"config": asdict(model.config),
                         "dtype": model.dtype.name}).encode()
    stored = model.dtype.newbyteorder("<")
    data = b"".join([CHECKPOINT_MAGIC, struct.pack("<I", len(header)), header]
                    + [t.data.astype(stored, copy=False).tobytes()
                       for t in model.tree.values()])
    Path(path).write_bytes(data + struct.pack("<I", zlib.crc32(data)))


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
    if header["dtype"] not in ("float32", "float64"):
        raise ValueError(f"checkpoint dtype must be float32 or float64, "
                         f"got {header['dtype']!r}")
    return ModelConfig(**header["config"]), np.dtype(header["dtype"])


def load_checkpoint(path) -> Model:
    """The saved model; its tree is laid out in `build`'s path order.

    The checksum is verified before the header is parsed, and the body must
    hold exactly the bytes the header's config and dtype call for, so a
    truncated or corrupted file raises ValueError and never loads.
    """
    blob = Path(path).read_bytes()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise ValueError(f"{path}: not a {CHECKPOINT_MAGIC.decode()} checkpoint")
    start = len(CHECKPOINT_MAGIC) + 4  # the header's first byte
    if (len(blob) < start + 4
            or struct.unpack("<I", blob[-4:])[0] != zlib.crc32(blob[:-4])):
        raise ValueError(f"{path}: checksum mismatch; the file is truncated, "
                         "corrupt or has trailing bytes")
    (hlen,) = struct.unpack("<I", blob[start - 4:start])
    config, dtype = _parse_header(json.loads(blob[start:start + hlen]))
    stored, entries = dtype.newbyteorder("<"), _inventory(config)
    body = memoryview(blob)[start + hlen:-4]
    size = stored.itemsize * sum(prod(shape) for _, shape in entries)
    if len(body) != size:
        raise ValueError(f"{path}: checkpoint body is {len(body)} bytes; "
                         f"its header's {dtype.name} model needs {size}")
    tree, flat, i = {}, np.frombuffer(body, dtype=stored), 0
    for p, shape in entries:
        n = prod(shape)
        tree[p] = ag.tensor(np.array(flat[i:i + n].reshape(shape), dtype=dtype),
                            requires_grad=True)
        i += n
    return Model(config, tree, dtype)
