"""Dense-tensor engine with reverse-mode automatic differentiation.

Every operation goes through a registry keyed by op kind, so the whole op
surface can be enumerated for gradient checking. The tape is the implicit
graph of parent links; `backward` linearizes it topologically, visits
each node exactly once and frees the graph behind it. Single-threaded per
training step by contract.
"""

from __future__ import annotations

import contextlib
import ctypes

import numpy as np

_M_TRIM_THRESHOLD = -1  # glibc <malloc.h>
_M_MMAP_THRESHOLD = -3


def _keep_freed_pages():
    """Have glibc's malloc keep freed memory in the process for reuse.

    A training step allocates and frees the same few hundred arrays, up to a
    few MiB each.  Under glibc's default, adaptive thresholds the largest
    arrays are mapped and unmapped one by one and the top of the heap is
    trimmed whenever enough of it lies free, so once `backward` frees the
    graph, every step hands its pages back to the kernel and faults them in
    again: about 7,000 minor faults per default-size layernorm-simple step,
    paid in process CPU time.  Fixed thresholds keep arrays up to 32 MiB on
    the heap and trim it only when 256 MiB lie free at its top; the same
    steps then fault almost never.  Both must be set: either one alone also
    switches the adaptive thresholds off and faults more often than neither.
    Where the C library has no `mallopt`, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # not glibc, or no C library handle
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, 32 << 20)
    mallopt(_M_TRIM_THRESHOLD, 256 << 20)


_keep_freed_pages()


class ShapeError(ValueError):
    """Operand shapes incompatible for an op kind."""

    def __init__(self, kind: str, shapes, detail: str = ""):
        msg = f"{kind}: incompatible shapes {[tuple(s) for s in shapes]}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.kind = kind
        self.shapes = [tuple(s) for s in shapes]


class DegenerateSigmaError(ValueError):
    """Normalization over a constant vector with epsilon 0 (sigma = 0)."""


_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (eval / probe forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class Tensor:
    """Dense n-d array plus autodiff bookkeeping.

    `data` is a row-major numpy buffer (float32 or float64). `grad` is
    materialized lazily and only for tensors with requires_grad set; after
    `backward` only the leaves and the loss keep theirs.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_op",
                 "_backward_done")

    def __init__(self, data, requires_grad=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.requires_grad = bool(requires_grad)
        self.grad = None
        self._parents = ()
        self._backward = None
        self._op = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    @property
    def size(self):
        return self.data.size

    def __repr__(self):
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag}, op={self._op})"


def tensor(data, requires_grad=False, dtype=None) -> Tensor:
    return Tensor(data, requires_grad=requires_grad, dtype=dtype)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# Each kernel maps (arrays, attrs) -> (out, backward) where
# backward(g, needs) returns one gradient per input (None where not needed).
_OPS = {}


def register_op(kind):
    def decorator(fn):
        _OPS[kind] = fn
        return fn
    return decorator


def op_kinds():
    return sorted(_OPS)


@register_op("matmul")
def _matmul(arrays, attrs):
    a, b = arrays
    transpose_b = bool(attrs.get("transpose_b", False))
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError("matmul", [a.shape, b.shape], "operands must be >= 2-d")
    b_inner = b.shape[-1] if transpose_b else b.shape[-2]
    if a.shape[-1] != b_inner:
        raise ShapeError("matmul", [a.shape, b.shape],
                         f"inner dims {a.shape[-1]} vs {b_inner}")
    bT = np.swapaxes(b, -1, -2) if transpose_b else b
    if b.ndim == 2 and a.ndim > 2:
        return _matmul_rows(a, b, bT, transpose_b)
    out = a @ bT

    def backward(g, needs):
        ga = gb = None
        if needs[0]:
            ga = _unbroadcast(g @ b if transpose_b else g @ np.swapaxes(b, -1, -2), a.shape)
        if needs[1]:
            if transpose_b:
                gb = _unbroadcast(np.swapaxes(g, -1, -2) @ a, b.shape)
            else:
                gb = _unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape)
        return ga, gb

    return out, backward


def _matmul_rows(a, b, bT, transpose_b):
    """(..., in) @ 2-d weight with the leading axes folded into rows.

    One GEMM per product instead of one small product per batch entry; the
    weight gradient is a single (out, in) product, not a stack of partial
    ones summed afterwards.
    """
    a2 = a.reshape(-1, a.shape[-1])
    out = (a2 @ bT).reshape(a.shape[:-1] + (bT.shape[-1],))

    def backward(g, needs):
        g2 = g.reshape(-1, g.shape[-1])
        ga = gb = None
        if needs[0]:
            ga = (g2 @ bT.T).reshape(a.shape)
        if needs[1]:
            gb = g2.T @ a2 if transpose_b else a2.T @ g2
        return ga, gb

    return out, backward


def _check_broadcast(kind, a, b):
    try:
        return np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(kind, [a.shape, b.shape]) from None


@register_op("add")
def _add(arrays, attrs):
    a, b = arrays
    _check_broadcast("add", a, b)
    out = a + b

    def backward(g, needs):
        return (_unbroadcast(g, a.shape) if needs[0] else None,
                _unbroadcast(g, b.shape) if needs[1] else None)

    return out, backward


@register_op("mul")
def _mul(arrays, attrs):
    a, b = arrays
    _check_broadcast("mul", a, b)
    out = a * b

    def backward(g, needs):
        return (_unbroadcast(g * b, a.shape) if needs[0] else None,
                _unbroadcast(g * a, b.shape) if needs[1] else None)

    return out, backward


@register_op("embed_lookup")
def _embed_lookup(arrays, attrs):
    """Rows of `w` at `ids`: an int array into the first axis of a 2-d table,
    or a tuple of int arrays, one per leading axis (a row gather).  The
    backward scatter-adds, so repeated rows accumulate their gradients."""
    (w,) = arrays
    ids = attrs["ids"]
    ids = tuple(map(np.asarray, ids)) if isinstance(ids, tuple) else (np.asarray(ids),)
    if w.ndim != len(ids) + 1:
        raise ShapeError("embed_lookup", [w.shape],
                         f"{len(ids)} index array(s) need a {len(ids) + 1}-d input")
    out = w[ids]

    def backward(g, needs):
        if not needs[0]:
            return (None,)
        gw = np.zeros_like(w)
        np.add.at(gw, ids, g)
        return (gw,)

    return out, backward


@register_op("causal_attention")
def _causal_attention(arrays, attrs):
    """softmax(q k^T / sqrt(hd) + causal mask) v per head; (B, L, d) in and out.

    Future positions are set to -inf before the softmax, so their weights are
    exactly 0.0 and no output row depends on a later position.  Exact and
    un-tiled: the (B, H, L, L) weights are kept for the backward.
    """
    q, k, v = arrays
    n_heads = int(attrs["n_heads"])
    if q.ndim != 3 or k.shape != q.shape or v.shape != q.shape or q.shape[-1] % n_heads:
        raise ShapeError("causal_attention", [q.shape, k.shape, v.shape],
                         f"need equal (B, L, d) with d divisible by n_heads={n_heads}")
    bsz, length, d = q.shape
    hd = d // n_heads
    scale = hd ** -0.5

    def split(t):  # (B, L, d) -> (B, H, L, hd)
        return t.reshape(bsz, length, n_heads, hd).transpose(0, 2, 1, 3)

    def merge(t):  # (B, H, L, hd) -> (B, L, d)
        return t.transpose(0, 2, 1, 3).reshape(bsz, length, d)

    qh, kh, vh = split(q), split(k), split(v)
    att = qh @ kh.swapaxes(-1, -2)
    att *= scale
    att[..., np.triu(np.ones((length, length), dtype=bool), k=1)] = -np.inf
    # row max one column at a time: exact, and far cheaper than a reduction
    # over rows only `length` wide
    row_max = att[..., 0].copy()
    for j in range(1, length):
        np.maximum(row_max, att[..., j], out=row_max)
    att -= row_max[..., None]
    np.exp(att, out=att)
    att /= att.sum(axis=-1, keepdims=True)
    out = merge(att @ vh)

    def backward(g, needs):
        gq = gk = gv = None
        gh = split(g)
        if needs[2]:
            gv = merge(att.swapaxes(-1, -2) @ gh)
        if needs[0] or needs[1]:
            gs = gh @ vh.swapaxes(-1, -2)
            gs -= (gs * att).sum(axis=-1, keepdims=True)
            gs *= att
            gs *= scale
            if needs[0]:
                gq = merge(gs @ kh)
            if needs[1]:
                gk = merge(gs.swapaxes(-1, -2) @ qh)
        return gq, gk, gv

    return out, backward


@register_op("silu")
def _silu(arrays, attrs):
    (x,) = arrays
    sig = np.negative(x)  # 1 / (1 + exp(-x)), built in one buffer
    np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    out = x * sig

    def backward(g, needs):
        if not needs[0]:
            return (None,)
        gx = g * sig
        slope = np.subtract(1.0, sig)
        slope *= x
        slope += 1.0
        gx *= slope
        return (gx,)

    return out, backward


def _norm_backward_core(gy, y, inv_scale, subtract_mean):
    """(1/s) * (gy - y*mean(gy*y) [- mean(gy)]), written into `gy`."""
    t = gy * y
    proj = t.mean(axis=-1, keepdims=True)
    centre = gy.mean(axis=-1, keepdims=True) if subtract_mean else None
    np.multiply(y, proj, out=t)
    gy -= t
    if subtract_mean:
        gy -= centre
    gy *= inv_scale
    return gy


@register_op("layer_norm")
def _layer_norm(arrays, attrs):
    x, gain, bias = arrays
    eps = float(attrs.get("eps", 1e-5))
    if gain.shape != x.shape[-1:] or bias.shape != x.shape[-1:]:
        raise ShapeError("layer_norm", [x.shape, gain.shape, bias.shape],
                         "gain/bias must match last axis")
    mu = x.mean(axis=-1, keepdims=True)
    y = x - mu
    var = (y * y).mean(axis=-1, keepdims=True)
    if eps == 0.0 and np.any(var == 0.0):
        raise DegenerateSigmaError("layer_norm: constant input with eps=0 (sigma=0)")
    sigma = np.sqrt(var + eps)
    y /= sigma
    out = y * gain
    out += bias

    def backward(g, needs):
        gx = ggain = gbias = None
        if needs[2]:
            gbias = _unbroadcast(g, bias.shape)
        if needs[1]:
            ggain = _unbroadcast(g * y, gain.shape)
        if needs[0]:
            gx = _norm_backward_core(g * gain, y, 1.0 / sigma, subtract_mean=True)
        return gx, ggain, gbias

    return out, backward


@register_op("rms_norm")
def _rms_norm(arrays, attrs):
    x, gain = arrays
    eps = float(attrs.get("eps", 1e-5))
    if gain.shape != x.shape[-1:]:
        raise ShapeError("rms_norm", [x.shape, gain.shape], "gain must match last axis")
    y = x * x
    ms = y.mean(axis=-1, keepdims=True)
    if eps == 0.0 and np.any(ms == 0.0):
        raise DegenerateSigmaError("rms_norm: zero input with eps=0")
    scale = np.sqrt(ms + eps)
    np.divide(x, scale, out=y)
    out = y * gain

    def backward(g, needs):
        gx = ggain = None
        if needs[1]:
            ggain = _unbroadcast(g * y, gain.shape)
        if needs[0]:
            gx = _norm_backward_core(g * gain, y, 1.0 / scale, subtract_mean=False)
        return gx, ggain

    return out, backward


@register_op("cross_entropy")
def _cross_entropy(arrays, attrs):
    (logits,) = arrays
    targets = np.asarray(attrs["targets"])
    ignore_index = int(attrs.get("ignore_index", -1))
    if targets.shape != logits.shape[:-1]:
        raise ShapeError("cross_entropy", [logits.shape, targets.shape],
                         "targets must match logits minus class axis")
    n_classes = logits.shape[-1]
    flat = logits.reshape(-1, n_classes)
    tgt = targets.reshape(-1)
    rows = np.flatnonzero(tgt != ignore_index)
    count = rows.size
    if count == 0:
        raise ValueError("cross_entropy: no targets to score (all ignored)")
    tgt = tgt[rows]
    if tgt.min() < 0 or tgt.max() >= n_classes:
        raise ValueError(f"cross_entropy: scored target out of range [0, {n_classes}): "
                         f"min {tgt.min()}, max {tgt.max()} (ignore_index {ignore_index})")
    # only scored rows are normalized; the per-row loss is scattered back so
    # the sum runs over every row, as it would without the gather
    shifted = flat[rows]
    shifted -= shifted.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    picked = shifted[np.arange(count), tgt]
    scored_nll = logz - picked
    nll = np.zeros(flat.shape[0], dtype=scored_nll.dtype)
    nll[rows] = scored_nll
    out = np.asarray(nll.sum() / count, dtype=logits.dtype)

    def backward(g, needs):
        if not needs[0]:
            return (None,)
        p = shifted - logz[:, None]
        np.exp(p, out=p)
        p[np.arange(count), tgt] -= 1.0
        gl = np.zeros_like(flat)
        gl[rows] = p * (np.asarray(g).reshape(()) / count)
        return (gl.reshape(logits.shape),)

    return out, backward


@register_op("mean")
def _mean(arrays, attrs):
    (x,) = arrays
    axis = attrs.get("axis", None)
    keepdims = bool(attrs.get("keepdims", False))
    out = x.mean(axis=axis, keepdims=keepdims)
    count = x.size if axis is None else np.prod([x.shape[a] for a in np.atleast_1d(axis)])

    def backward(g, needs):
        if not needs[0]:
            return (None,)
        g = np.asarray(g)
        if not keepdims and axis is not None:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, x.shape) / count,)

    return out, backward


@register_op("concat")
def _concat(arrays, attrs):
    axis = int(attrs.get("axis", 0))
    base = list(arrays[0].shape)
    for a in arrays[1:]:
        other = list(a.shape)
        if len(other) != len(base) or any(
                i != axis % len(base) and other[i] != base[i] for i in range(len(base))):
            raise ShapeError("concat", [a.shape for a in arrays], f"axis {axis}")
    out = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum(sizes)[:-1]

    def backward(g, needs):
        pieces = np.split(g, offsets, axis=axis)
        return tuple(p if need else None for p, need in zip(pieces, needs))

    return out, backward


def op_forward(kind: str, inputs: list[Tensor], attrs: dict | None = None) -> Tensor:
    """Run a registered op, recording it on the tape when grads are enabled."""
    if kind not in _OPS:
        raise KeyError(f"unknown op kind {kind!r}; known: {op_kinds()}")
    dtypes = {t.data.dtype for t in inputs}
    if len(dtypes) > 1:
        raise ValueError(f"{kind}: mixed dtypes in one graph: {sorted(map(str, dtypes))}")
    out_array, backward_fn = _OPS[kind]([t.data for t in inputs], attrs or {})
    needs = _grad_enabled and any(t.requires_grad for t in inputs)
    out = Tensor(out_array, requires_grad=needs)
    out._op = kind
    if needs:
        out._parents = tuple(inputs)
        out._backward = backward_fn
    return out


# Thin wrappers so call sites read naturally.

def matmul(a, b, transpose_b=False):
    return op_forward("matmul", [a, b], {"transpose_b": transpose_b})


def add(a, b):
    return op_forward("add", [a, b])


def mul(a, b):
    return op_forward("mul", [a, b])


def embed_lookup(weight, ids):
    return op_forward("embed_lookup", [weight], {"ids": ids})


def causal_attention(q, k, v, n_heads):
    return op_forward("causal_attention", [q, k, v], {"n_heads": n_heads})


def silu(x):
    return op_forward("silu", [x])


def layer_norm(x, gain, bias, eps=1e-5):
    return op_forward("layer_norm", [x, gain, bias], {"eps": eps})


def rms_norm(x, gain, eps=1e-5):
    return op_forward("rms_norm", [x, gain], {"eps": eps})


def cross_entropy(logits, targets, ignore_index=-1):
    return op_forward("cross_entropy", [logits],
                      {"targets": targets, "ignore_index": ignore_index})


def mean(x, axis=None, keepdims=False):
    return op_forward("mean", [x], {"axis": axis, "keepdims": keepdims})


def concat(tensors, axis=0):
    return op_forward("concat", list(tensors), {"axis": axis})


def _toposort(root: Tensor) -> list[Tensor]:
    order, visited, stack = [], set(), [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in visited:
            continue
        visited.add(id(node))
        stack.append((node, True))
        for parent in node._parents:
            if parent.requires_grad and id(parent) not in visited:
                stack.append((parent, False))
    return order  # parents before consumers


def _freed_graph(g=None, needs=None):
    """Backward closure of a node that an earlier `backward` has already walked."""
    raise RuntimeError("backward: the graph was freed by an earlier backward; "
                       "rebuild it from the leaves")


def backward(loss: Tensor) -> None:
    """Accumulate gradients of `loss` into every requires_grad leaf below it.

    Grads add across calls from distinct losses.  The graph is freed as it is
    walked: once a node has passed its gradient on, its closure, saved arrays,
    parent links and (below the loss) its own gradient are dropped.  A second
    backward from the same loss, or from a new loss built on a node of a
    walked graph, raises; rebuild the graph instead.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    if loss._backward_done:
        raise RuntimeError("backward: already ran for this loss; rebuild the graph")
    loss._backward_done = True
    if not loss.requires_grad:
        return
    order = _toposort(loss)
    if any(node._backward is _freed_graph for node in order):
        _freed_graph()  # raises before any gradient is accumulated
    loss.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()  # consumers before parents; drops the list's reference
        if node._backward is None:
            continue  # a leaf keeps its gradient
        needs = [p.requires_grad for p in node._parents]
        grads = node._backward(node.grad, needs)
        for parent, g in zip(node._parents, grads):
            if g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
        node._backward, node._parents = _freed_graph, ()
        if node is not loss:
            node.grad = None
