"""Dense-tensor engine with reverse-mode automatic differentiation.

Every operation goes through a registry keyed by op kind, so the whole op
surface can be enumerated for gradient checking. The tape is the graph of
each tensor's `_Node` and its parent nodes. Nodes hold no arrays: an op's
backward closure keeps only what the gradients of the inputs that need one
read, and an op none of whose inputs needs a gradient records nothing.
`backward` linearizes the graph topologically, visits each node exactly once
and frees the graph behind it. Single-threaded per training step by
contract.
"""

from __future__ import annotations

import contextlib
import ctypes
import operator

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


def check_count(name, value, low=0):
    """`value` as an int, refused by name unless it is an integer of at least
    `low`; a bool is not a count.  The configs and entry points of every
    module check their counts, sizes and seeds here, the one module they all
    import."""
    try:
        index = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        index = None
    if index is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if index < low:
        raise ValueError(f"{name} must be >= {low}, got {value}")
    return index


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


class _Node:
    """A tensor's place on the tape: its gradient, flags, backward closure
    and parent nodes.  A node holds no array of its own, so what a walked
    graph keeps alive is exactly what its closures captured."""

    __slots__ = ("requires_grad", "grad", "parents", "needs", "backward", "op",
                 "backward_done")

    def __init__(self, requires_grad):
        self.requires_grad = requires_grad
        self.grad = None
        self.parents = ()
        self.needs = ()
        self.backward = None
        self.op = None
        self.backward_done = False


class Tensor:
    """Dense n-d array plus its node on the tape.

    `data` is a row-major numpy buffer (float32 or float64). `grad` is
    materialized lazily and only for tensors with requires_grad set; after
    `backward` only the leaves and the loss keep theirs.  The gradient, the
    flag and the backward closure live on `_node`, which never refers back
    to `data`: dropping a tensor frees its array unless a closure kept it.
    """

    __slots__ = ("data", "_node")

    def __init__(self, data, requires_grad=False):
        self.data = np.asarray(data)
        self._node = _Node(bool(requires_grad))

    @property
    def requires_grad(self):
        return self._node.requires_grad

    @requires_grad.setter
    def requires_grad(self, value):
        self._node.requires_grad = bool(value)

    @property
    def grad(self):
        return self._node.grad

    @grad.setter
    def grad(self, value):
        self._node.grad = value

    @property
    def _backward(self):
        """The op's backward closure, called as closure(g, needs); None when
        the op was not recorded."""
        return self._node.backward

    @_backward.setter
    def _backward(self, closure):
        self._node.backward = closure

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
        return (f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{flag}, "
                f"op={self._node.op})")


def tensor(data, requires_grad=False) -> Tensor:
    return Tensor(data, requires_grad=requires_grad)


def _unbroadcast(g: np.ndarray, shape) -> np.ndarray:
    """Reduce gradient g back to `shape` after numpy broadcasting."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for axis, (have, want) in enumerate(zip(g.shape, shape)):
        if want == 1 and have != 1:
            g = g.sum(axis=axis, keepdims=True)
    return g


# Each kernel maps (arrays, attrs, needs) -> (out, backward).  `needs` flags
# the inputs that want a gradient (every input by default); the kernel keeps
# for its backward only the arrays those gradients read, and returns backward
# None when no input needs one.  backward(g, needs), called with the same
# needs, returns one gradient per input (None where not needed).
_OPS = {}


def register_op(kind):
    def decorator(fn):
        _OPS[kind] = fn
        return fn
    return decorator


def op_kinds():
    return sorted(_OPS)


@register_op("matmul")
def _matmul(arrays, attrs, needs=(True, True)):
    """x @ W.T: x (..., in) through a 2-d (out, in) weight.

    The leading axes of x fold into rows, so the product is one GEMM and the
    weight gradient a single (out, in) product, not a stack of partial ones
    summed afterwards.  x is kept only for W's gradient, W only for x's.
    """
    x, w = arrays
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[1]:
        raise ShapeError("matmul", [x.shape, w.shape],
                         "need x (..., in) and a 2-d (out, in) weight")
    x2 = x.reshape(-1, x.shape[-1])
    out = (x2 @ w.T).reshape(x.shape[:-1] + (len(w),))
    if not any(needs):
        return out, None
    x_shape = x.shape
    w_kept = w if needs[0] else None
    x2_kept = x2 if needs[1] else None

    def backward(g, needs):
        g2 = g.reshape(-1, g.shape[-1])
        gx = (g2 @ w_kept).reshape(x_shape) if needs[0] else None
        gw = g2.T @ x2_kept if needs[1] else None
        return gx, gw

    return out, backward


@register_op("add")
def _add(arrays, attrs, needs=(True, True)):
    a, b = arrays
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError("add", [a.shape, b.shape]) from None
    out = a + b
    if not any(needs):
        return out, None
    a_shape, b_shape = a.shape, b.shape

    def backward(g, needs):
        return (_unbroadcast(g, a_shape) if needs[0] else None,
                _unbroadcast(g, b_shape) if needs[1] else None)

    return out, backward


@register_op("embed_lookup")
def _embed_lookup(arrays, attrs, needs=(True,)):
    """Rows of `w` at `ids`, an int array into the first axis of `w`.  The
    backward scatter-adds, so repeated rows accumulate their gradients; when
    no row repeats, a plain assignment does the same far faster.  The scatter
    runs on the flattened table, where `np.add.at` takes its fast 1-d path
    and adds in the same order as on rows."""
    (w,) = arrays
    ids = np.asarray(attrs["ids"])
    out = w[ids]
    if not needs[0]:
        return out, None
    distinct = np.bincount(ids.reshape(-1), minlength=len(w)).max(initial=0) < 2
    w_shape, w_dtype = w.shape, w.dtype

    def backward(g, needs):
        gw = np.zeros(w_shape, dtype=w_dtype)
        if distinct:
            gw[ids] = g
        else:
            width = gw[0].size
            flat = ids.reshape(-1, 1) * width + np.arange(width)
            np.add.at(gw.reshape(-1), flat.reshape(-1), g.reshape(-1))
        return (gw,)

    return out, backward


@register_op("causal_attention")
def _causal_attention(arrays, attrs, needs=(True, True, True)):
    """softmax(q k^T / sqrt(hd) + causal mask) v per head, sample by sample.

    q, k and v are equal (..., d) arrays, read as their (N, d) rows, in
    groups of equal-length samples: the attr `groups` lists (count, length)
    pairs, and the rows hold the first group's `count` samples of `length`
    rows each, one sample after another, then the next group's.  A dense
    (B, L, d) batch is the single group (B, L).  Each group's
    (count, H, length, hd) heads are a view of its rows.

    Future positions are set to -inf before the softmax, so their weights are
    exactly 0.0 and no output row depends on a later position.  Exact and
    un-tiled: each group's (count, H, length, length) weights are kept for
    the backward when any input needs a gradient, with v for q's and k's
    gradients, k for q's and q for k's.
    """
    q, k, v = arrays
    n_heads, groups = int(attrs["n_heads"]), attrs["groups"]
    if k.shape != q.shape or v.shape != q.shape or q.shape[-1] % n_heads:
        raise ShapeError("causal_attention", [q.shape, k.shape, v.shape],
                         f"need equal (..., d) with d divisible by n_heads={n_heads}")
    d = q.shape[-1]
    q2, k2, v2 = (t.reshape(-1, d) for t in (q, k, v))
    spans, start = [], 0  # (rows, count, length) of each group
    for count, length in groups:
        if count < 1 or length < 1:
            raise ShapeError("causal_attention", [q.shape],
                             f"group ({count}, {length}) must be positive")
        spans.append((slice(start, start + count * length), count, length))
        start += count * length
    if start != len(q2):
        raise ShapeError("causal_attention", [q.shape],
                         f"groups {list(groups)} cover {start} rows, not {len(q2)}")
    scale = (d // n_heads) ** -0.5

    def heads(t, span):  # a group's rows of an (N, d) array -> (count, H, length, hd)
        rows, count, length = span
        return t[rows].reshape(count, length, n_heads, -1).transpose(0, 2, 1, 3)

    # C-contiguous, so heads() of it is a view and assigning to it writes through
    out = np.empty((len(q2), d), dtype=q.dtype)
    weights = []
    for span in spans:
        length = span[2]
        att = heads(q2, span) @ heads(k2, span).swapaxes(-1, -2)
        att *= scale
        att[..., np.triu(np.ones((length, length), dtype=bool), k=1)] = -np.inf
        # row max one column at a time: exact, and far cheaper than a
        # reduction over rows only `length` wide
        row_max = att[..., 0].copy()
        for j in range(1, length):
            np.maximum(row_max, att[..., j], out=row_max)
        att -= row_max[..., None]
        np.exp(att, out=att)
        att /= att.sum(axis=-1, keepdims=True)
        heads(out, span)[...] = att @ heads(v2, span)
        weights.append(att)
    if not any(needs):
        return out.reshape(q.shape), None
    shape = q.shape
    q_kept = q2 if needs[1] else None
    k_kept = k2 if needs[0] else None
    v_kept = v2 if needs[0] or needs[1] else None

    def backward(g, needs):
        g2 = g.reshape(-1, d)
        gq, gk, gv = grads = [np.empty((len(g2), d), dtype=g.dtype) if need else None
                              for need in needs]
        for span, att in zip(spans, weights):
            gh = heads(g2, span)
            if needs[2]:
                heads(gv, span)[...] = att.swapaxes(-1, -2) @ gh
            if needs[0] or needs[1]:
                gs = gh @ heads(v_kept, span).swapaxes(-1, -2)
                gs -= (gs * att).sum(axis=-1, keepdims=True)
                gs *= att
                gs *= scale
                if needs[0]:
                    heads(gq, span)[...] = gs @ heads(k_kept, span)
                if needs[1]:
                    heads(gk, span)[...] = gs.swapaxes(-1, -2) @ heads(q_kept, span)
        return tuple(None if t is None else t.reshape(shape) for t in grads)

    return out.reshape(q.shape), backward


@register_op("silu")
def _silu(arrays, attrs, needs=(True,)):
    (x,) = arrays
    sig = np.negative(x)  # 1 / (1 + exp(-x)), built in one buffer
    with np.errstate(over="ignore"):  # exp(-x) = inf for x << 0 gives sig = 0
        np.exp(sig, out=sig)
    sig += 1.0
    np.reciprocal(sig, out=sig)
    if not needs[0]:
        return x * sig, None
    # the backward keeps only silu'(x) = (1 + x (1 - sig)) sig, made before
    # the output takes over sig's buffer, so no third array is ever live
    slope = np.subtract(1.0, sig)
    slope *= x
    slope += 1.0
    slope *= sig
    out = np.multiply(x, sig, out=sig)

    def backward(g, needs):
        return (g * slope,)

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
def _layer_norm(arrays, attrs, needs=(True, True, True)):
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
    if not any(needs):
        return out, None
    param_shape = gain.shape
    y_kept = y if needs[0] or needs[1] else None
    gain_kept, sigma_kept = (gain, sigma) if needs[0] else (None, None)

    def backward(g, needs):
        gx = ggain = gbias = None
        if needs[2]:
            gbias = _unbroadcast(g, param_shape)
        if needs[1]:
            ggain = _unbroadcast(g * y_kept, param_shape)
        if needs[0]:
            gx = _norm_backward_core(g * gain_kept, y_kept, 1.0 / sigma_kept,
                                     subtract_mean=True)
        return gx, ggain, gbias

    return out, backward


@register_op("rms_norm")
def _rms_norm(arrays, attrs, needs=(True, True)):
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
    if not any(needs):
        return out, None
    param_shape = gain.shape
    gain_kept, scale_kept = (gain, scale) if needs[0] else (None, None)

    def backward(g, needs):
        gx = ggain = None
        if needs[1]:
            ggain = _unbroadcast(g * y, param_shape)
        if needs[0]:
            gx = _norm_backward_core(g * gain_kept, y, 1.0 / scale_kept,
                                     subtract_mean=False)
        return gx, ggain

    return out, backward


IGNORE = -1  # the target value cross_entropy does not score


@register_op("cross_entropy")
def _cross_entropy(arrays, attrs, needs=(True,)):
    (logits,) = arrays
    targets = np.asarray(attrs["targets"])
    if targets.shape != logits.shape[:-1]:
        raise ShapeError("cross_entropy", [logits.shape, targets.shape],
                         "targets must match logits minus class axis")
    n_classes = logits.shape[-1]
    flat = logits.reshape(-1, n_classes)
    tgt = targets.reshape(-1)
    rows = np.flatnonzero(tgt != IGNORE)
    count = rows.size
    if count == 0:
        raise ValueError("cross_entropy: no targets to score (all ignored)")
    tgt = tgt[rows]
    if tgt.min() < 0 or tgt.max() >= n_classes:
        raise ValueError(f"cross_entropy: scored target out of range [0, {n_classes}): "
                         f"min {tgt.min()}, max {tgt.max()} (ignored: {IGNORE})")
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
    if not needs[0]:
        return out, None
    shape, flat_shape, dtype = logits.shape, flat.shape, logits.dtype

    def backward(g, needs):
        p = shifted - logz[:, None]
        np.exp(p, out=p)
        p[np.arange(count), tgt] -= 1.0
        gl = np.zeros(flat_shape, dtype=dtype)
        gl[rows] = p * (np.asarray(g).reshape(()) / count)
        return (gl.reshape(shape),)

    return out, backward


@register_op("concat")
def _concat(arrays, attrs, needs=None):
    """(n_i, d) arrays joined along their rows."""
    if any(a.ndim != 2 or a.shape[1] != arrays[0].shape[1] for a in arrays):
        raise ShapeError("concat", [a.shape for a in arrays], "need (n_i, d) rows")
    out = np.concatenate(arrays)
    if needs is not None and not any(needs):
        return out, None
    offsets = np.cumsum([len(a) for a in arrays])[:-1]

    def backward(g, needs):
        return tuple(p if need else None for p, need in zip(np.split(g, offsets), needs))

    return out, backward


def op_forward(kind: str, inputs: list[Tensor], attrs: dict | None = None) -> Tensor:
    """Run a registered op, recording it on the tape when an input needs a
    gradient and grads are enabled."""
    if kind not in _OPS:
        raise KeyError(f"unknown op kind {kind!r}; known: {op_kinds()}")
    dtypes = {t.data.dtype for t in inputs}
    if len(dtypes) > 1:
        raise ValueError(f"{kind}: mixed dtypes in one graph: {sorted(map(str, dtypes))}")
    needs = tuple(_grad_enabled and t._node.requires_grad for t in inputs)
    out_array, backward_fn = _OPS[kind]([t.data for t in inputs], attrs or {}, needs)
    out = Tensor(out_array)
    node = out._node
    node.op = kind
    if backward_fn is not None:
        node.requires_grad = True
        node.parents = tuple(t._node for t in inputs)
        node.needs = needs
        node.backward = backward_fn
    return out


# Thin wrappers so call sites read naturally.

def matmul(x, w):
    return op_forward("matmul", [x, w])


def add(a, b):
    return op_forward("add", [a, b])


def embed_lookup(weight, ids):
    return op_forward("embed_lookup", [weight], {"ids": ids})


def causal_attention(q, k, v, n_heads, groups):
    return op_forward("causal_attention", [q, k, v], {"n_heads": n_heads, "groups": groups})


def silu(x):
    return op_forward("silu", [x])


def layer_norm(x, gain, bias, eps=1e-5):
    return op_forward("layer_norm", [x, gain, bias], {"eps": eps})


def rms_norm(x, gain, eps=1e-5):
    return op_forward("rms_norm", [x, gain], {"eps": eps})


def cross_entropy(logits, targets):
    return op_forward("cross_entropy", [logits], {"targets": targets})


def concat(tensors):
    return op_forward("concat", list(tensors))


def _toposort(root: _Node) -> list[_Node]:
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
        for parent, need in zip(node.parents, node.needs):
            if need and id(parent) not in visited:
                stack.append((parent, False))
    return order  # parents before consumers


def _freed_graph(g=None, needs=None):
    """Backward closure of a node that an earlier `backward` has already walked."""
    raise RuntimeError("backward: the graph was freed by an earlier backward; "
                       "rebuild it from the leaves")


def backward(loss: Tensor) -> None:
    """Accumulate gradients of `loss` into every requires_grad leaf below it.

    Grads add across calls from distinct losses.  The graph is freed as it is
    walked: once a node has passed its gradient on, its closure (and so the
    arrays it saved), parent links and (below the loss) its own gradient are
    dropped.  A second backward from the same loss, or from a new loss built
    on a node of a walked graph, raises; rebuild the graph instead.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward: loss must be scalar, got shape {loss.shape}")
    root = loss._node
    if root.backward_done:
        raise RuntimeError("backward: already ran for this loss; rebuild the graph")
    root.backward_done = True
    if not root.requires_grad:
        return
    order = _toposort(root)
    if any(node.backward is _freed_graph for node in order):
        _freed_graph()  # raises before any gradient is accumulated
    root.grad = np.ones_like(loss.data)
    while order:
        node = order.pop()  # consumers before parents; drops the list's reference
        if node.backward is None:
            continue  # a leaf keeps its gradient
        grads = node.backward(node.grad, node.needs)
        for parent, g in zip(node.parents, grads):
            if g is None:
                continue
            parent.grad = g if parent.grad is None else parent.grad + g
        node.backward, node.parents = _freed_graph, ()
        if node is not root:
            node.grad = None
