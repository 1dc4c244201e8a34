"""Span recorder and the wrappers that attach it to normadapt's public API.

Nothing here edits the library: every span comes from a wrapper installed
over a public module, class or closure attribute for the duration of one
`installed(...)` block and restored afterwards.  Spans stay in memory and are
written out by the caller when the run ends.

Two wrapper sets exist.  `meter_patches` wraps only `training.train` and
`training.evaluate`; it is cheap (a handful of calls per job) and is what the
untraced, end-to-end run uses to split train time from eval time.
`trace_patches` adds a span at every layer boundary the per-layer table needs,
down to each op's forward and its backward closure.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field

from normadapt import analysis, autograd, data, model, strategies, training

_clock = time.perf_counter
_cpu_clock = time.process_time


@dataclass
class Span:
    name: str
    start: float
    end: float = None
    parent: int = -1        # index into Recorder.spans, -1 for a root
    run: int = 0
    info: dict = None       # tokens, flops or the RunRecord, where measured
    cpu_start: float = None  # process CPU clock, when the recorder keeps it
    cpu_end: float = None

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def cpu_dur(self) -> float:
        return self.cpu_end - self.cpu_start


@dataclass
class Recorder:
    spans: list = field(default_factory=list)
    run: int = 0
    cpu: bool = False       # also read the process CPU clock (a system call)
    _stack: list = field(default_factory=list)
    _eval_depth: int = 0

    def begin(self, name) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        cpu_start = _cpu_clock() if self.cpu else None
        self.spans.append(Span(name, _clock(), parent=parent, run=self.run,
                               cpu_start=cpu_start))
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx].end = _clock()
        if self.cpu:
            self.spans[idx].cpu_end = _cpu_clock()
        if self._stack.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx].name!r} closed out of order")

    @contextlib.contextmanager
    def span(self, name):
        idx = self.begin(name)
        try:
            yield idx
        finally:
            self.end(idx)


def self_times(spans):
    """Each span's duration minus the part of its interval its children cover.

    Children are clipped to their parent and merged, so a child that escapes
    its parent or overlaps a sibling shows up as a mismatch between the summed
    self times and the root span.
    """
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for i, s in enumerate(spans):
        covered, cursor = 0.0, s.start
        for c in sorted(children[i], key=lambda j: spans[j].start):
            lo, hi = max(spans[c].start, cursor), min(spans[c].end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(s.dur - covered)
    return out


def _timed(rec: Recorder, name, fn, info_of=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end(idx)
        if info_of is not None:
            rec.spans[idx].info = info_of(args, kwargs, result)
        return result
    return wrapper


def _train_info(args, kwargs, record):
    train_ds = args[2] if len(args) > 2 else kwargs["train_ds"]
    config = args[4] if len(args) > 4 else kwargs["config"]
    positions = train_ds.targets.shape[1]
    return {"tokens": len(record.train_curve) * config.batch * positions,
            "record": record}


def _eval_info(args, kwargs, result):
    ds = args[1] if len(args) > 1 else kwargs["ds"]
    return {"tokens": len(ds) * ds.targets.shape[1]}


def _evaluate(rec: Recorder, fn):
    timed = _timed(rec, "training.evaluate", fn, _eval_info)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec._eval_depth += 1
        try:
            return timed(*args, **kwargs)
        finally:
            rec._eval_depth -= 1
    return wrapper


def meter_patches(rec: Recorder):
    """(owner, attribute, replacement) for the cheap end-to-end meter."""
    return [
        (training, "train", _timed(rec, "training.train", training.train,
                                   _train_info)),
        (training, "evaluate", _evaluate(rec, training.evaluate)),
    ]


def _matmul_flops(inputs, out):
    """2*M*N*K for `a @ b(.T)`: every output element is a K-long dot product."""
    return 2 * out.data.size * inputs[0].data.shape[-1]


def _op_forward(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(kind, inputs, attrs=None):
        idx = rec.begin(f"autograd.{kind}.fwd")
        try:
            out = fn(kind, inputs, attrs)
        finally:
            rec.end(idx)
        info = {}
        flops = _matmul_flops(inputs, out) if kind == "matmul" else 0
        if flops:
            info["flops"] = flops
        if out._backward is not None:  # recorded on the tape
            info["tape_node"] = 1
            out._backward = _backward_closure(rec, kind, out._backward, flops)
        if info:
            rec.spans[idx].info = info
        return out
    return wrapper


def _backward_closure(rec: Recorder, kind, closure, fwd_flops):
    def timed(g, needs):
        idx = rec.begin(f"autograd.{kind}.bwd")
        try:
            return closure(g, needs)
        finally:
            rec.end(idx)
            if fwd_flops:
                # each requested operand gradient is one more product of the same size
                rec.spans[idx].info = {"flops": fwd_flops * sum(map(bool, needs))}
    return timed


def _forward(rec: Recorder, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = rec.begin("model.forward_nograd" if rec._eval_depth else "model.forward")
        try:
            return fn(*args, **kwargs)
        finally:
            rec.end(idx)
    return wrapper


def trace_patches(rec: Recorder):
    """Meter patches plus a span at every public layer boundary."""
    select = _timed(rec, "strategies.select_trainable", strategies.select_trainable)
    build = _timed(rec, "model.build", model.build)
    return meter_patches(rec) + [
        (autograd, "op_forward", _op_forward(rec, autograd.op_forward)),
        (autograd, "backward", _timed(rec, "autograd.backward", autograd.backward)),
        (model.Model, "forward", _forward(rec, model.Model.forward)),
        (training.Adam, "step", _timed(rec, "training.adam_step", training.Adam.step)),
        (training, "clone_model", _timed(rec, "training.clone_model",
                                         training.clone_model)),
        (training, "pretrain", _timed(rec, "training.pretrain", training.pretrain)),
        (training, "compare_strategies", _timed(rec, "training.compare_strategies",
                                                training.compare_strategies)),
        (data, "generate", _timed(rec, "data.generate", data.generate)),
        (strategies, "select_trainable", select),
        (training, "select_trainable", select),  # training imported the name
        (model, "build", build),
        (training, "build", build),              # likewise
        (analysis.GradTrace, "record", _timed(rec, "analysis.grad_trace_record",
                                              analysis.GradTrace.record)),
    ]


@contextlib.contextmanager
def installed(patches):
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
