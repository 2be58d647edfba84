"""Spans around calls into auseg's modules, recorded from outside the package.

Instrumentation replaces module attributes: every binding of a function, in
every ``auseg`` module, including names brought in with ``from ... import``.
Nothing under ``src/`` changes, and ``Instrumentation.restore`` puts every
original binding back.

``instrument(tracer, full=False)`` wraps only what the end-to-end metrics
need (the training batch iterator, the optimizer step, ``evaluate`` and
``train``): a few spans per step. ``full=True`` also wraps every public
function of the measured layers, times the backward closure each op hands to
``record_op``, counts convolution flops and samples ``tracemalloc`` peaks
around the forward and backward passes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import Counter

LAYERS = ("tensor", "nn_ops", "attention", "unet", "losses_metrics", "training", "data",
          "checkpoint")

# Span names of the boundary level; the step clock is built from these.
BATCH = "data.batch_iter"
OPTIMIZER = "training.adamw_step"
EVALUATE = "training.evaluate"
TRAIN = "training.train"
# Spans the benchmark opens around its own calls.
EPISODE = "bench.episode"
REQUEST = "bench.request"

# Called so often, or so cheaply, that a span would cost more than it shows.
_UNSPANNED = {"tensor.record_op", "tensor.active_tape"}


class Tracer:
    """In-memory spans: name, start, end, parent index and step id.

    A new step starts when the training batch iterator hands out a batch
    outside ``evaluate``; spans opened afterwards carry that step id.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.step = -1
        self.step_images: dict[int, int] = {}
        # keyed by the index of the innermost open span, so that totals can
        # leave out work done inside evaluate
        self.op_calls: Counter = Counter()
        self.flops: dict[int, int] = {}
        self.peaks: dict[str, int] = {}

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.step])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def span(self, name: str):
        return _Span(self, name)

    def parent_name(self) -> str | None:
        """Name of the innermost span still open, or None at top level."""
        return self.spans[self.stack[-1]][0] if self.stack else None

    def start_step(self, batch_span: int, images: int) -> None:
        self.step += 1
        self.spans[batch_span][4] = self.step
        self.step_images[self.step] = images

    def to_rows(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p, "step": k}
                for n, s, e, p, k in self.spans]


class _Span:
    __slots__ = ("tracer", "name", "index")

    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer.open(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.close(self.index)


def _spanned(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index)
    return wrapper


def _spanned_batches(tracer: Tracer, fn):
    """Wrap the batch generator: one span per ``next()``, steps counted."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        batches = fn(*args, **kwargs)
        while True:
            training = tracer.parent_name() != EVALUATE
            index = tracer.open(BATCH)
            try:
                images, labels = next(batches)
            except StopIteration:
                return
            finally:
                tracer.close(index)
            if training:
                tracer.start_step(index, images.shape[0])
            yield images, labels
    return wrapper


def _conv_flops(tracer: Tracer, name: str, fn):
    """Attach the call's flops to its span: 2*N*O*C*kh*kw*Ho*Wo for conv2d;
    for the transposed conv every input pixel scatters a kh*kw*O patch."""
    @functools.wraps(fn)
    def wrapper(x, p):
        out = fn(x, p)
        n, c, h, w = x.shape
        a, b, kh, kw = p.kernel.shape
        if name == "nn_ops.conv2d":
            flops = 2 * n * a * c * kh * kw * out.shape[2] * out.shape[3]
        else:
            flops = 2 * n * a * b * kh * kw * h * w
        tracer.flops[tracer.stack[-1]] = flops
        return out
    return wrapper


def _memory_peak(tracer: Tracer, key: str, fn):
    """Largest rise of traced memory above its level at entry, over all calls."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return fn(*args, **kwargs)
        finally:
            rise = tracemalloc.get_traced_memory()[1] - base
            tracer.peaks[key] = max(tracer.peaks.get(key, 0), rise)
    return wrapper


def _timed_record_op(tracer: Tracer, layer: str, record_op):
    """Count recorded ops and time each backward closure as ``layer.op.bwd``."""
    @functools.wraps(record_op)
    def wrapper(op, inputs, out_data, backward):
        tracer.op_calls[tracer.stack[-1] if tracer.stack else -1] += 1
        name = f"{layer}.{op}.bwd"

        def timed_backward(g):
            index = tracer.open(name)
            try:
                return backward(g)
            finally:
                tracer.close(index)
        return record_op(op, inputs, out_data, timed_backward)
    return wrapper


class Instrumentation:
    """Replaces bindings in every loaded ``auseg`` module; ``restore`` undoes it."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, original, wrapper) -> None:
        for module in _auseg_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def replace_in(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()


def _auseg_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "auseg" or name.startswith("auseg."))]


def _layer(name: str):
    return importlib.import_module(f"auseg.{name}")


def _public_functions(layer: str):
    module = _layer(layer)
    for attr, value in sorted(vars(module).items()):
        if (inspect.isfunction(value) and value.__module__ == module.__name__
                and not attr.startswith("_")):
            yield attr, value


def instrument(tracer: Tracer, full: bool) -> Instrumentation:
    """Install the boundary spans, and with ``full`` every layer's spans."""
    inst = Instrumentation()
    training, data = _layer("training"), _layer("data")
    inst.replace(data.batch_iter, _spanned_batches(tracer, data.batch_iter))
    for fn, name in ((training.adamw_step, OPTIMIZER), (training.evaluate, EVALUATE),
                     (training.train, TRAIN)):
        inst.replace(fn, _spanned(tracer, name, fn))
    if not full:
        return inst
    done = {BATCH, OPTIMIZER, EVALUATE, TRAIN} | _UNSPANNED
    for layer in LAYERS:
        for attr, fn in _public_functions(layer):
            name = f"{layer}.{attr}"
            if name in done:
                continue
            wrapped = fn
            if name in ("nn_ops.conv2d", "nn_ops.transposed_conv2d"):
                wrapped = _conv_flops(tracer, name, fn)
            elif name == "unet.forward":
                wrapped = _memory_peak(tracer, "forward", fn)
            elif name == "tensor.backward":
                wrapped = _memory_peak(tracer, "backward", fn)
            inst.replace(fn, _spanned(tracer, name, wrapped))
    record_op = _layer("tensor").record_op
    for module in _auseg_modules():
        if vars(module).get("record_op") is record_op:
            layer = module.__name__.rpartition(".")[2]
            inst.replace_in(module, "record_op", _timed_record_op(tracer, layer, record_op))
    return inst
