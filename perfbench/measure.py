"""Metrics derived from recorded spans.

End-to-end metrics come from an untraced phase (boundary spans only); per-layer
metrics from a traced phase (every layer's spans). A training step runs from
the moment the loop asks the batch iterator for a batch to the end of the
optimizer step; an epoch from the first batch of the epoch to the end of its
validation. On infer, one pass is a checkpoint load, ``evaluate`` over the val
split and every request.
"""
from __future__ import annotations

import statistics
from collections import defaultdict

import numpy as np

from tracing import BATCH, EPISODE, EVALUATE, OPTIMIZER, REQUEST, TRAIN

MIB = 1024.0 * 1024.0

E2E_UNITS = {"setup_s": "s", "img_per_s": "img/s", "latency_ms_p50": "ms",
             "latency_ms_p90": "ms", "pass_s": "s", "peak_rss_mib": "MiB"}
_SUFFIX_UNITS = (("gflop_per_s", "GFLOP/s"), (".gflop", "GFLOP"), (".calls", "count"),
                 ("_pct", "%"), ("_mib", "MiB"), (".bytes", "bytes"), ("ms", "ms"))

CONV_OPS = ("conv2d", "transposed_conv2d")
SMALL_OPS = ("maxpool2d", "relu", "dropout", "concat_channels")


def unit(name: str) -> str:
    """The unit a metric is reported in, fixed by its name."""
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    for suffix, u in _SUFFIX_UNITS:
        if name.endswith(suffix):
            return u
    raise KeyError(f"no unit for metric {name!r}")


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def _durations(spans, name: str) -> list[float]:
    return [end - start for n, start, end, _, _ in spans if n == name]


def step_times(spans) -> dict[int, float]:
    """Seconds per completed training step, by step id."""
    starts: dict[int, float] = {}
    times: dict[int, float] = {}
    for name, start, end, _, step in spans:
        if name == BATCH and step >= 0 and step not in starts:
            starts[step] = start
        elif name == OPTIMIZER and step in starts:
            times[step] = end - starts[step]
    return times


def epoch_times(spans) -> list[float]:
    """Seconds per epoch: first training batch to the end of its validation."""
    times = []
    epoch_start = None
    seen_steps = set()
    for name, start, end, parent, step in spans:
        if name == BATCH and step >= 0 and step not in seen_steps:
            seen_steps.add(step)
            if epoch_start is None:
                epoch_start = start
        elif name == EVALUATE and parent >= 0 and spans[parent][0] == TRAIN:
            if epoch_start is not None:
                times.append(end - epoch_start)
            epoch_start = None
    return times


def end_to_end(workload, tracer, images_per_eval: int) -> tuple[dict, dict]:
    """The user-visible metrics of one untraced phase, and their sample counts."""
    spans = tracer.spans
    if workload.unit == "step":
        steps = step_times(spans)
        images = sum(tracer.step_images[k] for k in steps)
        latency = [1e3 * t for t in steps.values()]
        passes = epoch_times(spans)
        throughput = images / sum(steps.values())
        counts = {"steps": len(steps), "images": images, "epochs": len(passes)}
    else:
        latency = [1e3 * t for t in _durations(spans, REQUEST)]
        evals = _durations(spans, EVALUATE)
        passes = _durations(spans, EPISODE)
        throughput = images_per_eval * len(evals) / sum(evals)
        counts = {"requests": len(latency), "eval_images": images_per_eval * len(evals),
                  "passes": len(passes)}
    metrics = {
        "img_per_s": throughput,
        "latency_ms_p50": statistics.median(latency),
        "latency_ms_p90": percentile(latency, 90),
        "pass_s": statistics.median(passes),
    }
    return metrics, counts


def _totals(tracer, exclude_eval: bool) -> tuple[dict, dict, dict, dict, int]:
    """Per span name: total seconds, calls, self seconds and flops; and the
    number of ops recorded."""
    spans = tracer.spans
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    flops: dict[str, int] = defaultdict(int)
    child: dict[int, float] = defaultdict(float)
    in_eval = [False] * len(spans)
    for i, (name, start, end, parent, _) in enumerate(spans):
        in_eval[i] = name == EVALUATE or (parent >= 0 and in_eval[parent])
        if parent >= 0:
            child[parent] += end - start
    self_time: dict[str, float] = defaultdict(float)
    ops = tracer.op_calls[-1]
    for i, (name, start, end, _, _) in enumerate(spans):
        if exclude_eval and in_eval[i]:
            continue
        ops += tracer.op_calls[i]
        total[name] += end - start
        calls[name] += 1
        self_time[name] += end - start - child[i]
        flops[name] += tracer.flops.get(i, 0)
    return total, calls, self_time, flops, ops


def per_layer(workload, tracer, untraced: dict, traced: dict, ckpt_bytes: int) -> dict:
    """Per-layer metrics of one traced phase, per unit of work.

    The unit is a training step (work inside evaluate is left out, except for
    ``training.evaluate.ms`` and ``losses_metrics.confusion_accumulate.ms``,
    which are spread over the steps) or an infer pass.
    """
    spans = tracer.spans
    training = workload.unit == "step"
    total, calls, self_time, flops, ops = _totals(tracer, exclude_eval=training)
    every = _totals(tracer, exclude_eval=False)[0]
    if training:
        steps = step_times(spans)
        units, unit_seconds = len(steps), sum(steps.values())
    else:
        passes = _durations(spans, EPISODE)
        units, unit_seconds = len(passes), sum(passes)

    def ms(seconds: float) -> float:
        return 1e3 * seconds / units

    out: dict[str, float] = {}
    conv_seconds = 0.0
    for op in CONV_OPS + SMALL_OPS:
        key = f"nn_ops.{op}"
        fwd, bwd = total[key], total[f"{key}.bwd"]
        out[f"{key}.fwd_ms"] = ms(fwd)
        out[f"{key}.bwd_ms"] = ms(bwd)
        out[f"{key}.ms"] = ms(fwd + bwd)
        if op in CONV_OPS:
            conv_seconds += fwd + bwd
            flop = flops[key]
            out[f"{key}.calls"] = calls[key] / units
            out[f"{key}.gflop"] = flop / units / 1e9
            out[f"{key}.gflop_per_s"] = flop / fwd / 1e9 if fwd else 0.0
    out["nn_ops.conv_share_pct"] = 100.0 * conv_seconds / unit_seconds
    out["attention.hybrid_attention_block.fwd_ms"] = ms(total["attention.hybrid_attention_block"])
    out["tensor.backward.self_ms"] = ms(self_time["tensor.backward"])
    out["tensor.record_op.calls"] = ops / units
    out["unet.forward.ms"] = ms(total["unet.forward"])
    loss_fwd = total["losses_metrics.combined_loss"]
    loss_bwd = sum(v for k, v in total.items()
                   if k.startswith("losses_metrics.") and k.endswith(".bwd"))
    out["losses_metrics.combined_loss.fwd_ms"] = ms(loss_fwd)
    out["losses_metrics.combined_loss.bwd_ms"] = ms(loss_bwd)
    out["losses_metrics.combined_loss.ms"] = ms(loss_fwd + loss_bwd)
    out["training.adamw_step.ms"] = ms(total[OPTIMIZER])
    out["training.evaluate.ms"] = ms(every[EVALUATE])
    out["losses_metrics.confusion_accumulate.ms"] = ms(every["losses_metrics.confusion_accumulate"])
    out["data.batch_wait_ms"] = ms(total[BATCH])
    out["data.read_ppm.ms"] = ms(total["data.read_ppm"])
    out["data.load_split.ms"] = ms(total["data.load_split"])
    out["checkpoint.load_checkpoint.ms"] = ms(total["checkpoint.load_checkpoint"])
    out["checkpoint.bytes"] = float(ckpt_bytes)
    out["mem.forward_peak_mib"] = tracer.peaks.get("forward", 0) / MIB
    out["mem.backward_peak_mib"] = tracer.peaks.get("backward", 0) / MIB
    base, slow = untraced["latency_ms_p50"], traced["latency_ms_p50"]
    out["trace.overhead_ms"] = slow - base
    out["trace.overhead_pct"] = 100.0 * (slow - base) / base
    return out
