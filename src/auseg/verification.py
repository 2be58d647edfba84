"""Finite-difference verification suite covering every differentiable unit.

Each unit builds a deterministic scalar function and checks reverse-mode
gradients with central differences on a few sampled coordinates per input,
across several seeds. Single kernels default to tolerance 1e-5, composed
blocks (attention, the full model, the loss) to 1e-4.

Units check mean(t * t) of their output at step 1e-5, except the full model:
its gradients at init are far below 1, where the error floor of ``grad_check``
makes the check absolute, so it checks the sum of squared logits at step 1e-7.
"""
from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from . import nn_ops as F
from .attention import hybrid_attention_block
from .losses_metrics import DEFAULT_IGNORE, LossConfig, combined_loss
from .nn_ops import Conv2dParams
from .tensor import Tensor, grad_check, record_op
from .unet import UnetConfig, build_model, forward

TOL_SINGLE = 1e-5
TOL_COMPOSED = 1e-4
NUM_SEEDS = 3


@dataclass
class UnitResult:
    name: str
    worst_rel_err: float
    tol: float
    passed: bool


def _t(rng, *shape, lo=-2.0, hi=2.0) -> Tensor:
    return Tensor(rng.uniform(lo, hi, size=shape), requires_grad=True)


def _mean_sq(t: Tensor) -> Tensor:
    """The scalar most units check: mean(t * t), one node with backward g * 2t / n."""
    x = t.data
    return record_op("mean_sq", (t,), np.mean(x * x), lambda g: (g * (2.0 / x.size) * x,))


def _sum_sq(t: Tensor) -> Tensor:
    """sum(t * t), one node with backward g * 2t."""
    x = t.data
    return record_op("sum_sq", (t,), np.sum(x * x), lambda g: (g * 2.0 * x,))


def _fused_unit(rate: float):
    """conv2d's relu, and dropout at ``rate`` > 0, on an identity 1x1 conv: the
    pre-activations are the data, away from the kink at 0. A 1x1 channel mix
    follows, so the gradient reaching the relu is not zero where its output is."""
    def build(rng):
        a = _t(rng, 2, 3, 4, 4, lo=0.2, hi=1.5)
        a.data *= rng.choice([-1.0, 1.0], size=a.shape)
        k = Tensor(np.eye(3).reshape(3, 3, 1, 1), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        keep = rng.random(a.shape) >= rate if rate else None
        mix = Conv2dParams(Tensor(rng.uniform(-1.0, 1.0, size=(3, 3, 1, 1))), Tensor(np.zeros(3)))
        return (lambda a, k, b: _mean_sq(F.conv2d(F.conv2d(
            a, Conv2dParams(k, b, relu=True, keep=keep, rate=rate)), mix)), [a, k, b])
    return build


def _unit_conv2d(rng):
    x = _t(rng, 2, 3, 6, 6)
    k = _t(rng, 4, 3, 3, 3, lo=-1.0, hi=1.0)
    b = _t(rng, 4, lo=-0.5, hi=0.5)
    return lambda x, k, b: _mean_sq(F.conv2d(x, Conv2dParams(k, b))), [x, k, b]


def _unit_transposed_conv2d(rng):
    x = _t(rng, 2, 4, 3, 3)
    k = _t(rng, 4, 2, 2, 2, lo=-1.0, hi=1.0)
    b = _t(rng, 2, lo=-0.5, hi=0.5)
    return lambda x, k, b: _mean_sq(F.transposed_conv2d(x, Conv2dParams(k, b))), [x, k, b]


def _unit_maxpool(rng):
    x = _t(rng, 2, 2, 6, 6)
    return lambda x: _mean_sq(F.maxpool2d(x)), [x]


def _unit_concat(rng):
    a, b = _t(rng, 2, 2, 4, 4), _t(rng, 2, 3, 4, 4)
    return lambda a, b: _mean_sq(F.concat_channels(a, b)), [a, b]


def _hybrid_unit(composition: str):
    """8 channels at ratio 4 and a 3x3 spatial kernel, drawn as ``build_model``
    draws a gate: each weight uniform in +-1/sqrt(fan-in), a zero bias."""
    def build(rng):
        x = _t(rng, 2, 8, 4, 4)
        s1, s2, s3 = (1.0 / np.sqrt(fan_in) for fan_in in (8, 2, 2 * 3 * 3))
        w1 = _t(rng, 2, 8, lo=-s1, hi=s1)
        w2 = _t(rng, 8, 2, lo=-s2, hi=s2)
        kernel = _t(rng, 1, 2, 3, 3, lo=-s3, hi=s3)
        bias = Tensor(np.zeros(1), requires_grad=True)
        return (lambda *ts: _mean_sq(hybrid_attention_block(*ts, composition)),
                [x, w1, w2, kernel, bias])
    return build


def _unit_unet(rng):
    cfg = UnetConfig(in_channels=3, num_classes=3, depth=2, base_channels=4,
                     reduction_ratio=4, spatial_kernel=3, dropout_rate=0.0)
    model = build_model(cfg, rng)
    x = _t(rng, 1, 3, 16, 16, lo=-1.0, hi=1.0)

    def f(*ts):
        return _sum_sq(forward(model, x, training=False))

    return f, [x] + list(model.params.values())


def _loss_unit(alpha: float, k: int):
    """Builder for ``combined_loss`` with class weights and ignored pixels."""
    def build(rng):
        z = _t(rng, 1, k, 4, 4)
        y = rng.integers(0, k, size=(1, 4, 4))
        y = np.where(rng.random((1, 4, 4)) < 0.15, DEFAULT_IGNORE, y)  # 15% ignored
        cfg = LossConfig(alpha=alpha, class_weights=rng.uniform(0.5, 2.0, size=k))
        return lambda z: combined_loss(z, y, cfg), [z]
    return build


UNITS: list[tuple[str, float, object]] = [
    ("relu", TOL_SINGLE, _fused_unit(0.0)),
    ("conv2d", TOL_SINGLE, _unit_conv2d),
    ("transposed_conv2d", TOL_SINGLE, _unit_transposed_conv2d),
    ("maxpool2d", TOL_SINGLE, _unit_maxpool),
    ("concat_channels", TOL_SINGLE, _unit_concat),
    ("dropout", TOL_SINGLE, _fused_unit(0.4)),
    ("hybrid_attention_block", TOL_COMPOSED, _hybrid_unit("parallel")),
    ("hybrid_attention_block_sequential", TOL_COMPOSED, _hybrid_unit("sequential")),
    ("unet_forward", TOL_COMPOSED, _unit_unet),
    ("combined_loss_ce", TOL_COMPOSED, _loss_unit(alpha=1.0, k=3)),
    ("combined_loss_dice", TOL_COMPOSED, _loss_unit(alpha=0.0, k=3)),
    ("combined_loss", TOL_COMPOSED, _loss_unit(alpha=0.5, k=2)),
]


def run_gradcheck_suite(seed: int = 0, tol_override: float | None = None) -> list[UnitResult]:
    """Run every unit on ``NUM_SEEDS`` consecutive seeds from ``seed``; worst error wins."""
    results = []
    for name, default_tol, builder in UNITS:
        tol = default_tol if tol_override is None else tol_override
        worst = 0.0
        coords, h = (4, 1e-7) if name == "unet_forward" else (8, 1e-5)
        for s in range(NUM_SEEDS):
            rng = np.random.default_rng(np.random.SeedSequence([seed + s, zlib.crc32(name.encode())]))
            f, inputs = builder(rng)
            worst = max(worst, grad_check(f, inputs, h=h, coords_per_input=coords,
                                          rng=np.random.default_rng(seed + s)))
        results.append(UnitResult(name=name, worst_rel_err=worst, tol=tol, passed=worst < tol))
    return results


def format_gradcheck_table(results: list[UnitResult]) -> str:
    width = max([len("unit")] + [len(r.name) for r in results]) + 2
    lines = [f"{'unit':<{width}}{'worst rel err':>16}{'tol':>10}  status"]
    for r in results:
        status = "ok" if r.passed else "FAIL"
        lines.append(f"{r.name:<{width}}{r.worst_rel_err:>16.3e}{r.tol:>10.0e}  {status}")
    return "\n".join(lines) + "\n"
