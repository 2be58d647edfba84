"""Encoder-decoder segmentation model with attention-gated skip connections.

Encoder stage l (width base*2^l): conv3x3-relu-conv3x3-relu-dropout as two
``conv2d`` ops, then 2x2 maxpool. The bottleneck repeats the block without
pooling. Decoder stage l upsamples with a stride-2 transposed conv (halving
channels), concatenates the attention-gated encoder skip, and runs another
conv block. A 1x1 conv head emits per-class logits at the input resolution.

A model is its ``UnetConfig`` plus one dict of trainable tensors keyed by
checkpoint name (``enc0.conv1.kernel``, ``up1.bias``, ``att0.w1``,
``att0.conv.kernel``, ``head.bias``, ...). ``forward`` looks every layer up by
name: it wraps a conv layer's kernel and bias in a ``Conv2dParams`` and hands
each attention gate its four tensors. The dict's order is the build order,
which fixes the initialization draws, the checkpoint layout and the
optimizer's parameter order; ``backward(tape, loss, model.params)`` returns
the gradients under the same names, in that order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .attention import COMPOSITIONS, hybrid_attention_block
from .errors import ConfigError, ContractError, ShapeError, check_range
from .nn_ops import Conv2dParams, concat_channels, conv2d, maxpool2d, transposed_conv2d
from .tensor import Tensor

LabelMap = np.ndarray  # integer class indices, shape [N, H, W] or [H, W]


@dataclass
class UnetConfig:
    in_channels: int = 3
    num_classes: int = 19
    depth: int = 4
    base_channels: int = 16
    attention_enabled: bool = True
    reduction_ratio: int = 4
    spatial_kernel: int = 7
    dropout_rate: float = 0.1
    attention_composition: str = "parallel"

    def __post_init__(self):
        for key, lo in (("depth", 1), ("in_channels", 1), ("num_classes", 2),
                        ("base_channels", 1), ("reduction_ratio", 1)):
            check_range(self, key, lo)
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.attention_composition not in COMPOSITIONS:
            raise ConfigError(f"attention_composition must be one of {COMPOSITIONS}")
        if self.spatial_kernel % 2 == 0 or self.spatial_kernel < 1:
            raise ConfigError(f"spatial_kernel must be odd, got {self.spatial_kernel}")
        if self.attention_enabled:
            for level in range(self.depth):
                width = self.stage_width(level)
                if width % self.reduction_ratio != 0 or width < self.reduction_ratio:
                    raise ConfigError(
                        f"reduction_ratio {self.reduction_ratio} must divide stage width "
                        f"{width} (level {level})")

    def stage_width(self, level: int) -> int:
        return self.base_channels * (2 ** level)


@dataclass
class UnetModel:
    """A config plus its trainable tensors, keyed by checkpoint name in build order."""

    cfg: UnetConfig
    params: dict[str, Tensor]

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: t.data.copy() for name, t in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        """Take every parameter's array from ``state``, which must name each parameter once
        with its shape. The whole state is checked first: one that fails changes nothing."""
        arrays = {}
        for name, t in self.params.items():
            if name not in state:
                raise ConfigError(f"missing parameter {name!r} in state")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != t.shape:
                raise ConfigError(f"parameter {name!r} shape {arr.shape} != {t.shape}")
            arrays[name] = np.ascontiguousarray(arr)
        extra = set(state) - set(self.params)
        if extra:
            raise ConfigError(f"unknown parameters in state: {sorted(extra)}")
        for name, arr in arrays.items():
            self.params[name].data = arr


def build_model(cfg: UnetConfig, rng: np.random.Generator) -> UnetModel:
    """Assemble a model with freshly initialized parameters (seed-deterministic)."""
    params: dict[str, Tensor] = {}

    def add(name: str, t: Tensor) -> None:
        if params.setdefault(name, t) is not t:
            raise ContractError(f"duplicate parameter name {name!r}")

    def uniform(name: str, shape: tuple[int, ...], fan_in: int) -> None:
        s = 1.0 / np.sqrt(fan_in)
        add(name, Tensor(rng.uniform(-s, s, size=shape), requires_grad=True))

    def conv(name: str, in_ch: int, out_ch: int, k: int, transposed: bool = False) -> None:
        shape = (in_ch, out_ch, k, k) if transposed else (out_ch, in_ch, k, k)
        uniform(f"{name}.kernel", shape, in_ch * k * k)
        add(f"{name}.bias", Tensor(np.zeros(out_ch), requires_grad=True))

    def block(name: str, in_ch: int, out_ch: int) -> None:
        conv(f"{name}.conv1", in_ch, out_ch, 3)
        conv(f"{name}.conv2", out_ch, out_ch, 3)

    in_ch = cfg.in_channels
    for level in range(cfg.depth):
        block(f"enc{level}", in_ch, cfg.stage_width(level))
        in_ch = cfg.stage_width(level)
    block("bottleneck", in_ch, cfg.stage_width(cfg.depth))
    for level in range(cfg.depth - 1, -1, -1):
        width = cfg.stage_width(level)
        conv(f"up{level}", 2 * width, width, 2, transposed=True)
        block(f"dec{level}", 2 * width, width)
        if cfg.attention_enabled:
            # fan-in-scaled draws keep the initial gates near 0.5
            reduced = width // cfg.reduction_ratio
            uniform(f"att{level}.w1", (reduced, width), width)
            uniform(f"att{level}.w2", (width, reduced), reduced)
            conv(f"att{level}.conv", 2, 1, cfg.spatial_kernel)
    conv("head", cfg.base_channels, cfg.num_classes, 1)
    return UnetModel(cfg=cfg, params=params)


def _conv(p: dict[str, Tensor], name: str, **activation) -> Conv2dParams:
    return Conv2dParams(p[f"{name}.kernel"], p[f"{name}.bias"], **activation)


def _dropout_conv(p: dict[str, Tensor], name: str, shape: tuple[int, ...], cfg: UnetConfig,
                  training: bool, rng: np.random.Generator | None) -> Conv2dParams:
    """A block's second conv, with a fresh dropout keep mask of ``shape`` while training."""
    rate, keep = cfg.dropout_rate, None
    if training and rate > 0.0:
        if rng is None:
            raise ContractError("dropout in training mode requires an explicit rng")
        keep = rng.random(shape) >= rate
    return _conv(p, f"{name}.conv2", relu=True, keep=keep, rate=rate)


def _gated_skip(p: dict[str, Tensor], cfg: UnetConfig, level: int, skip: Tensor) -> Tensor:
    if not cfg.attention_enabled:
        return skip
    att = f"att{level}"
    return hybrid_attention_block(skip, p[f"{att}.w1"], p[f"{att}.w2"], p[f"{att}.conv.kernel"],
                                  p[f"{att}.conv.bias"], cfg.attention_composition)


def check_extents(cfg: UnetConfig, h: int, w: int) -> None:
    """The model takes an h x w input only if 2^depth divides both extents."""
    multiple = 2 ** cfg.depth
    if h % multiple or w % multiple:
        raise ShapeError(f"input extents {h}x{w} must be divisible by {multiple} "
                         f"(2^depth at depth {cfg.depth})")


def forward(model: UnetModel, x: Tensor, training: bool = False,
            rng: np.random.Generator | None = None) -> Tensor:
    """Run the model, returning logits with the input's spatial extents."""
    cfg = model.cfg
    if x.data.ndim != 4:
        raise ShapeError(f"forward expects NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    if c != cfg.in_channels:
        raise ShapeError(f"input has {c} channels, model expects {cfg.in_channels}")
    check_extents(cfg, h, w)

    # Every op rebinds x, so each activation dies at its last use unless a backward
    # rule holds it: a block's input once its conv1 has run, the deeper map once it
    # is upsampled. The encoder pushes each skip and the decoder pops it, so a
    # skip dies once its gate has read it, and the gated skip once concatenated.
    p = model.params
    skips: list[Tensor] = []
    for level in range(cfg.depth):
        x = conv2d(x, _conv(p, f"enc{level}.conv1", relu=True))
        x = conv2d(x, _dropout_conv(p, f"enc{level}", x.shape, cfg, training, rng))
        skips.append(x)
        x = maxpool2d(x)
    x = conv2d(x, _conv(p, "bottleneck.conv1", relu=True))
    x = conv2d(x, _dropout_conv(p, "bottleneck", x.shape, cfg, training, rng))
    for level in range(cfg.depth - 1, -1, -1):
        x = transposed_conv2d(x, _conv(p, f"up{level}"))
        x = concat_channels(x, _gated_skip(p, cfg, level, skips.pop()))
        x = conv2d(x, _conv(p, f"dec{level}.conv1", relu=True))
        x = conv2d(x, _dropout_conv(p, f"dec{level}", x.shape, cfg, training, rng))
    return conv2d(x, _conv(p, "head"))


def predict_labels(model: UnetModel, x: Tensor) -> LabelMap:
    """Per-pixel argmax over class logits; ties break toward the lowest index."""
    logits = forward(model, x, training=False)
    return np.argmax(logits.data, axis=1).astype(np.int64, copy=False)
