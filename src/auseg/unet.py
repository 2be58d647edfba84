"""Encoder-decoder segmentation model with attention-gated skip connections.

Encoder stage l (width base*2^l): conv3x3-relu-conv3x3-relu-dropout, then
2x2 maxpool. The bottleneck repeats the block without pooling. Decoder stage
l upsamples with a stride-2 transposed conv (halving channels), concatenates
the attention-gated encoder skip, and runs another conv block. A 1x1 conv
head emits per-class logits at the input resolution.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .attention import (COMPOSITIONS, ChannelAttentionParams, SpatialAttentionParams,
                        hybrid_attention_block, init_channel_attention, init_spatial_attention)
from .errors import ConfigError, ShapeError
from .nn_ops import Conv2dParams, concat_channels, conv2d, dropout, maxpool2d, relu, transposed_conv2d
from .tensor import Parameter, Tensor

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

    def validate(self) -> None:
        if self.depth < 1:
            raise ConfigError(f"depth must be >= 1, got {self.depth}")
        if self.in_channels < 1 or self.num_classes < 2:
            raise ConfigError(f"need >= 1 input channel and >= 2 classes, got "
                              f"{self.in_channels}/{self.num_classes}")
        if self.base_channels < 1:
            raise ConfigError(f"base_channels must be positive, got {self.base_channels}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")
        if self.attention_composition not in COMPOSITIONS:
            raise ConfigError(f"attention_composition must be one of {COMPOSITIONS}")
        if self.spatial_kernel % 2 == 0 or self.spatial_kernel < 1:
            raise ConfigError(f"spatial_kernel must be odd, got {self.spatial_kernel}")
        if self.attention_enabled:
            for level in range(self.depth):
                width = self.base_channels * (2 ** level)
                if width % self.reduction_ratio != 0 or width < self.reduction_ratio:
                    raise ConfigError(
                        f"reduction_ratio {self.reduction_ratio} must divide stage width "
                        f"{width} (level {level})")

    def stage_width(self, level: int) -> int:
        return self.base_channels * (2 ** level)


@dataclass
class ConvBlockParams:
    conv1: Conv2dParams
    conv2: Conv2dParams


@dataclass
class SkipAttention:
    channel: ChannelAttentionParams
    spatial: SpatialAttentionParams


@dataclass
class UnetModel:
    cfg: UnetConfig
    encoders: list[ConvBlockParams]
    bottleneck: ConvBlockParams
    ups: list[Conv2dParams]
    decoders: list[ConvBlockParams]
    skips: list[SkipAttention]
    head: Conv2dParams
    params: dict[str, Parameter] = field(default_factory=dict)

    def parameter_count(self) -> int:
        return sum(p.tensor.size for p in self.params.values())

    def zero_grads(self) -> None:
        for p in self.params.values():
            p.tensor.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.tensor.data.copy() for name, p in self.params.items()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        for name, p in self.params.items():
            if name not in state:
                raise ConfigError(f"missing parameter {name!r} in state")
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.tensor.shape:
                raise ConfigError(f"parameter {name!r} shape {arr.shape} != {p.tensor.shape}")
            p.tensor.data = np.ascontiguousarray(arr)
        extra = set(state) - set(self.params)
        if extra:
            raise ConfigError(f"unknown parameters in state: {sorted(extra)}")


class _Builder:
    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.params: dict[str, Parameter] = {}

    def tensor(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        p = Parameter(name=name, tensor=Tensor(data, requires_grad=True))
        self.params[name] = p
        return p.tensor

    def conv(self, name: str, out_ch: int, in_ch: int, k: int, padding) -> Conv2dParams:
        s = 1.0 / np.sqrt(in_ch * k * k)
        kernel = self.tensor(f"{name}.kernel", self.rng.uniform(-s, s, size=(out_ch, in_ch, k, k)))
        bias = self.tensor(f"{name}.bias", np.zeros(out_ch))
        return Conv2dParams(kernel=kernel, bias=bias, stride=1, padding=padding)

    def up(self, name: str, in_ch: int, out_ch: int) -> Conv2dParams:
        s = 1.0 / np.sqrt(in_ch * 4)
        kernel = self.tensor(f"{name}.kernel", self.rng.uniform(-s, s, size=(in_ch, out_ch, 2, 2)))
        bias = self.tensor(f"{name}.bias", np.zeros(out_ch))
        return Conv2dParams(kernel=kernel, bias=bias, stride=2, padding=0)

    def block(self, name: str, in_ch: int, out_ch: int) -> ConvBlockParams:
        return ConvBlockParams(conv1=self.conv(f"{name}.conv1", out_ch, in_ch, 3, "same"),
                               conv2=self.conv(f"{name}.conv2", out_ch, out_ch, 3, "same"))

    def skip_attention(self, name: str, channels: int, ratio: int, k: int) -> SkipAttention:
        ca = init_channel_attention(channels, ratio, self.rng)
        self.register(f"{name}.w1", ca.w1)
        self.register(f"{name}.w2", ca.w2)
        sa = init_spatial_attention(k, self.rng)
        self.register(f"{name}.conv.kernel", sa.conv.kernel)
        self.register(f"{name}.conv.bias", sa.conv.bias)
        return SkipAttention(channel=ca, spatial=sa)

    def register(self, name: str, tensor: Tensor) -> None:
        if name in self.params:
            raise ConfigError(f"duplicate parameter name {name!r}")
        self.params[name] = Parameter(name=name, tensor=tensor)


def build_model(cfg: UnetConfig, rng: np.random.Generator) -> UnetModel:
    """Assemble a model with freshly initialized parameters (seed-deterministic)."""
    cfg.validate()
    b = _Builder(rng)
    encoders = []
    in_ch = cfg.in_channels
    for level in range(cfg.depth):
        width = cfg.stage_width(level)
        encoders.append(b.block(f"enc{level}", in_ch, width))
        in_ch = width
    bottleneck_width = cfg.stage_width(cfg.depth)
    bottleneck = b.block("bottleneck", in_ch, bottleneck_width)
    ups, decoders, skips = [], [], []
    up_in = bottleneck_width
    for level in range(cfg.depth - 1, -1, -1):
        width = cfg.stage_width(level)
        ups.append(b.up(f"up{level}", up_in, width))
        decoders.append(b.block(f"dec{level}", 2 * width, width))
        if cfg.attention_enabled:
            skips.append(b.skip_attention(f"att{level}", width, cfg.reduction_ratio,
                                          cfg.spatial_kernel))
        up_in = width
    ups.reverse()
    decoders.reverse()
    skips.reverse()
    head = b.conv("head", cfg.num_classes, cfg.base_channels, 1, 0)
    return UnetModel(cfg=cfg, encoders=encoders, bottleneck=bottleneck, ups=ups,
                     decoders=decoders, skips=skips, head=head, params=b.params)


def _conv_block(x: Tensor, block: ConvBlockParams, cfg: UnetConfig, training: bool,
                rng: np.random.Generator | None) -> Tensor:
    x = relu(conv2d(x, block.conv1))
    x = relu(conv2d(x, block.conv2))
    return dropout(x, cfg.dropout_rate, training, rng)


def forward(model: UnetModel, x: Tensor, training: bool = False,
            rng: np.random.Generator | None = None) -> Tensor:
    """Run the model, returning logits with the input's spatial extents."""
    cfg = model.cfg
    if x.data.ndim != 4:
        raise ShapeError(f"forward expects NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    if c != cfg.in_channels:
        raise ShapeError(f"input has {c} channels, model expects {cfg.in_channels}")
    multiple = 2 ** cfg.depth
    if h % multiple or w % multiple:
        raise ShapeError(f"input extents {h}x{w} must be divisible by {multiple} "
                         f"(2^depth at depth {cfg.depth})")

    skips: list[Tensor] = []
    for block in model.encoders:
        x = _conv_block(x, block, cfg, training, rng)
        skips.append(x)
        x = maxpool2d(x, 2, 2)
    x = _conv_block(x, model.bottleneck, cfg, training, rng)
    for level in range(cfg.depth - 1, -1, -1):
        x = transposed_conv2d(x, model.ups[level])
        skip = skips[level]
        if cfg.attention_enabled:
            att = model.skips[level]
            skip = hybrid_attention_block(skip, att.channel, att.spatial,
                                          cfg.attention_composition)
        x = concat_channels(x, skip)
        x = _conv_block(x, model.decoders[level], cfg, training, rng)
    return conv2d(x, model.head)


def predict_labels(model: UnetModel, x: Tensor) -> LabelMap:
    """Per-pixel argmax over class logits; ties break toward the lowest index."""
    logits = forward(model, x, training=False)
    return np.argmax(logits.data, axis=1).astype(np.int64)
