"""Hybrid attention for skip connections (CBAM, Woo et al. 2018): channel
gates, spatial gates, and their joint multiplicative application.

``hybrid_attention_block`` is one op with one tape node and a hand-written
backward. ``channel_attention`` and ``spatial_attention`` are its forward
halves: they take an array, record nothing, and return the gate arrays.
Channel gates squeeze the map through a spatial mean and a two-layer
bottleneck (sigmoid output); spatial gates convolve the stacked per-pixel
[channel-max, channel-avg] maps with the convolution core of ``nn_ops``.
Both gates lie strictly in (0, 1) for finite logits, so the gated map never
exceeds the input in magnitude.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ShapeError
from .nn_ops import Conv2dParams, _conv, _conv_kernel_grad, _conv_t
from .tensor import Array, Tensor, record_op

COMPOSITIONS = ("parallel", "sequential")


@dataclass
class ChannelAttentionParams:
    """Bottleneck matrices w1 [C/r x C] and w2 [C x C/r]; no biases."""

    w1: Tensor
    w2: Tensor
    reduction_ratio: int

    def __post_init__(self):
        r = self.reduction_ratio
        if r < 1:
            raise ConfigError(f"reduction ratio must be >= 1, got {r}")
        c_red, c = self.w1.shape
        if self.w2.shape != (c, c_red):
            raise ShapeError(f"w2 shape {self.w2.shape} does not mirror w1 {self.w1.shape}")
        if c % r != 0 or c // r != c_red:
            raise ConfigError(f"channels {c} not divisible into {c_red} by ratio {r}")

    @property
    def channels(self) -> int:
        return self.w1.shape[1]


@dataclass
class SpatialAttentionParams:
    """A single 2-in 1-out odd-kernel "same" convolution over [max, avg] maps."""

    conv: Conv2dParams

    def __post_init__(self):
        out_ch, in_ch, kh, kw = self.conv.kernel.shape
        if in_ch != 2 or out_ch != 1:
            raise ShapeError(f"spatial attention conv must map 2 -> 1 channels, got {in_ch} -> {out_ch}")
        if kh % 2 == 0 or kh != kw or self.conv.padding != "same":
            raise ShapeError(f'spatial attention conv needs a square odd "same" kernel, got {kh}x{kw}')


def _sigmoid(z: Array) -> Array:
    """1 / (1 + e^-z), with no overflow: negative z goes through e^z / (1 + e^z)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def channel_attention(f: Array, p: ChannelAttentionParams) -> Array:
    """Per-channel gates in (0,1), shape [N, C, 1, 1], from spatially pooled means."""
    if f.ndim != 4:
        raise ShapeError(f"channel_attention expects NCHW input, got {f.shape}")
    if f.shape[1] != p.channels:
        raise ShapeError(f"channel_attention: input has {f.shape[1]} channels, "
                         f"params expect {p.channels}")
    hidden = np.maximum(f.mean(axis=(2, 3)) @ p.w1.data.T, 0.0)    # [N, C/r]
    return _sigmoid(hidden @ p.w2.data.T)[:, :, None, None]


def _pools(f: Array) -> Array:
    """Stacked per-pixel [channel-max, channel-avg] maps, [N, 2, H, W]."""
    return np.concatenate([f.max(axis=1, keepdims=True), f.mean(axis=1, keepdims=True)], axis=1)


def spatial_attention(f: Array, p: SpatialAttentionParams) -> Array:
    """Per-pixel gates in (0,1), shape [N, 1, H, W]; stacking order [max, avg]."""
    if f.ndim != 4:
        raise ShapeError(f"spatial_attention expects NCHW input, got {f.shape}")
    n, _, h, w = f.shape
    kernel, pad = p.conv.kernel.data, (p.conv.kernel.shape[2] - 1) // 2
    logits = _conv(_pools(f), kernel, 1, pad, h, w)
    logits += p.conv.bias.data[:, None]
    return _sigmoid(logits).reshape(n, 1, h, w)


def hybrid_attention_block(f: Tensor, cp: ChannelAttentionParams, sp: SpatialAttentionParams,
                           composition: str = "parallel") -> Tensor:
    """Gate a skip feature with channel and spatial attention: F * w_c * w_s.

    "parallel" (default) derives both gates from F; "sequential" derives the
    spatial gate from the channel-gated map F * w_c instead. One tape node;
    its backward recomputes the pooled maps from the saved input.
    """
    if composition not in COMPOSITIONS:
        raise ConfigError(f"attention composition must be one of {COMPOSITIONS}, got {composition!r}")
    x = f.data
    w_c = channel_attention(x, cp)
    gated = x * w_c
    src = x if composition == "parallel" else gated
    w_s = spatial_attention(src, sp)
    w1, w2, kernel = cp.w1.data, cp.w2.data, sp.conv.kernel.data

    def bwd(g: Array):
        c, h, w = x.shape[1:]
        # spatial gate: w_s = sigmoid(conv(pools(src)) + b)
        g_gated = g * w_s
        dz = (g * gated).sum(axis=1, keepdims=True) * w_s * (1.0 - w_s)
        pad = (kernel.shape[2] - 1) // 2
        gk = _conv_kernel_grad(dz, _pools(src), kernel.shape, 1, pad)
        d_pools = _conv_t(dz, kernel, 1, pad, h, w)
        g_src = np.repeat(d_pools[:, 1:] / c, c, axis=1)
        top = src.argmax(axis=1)[:, None]    # the first maximal channel takes the max route
        np.put_along_axis(g_src, top, np.take_along_axis(g_src, top, axis=1) + d_pools[:, :1],
                          axis=1)
        if composition == "sequential":
            g_gated += g_src
        # channel gate: w_c = sigmoid(relu(mean_hw(x) @ w1.T) @ w2.T)
        gx = g_gated * w_c
        if composition == "parallel":
            gx += g_src
        squeezed = x.mean(axis=(2, 3))
        hidden = np.maximum(squeezed @ w1.T, 0.0)
        gc = w_c[:, :, 0, 0]
        dz2 = (g_gated * x).sum(axis=(2, 3)) * gc * (1.0 - gc)
        dz1 = (dz2 @ w2) * (hidden > 0)
        gx += (dz1 @ w1)[:, :, None, None] / (h * w)
        return gx, dz1.T @ squeezed, dz2.T @ hidden, gk, dz.sum(axis=(0, 2, 3))

    return record_op("hybrid_attention_block",
                     (f, cp.w1, cp.w2, sp.conv.kernel, sp.conv.bias), gated * w_s, bwd)


def init_channel_attention(channels: int, reduction_ratio: int,
                           rng: np.random.Generator) -> ChannelAttentionParams:
    """Fan-in-scaled uniform init keeps initial gates near 0.5."""
    if channels % reduction_ratio != 0 or channels < reduction_ratio:
        raise ConfigError(f"reduction ratio {reduction_ratio} must divide channel count {channels}")
    reduced = channels // reduction_ratio
    s1 = 1.0 / np.sqrt(channels)
    s2 = 1.0 / np.sqrt(reduced)
    w1 = Tensor(rng.uniform(-s1, s1, size=(reduced, channels)), requires_grad=True)
    w2 = Tensor(rng.uniform(-s2, s2, size=(channels, reduced)), requires_grad=True)
    return ChannelAttentionParams(w1=w1, w2=w2, reduction_ratio=reduction_ratio)


def init_spatial_attention(kernel_size: int, rng: np.random.Generator) -> SpatialAttentionParams:
    if kernel_size % 2 == 0 or kernel_size < 1:
        raise ConfigError(f"spatial attention kernel must be odd and positive, got {kernel_size}")
    fan_in = 2 * kernel_size * kernel_size
    s = 1.0 / np.sqrt(fan_in)
    kernel = Tensor(rng.uniform(-s, s, size=(1, 2, kernel_size, kernel_size)), requires_grad=True)
    bias = Tensor(np.zeros(1), requires_grad=True)
    return SpatialAttentionParams(conv=Conv2dParams(kernel=kernel, bias=bias, stride=1, padding="same"))
