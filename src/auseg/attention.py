"""Hybrid attention for skip connections (CBAM, Woo et al. 2018): channel
gates, spatial gates, and their joint multiplicative application.

``hybrid_attention_block`` is one op with one tape node and a hand-written
backward. ``channel_attention`` and ``spatial_attention`` are its forward
halves: they take arrays (the input map and the gate's weights), record
nothing, and return the gate arrays. The backward rule holds the input and
the two gates only: it recomputes the channel-gated map F * w_c rather than
keeping it.
Channel gates squeeze the map through a spatial mean and a two-layer
bottleneck (sigmoid output); spatial gates convolve the stacked per-pixel
[channel-max, channel-avg] maps with the convolution core of ``nn_ops``.
Both gates lie strictly in (0, 1) for finite logits, so the gated map never
exceeds the input in magnitude.
"""
from __future__ import annotations

import numpy as np

from .errors import ConfigError, ShapeError
from .nn_ops import _conv, _conv_input_grad, _conv_kernel_grad, check_same_kernel
from .tensor import Array, Tensor, record_op

COMPOSITIONS = ("parallel", "sequential")


def _sigmoid(z: Array) -> Array:
    """1 / (1 + e^-z), with no overflow: negative z goes through e^z / (1 + e^z)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def channel_attention(f: Array, w1: Array, w2: Array) -> Array:
    """Per-channel gates in (0,1), shape [N, C, 1, 1], from spatially pooled means
    through the bottleneck w1 [C/r, C], relu, w2 [C, C/r] (no biases)."""
    if f.ndim != 4:
        raise ShapeError(f"channel_attention expects NCHW input, got {f.shape}")
    if w1.ndim != 2 or w2.shape != w1.shape[::-1]:
        raise ShapeError(f"w2 shape {w2.shape} does not mirror w1 {w1.shape}")
    if f.shape[1] != w1.shape[1]:
        raise ShapeError(f"channel_attention: input has {f.shape[1]} channels, "
                         f"w1 expects {w1.shape[1]}")
    hidden = np.maximum(f.mean(axis=(2, 3)) @ w1.T, 0.0)    # [N, C/r]
    return _sigmoid(hidden @ w2.T)[:, :, None, None]


def _pools(f: Array) -> Array:
    """Stacked per-pixel [channel-max, channel-avg] maps, [N, 2, H, W]."""
    return np.concatenate([f.max(axis=1, keepdims=True), f.mean(axis=1, keepdims=True)], axis=1)


def spatial_attention(f: Array, kernel: Array, bias: Array) -> Array:
    """Per-pixel gates in (0,1), shape [N, 1, H, W]: a square odd "same" conv,
    kernel [1, 2, k, k] and bias [1], over the stacked [max, avg] maps."""
    if f.ndim != 4:
        raise ShapeError(f"spatial_attention expects NCHW input, got {f.shape}")
    if kernel.ndim != 4 or kernel.shape[:2] != (1, 2) or bias.shape != (1,):
        raise ShapeError(f"spatial attention conv must map 2 -> 1 channels with one bias, "
                         f"got kernel {kernel.shape}, bias {bias.shape}")
    check_same_kernel("spatial attention conv", kernel)
    n, _, h, w = f.shape
    logits = _conv(_pools(f), kernel)
    logits += bias[:, None]
    return _sigmoid(logits).reshape(n, 1, h, w)


def hybrid_attention_block(f: Tensor, w1: Tensor, w2: Tensor, kernel: Tensor, bias: Tensor,
                           composition: str = "parallel") -> Tensor:
    """Gate a skip feature with channel and spatial attention: F * w_c * w_s.

    ``w1`` and ``w2`` are the channel gate's bottleneck, ``kernel`` and
    ``bias`` the spatial gate's conv (see the two forward halves).

    "parallel" (default) derives both gates from F; "sequential" derives the
    spatial gate from the channel-gated map F * w_c instead. One tape node;
    its backward holds F and the two gates and recomputes F * w_c (the same
    multiply, so the same bits) and the pooled maps, so nothing of the size
    of F but F itself outlives the forward pass.
    """
    if composition not in COMPOSITIONS:
        raise ConfigError(f"attention composition must be one of {COMPOSITIONS}, got {composition!r}")
    x, a1, a2, k = f.data, w1.data, w2.data, kernel.data
    w_c = channel_attention(x, a1, a2)
    gated = x * w_c
    w_s = spatial_attention(x if composition == "parallel" else gated, k, bias.data)

    def bwd(g: Array):
        c, h, w = x.shape[1:]
        gated = x * w_c
        src = x if composition == "parallel" else gated
        # spatial gate: w_s = sigmoid(conv(pools(src)) + b)
        g_gated = g * w_s
        dz = (g * gated).sum(axis=1, keepdims=True) * w_s * (1.0 - w_s)
        gk = _conv_kernel_grad(dz, _pools(src), k.shape[2])
        d_pools = _conv_input_grad(dz, k)
        g_src = np.repeat(d_pools[:, 1:] / c, c, axis=1)
        top = src.argmax(axis=1)[:, None]    # the first maximal channel takes the max route
        np.put_along_axis(g_src, top, np.take_along_axis(g_src, top, axis=1) + d_pools[:, :1],
                          axis=1)
        if composition == "sequential":
            g_gated += g_src
        # channel gate: w_c = sigmoid(relu(mean_hw(x) @ a1.T) @ a2.T)
        gx = g_gated * w_c
        if composition == "parallel":
            gx += g_src
        squeezed = x.mean(axis=(2, 3))
        hidden = np.maximum(squeezed @ a1.T, 0.0)
        gc = w_c[:, :, 0, 0]
        dz2 = (g_gated * x).sum(axis=(2, 3)) * gc * (1.0 - gc)
        dz1 = (dz2 @ a2) * (hidden > 0)
        gx += (dz1 @ a1)[:, :, None, None] / (h * w)
        return gx, dz1.T @ squeezed, dz2.T @ hidden, gk, dz.sum(axis=(0, 2, 3))

    gated *= w_s    # the rule recomputes x * w_c, so the forward may overwrite it
    return record_op("hybrid_attention_block", (f, w1, w2, kernel, bias), gated, bwd)

