"""Convolution, pooling, activation, concat, and dropout kernels.

All ops take NCHW tensors, run vectorized numpy forward passes, and register
analytic backward rules on the active tape. Every kernel is checked against a
brute-force loop oracle in the test suite.

Both convolutions share one core of three helpers (forward, kernel gradient,
input gradient). Each loops over the kh*kw kernel offsets and issues one 2-D
BLAS matmul per offset on [N*Ho*Wo, C] pixel rows, copied from an NHWC view
of the padded input one offset at a time, so no full im2col buffer exists.
``transposed_conv2d`` is the adjoint of ``conv2d`` and has no kernels of its
own: its forward pass is the input-gradient helper and its backward pass the
other two.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import Array, Tensor, record_op

Padding = int | str


@dataclass
class Conv2dParams:
    """Kernel + bias for conv2d ([out, in, kh, kw]) or transposed_conv2d
    ([in, out, kh, kw]), with stride and padding ("same" or explicit int)."""

    kernel: Tensor
    bias: Tensor
    stride: int = 1
    padding: Padding = 0

    def __post_init__(self):
        if self.kernel.data.ndim != 4:
            raise ShapeError(f"conv kernel must be rank 4, got {self.kernel.shape}")
        if self.bias.data.ndim != 1:
            raise ShapeError(f"conv bias must be rank 1, got {self.bias.shape}")
        if self.stride < 1:
            raise ShapeError(f"stride must be positive, got {self.stride}")
        kh, kw = self.kernel.shape[2], self.kernel.shape[3]
        if self.padding == "same":
            if kh % 2 == 0 or kw % 2 == 0:
                raise ShapeError(f'"same" padding needs odd kernel extents, got {kh}x{kw}')
        elif not isinstance(self.padding, int) or self.padding < 0:
            raise ShapeError(f'padding must be "same" or a non-negative int, got {self.padding!r}')


def _require_nchw(x: Tensor, op: str) -> None:
    if x.data.ndim != 4:
        raise ShapeError(f"{op} expects a rank-4 NCHW tensor, got shape {x.shape}")


def _resolve_padding(p: Conv2dParams) -> int:
    if p.padding == "same":
        return (p.kernel.shape[2] - 1) // 2
    return int(p.padding)


def _nhwc_padded(x: Array, pad: int) -> Array:
    """NCHW array -> contiguous NHWC copy, zero-padded by ``pad`` on each side."""
    n, c, h, w = x.shape
    xh = np.zeros((n, h + 2 * pad, w + 2 * pad, c))
    xh[:, pad:pad + h, pad:pad + w] = x.transpose(0, 2, 3, 1)
    return xh


def _flat_nhwc(x: Array) -> Array:
    """NCHW array -> [N*H*W, C] rows, one per pixel."""
    return x.transpose(0, 2, 3, 1).reshape(-1, x.shape[1])


# The convolution core: a padded NHWC input ``xh`` [N, Hp, Wp, C], a kernel
# ``k`` [O, C, kh, kw] and an output (or output gradient ``g2``) of flat NHWC
# rows [N*Ho*Wo, O]. Each helper loops over the kernel offsets (u, v) and
# issues one 2-D matmul per offset; an offset's input rows are copied from the
# strided view of the taps it reads. Kernels are regrouped into one contiguous
# block per offset once per call: a matmul on a strided kernel slice is slower.

def _taps(kh: int, kw: int, s: int, ho: int, wo: int):
    for u in range(kh):
        for v in range(kw):
            yield u, v, (slice(None), slice(u, u + s * (ho - 1) + 1, s),
                         slice(v, v + s * (wo - 1) + 1, s))


def _conv_forward(xh: Array, k: Array, s: int, ho: int, wo: int) -> Array:
    """out = sum over offsets of rows(u, v) @ k[:, :, u, v].T, as [N*Ho*Wo, O]."""
    c = xh.shape[3]
    kt = np.ascontiguousarray(k.transpose(2, 3, 1, 0))  # [kh, kw, C, O]
    out = np.zeros((xh.shape[0] * ho * wo, k.shape[0]))
    for u, v, taps in _taps(k.shape[2], k.shape[3], s, ho, wo):
        out += xh[taps].reshape(-1, c) @ kt[u, v]
    return out


def _conv_kernel_grad(xh: Array, g2: Array, kh: int, kw: int, s: int, ho: int, wo: int) -> Array:
    """gk[:, :, u, v] = g2.T @ rows(u, v), as [O, C, kh, kw]."""
    c = xh.shape[3]
    gk = np.empty((kh, kw, g2.shape[1], c))
    for u, v, taps in _taps(kh, kw, s, ho, wo):
        np.matmul(g2.T, xh[taps].reshape(-1, c), out=gk[u, v])
    return gk.transpose(2, 3, 0, 1)


def _conv_input_grad(g2: Array, k: Array, padded_shape: tuple[int, ...], s: int,
                     ho: int, wo: int) -> Array:
    """Scatter-add g2 @ k[:, :, u, v] into the taps of a zero padded NHWC input."""
    gxh = np.zeros(padded_shape)
    n, c = padded_shape[0], padded_shape[3]
    kt = np.ascontiguousarray(k.transpose(2, 3, 0, 1))  # [kh, kw, O, C]
    for u, v, taps in _taps(k.shape[2], k.shape[3], s, ho, wo):
        gxh[taps] += (g2 @ kt[u, v]).reshape(n, ho, wo, c)
    return gxh


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Cross-correlation (no kernel flip) plus bias, NCHW -> NOH'W'."""
    _require_nchw(x, "conv2d")
    kernel, bias, s = p.kernel, p.bias, p.stride
    out_ch, in_ch, kh, kw = kernel.shape
    n, c, h, w = x.shape
    if c != in_ch:
        raise ShapeError(f"conv2d channel mismatch: input has {c}, kernel expects {in_ch}")
    if bias.shape != (out_ch,):
        raise ShapeError(f"bias shape {bias.shape} does not match {out_ch} output channels")
    pad = _resolve_padding(p)
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ShapeError(f"input {h}x{w} smaller than kernel {kh}x{kw} after padding {pad}")
    ho = (h + 2 * pad - kh) // s + 1
    wo = (w + 2 * pad - kw) // s + 1
    if ho < 1 or wo < 1:
        raise ShapeError(f"degenerate conv2d output {ho}x{wo}")

    kd = kernel.data
    out = _conv_forward(_nhwc_padded(x.data, pad), kd, s, ho, wo)
    out += bias.data

    def bwd(g: Array):
        gx = gk = gb = None
        g2 = _flat_nhwc(g)
        if bias.requires_grad:
            gb = g2.sum(axis=0)
        if kernel.requires_grad:
            # rebuilt, not kept from the forward pass: the tape holds no second copy of x
            gk = _conv_kernel_grad(_nhwc_padded(x.data, pad), g2, kh, kw, s, ho, wo)
        if x.requires_grad:
            gxh = _conv_input_grad(g2, kd, (n, h + 2 * pad, w + 2 * pad, c), s, ho, wo)
            gx = gxh[:, pad:pad + h, pad:pad + w].transpose(0, 3, 1, 2)
        return gx, gk, gb

    out = out.reshape(n, ho, wo, out_ch).transpose(0, 3, 1, 2)
    return record_op("conv2d", (x, kernel, bias), out, bwd)


def transposed_conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Stride-s learned upsampling; the adjoint of conv2d with the same kernel.

    Kernel layout is [in_ch, out_ch, kh, kw]; output extent (H-1)*s + kh - 2*pad.
    The forward pass is conv2d's input gradient, the input gradient is conv2d's
    forward pass, and the kernel gradient is conv2d's with the operands swapped.
    """
    _require_nchw(x, "transposed_conv2d")
    kernel, bias, s = p.kernel, p.bias, p.stride
    in_ch, out_ch, kh, kw = kernel.shape
    n, c, h, w = x.shape
    if c != in_ch:
        raise ShapeError(f"transposed_conv2d channel mismatch: input has {c}, kernel expects {in_ch}")
    if bias.shape != (out_ch,):
        raise ShapeError(f"bias shape {bias.shape} does not match {out_ch} output channels")
    if p.padding == "same":
        raise ShapeError('transposed_conv2d requires an explicit integer padding, not "same"')
    pad = int(p.padding)
    hf = (h - 1) * s + kh
    wf = (w - 1) * s + kw
    ho, wo = hf - 2 * pad, wf - 2 * pad
    if ho < 1 or wo < 1:
        raise ShapeError(f"degenerate transposed_conv2d output {ho}x{wo}")

    kd = kernel.data
    full = _conv_input_grad(_flat_nhwc(x.data), kd, (n, hf, wf, out_ch), s, h, w)
    out = full[:, pad:pad + ho, pad:pad + wo] + bias.data

    def bwd(g: Array):
        gx = gk = gb = None
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        gfh = _nhwc_padded(g, pad)
        if x.requires_grad:
            gx = _conv_forward(gfh, kd, s, h, w).reshape(n, h, w, in_ch).transpose(0, 3, 1, 2)
        if kernel.requires_grad:
            gk = _conv_kernel_grad(gfh, _flat_nhwc(x.data), kh, kw, s, h, w)
        return gx, gk, gb

    return record_op("transposed_conv2d", (x, kernel, bias), out.transpose(0, 3, 1, 2), bwd)


def maxpool2d(x: Tensor, window: int = 2, stride: int = 2) -> Tensor:
    """Non-overlapping max pooling; grad routes to the first row-major argmax."""
    _require_nchw(x, "maxpool2d")
    if window != stride:
        raise ShapeError(f"maxpool2d supports window == stride only, got {window}/{stride}")
    n, c, h, w = x.shape
    if h % stride or w % stride:
        raise ShapeError(f"spatial extents {h}x{w} not divisible by stride {stride}")
    ho, wo = h // stride, w // stride
    win = x.data.reshape(n, c, ho, stride, wo, stride).transpose(0, 1, 2, 4, 3, 5)
    win = np.ascontiguousarray(win).reshape(n, c, ho, wo, stride * stride)
    idx = win.argmax(axis=-1)
    out = np.take_along_axis(win, idx[..., None], axis=-1)[..., 0]

    def bwd(g: Array):
        gwin = np.zeros((n, c, ho, wo, stride * stride))
        np.put_along_axis(gwin, idx[..., None], g[..., None], axis=-1)
        gx = gwin.reshape(n, c, ho, wo, stride, stride).transpose(0, 1, 2, 4, 3, 5)
        return (np.ascontiguousarray(gx).reshape(n, c, h, w),)

    return record_op("maxpool2d", (x,), out, bwd)


def global_avg_pool(x: Tensor) -> Tensor:
    """Per-sample, per-channel spatial mean: NCHW -> NC."""
    _require_nchw(x, "global_avg_pool")
    n, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def bwd(g: Array):
        return (np.ascontiguousarray(np.broadcast_to(g[:, :, None, None] / (h * w), (n, c, h, w))),)

    return record_op("global_avg_pool", (x,), out, bwd)


def channel_max_pool(x: Tensor) -> Tensor:
    """Per-pixel max over channels: NCHW -> N1HW; grad to the first argmax."""
    _require_nchw(x, "channel_max_pool")
    idx = x.data.argmax(axis=1)
    out = np.take_along_axis(x.data, idx[:, None], axis=1)

    def bwd(g: Array):
        gx = np.zeros_like(x.data)
        np.put_along_axis(gx, idx[:, None], g, axis=1)
        return (gx,)

    return record_op("channel_max_pool", (x,), out, bwd)


def channel_avg_pool(x: Tensor) -> Tensor:
    """Per-pixel mean over channels: NCHW -> N1HW."""
    _require_nchw(x, "channel_avg_pool")
    c = x.shape[1]
    out = x.data.mean(axis=1, keepdims=True)

    def bwd(g: Array):
        return (np.ascontiguousarray(np.broadcast_to(g / c, x.shape)),)

    return record_op("channel_avg_pool", (x,), out, bwd)


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Stack a's channels before b's; batch and spatial extents must match."""
    _require_nchw(a, "concat_channels")
    _require_nchw(b, "concat_channels")
    if a.shape[0] != b.shape[0] or a.shape[2:] != b.shape[2:]:
        raise ShapeError(f"concat_channels mismatch: {a.shape} vs {b.shape}")
    ca = a.shape[1]
    out = np.concatenate([a.data, b.data], axis=1)

    def bwd(g: Array):
        return g[:, :ca], g[:, ca:]

    return record_op("concat_channels", (a, b), out, bwd)


def relu(x: Tensor) -> Tensor:
    mask = x.data > 0
    return record_op("relu", (x,), np.where(mask, x.data, 0.0), lambda g: (g * mask,))


def sigmoid(x: Tensor) -> Tensor:
    d = x.data
    out = np.empty_like(d)
    pos = d >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-d[pos]))
    e = np.exp(d[~pos])
    out[~pos] = e / (1.0 + e)
    return record_op("sigmoid", (x,), out, lambda g: (g * out * (1.0 - out),))


def dropout(x: Tensor, rate: float, training: bool, rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: zero with prob ``rate``, scale survivors by 1/(1-rate)."""
    if not 0.0 <= rate < 1.0:
        raise ConfigError(f"dropout rate must lie in [0, 1), got {rate}")
    if not training or rate == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout in training mode requires an explicit rng")
    keep = rng.random(x.shape) >= rate
    s = 1.0 / (1.0 - rate)
    out = x.data * keep * s
    return record_op("dropout", (x,), out, lambda g: (g * keep * s,))
