"""Convolution, pooling and concat kernels; conv2d also applies relu and dropout.

All ops take NCHW tensors and run vectorized numpy forward passes that build
no backward state: each backward rule on the active tape derives its routing
from arrays the node holds. Every kernel is checked against a loop oracle.

The convolutions take only the shapes the model runs: ``conv2d`` is a
stride-1 "same" conv with a square odd kernel, and ``transposed_conv2d``
upsamples by the size s of its square kernel, unpadded. They and the attention
gate's conv share one core of array helpers, whose one contract is the stride-1
"same" conv: each helper works out its padding (k - 1) / 2 and extent H x W.
The core runs BLAS GEMMs between a kernel matrix and each sample's im2col
columns. A 1x1 conv reads a sample in place as its columns; other calls take
them from one of two column sources, the only places that zero-extend. A call
with more than 4 MiB of columns per sample takes them from ``_row_expanded``:
per band of output rows, one buffer holds each input row k times, and each
kernel row's GEMM reads a strided view of it. Every other call copies them per
sample with ``_columns``. ``_conv`` multiplies the kernel, or each kernel row, by
each band's columns, ``_conv_kernel_grad`` adds each band's output gradient times
their transpose, and ``_conv_input_grad`` is ``_conv`` of the output gradient
with the kernel flipped, channels swapped. ``transposed_conv2d`` is one 1x1 conv
each way between its input and its output's s*s phases as channels, as in sub-pixel
convolution, so every GEMM runs in ``_conv`` or ``_conv_kernel_grad``. No conv holds
a padded batch or over 4 MiB of a sample's columns, beyond the up-conv's phases.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, ContractError, ShapeError
from .tensor import Array, Tensor, record_op


@dataclass
class Conv2dParams:
    """Kernel + bias for conv2d ([out, in, k, k]) or transposed_conv2d ([in, out, k, k]),
    and conv2d's relu and dropout (``keep`` mask, ``rate``)."""

    kernel: Tensor
    bias: Tensor
    relu: bool = False
    keep: Array | None = None
    rate: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate must lie in [0, 1), got {self.rate}")
        if self.kernel.data.ndim != 4:
            raise ShapeError(f"conv kernel must be rank 4, got {self.kernel.shape}")
        if self.bias.data.ndim != 1:
            raise ShapeError(f"conv bias must be rank 1, got {self.bias.shape}")


def _require_nchw(x: Tensor, op: str) -> None:
    if x.data.ndim != 4:
        raise ShapeError(f"{op} expects a rank-4 NCHW tensor, got shape {x.shape}")


def _check_conv(op: str, x: Tensor, in_ch: int, bias: Tensor, out_ch: int) -> None:
    _require_nchw(x, op)
    if x.shape[1] != in_ch:
        raise ShapeError(f"{op} channel mismatch: input has {x.shape[1]}, kernel expects {in_ch}")
    if bias.shape != (out_ch,):
        raise ShapeError(f"bias shape {bias.shape} does not match {out_ch} output channels")


def check_same_kernel(op: str, kernel: Array) -> None:
    """``op`` takes only a square odd k x k ``kernel``, which "same" padding fits."""
    kh, kw = kernel.shape[2:]
    if kh % 2 == 0 or kh != kw:
        raise ShapeError(f'{op} needs a square odd "same" kernel, got {kh}x{kw}')


# A sample's im2col columns [C*k*k, H*W] are in the (c, u, v) order of a kernel
# [O, C, k, k], so ``kernel.reshape(O, -1)`` is the GEMM operand; a 1x1 conv's are the
# sample itself. Up to 4*_BAND elements (4 MiB) of columns, ``_columns`` copies a sample's
# whole, and the bits are those of one GEMM per sample, as they are for every 1x1 conv.
# A larger call with k > 1 is row-expanded: a band of output rows plus k - 1 halo rows in
# at most 4*_BAND elements, one GEMM per kernel row. Its forward product sums k GEMMs, so
# it differs from one GEMM per sample by rounding; its kernel gradient keeps each inner
# sum whole while a sample is one band (the 3x3 convs at 64x64 keep the bits of one GEMM
# per sample) and differs by rounding once it is cut. Bands depend on the shapes alone, so
# no bits depend on the BLAS thread count. The buffers are allocated per call, not kept by
# the module, so concurrent callers share nothing; once freed, they join the heap that the
# package keeps for the next call (see ``auseg.__init__``).
_BAND = 1 << 17
Bands = Iterator[tuple[int, int, int, list[Array]]]    # (i, y0, y1, columns) per band


def _columns(a: Array, k: int) -> Bands:
    """``(i, 0, H, [cols])`` per sample i of NCHW ``a``: ``cols`` [C*k*k, H*W] holds the
    sample's im2col columns of ``a`` zero-padded by (k - 1) / 2 on each side. The sample
    is copied into the interior of one zero-bordered buffer and its columns into one
    reused buffer, so ``cols`` is valid only until the next sample is drawn."""
    n, c, h, w = a.shape
    p = (k - 1) // 2
    cols = np.empty((c * k * k, h * w))
    win = np.zeros((c, h + 2 * p, w + 2 * p))
    taps = np.lib.stride_tricks.sliding_window_view(win, (k, k), axis=(1, 2))
    taps = taps.transpose(0, 3, 4, 1, 2)    # [C, k, k, H, W], read-only
    for i in range(n):
        win[:, p:p + h, p:p + w] = a[i]
        cols.reshape(c, k, k, h, w)[...] = taps
        yield i, 0, h, [cols]


def _row_expanded(a: Array, k: int) -> Bands:
    """``(i, y0, y1, views)`` per sample i of NCHW ``a`` and band of output rows [y0, y1):
    ``views[u]`` [C*k, (y1 - y0)*W] holds kernel row u's im2col columns of ``a``
    zero-padded by p = (k - 1) / 2 on each side.

    The views share one buffer e[c, v, y', x] = a_padded[c, y0 + y', x + v] of the band's
    rows and k - 1 halo rows, so each input row is copied k times, not k*k; view u starts
    at row u, and its rows lie (y1 - y0 + k - 1)*W apart. The buffer is filled from ``a``
    with only its borders zeroed, and is valid only until the next band is drawn."""
    n, c, h, w = a.shape
    p = (k - 1) // 2
    rows = min(h, max(1, 4 * _BAND // (c * k * w) - k + 1))
    buf = np.empty(c * k * (rows + k - 1) * w)
    for i in range(n):
        for y0 in range(0, h, rows):
            y1 = min(y0 + rows, h)
            ext = y1 - y0 + k - 1
            e = buf[:c * k * ext * w].reshape(c, k, ext, w)
            t = max(0, p - y0)
            b = max(t, min(ext, h + p - y0))    # e's rows [t, b) lie inside ``a``
            e[:, :, :t] = e[:, :, b:] = 0.0
            for v in range(k):
                l = max(0, p - v)
                r = max(l, min(w, w + p - v))    # and its columns [l, r) at this v
                e[:, v, t:b, :l] = e[:, v, t:b, r:] = 0.0
                e[:, v, t:b, l:r] = a[i, :, y0 + t - p:y0 + b - p, l + v - p:r + v - p]
            flat = e.reshape(c * k, ext * w)
            yield i, y0, y1, [flat[:, u * w:(u + y1 - y0) * w] for u in range(k)]


def _bands(a: Array, k: int) -> tuple[int, Bands]:
    """The kernel rows each GEMM takes, and the bands of ``a``'s columns: a 1x1 conv's
    samples in place, one row each from ``_row_expanded`` for more than 4*_BAND elements
    of columns per sample, else all k rows from ``_columns``."""
    n, c, h, w = a.shape
    if k == 1:
        return 1, ((i, 0, h, [a[i].reshape(c, -1)]) for i in range(n))
    if c * k * k * h * w > 4 * _BAND:
        return 1, _row_expanded(a, k)
    return k, _columns(a, k)


def _conv(x: Array, kernel: Array) -> Array:
    """conv2d's forward pass without bias: [N, C, H, W] -> [N, O, H*W]."""
    n, _, h, w = x.shape
    o, _, k, _ = kernel.shape
    # the output first: the buffers freed on return then leave no hole below it in the heap
    # that later, larger arrays cannot reuse (desk-train peaked 0.4 MiB higher without)
    out = np.empty((n, o, h * w))
    step, bands = _bands(x, k)
    ks = [kernel[:, :, u:u + step].reshape(o, -1) for u in range(0, k, step)]
    for i, y0, y1, views in bands:
        dst = out[i, :, y0 * w:y1 * w]
        np.matmul(ks[0], views[0], out=dst)
        for k2, view in zip(ks[1:], views[1:]):
            dst += k2 @ view
    return out


def _conv_input_grad(g: Array, kernel: Array) -> Array:
    """conv2d's input gradient, output gradient [N, O, H, W] -> [N, C, H, W]: ``g``
    correlated with ``kernel`` [O, C, k, k] flipped, channels swapped."""
    n, _, h, w = g.shape
    flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return _conv(g, flipped).reshape(n, kernel.shape[1], h, w)


def _conv_kernel_grad(g: Array, x: Array, k: int) -> Array:
    """conv2d's kernel gradient, output gradient [N, O, H, W] and input [N, C, H, W] ->
    [O, C, k, k]. The columns are rebuilt: the tape holds no im2col buffer."""
    o, c = g.shape[1], x.shape[1]
    gk = np.zeros((o, c, k, k))    # owns its memory, so backward need not copy conv2d's
    step, bands = _bands(x, k)
    for i, y0, y1, views in bands:
        gi = g[i, :, y0:y1].reshape(o, -1)
        for u, view in zip(range(0, k, step), views):
            # both forms give the same bytes; speed picks one. A transposed product is added
            # with strided reads, 2.6-3.7x slower for the wide kernels of the deep levels,
            # but the view as left operand runs faster for few channels over many pixels
            prod = gi @ view.T if step == k else (view @ gi.T).T
            gk[:, :, u:u + step] += prod.reshape(o, c, step, k)
    return gk


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Stride-1 "same" cross-correlation (no kernel flip) plus bias, NCHW -> NOHW, then in
    place, as ``p`` asks: relu (NaN kept), out *= keep, out *= scale = 1/(1 - rate). The
    backward pass takes g * keep * scale * (out > 0) from that output, as in-place
    activated batch norm does."""
    kernel, bias = p.kernel, p.bias
    out_ch, in_ch = kernel.shape[:2]
    _check_conv("conv2d", x, in_ch, bias, out_ch)
    check_same_kernel("conv2d", kernel.data)
    n, _, h, w = x.shape

    keep, scale = p.keep, 1.0 / (1.0 - p.rate)
    if keep is not None and keep.shape != (n, out_ch, h, w):
        raise ShapeError(f"dropout mask shape {keep.shape} != conv2d output {(n, out_ch, h, w)}")
    out = _conv(x.data, kernel.data).reshape(n, out_ch, h, w)
    out += bias.data[:, None, None]
    if p.relu:
        np.maximum(out, 0.0, out=out)
    if keep is not None:
        out *= keep
        out *= scale
    relu_out = out if p.relu else None    # the rule holds the output only for the relu mask

    def bwd(g: Array):
        gx = gk = gb = None
        if keep is not None:
            g = g * keep * scale
        if relu_out is not None:
            g = g * (relu_out > 0)
        if bias.requires_grad:
            gb = g.sum(axis=(0, 2, 3))
        if kernel.requires_grad:
            gk = _conv_kernel_grad(g, x.data, kernel.shape[2])
        if x.requires_grad:
            gx = _conv_input_grad(g, kernel.data)
        return gx, gk, gb

    return record_op("conv2d", (x, kernel, bias), out, bwd)


def transposed_conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Learned upsampling by s, the size of the square kernel [in_ch, out_ch, s, s]:
    [N, in_ch, H, W] -> [N, out_ch, s*H, s*W], no padding.

    Output phase (r, t) is every s-th row and column from (r, t). ``k1``, the kernel as
    [in_ch, out_ch*s*s, 1, 1], is a 1x1 conv from the phases stacked as channels in
    (o, r, t) order to ``x``: the forward pass runs its adjoint and lays the phases out,
    and the gradients are those of a 1x1 conv of the output gradient's phases.
    """
    kernel, bias = p.kernel, p.bias
    in_ch, out_ch, s, kw = kernel.shape
    _check_conv("transposed_conv2d", x, in_ch, bias, out_ch)
    if s != kw:
        raise ShapeError(f"transposed_conv2d needs a square kernel, got {s}x{kw}")
    if p.relu or p.keep is not None or p.rate:
        raise ContractError("transposed_conv2d takes no relu, keep or rate; leave them unset")
    n, _, h, w = x.shape
    k1 = kernel.data.reshape(in_ch, -1, 1, 1)

    phases = _conv(x.data, k1.transpose(1, 0, 2, 3)).reshape(n, out_ch, s, s, h, w)
    out = np.empty((n, out_ch, s * h, s * w))
    for r, t in np.ndindex(s, s):
        out[:, :, r::s, t::s] = phases[:, :, r, t]
    out += bias.data[:, None, None]

    def bwd(g: Array):
        phases = g.reshape(n, out_ch, h, s, w, s).transpose(0, 1, 3, 5, 2, 4).reshape(n, -1, h, w)
        gx = gk = None
        if x.requires_grad:
            gx = _conv(phases, k1).reshape(x.shape)
        if kernel.requires_grad:
            gk = _conv_kernel_grad(x.data, phases, 1)
            gk.shape = kernel.shape    # in place, so the array still owns its memory
        return gx, gk, g.sum(axis=(0, 2, 3)) if bias.requires_grad else None

    return record_op("transposed_conv2d", (x, kernel, bias), out, bwd)


def maxpool2d(x: Tensor) -> Tensor:
    """Max pooling over non-overlapping 2x2 windows: a running max over strided slices, no
    saved state. Each window's gradient goes to its first row-major entry equal to the
    max."""
    _require_nchw(x, "maxpool2d")
    h, w = x.shape[2:]
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2d needs even extents, got {h}x{w}")
    rows = np.maximum(x.data[:, :, 0::2], x.data[:, :, 1::2])
    out = np.maximum(rows[..., 0::2], rows[..., 1::2])

    def bwd(g: Array):
        gx, taken = np.zeros(x.shape), np.zeros(out.shape, dtype=bool)
        for u, v in np.ndindex(2, 2):
            hit = (x.data[:, :, u::2, v::2] == out) & ~taken
            np.copyto(gx[:, :, u::2, v::2], g, where=hit)  # g * hit would put -0.0 at g < 0
            taken |= hit
        return (gx,)

    return record_op("maxpool2d", (x,), out, bwd)


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

