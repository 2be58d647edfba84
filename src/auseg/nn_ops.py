"""Convolution, pooling and concat kernels; conv2d also applies relu and dropout.

All ops take NCHW tensors and run vectorized numpy forward passes that build
no backward state: each backward rule on the active tape derives its routing
from arrays the node holds. Every kernel is checked against a loop oracle.

The convolutions take only the shapes the model runs: ``conv2d`` is a
stride-1 "same" conv with a square odd kernel, and ``transposed_conv2d``
upsamples by the size s of its square kernel, unpadded. They and the attention
gate's conv share one core of array helpers: BLAS GEMMs between a kernel matrix
and the columns of an NCHW array, from one of two column sources, the only
places that zero-extend. A stride-1 call with more than 4 MiB of im2col columns
per sample takes them from ``_row_expanded``: per band of output rows, one
buffer holds each input row kw times, and each kernel row's GEMM reads a
strided view of it. Every other call takes them from ``_columns``: per sample,
and per band of a large stride-s sample, it copies the im2col columns into one
reused buffer, reading a window that lies inside the array in place and copying
any other into one zero-bordered buffer. ``_conv``, conv2d's forward pass,
multiplies the kernel, or each kernel row, by each band's columns,
``_conv_kernel_grad`` adds each band's output gradient times their transpose,
and ``_conv_input_grad`` is ``_conv`` of the output gradient with the kernel
flipped, channels swapped. So no convolution, forward or backward, holds a
padded copy of the batch or more than 4 MiB of one sample's columns.
``transposed_conv2d``'s forward pass is s*s 1x1 GEMMs per sample, one per output
phase as in sub-pixel convolution, and its input gradient a stride-s ``_conv``.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigError, ShapeError
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


def same_padding(op: str, kernel: Array) -> int:
    """The zeros on each side that keep a stride-1 conv's extent: (k - 1) / 2 for a
    square odd k x k ``kernel``, the only kind ``op`` takes."""
    kh, kw = kernel.shape[2:]
    if kh % 2 == 0 or kh != kw:
        raise ShapeError(f'{op} needs a square odd "same" kernel, got {kh}x{kw}')
    return (kh - 1) // 2


# The convolution core runs GEMMs per sample, or per band of output rows of a large
# sample. A sample's im2col columns [C*kh*kw, Ho*Wo] are in the (c, u, v) order of a
# kernel [O, C, kh, kw], so ``kernel.reshape(O, -1)`` is the GEMM operand. Up to 4*_BAND
# elements (4 MiB) of columns, ``_columns`` copies a sample's whole, and the bits are those
# of one GEMM per sample. A stride-1 call with more is row-expanded: a band of output rows
# plus kh - 1 halo rows in at most 4*_BAND elements, one GEMM per kernel row. Its forward
# product sums kh GEMMs, so it differs from one GEMM per sample by rounding; its kernel
# gradient keeps each inner sum whole while a sample is one band (the 3x3 convs at 64x64
# keep the bits of one GEMM per sample) and differs by rounding once it is cut. The
# up-conv's stride-2 gradients, above 4 MiB, are copied in bands of at most _BAND elements
# (1 MiB) of columns, which split the kernel gradient's sums only. Bands depend on the
# shapes alone, so no bits depend on the BLAS thread count. The buffers are allocated per
# call, not kept by the module, so concurrent callers share nothing; once freed, they join
# the heap that the package keeps for the next call (see ``auseg.__init__``).
_BAND = 1 << 17
Bands = Iterator[tuple[int, int, int, list[Array]]]    # (i, y0, y1, columns) per band


def _columns(a: Array, kh: int, kw: int, s: int, pad: int, ho: int, wo: int) -> Bands:
    """``(i, y0, y1, [cols])`` per sample i of NCHW ``a`` and band of output rows [y0, y1):
    ``cols`` [C*kh*kw, (y1 - y0)*Wo] holds the band's im2col columns of ``a`` zero-padded
    by ``pad`` on each side, at stride ``s``.

    Every band is copied into one buffer, so ``cols`` is valid only until the next band is
    drawn. A window inside ``a`` is read in place; any other is copied, one sample at a
    time, into the interior of one zero-bordered buffer."""
    n, c, h, w = a.shape
    depth = c * kh * kw
    rows = ho if depth * ho * wo <= 4 * _BAND else max(1, _BAND // (depth * wo))
    band = np.empty(depth * rows * wo)
    nh, nw = (ho - 1) * s + kh, (wo - 1) * s + kw    # the padded window's extent
    win = a if pad == 0 and nh <= h and nw <= w else np.zeros((1, c, nh, nw))
    hi, wi = min(nh - pad, h), min(nw - pad, w)    # the extent of ``a`` the window covers
    sh, sw = win.strides[-2:]
    taps = np.lib.stride_tricks.as_strided(win, win.shape[:2] + (kh, kw, ho, wo),
                                           win.strides[:2] + (sh, sw, s * sh, s * sw),
                                           writeable=False)
    for i in range(n):
        if win is not a:
            win[0, :, pad:pad + hi, pad:pad + wi] = a[i, :, :hi, :wi]
        for y0 in range(0, ho, rows):
            y1 = min(y0 + rows, ho)
            cols = band[:depth * (y1 - y0) * wo]
            cols.reshape(c, kh, kw, y1 - y0, wo)[...] = taps[i if win is a else 0, ..., y0:y1, :]
            yield i, y0, y1, [cols.reshape(depth, -1)]


def _row_expanded(a: Array, kh: int, kw: int, pad: int, ho: int, wo: int) -> Bands:
    """``(i, y0, y1, views)`` per sample i of NCHW ``a`` and band of output rows [y0, y1)
    of a stride-1 conv: ``views[u]`` [C*kw, (y1 - y0)*Wo] holds kernel row u's im2col
    columns of ``a`` zero-padded by ``pad`` on each side.

    The views share one buffer e[c, v, y', x] = a_padded[c, y0 + y', x + v] of the band's
    rows and kh - 1 halo rows, so each input row is copied kw times, not kh*kw; view u
    starts at row u, and its rows lie (y1 - y0 + kh - 1)*Wo apart. The buffer is filled
    straight from ``a`` with only its borders zeroed, and is valid only until the next
    band is drawn."""
    n, c, h, w = a.shape
    rows = min(ho, max(1, 4 * _BAND // (c * kw * wo) - kh + 1))
    buf = np.empty(c * kw * (rows + kh - 1) * wo)
    for i in range(n):
        for y0 in range(0, ho, rows):
            y1 = min(y0 + rows, ho)
            ext = y1 - y0 + kh - 1
            e = buf[:c * kw * ext * wo].reshape(c, kw, ext, wo)
            t = max(0, pad - y0)
            b = max(t, min(ext, h + pad - y0))    # e's rows [t, b) lie inside ``a``
            e[:, :, :t] = e[:, :, b:] = 0.0
            for v in range(kw):
                l = max(0, pad - v)
                r = max(l, min(wo, w + pad - v))    # and its columns [l, r) at this v
                e[:, v, t:b, :l] = e[:, v, t:b, r:] = 0.0
                e[:, v, t:b, l:r] = a[i, :, y0 + t - pad:y0 + b - pad, l + v - pad:r + v - pad]
            flat = e.reshape(c * kw, ext * wo)
            yield i, y0, y1, [flat[:, u * wo:(u + y1 - y0) * wo] for u in range(kh)]


def _bands(a: Array, kh: int, kw: int, s: int, pad: int, ho: int, wo: int) -> tuple[int, Bands]:
    """The kernel rows each GEMM takes, and the bands of ``a``'s columns: one row each from
    ``_row_expanded`` for a stride-1 call with more than 4*_BAND elements of im2col
    columns per sample, else all kh rows at once from ``_columns``."""
    if s == 1 and a.shape[1] * kh * kw * ho * wo > 4 * _BAND:
        return 1, _row_expanded(a, kh, kw, pad, ho, wo)
    return kh, _columns(a, kh, kw, s, pad, ho, wo)


def _conv(x: Array, kernel: Array, s: int, pad: int, ho: int, wo: int) -> Array:
    """conv2d's forward pass without bias: [N, C, H, W] -> [N, O, Ho*Wo]."""
    o, _, kh, kw = kernel.shape
    # the output first: the buffers freed on return then leave no hole below it in the
    # heap that later, larger arrays cannot reuse; with the band first, desk-train peaks
    # about 0.4 MiB higher
    out = np.empty((x.shape[0], o, ho * wo))
    step, bands = _bands(x, kh, kw, s, pad, ho, wo)
    ks = [kernel[:, :, u:u + step].reshape(o, -1) for u in range(0, kh, step)]
    for i, y0, y1, views in bands:
        dst = out[i, :, y0 * wo:y1 * wo]
        np.matmul(ks[0], views[0], out=dst)
        for k2, view in zip(ks[1:], views[1:]):
            dst += k2 @ view
    return out


def _conv_input_grad(g: Array, kernel: Array, pad: int) -> Array:
    """A stride-1 conv's input gradient, output gradient [N, O, H, W] -> [N, C, H, W]:
    ``g`` correlated with ``kernel`` [O, C, k, k] flipped, channels swapped."""
    n, _, h, w = g.shape
    flipped = kernel[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return _conv(g, flipped, 1, pad, h, w).reshape(n, kernel.shape[1], h, w)


def _conv_kernel_grad(g: Array, x: Array, shape: tuple[int, ...], s: int, pad: int) -> Array:
    """conv2d's kernel gradient: output gradient [N, O, Ho, Wo], input [N, C, H, W] -> ``shape``.

    The columns are rebuilt, not kept from the forward pass: the tape holds no im2col buffer."""
    (o, ho, wo), (c, kh, kw) = g.shape[1:], shape[1:]
    gk = np.zeros(shape)    # the result owns its memory, so backward need not copy it
    step, bands = _bands(x, kh, kw, s, pad, ho, wo)
    for i, y0, y1, views in bands:
        gi = g[i, :, y0:y1].reshape(o, -1)
        for u, view in zip(range(0, kh, step), views):
            # a kernel row's view is the left operand: BLAS runs [C*kw, K] @ [K, O] faster
            # than its transpose at the model's shapes; ``_columns``' product keeps its
            # form, and so its bits
            prod = gi @ view.T if step == kh else (view @ gi.T).T
            gk[:, :, u:u + step] += prod.reshape(o, c, step, kw)
    return gk


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Stride-1 "same" cross-correlation (no kernel flip) plus bias, NCHW -> NOHW, then in
    place, as ``p`` asks: relu (NaN kept), out *= keep, out *= scale = 1/(1 - rate). The
    backward pass takes g * keep * scale * (out > 0) from that output, as in-place
    activated batch norm does."""
    kernel, bias = p.kernel, p.bias
    out_ch, in_ch = kernel.shape[:2]
    _check_conv("conv2d", x, in_ch, bias, out_ch)
    pad = same_padding("conv2d", kernel.data)
    n, _, h, w = x.shape

    keep, scale = p.keep, 1.0 / (1.0 - p.rate)
    if keep is not None and keep.shape != (n, out_ch, h, w):
        raise ShapeError(f"dropout mask shape {keep.shape} != conv2d output {(n, out_ch, h, w)}")
    out = _conv(x.data, kernel.data, 1, pad, h, w).reshape(n, out_ch, h, w)
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
            gk = _conv_kernel_grad(g, x.data, kernel.shape, 1, pad)
        if x.requires_grad:
            gx = _conv_input_grad(g, kernel.data, pad)
        return gx, gk, gb

    return record_op("conv2d", (x, kernel, bias), out, bwd)


def transposed_conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Learned upsampling by s, the size of the square kernel [in_ch, out_ch, s, s]:
    [N, in_ch, H, W] -> [N, out_ch, s*H, s*W], no padding.

    Output phase (r, t), every s-th row and column from (r, t), is one 1x1 GEMM per
    sample with ``kernel[:, :, r, t]``. This is the adjoint of a stride-s conv with the
    same kernel, which is the input gradient; the kernel gradient is that conv's with
    the operands swapped.
    """
    kernel, bias = p.kernel, p.bias
    in_ch, out_ch, s, kw = kernel.shape
    _check_conv("transposed_conv2d", x, in_ch, bias, out_ch)
    if s != kw:
        raise ShapeError(f"transposed_conv2d needs a square kernel, got {s}x{kw}")
    n, _, h, w = x.shape

    out = np.empty((n, out_ch, s * h, s * w))
    for r, t in np.ndindex(s, s):
        k2 = np.ascontiguousarray(kernel.data[:, :, r, t].T)
        for i in range(n):
            out[i, :, r::s, t::s] = (k2 @ x.data[i].reshape(in_ch, -1)).reshape(out_ch, h, w)
    out += bias.data[:, None, None]

    def bwd(g: Array):
        gx = _conv(g, kernel.data, s, 0, h, w).reshape(x.shape) if x.requires_grad else None
        gk = _conv_kernel_grad(x.data, g, kernel.shape, s, 0) if kernel.requires_grad else None
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

