"""Convolution, pooling and concat kernels; conv2d also applies relu and dropout.

All ops take NCHW tensors and run vectorized numpy forward passes that build
no backward state: each backward rule on the active tape derives its routing
from arrays the node holds. Every kernel is checked against a loop oracle.

Both convolutions, and the attention gate's convolution, share one core of
array helpers: one BLAS GEMM per sample between a kernel matrix and the
im2col columns of a window of an NCHW array. ``_taps`` is the only place
that zero-extends: sample by sample, it reads a window that lies inside the
array in place and copies any other into one zero-bordered buffer per call.
``_conv``, conv2d's forward pass, multiplies the kernel as stored,
[O, C*kh*kw], by the columns of x, and ``_conv_kernel_grad`` the output
gradient by their transpose. ``_conv`` holds one band of columns (at most
1 MiB) beyond its output. ``_conv_t``, the input gradient, correlates the
output gradient with the flipped kernel, channels swapped (Dumoulin & Visin
2016): at stride s, one stride-1 correlation per output phase (four 1x1
GEMMs at k = s = 2, as in sub-pixel convolution). So no convolution, forward
or backward, holds more than one padded sample. ``transposed_conv2d`` is the
adjoint of ``conv2d`` and has no kernels of its own: its forward pass is
conv2d's input gradient and its backward pass the other two.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterator

import numpy as np

from .errors import ConfigError, ShapeError
from .tensor import Array, Tensor, record_op


@dataclass
class Conv2dParams:
    """Kernel + bias for conv2d ([out, in, kh, kw]) or transposed_conv2d ([in, out, kh, kw]),
    stride, padding (a non-negative int: zeros on each side), and conv2d's relu and dropout
    (``keep`` mask, ``rate``)."""

    kernel: Tensor
    bias: Tensor
    stride: int = 1
    padding: int = 0
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
        if self.stride < 1:
            raise ShapeError(f"stride must be positive, got {self.stride}")
        if not isinstance(self.padding, int) or self.padding < 0:
            raise ShapeError(f"padding must be a non-negative int, got {self.padding!r}")


def _require_nchw(x: Tensor, op: str) -> None:
    if x.data.ndim != 4:
        raise ShapeError(f"{op} expects a rank-4 NCHW tensor, got shape {x.shape}")


def _check_conv(op: str, x: Tensor, in_ch: int, bias: Tensor, out_ch: int) -> None:
    _require_nchw(x, op)
    if x.shape[1] != in_ch:
        raise ShapeError(f"{op} channel mismatch: input has {x.shape[1]}, kernel expects {in_ch}")
    if bias.shape != (out_ch,):
        raise ShapeError(f"bias shape {bias.shape} does not match {out_ch} output channels")


# The convolution core runs one GEMM per sample. A sample's im2col columns
# [C*kh*kw, Ho*Wo] are in the (c, u, v) order of a stored kernel [O, C, kh, kw],
# so ``kernel.reshape(O, -1)`` is the GEMM operand as is (a view, never copied).
# ``_conv`` copies the columns of one band of output rows at a time, at most
# _BAND elements (1 MiB), into one buffer: a band splits the GEMM's output
# pixels, not its inner sums, so every output element has the same bits as
# with the sample's whole column matrix. The buffer is allocated per call, not
# kept by the module, so concurrent callers share nothing; once freed, it joins
# the heap that the package keeps for the next call (see ``auseg.__init__``).
_BAND = 1 << 17


def _taps(a: Array, top: int, left: int, kh: int, kw: int, s: int, ho: int,
          wo: int) -> Iterator[Array]:
    """Per sample of NCHW ``a``, a read-only view [C, kh, kw, Ho, Wo] of the taps of the
    window at (top, left), zero-extended: ``taps.reshape(-1, Ho*Wo)`` copies the sample's
    im2col columns [C*kh*kw, Ho*Wo].

    A window inside ``a`` is read in place; any other is copied, one sample at a time,
    into the interior of one zero-bordered buffer, so each view is valid only until the
    next sample is drawn."""
    n, c, h, w = a.shape
    nh, nw = (ho - 1) * s + kh, (wo - 1) * s + kw
    inside = top >= 0 and left >= 0 and top + nh <= h and left + nw <= w
    if inside:
        win = a[:, :, top:top + nh, left:left + nw]
    else:
        win = np.zeros((c, nh, nw))
        y0, x0 = max(top, 0), max(left, 0)
        y1, x1 = max(y0, min(top + nh, h)), max(x0, min(left + nw, w))
        interior = win[:, y0 - top:y1 - top, x0 - left:x1 - left]
    sh, sw = win.strides[-2:]
    taps = np.lib.stride_tricks.as_strided(win, win.shape[:-2] + (kh, kw, ho, wo),
                                           win.strides[:-2] + (sh, sw, s * sh, s * sw),
                                           writeable=False)
    for i in range(n):
        if inside:
            yield taps[i]
        else:
            interior[...] = a[i, :, y0:y1, x0:x1]
            yield taps


def _phase(r: int, k: int, s: int, pad: int, size: int) -> tuple[int, int, int, int]:
    """First output, output count, tap count and first input of phase r on one axis.

    Output y = s*q + r - pad takes the taps u = r + s*m from input q - m."""
    q0 = -((r - pad) // s)
    y0, taps = s * q0 + r - pad, -((r - k) // s)
    return y0, -((y0 - size) // s), taps, q0 - taps + 1


def _conv_t(g: Array, kernel: Array, s: int, pad: int, h: int, w: int) -> Array:
    """conv2d's input gradient for ``kernel`` [A, B, kh, kw]: [N, A, Ho, Wo] -> [N, B, h, w].

    Output phase (r, t), every s-th row and column, correlates ``g`` with the
    flipped taps ``kernel[:, :, r::s, t::s]``."""
    n, b, (kh, kw) = g.shape[0], kernel.shape[1], kernel.shape[2:]
    out = np.zeros((n, b, h, w))
    for r in range(min(s, kh)):
        y0, nq, nu, top = _phase(r, kh, s, pad, h)
        for t in range(min(s, kw)):
            x0, nx, nv, left = _phase(t, kw, s, pad, w)
            if nq < 1 or nx < 1:
                continue
            k2 = kernel[:, :, r::s, t::s][:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(b, -1)
            for i, taps in enumerate(_taps(g, top, left, nu, nv, 1, nq, nx)):
                out[i, :, y0::s, x0::s] = (k2 @ taps.reshape(-1, nq * nx)).reshape(b, nq, nx)
    return out


def _conv(x: Array, kernel: Array, s: int, pad: int, ho: int, wo: int) -> Array:
    """conv2d's forward pass without bias: [N, C, H, W] -> [N, O, Ho*Wo]."""
    (n, c), (o, _, kh, kw) = x.shape[:2], kernel.shape
    k2 = kernel.reshape(o, -1)
    depth = k2.shape[1]
    rows = min(ho, max(1, _BAND // (depth * wo)))    # output rows per band
    # the output first: the buffers freed on return then leave no hole below it in
    # the heap that later, larger arrays cannot reuse; with the band first, desk-train
    # peaks about 0.4 MiB higher
    out = np.empty((n, o, ho * wo))
    band = np.empty(depth * rows * wo)
    bands = []    # (first row, end row, the band's columns as a [C, kh, kw, rows, Wo] view)
    for y0 in range(0, ho, rows):
        y1 = min(y0 + rows, ho)
        bands.append((y0, y1, band[:depth * (y1 - y0) * wo].reshape(c, kh, kw, y1 - y0, wo)))
    for i, taps in enumerate(_taps(x, -pad, -pad, kh, kw, s, ho, wo)):
        for y0, y1, cols in bands:
            cols[...] = taps[..., y0:y1, :]
            np.matmul(k2, cols.reshape(depth, -1), out=out[i, :, y0 * wo:y1 * wo])
    return out


def _conv_kernel_grad(g: Array, x: Array, shape: tuple[int, ...], s: int, pad: int) -> Array:
    """conv2d's kernel gradient: output gradient [N, O, Ho, Wo], input [N, C, H, W] -> ``shape``.

    The columns are rebuilt, not kept from the forward pass: the tape holds no im2col buffer."""
    (o, ho, wo), (kh, kw) = g.shape[1:], shape[2:]
    gk = np.zeros(shape)
    gk2 = gk.reshape(o, -1)    # a view: the result owns its memory, so backward need not copy it
    for gi, taps in zip(g, _taps(x, -pad, -pad, kh, kw, s, ho, wo)):
        gk2 += gi.reshape(o, -1) @ taps.reshape(-1, ho * wo).T
    return gk


def conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Cross-correlation (no kernel flip) plus bias, NCHW -> NOH'W', then in place, as ``p``
    asks: relu (NaN kept), out *= keep, out *= scale = 1/(1 - rate). The backward pass takes
    g * keep * scale * (out > 0) from that output, as in-place activated batch norm does."""
    kernel, bias, s, pad = p.kernel, p.bias, p.stride, p.padding
    out_ch, in_ch, kh, kw = kernel.shape
    _check_conv("conv2d", x, in_ch, bias, out_ch)
    n, _, h, w = x.shape
    if h + 2 * pad < kh or w + 2 * pad < kw:
        raise ShapeError(f"input {h}x{w} smaller than kernel {kh}x{kw} after padding {pad}")
    ho = (h + 2 * pad - kh) // s + 1
    wo = (w + 2 * pad - kw) // s + 1

    keep, scale = p.keep, 1.0 / (1.0 - p.rate)
    if keep is not None and keep.shape != (n, out_ch, ho, wo):
        raise ShapeError(f"dropout mask shape {keep.shape} != conv2d output {(n, out_ch, ho, wo)}")
    out = _conv(x.data, kernel.data, s, pad, ho, wo).reshape(n, out_ch, ho, wo)
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
            gk = _conv_kernel_grad(g, x.data, kernel.shape, s, pad)
        if x.requires_grad:
            gx = _conv_t(g, kernel.data, s, pad, h, w)
        return gx, gk, gb

    return record_op("conv2d", (x, kernel, bias), out, bwd)


def transposed_conv2d(x: Tensor, p: Conv2dParams) -> Tensor:
    """Stride-s learned upsampling; the adjoint of conv2d with the same kernel.

    Kernel layout is [in_ch, out_ch, kh, kw]; output extent (H-1)*s + kh - 2*pad.
    The forward pass is conv2d's input gradient, the input gradient is conv2d's
    forward pass, and the kernel gradient is conv2d's with the operands swapped.
    """
    kernel, bias, s, pad = p.kernel, p.bias, p.stride, p.padding
    in_ch, out_ch, kh, kw = kernel.shape
    _check_conv("transposed_conv2d", x, in_ch, bias, out_ch)
    h, w = x.shape[2:]
    ho, wo = (h - 1) * s + kh - 2 * pad, (w - 1) * s + kw - 2 * pad
    if ho < 1 or wo < 1:
        raise ShapeError(f"degenerate transposed_conv2d output {ho}x{wo}")

    out = _conv_t(x.data, kernel.data, s, pad, ho, wo)
    out += bias.data[:, None, None]

    def bwd(g: Array):
        gx = _conv(g, kernel.data, s, pad, h, w).reshape(x.shape) if x.requires_grad else None
        gk = _conv_kernel_grad(x.data, g, kernel.shape, s, pad) if kernel.requires_grad else None
        return gx, gk, g.sum(axis=(0, 2, 3)) if bias.requires_grad else None

    return record_op("transposed_conv2d", (x, kernel, bias), out, bwd)


def maxpool2d(x: Tensor, stride: int = 2) -> Tensor:
    """Max pooling over non-overlapping stride x stride windows: a running max over strided
    slices, no saved state. Each window's gradient goes to its first row-major entry equal
    to the max."""
    _require_nchw(x, "maxpool2d")
    h, w = x.shape[2:]
    s = stride
    if s < 1 or h % s or w % s:
        raise ShapeError(f"maxpool2d stride {s} must be positive and divide {h}x{w}")
    rows = reduce(np.maximum, (x.data[:, :, u::s] for u in range(s)))
    out = reduce(np.maximum, (rows[..., v::s] for v in range(s)))

    def bwd(g: Array):
        gx, taken = np.zeros(x.shape), np.zeros(out.shape, dtype=bool)
        for u, v in np.ndindex(s, s):
            hit = (x.data[:, :, u::s, v::s] == out) & ~taken
            np.copyto(gx[:, :, u::s, v::s], g, where=hit)  # g * hit would put -0.0 at g < 0
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

