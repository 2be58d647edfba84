"""Brute-force reference implementations used as oracles.

Everything here is deliberately written with explicit Python loops and
scalar math so it shares nothing with the vectorized implementations under
test. Slow is fine; these run on tiny shapes. The one exception is
``composed_conv_layer``, the byte-level reference of conv2d's fused activation.
"""
import math

import numpy as np

from auseg.nn_ops import conv2d
from auseg.tensor import record_op


def composed_conv_layer(x, p, keep=None, rate=0.0):
    """conv2d (``p`` without activation), relu, then dropout as three tape nodes.

    relu is np.maximum with backward g * (out > 0); dropout is x * keep * s with
    backward g * keep * s, s = 1/(1 - rate). conv2d with ``relu=True`` and the
    same mask must give the same bytes, forward and backward."""
    z = conv2d(x, p)
    out = np.maximum(z.data, 0.0)
    y = record_op("relu", (z,), out, lambda g: (g * (out > 0),))
    if keep is None:
        return y
    s = 1.0 / (1.0 - rate)
    return record_op("dropout", (y,), y.data * keep * s, lambda g: (g * keep * s,))


def loop_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    assert k == k2
    out = np.zeros((m, n))
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def loop_conv2d(x, kernel, bias, stride, pad):
    n, c, h, w = x.shape
    o, c2, kh, kw = kernel.shape
    assert c == c2
    ho = (h + 2 * pad - kh) // stride + 1
    wo = (w + 2 * pad - kw) // stride + 1
    out = np.zeros((n, o, ho, wo))
    for ni in range(n):
        for oi in range(o):
            for i in range(ho):
                for j in range(wo):
                    acc = bias[oi]
                    for ci in range(c):
                        for u in range(kh):
                            for v in range(kw):
                                hh = i * stride + u - pad
                                ww = j * stride + v - pad
                                if 0 <= hh < h and 0 <= ww < w:
                                    acc += x[ni, ci, hh, ww] * kernel[oi, ci, u, v]
                    out[ni, oi, i, j] = acc
    return out


def loop_transposed_conv2d(x, kernel, bias, stride, pad=0):
    n, c, h, w = x.shape
    c2, o, kh, kw = kernel.shape
    assert c == c2
    hf = (h - 1) * stride + kh
    wf = (w - 1) * stride + kw
    full = np.zeros((n, o, hf, wf))
    for ni in range(n):
        for ci in range(c):
            for i in range(h):
                for j in range(w):
                    for oi in range(o):
                        for u in range(kh):
                            for v in range(kw):
                                full[ni, oi, i * stride + u, j * stride + v] += \
                                    x[ni, ci, i, j] * kernel[ci, oi, u, v]
    out = full[:, :, pad:hf - pad or None, pad:wf - pad or None].copy()
    for oi in range(o):
        out[:, oi] += bias[oi]
    return out


def loop_maxpool2d(x, window, stride):
    n, c, h, w = x.shape
    ho, wo = h // stride, w // stride
    out = np.zeros((n, c, ho, wo))
    for ni in range(n):
        for ci in range(c):
            for i in range(ho):
                for j in range(wo):
                    best = -math.inf
                    for u in range(window):
                        for v in range(window):
                            best = max(best, x[ni, ci, i * stride + u, j * stride + v])
                    out[ni, ci, i, j] = best
    return out


def loop_maxpool2d_grad(x, g, stride):
    """Route each window's gradient to its first row-major maximum; zeros elsewhere."""
    n, c, h, w = x.shape
    gx = np.zeros((n, c, h, w))
    for ni in range(n):
        for ci in range(c):
            for i in range(h // stride):
                for j in range(w // stride):
                    best, at = None, None
                    for u in range(stride):
                        for v in range(stride):
                            val = x[ni, ci, i * stride + u, j * stride + v]
                            if best is None or val > best:
                                best, at = val, (i * stride + u, j * stride + v)
                    gx[ni, ci, at[0], at[1]] = g[ni, ci, i, j]
    return gx


def loop_global_avg_pool(x):
    n, c, h, w = x.shape
    out = np.zeros((n, c))
    for ni in range(n):
        for ci in range(c):
            acc = 0.0
            for i in range(h):
                for j in range(w):
                    acc += x[ni, ci, i, j]
            out[ni, ci] = acc / (h * w)
    return out


def loop_channel_max(x):
    n, c, h, w = x.shape
    out = np.zeros((n, 1, h, w))
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                out[ni, 0, i, j] = max(x[ni, ci, i, j] for ci in range(c))
    return out


def loop_channel_avg(x):
    n, c, h, w = x.shape
    out = np.zeros((n, 1, h, w))
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                out[ni, 0, i, j] = sum(x[ni, ci, i, j] for ci in range(c)) / c
    return out


def formula_sigmoid(x):
    out = np.zeros(x.shape)
    for idx in np.ndindex(x.shape):
        out[idx] = 1.0 / (1.0 + math.exp(-x[idx]))
    return out


def loop_softmax_channel(x):
    n, k, h, w = x.shape
    out = np.zeros_like(x)
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                vals = [x[ni, ki, i, j] for ki in range(k)]
                m = max(vals)
                exps = [math.exp(v - m) for v in vals]
                z = sum(exps)
                for ki in range(k):
                    out[ni, ki, i, j] = exps[ki] / z
    return out


def loop_cross_entropy(logits, y, weights=None, ignore_index=255):
    n, k, h, w = logits.shape
    if weights is None:
        weights = [1.0] * k
    total = 0.0
    count = 0
    probs = loop_softmax_channel(logits)
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                cls = int(y[ni, i, j])
                if cls == ignore_index:
                    continue
                total += -weights[cls] * math.log(probs[ni, cls, i, j])
                count += 1
    return total / count


def loop_dice(logits, y, smooth, ignore_index=255):
    n, k, h, w = logits.shape
    probs = loop_softmax_channel(logits)
    total = 0.0
    present = 0
    for ki in range(k):
        inter = 0.0
        p_sum = 0.0
        y_sum = 0.0
        for ni in range(n):
            for i in range(h):
                for j in range(w):
                    cls = int(y[ni, i, j])
                    if cls == ignore_index:
                        continue
                    p = probs[ni, ki, i, j]
                    t = 1.0 if cls == ki else 0.0
                    inter += p * t
                    p_sum += p
                    y_sum += t
        if y_sum > 0:
            total += 1.0 - (2.0 * inter + smooth) / (p_sum + y_sum + smooth)
            present += 1
    return total / present


def loop_confusion(pred, y, k, ignore_index=255):
    cm = np.zeros((k, k), dtype=np.int64)
    for idx in np.ndindex(y.shape):
        truth = int(y[idx])
        if truth == ignore_index:
            continue
        cm[truth, int(pred[idx])] += 1
    return cm


def loop_miou(cm):
    k = cm.shape[0]
    ious = []
    for ki in range(k):
        tp = cm[ki, ki]
        fp = sum(cm[t, ki] for t in range(k)) - tp
        fn = sum(cm[ki, p] for p in range(k)) - tp
        if tp + fp + fn > 0:
            ious.append(tp / (tp + fp + fn))
    return sum(ious) / len(ious)


def loop_pixel_accuracy(cm):
    k = cm.shape[0]
    correct = sum(cm[i, i] for i in range(k))
    total = cm.sum()
    return correct / total


def loop_argmax_labels(logits):
    n, k, h, w = logits.shape
    out = np.zeros((n, h, w), dtype=np.int64)
    for ni in range(n):
        for i in range(h):
            for j in range(w):
                best, best_k = logits[ni, 0, i, j], 0
                for ki in range(1, k):
                    if logits[ni, ki, i, j] > best:
                        best, best_k = logits[ni, ki, i, j], ki
                out[ni, i, j] = best_k
    return out


def adam_reference_step(theta, g, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Textbook Adam (no weight decay), elementwise, for optimizer equivalence."""
    m2 = beta1 * m + (1 - beta1) * g
    v2 = beta2 * v + (1 - beta2) * g * g
    m_hat = m2 / (1 - beta1 ** t)
    v_hat = v2 / (1 - beta2 ** t)
    return theta - lr * m_hat / (np.sqrt(v_hat) + eps), m2, v2
