"""Training objective (weighted cross-entropy + soft Dice) and segmentation
metrics (confusion matrix, mIoU, pixel accuracy) with report formatting.

The objective is one op, ``combined_loss``, with an analytic gradient: both
terms share one softmax and one label check, the op registers one node on the
active tape, and the tests verify it against loop oracles and finite
differences. Pixels labeled with the ignore sentinel contribute nothing to
values or gradients.
mIoU averages over observed classes only (any TP+FP+FN > 0), and ignored
pixels are excluded from every metric; the report header says so.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ContractError, DataError, NumericError, ShapeError, check_range
from .tensor import Array, Tensor, record_op
from .unet import LabelMap

DEFAULT_IGNORE = 255


@dataclass
class LossConfig:
    alpha: float = 0.5
    class_weights: np.ndarray | None = None
    dice_smooth: float = 1e-6
    ignore_index: int = DEFAULT_IGNORE

    def __post_init__(self):
        check_range(self, "alpha", 0, 1)
        # labels are 8-bit PGM: a sentinel outside [0, 255] could never match one
        check_range(self, "ignore_index", 0, 255)
        if not self.dice_smooth > 0.0:
            raise ConfigError(f"dice_smooth must be positive, got {self.dice_smooth}")
        if self.class_weights is not None:
            w = self.class_weights = np.asarray(self.class_weights, dtype=np.float64)
            if w.ndim != 1 or not np.all((w > 0) & np.isfinite(w)):
                raise ConfigError(f"class_weights must be 1-D, positive and finite, got {w}")


def _check_class_range(kind: str, values: Array, k: int, counted: Array | bool = True) -> None:
    """Every counted entry of ``values`` is a class index in [0, k); the first one
    that is not is named with its value and index."""
    bad = counted & ((values < 0) | (values >= k))
    if np.any(bad):
        loc = tuple(int(i) for i in np.argwhere(bad)[0])
        raise DataError(f"{kind} value {int(values[loc])} out of range [0, {k}) at index {loc}")


def _check_loss_inputs(logits: Tensor, y: LabelMap, cfg: LossConfig) -> tuple[Array, Array]:
    if logits.data.ndim != 4:
        raise ShapeError(f"logits must be NKHW, got shape {logits.shape}")
    n, k, h, w = logits.shape
    if k < 2:
        raise ShapeError(f"need >= 2 classes, got {k}")
    y = np.asarray(y)
    if y.shape != (n, h, w):
        raise ShapeError(f"labels shape {y.shape} does not match logits {logits.shape}")
    if cfg.class_weights is not None and cfg.class_weights.shape != (k,):
        raise ShapeError(f"class_weights length {cfg.class_weights.shape} != {k} classes")
    valid = y != cfg.ignore_index
    _check_class_range("label", y, k, valid)
    if not np.any(valid):
        raise ContractError("all pixels carry the ignore label; loss is undefined")
    return y, valid


def combined_loss(logits: Tensor, y: LabelMap, cfg: LossConfig) -> Tensor:
    """alpha * cross-entropy + (1 - alpha) * soft Dice, as one op.

    Cross-entropy is the mean over non-ignored pixels of -w[y] * log softmax(z)[y];
    Dice is 1 - (2 I_k + s) / (A_k + B_k + s) averaged over the classes present
    in y, with I_k, A_k, B_k the soft intersection, prediction mass and label
    count of class k. Both terms read one max-subtracted softmax.
    """
    y, valid = _check_loss_inputs(logits, y, cfg)
    n, k, h, w = logits.shape
    alpha = float(cfg.alpha)
    s = cfg.dice_smooth
    y_safe = np.where(valid, y, 0)
    # one softmax-sized buffer: z - max, then (after z_y is read) exp, then probs
    probs = logits.data - logits.data.max(axis=1, keepdims=True)
    z_y = np.take_along_axis(probs, y_safe[:, None], axis=1)[:, 0]
    np.exp(probs, out=probs)
    total = probs.sum(axis=1, keepdims=True)
    probs /= total

    count = int(valid.sum())
    log_p = z_y - np.log(total[:, 0])
    weights = cfg.class_weights if cfg.class_weights is not None else np.ones(k)
    w_pix = weights[y_safe] * valid
    ce = -(w_pix * log_p).sum() / count

    # bool, not float64: every product and sum with exact 0/1 gives the same bits
    onehot = (y_safe[:, None] == np.arange(k)[:, None, None]) & valid[:, None]
    vmask = valid[:, None].astype(np.float64)
    inter = (probs * onehot).sum(axis=(0, 2, 3))   # I_k
    p_sum = (probs * vmask).sum(axis=(0, 2, 3))    # A_k
    y_sum = onehot.sum(axis=(0, 2, 3))             # B_k
    present = y_sum > 0
    n_present = int(present.sum())
    denom = p_sum + y_sum + s
    per_class = 1.0 - (2.0 * inter + s) / denom
    dice = per_class[present].sum() / n_present

    value = alpha * ce + (1.0 - alpha) * dice
    if not np.isfinite(value):
        raise NumericError("loss overflowed to a non-finite value")

    def bwd(g: Array):
        # (g * alpha) * dz_ce + (g * (1 - alpha)) * dz_dice, built in place
        gs = float(g.reshape(-1)[0])
        dz = probs - onehot
        dz *= (w_pix / count)[:, None]
        dz *= gs * alpha
        # dL/dP per class, zero for classes absent from the ground truth
        coeff = np.where(present, (2.0 * inter + s) / denom ** 2, 0.0) / n_present
        lin = np.where(present, 2.0 / denom, 0.0) / n_present
        dP = vmask * (coeff[None, :, None, None] - onehot * lin[None, :, None, None])
        dP -= (probs * dP).sum(axis=1, keepdims=True)
        dP *= probs
        dP *= gs * (1.0 - alpha)
        dz += dP
        return (dz,)

    return record_op("combined_loss", (logits,), np.float64(value), bwd)


def inverse_frequency_weights(labels: list[LabelMap], num_classes: int,
                              ignore_index: int = DEFAULT_IGNORE) -> np.ndarray:
    """Per-class weights proportional to inverse pixel frequency, mean 1.

    Classes absent from the labels get weight 1. Intended to be fed from the
    training split when class imbalance matters.
    """
    counts = np.zeros(num_classes, dtype=np.int64)
    for lab in labels:
        lab = np.asarray(lab)
        valid = lab != ignore_index
        counts += np.bincount(lab[valid].reshape(-1), minlength=num_classes)[:num_classes]
    weights = np.ones(num_classes)
    seen = counts > 0
    if np.any(seen):
        inv = 1.0 / counts[seen]
        weights[seen] = inv / inv.mean()
    return weights


# ---------------------------------------------------------------------------
# metrics


def confusion_accumulate(cm: np.ndarray, pred: LabelMap, y: LabelMap,
                         ignore_index: int = DEFAULT_IGNORE) -> None:
    """Add pixel counts for (truth, prediction) pairs into the int64 ``[K, K]``
    confusion matrix ``cm`` in place, rows for truth and columns for prediction,
    skipping ignored truth."""
    pred = np.asarray(pred)
    y = np.asarray(y)
    if pred.shape != y.shape:
        raise ShapeError(f"prediction shape {pred.shape} != label shape {y.shape}")
    k = len(cm)
    _check_class_range("prediction", pred, k)
    valid = y != ignore_index
    _check_class_range("label", y, k, valid)
    combined = k * y[valid].astype(np.int64) + pred[valid].astype(np.int64)
    cm += np.bincount(combined, minlength=k * k).reshape(k, k)


def per_class_iou(cm: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(observed mask, IoU per class); IoU is NaN for unobserved classes."""
    if cm.sum() == 0:
        raise ContractError("confusion matrix is empty")
    tp = np.diag(cm).astype(np.float64)
    denom = cm.sum(axis=1) + cm.sum(axis=0) - np.diag(cm)
    observed = denom > 0
    iou = np.full(len(cm), np.nan)
    iou[observed] = tp[observed] / denom[observed]
    return observed, iou


def miou(cm: np.ndarray) -> float:
    observed, iou = per_class_iou(cm)
    return float(iou[observed].mean())


def pixel_accuracy(cm: np.ndarray) -> float:
    total = cm.sum()
    if total == 0:
        raise ContractError("confusion matrix is empty")
    return float(np.diag(cm).sum() / total)


# ---------------------------------------------------------------------------
# reporting


REPORT_HEADER = ("# mIoU averaged over observed classes; "
                 "ignore-labeled pixels excluded from all metrics")


def format_eval_report(model_name: str, cm: np.ndarray) -> str:
    """Fixed-width table (percent, 1 decimal) plus a per-class IoU listing."""
    observed, iou = per_class_iou(cm)
    listing = "  ".join(f"{k}:{iou[k]:.3f}" for k in range(len(cm)) if observed[k])
    lines = [REPORT_HEADER, f"{'Model':<20}{'mIoU':>8}{'PA':>8}",
             f"{model_name:<20}{100 * miou(cm):>8.1f}{100 * pixel_accuracy(cm):>8.1f}",
             "", "Per-class IoU:", f"  {model_name}: {listing}"]
    return "\n".join(lines) + "\n"


def eval_report_csv(model_name: str, cm: np.ndarray) -> str:
    """Machine-readable twin: one wide row, raw fractions at 9 significant digits."""
    observed, iou = per_class_iou(cm)
    header = ["model", "miou", "pa"] + [f"iou_{k}" for k in range(len(cm))]
    cells = [model_name, f"{miou(cm):.9g}", f"{pixel_accuracy(cm):.9g}"]
    cells += [f"{iou[k]:.9g}" if observed[k] else "" for k in range(len(cm))]
    return ",".join(header) + "\n" + ",".join(cells) + "\n"
