"""AdamW with decoupled weight decay, cosine-annealed learning rate,
early stopping, the train/validate loop, and the learning-rate sweep harness.

L2 regularization is realized solely as AdamW's decoupled decay (applied to
every parameter). The schedule advances per epoch. Two runs with the same
seed, data, and config produce bit-identical logs and parameters.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .data import Sample, batch_iter, color_jitter, horizontal_flip, random_crop
from .errors import ConfigError, ContractError, NumericError, check_range
from .losses_metrics import LossConfig, combined_loss, confusion_accumulate, miou, pixel_accuracy
from .tensor import Tape, Tensor, backward
from .unet import UnetConfig, UnetModel, build_model, forward

# AdamW's moment decays and denominator guard, as in Loshchilov & Hutter (2019)
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


@dataclass
class AdamWState:
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]
    weight_decay: float
    t: int = 0

    @classmethod
    def init(cls, params: dict[str, Tensor], weight_decay: float) -> "AdamWState":
        return cls(m={name: np.zeros_like(t.data) for name, t in params.items()},
                   v={name: np.zeros_like(t.data) for name, t in params.items()},
                   weight_decay=weight_decay)


def adamw_step(params: dict[str, Tensor], grads: Sequence[np.ndarray],
               state: AdamWState, lr: float) -> None:
    """One optimizer step; ``grads`` follow the order of ``params``, one array per
    parameter. Decay is decoupled from the adaptive term."""
    if lr <= 0:
        raise ConfigError(f"learning rate must be positive, got {lr}")
    if len(grads) != len(params):
        raise ContractError(f"{len(grads)} gradients for {len(params)} parameters")
    # every gradient is checked before any state changes, so a raise leaves the
    # parameters, m, v and t as they were. One sum of squares tests finiteness
    # without a bool temporary; a sum that overflows (entries above ~1e154) is
    # confirmed element by element
    for name, g in zip(params, grads):
        if not math.isfinite(np.vdot(g, g)) and not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for parameter {name!r}")
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    # in place through two scratch rows shared by every parameter, in the order of
    # p -= lr * ((m / bc1) / (sqrt(v / bc2) + eps) + wd * p)
    scratch = np.empty((2, max((t.size for t in params.values()), default=0)))
    for (name, t), g in zip(params.items(), grads):
        m = state.m[name]
        v = state.v[name]
        w = t.data
        a, b = (row[:w.size].reshape(w.shape) for row in scratch)
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=a)
        v *= BETA2
        np.multiply(1.0 - BETA2, g, out=a)
        v += np.multiply(a, g, out=a)
        np.divide(v, bc2, out=a)
        np.sqrt(a, out=a)
        a += EPS
        np.divide(m, bc1, out=b)
        b /= a
        b += np.multiply(state.weight_decay, w, out=a)
        w -= np.multiply(lr, b, out=b)


@dataclass
class CosineSchedule:
    total_epochs: int
    eta_max: float = 5e-4
    eta_min: float = 1e-6

    def __post_init__(self):
        if not self.eta_max > 0:
            raise ConfigError(f"eta_max must be positive, got {self.eta_max}")
        if not 0 <= self.eta_min <= self.eta_max:
            raise ConfigError(f"eta_min must lie in [0, eta_max = {self.eta_max:g}], "
                              f"got {self.eta_min}")
        check_range(self, "total_epochs", 1)


def cosine_lr(sched: CosineSchedule, epoch: int) -> float:
    """eta_min + 0.5 (eta_max - eta_min)(1 + cos(pi epoch / T)); clamps past T."""
    if epoch < 0:
        raise ConfigError(f"epoch must be >= 0, got {epoch}")
    if epoch > sched.total_epochs:
        return sched.eta_min
    return sched.eta_min + 0.5 * (sched.eta_max - sched.eta_min) * (
        1.0 + math.cos(math.pi * epoch / sched.total_epochs))


@dataclass
class EarlyStopper:
    patience: int
    min_delta: float
    best: float = math.inf
    since_improvement: int = 0


def early_stop_check(stopper: EarlyStopper, val_loss: float) -> bool:
    """True when training should stop. Improvement means strictly beating
    best - min_delta; the counter resets on improvement."""
    if not math.isfinite(val_loss):
        raise NumericError(f"early stopper fed a non-finite validation loss {val_loss}")
    if val_loss < stopper.best - stopper.min_delta:
        stopper.best = val_loss
        stopper.since_improvement = 0
        return False
    stopper.since_improvement += 1
    return stopper.since_improvement > stopper.patience


@dataclass
class EpochRow:
    epoch: int
    train_loss: float
    val_loss: float
    lr: float
    val_miou: float
    val_pa: float
    seconds: float


@dataclass
class TrainLog:
    rows: list[EpochRow] = field(default_factory=list)

    CSV_HEADER = "epoch,train_loss,val_loss,lr,miou,pa,seconds"

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(f"{r.epoch},{r.train_loss:.9g},{r.val_loss:.9g},{r.lr:.9g},"
                         f"{r.val_miou:.9g},{r.val_pa:.9g},{r.seconds:.9g}")
        return "\n".join(lines) + "\n"

    def best_row(self) -> EpochRow:
        if not self.rows:
            raise ConfigError("empty train log")
        return min(self.rows, key=lambda r: (r.val_loss, r.epoch))


@dataclass
class TrainSettings:
    """Everything the train loop needs beyond the model and the data."""

    loss: LossConfig
    schedule: CosineSchedule
    epochs: int = 30
    batch_size: int = 16
    seed: int = 0
    weight_decay: float = 0.01
    patience: int = 10
    min_delta: float = 1e-4
    flip_p: float = 0.5
    jitter_delta: float = 0.1
    crop_h: int = 0
    crop_w: int = 0

    def __post_init__(self):
        for key in ("seed", "weight_decay", "patience", "min_delta", "crop_h", "crop_w"):
            check_range(self, key, 0)
        check_range(self, "epochs", 1)
        check_range(self, "batch_size", 1)
        check_range(self, "flip_p", 0, 1)
        check_range(self, "jitter_delta", 0, 0.5)


@dataclass
class TrainResult:
    log: TrainLog
    best_state: dict[str, np.ndarray]


def _rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(stream)]))


def init_rng(seed: int) -> np.random.Generator:
    """RNG for parameter initialization (stream 0 of the master seed)."""
    return _rng_for(seed, 0)


def _augmentations(cfg: TrainSettings):
    augs = []
    if cfg.crop_h > 0 and cfg.crop_w > 0:
        augs.append(lambda s, rng: random_crop(s, cfg.crop_h, cfg.crop_w, rng))
    if cfg.flip_p > 0:
        augs.append(lambda s, rng: horizontal_flip(s, rng, cfg.flip_p))
    if cfg.jitter_delta > 0:
        augs.append(lambda s, rng: color_jitter(s, cfg.jitter_delta, rng))
    return augs


def evaluate(model: UnetModel, samples: Sequence[Sample], loss_cfg: LossConfig,
             batch_size: int) -> tuple[float, np.ndarray]:
    """Loss (sample-weighted mean) and the int64 ``[K, K]`` confusion counts over a
    split, rows for truth and columns for prediction; no dropout."""
    k = model.cfg.num_classes
    cm = np.zeros((k, k), dtype=np.int64)
    total_loss = 0.0
    total_n = 0
    for images, labels in batch_iter(samples, batch_size, shuffle=False):
        logits = forward(model, images, training=False)
        loss = combined_loss(logits, labels, loss_cfg)
        n = images.shape[0]
        total_loss += loss.item() * n
        total_n += n
        pred = np.argmax(logits.data, axis=1).astype(np.int64, copy=False)
        confusion_accumulate(cm, pred, labels, loss_cfg.ignore_index)
    return total_loss / total_n, cm


def _train_step(model: UnetModel, images: np.ndarray, labels: np.ndarray, cfg: TrainSettings,
                rng: np.random.Generator, state: AdamWState, lr: float, where: str) -> float:
    """Forward, loss, backward and the AdamW update of one batch; returns the
    loss. The logits die in the loss op (its rule holds the softmax); the tape,
    the other activations and the gradients die on return."""
    with Tape() as tape:
        loss = combined_loss(forward(model, images, training=True, rng=rng), labels, cfg.loss)
        value = loss.item()
        if not math.isfinite(value):
            raise NumericError(f"non-finite loss at {where}")
        grads = backward(tape, loss, model.params)
    adamw_step(model.params, list(grads.values()), state, lr)
    return value


def train(model: UnetModel, train_samples: Sequence[Sample], val_samples: Sequence[Sample],
          cfg: TrainSettings, log_line=None) -> TrainResult:
    """Optimize the model in place, returning the log and the best-validation snapshot.

    Per epoch: shuffled augmented batches -> combined loss -> backward ->
    AdamW at the cosine-annealed rate; then a validation pass (loss, mIoU,
    PA) feeds the log, the best-checkpoint tracker, and the early stopper.

    Nothing of a step outlives it but the updated parameters and AdamW's
    moments: the tape, the activations and the gradients die with the step's
    helper, so validation runs without them. ``best_state`` is snapshotted on
    improving epochs only; epoch 0 always improves (a non-finite val loss raises).
    """
    if not train_samples or not val_samples:
        raise ConfigError("need at least one training and one validation sample")
    data_rng = _rng_for(cfg.seed, 1)
    dropout_rng = _rng_for(cfg.seed, 2)
    state = AdamWState.init(model.params, weight_decay=cfg.weight_decay)
    stopper = EarlyStopper(patience=cfg.patience, min_delta=cfg.min_delta)
    augs = _augmentations(cfg)
    log = TrainLog()
    best_state: dict[str, np.ndarray] = {}
    best_val = math.inf
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        lr = cosine_lr(cfg.schedule, epoch)
        epoch_loss = 0.0
        epoch_n = 0
        for batch_index, (images, labels) in enumerate(
                batch_iter(train_samples, cfg.batch_size, shuffle=True,
                           rng=data_rng, augmentations=augs)):
            value = _train_step(model, images, labels, cfg, dropout_rng, state, lr,
                                f"epoch {epoch}, batch {batch_index}")
            n = images.shape[0]
            epoch_loss += value * n
            epoch_n += n
        val_loss, cm = evaluate(model, val_samples, cfg.loss, cfg.batch_size)
        row = EpochRow(epoch=epoch, train_loss=epoch_loss / epoch_n, val_loss=val_loss,
                       lr=lr, val_miou=miou(cm), val_pa=pixel_accuracy(cm),
                       seconds=time.perf_counter() - started)
        log.rows.append(row)
        if log_line is not None:
            log_line(f"epoch {epoch:3d}  train {row.train_loss:.6f}  val {row.val_loss:.6f}  "
                     f"lr {lr:.2e}  mIoU {row.val_miou:.4f}  PA {row.val_pa:.4f}")
        if val_loss < best_val:
            best_val = val_loss
            best_state = model.state_arrays()
        if early_stop_check(stopper, val_loss):
            break
    return TrainResult(log=log, best_state=best_state)


@dataclass
class SweepRow:
    lr: float
    val_miou: float
    val_pa: float


def parse_lrs(text: str) -> list[float]:
    """The learning rates of a comma-separated list such as ``--lrs``; there must be
    at least one, and each must be positive and finite."""
    try:
        lrs = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ConfigError(f"--lrs must be comma-separated floats, got {text!r}") from exc
    if not lrs or not all(0 < lr < math.inf for lr in lrs):
        raise ConfigError(f"--lrs must list positive finite learning rates, got {text!r}")
    return lrs


def lr_sweep(unet_cfg: UnetConfig, train_samples: Sequence[Sample],
             val_samples: Sequence[Sample], cfg: TrainSettings,
             lrs: Sequence[float]) -> list[SweepRow]:
    """One full training run per learning rate, identical seeds/data. Each row holds
    the validation mIoU and PA of the run's best epoch, whose parameters are its
    best checkpoint. Rows keep the input grid order.
    """
    if len(lrs) < 1:
        raise ConfigError("learning-rate sweep needs at least one rate")
    rows = []
    for lr in lrs:
        run_cfg = replace(cfg, schedule=replace(cfg.schedule, eta_max=lr,
                                                eta_min=min(cfg.schedule.eta_min, lr)))
        model = build_model(unet_cfg, init_rng(cfg.seed))
        best = train(model, train_samples, val_samples, run_cfg).log.best_row()
        rows.append(SweepRow(lr=lr, val_miou=best.val_miou, val_pa=best.val_pa))
    return rows


def format_sweep_report(rows: Sequence[SweepRow]) -> str:
    lines = ["Learning Rate | mIoU | PA"]
    for r in rows:
        lines.append(f"{r.lr:.9g} | {100 * r.val_miou:.1f} | {100 * r.val_pa:.1f}")
    return "\n".join(lines) + "\n"


def sweep_report_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["learning_rate,miou,pa"]
    for r in rows:
        lines.append(f"{r.lr:.9g},{r.val_miou:.9g},{r.val_pa:.9g}")
    return "\n".join(lines) + "\n"
