"""The benchmark's three workloads, their inputs and their output checks.

Every workload is a closed loop with one caller. Inputs come from the
workload seed through ``synth_generate`` (and, for infer, files written in
set-up), so the same seed gives the same inputs. Episodes repeat identical
work: each trains a fresh model on the same data, or serves the same files,
so every episode must give the same outputs as the first one.

A separate reference case, made from ``REFERENCE_SEED`` whatever the workload
seed, runs once per process before the timed window (it is also the warm-up)
and is compared with outputs recorded in ``reference.json``.
"""
from __future__ import annotations

import base64
import math
import zlib
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from auseg import checkpoint, data, losses_metrics, runconfig, tensor, training, unet
from tracing import REQUEST

REFERENCE_SEED = 0
# Tolerance on losses and gradient norms, relative to the larger of the value
# and FLOOR times the largest value of the case (some gradients are pure
# round-off). Reordered float sums move values by ~1e-12; a wrong or rescaled
# gradient moves some of them by far more than 1e-6.
RTOL = 1e-6
FLOOR = 1e-3
# Share of predicted pixels allowed to differ: argmax flips only at near-ties.
LABEL_TOL = 1e-3


@dataclass(frozen=True)
class TrainConfig:
    """A ``training.train`` episode on synthetic scenes."""

    classes: int
    size: int
    train_n: int
    val_n: int
    depth: int
    base: int
    dropout: float
    batch: int
    epochs: int
    eta_max: float
    flip: float
    jitter: float

    def unet_config(self) -> unet.UnetConfig:
        return unet.UnetConfig(in_channels=3, num_classes=self.classes, depth=self.depth,
                               base_channels=self.base, attention_enabled=True,
                               reduction_ratio=4, spatial_kernel=7,
                               dropout_rate=self.dropout, attention_composition="parallel")

    def settings(self, seed: int) -> training.TrainSettings:
        return training.TrainSettings(
            epochs=self.epochs, batch_size=self.batch, seed=seed,
            loss=losses_metrics.LossConfig(),
            schedule=training.CosineSchedule(eta_max=self.eta_max, eta_min=1e-6,
                                             total_epochs=30),
            weight_decay=0.01, patience=30, min_delta=1e-4,
            flip_p=self.flip, jitter_delta=self.jitter)


@dataclass(frozen=True)
class InferConfig:
    """A checkpoint, a val split and single-image requests, all on disk."""

    classes: int
    size: int
    depth: int
    base: int
    val_n: int
    requests: int
    batch: int

    def run_config(self, seed: int) -> runconfig.RunConfig:
        return runconfig.RunConfig(seed=seed, batch_size=self.batch, num_classes=self.classes,
                                   depth=self.depth, base_channels=self.base)


# desk-train is the acceptance config (tests/conftest.py): depth 2, base 8,
# 3 classes at 32x32, batch 8, no dropout, flip 0.5, jitter 0.02, lr 3e-3.
DESK = TrainConfig(classes=3, size=32, train_n=64, val_n=16, depth=2, base=8, dropout=0.0,
                   batch=8, epochs=2, eta_max=3e-3, flip=0.5, jitter=0.02)
# mid-train is the default model (depth 4, base 16, 19 classes, dropout 0.1)
# at 64x64, batch 4: one epoch of two steps plus one validation batch.
MID = TrainConfig(classes=19, size=64, train_n=8, val_n=4, depth=4, base=16, dropout=0.1,
                  batch=4, epochs=1, eta_max=5e-4, flip=0.5, jitter=0.1)
# infer serves the mid architecture: eval at batch 4, then requests at batch 1;
# a 25 s window holds at least three passes (102 requests, for the p90) while
# a request takes under 0.3 s.
INFER = InferConfig(classes=19, size=64, depth=4, base=16, val_n=8, requests=34, batch=4)

# The same code paths at a size the smoke test can afford.
TINY = {
    "desk-train": TrainConfig(classes=3, size=16, train_n=8, val_n=4, depth=2, base=8,
                              dropout=0.0, batch=4, epochs=1, eta_max=3e-3, flip=0.5,
                              jitter=0.02),
    "mid-train": TrainConfig(classes=19, size=16, train_n=4, val_n=2, depth=4, base=4,
                             dropout=0.1, batch=2, epochs=1, eta_max=5e-4, flip=0.5,
                             jitter=0.1),
    "infer": InferConfig(classes=19, size=16, depth=4, base=4, val_n=2, requests=4, batch=2),
}
FULL = {"desk-train": DESK, "mid-train": MID, "infer": INFER}


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


class Failure(Exception):
    """An output check that did not hold."""


def _close(got: list[float], want: list[float], what: str) -> None:
    if len(got) != len(want):
        raise Failure(f"{what}: {len(got)} values, expected {len(want)}")
    floor = FLOOR * max((abs(w) for w in want), default=0.0)
    for i, (g, w) in enumerate(zip(got, want)):
        if not math.isfinite(g) or abs(g - w) > RTOL * max(abs(w), floor):
            raise Failure(f"{what}[{i}] = {g!r}, expected {w!r} (rtol {RTOL})")


def _labels_close(got: list[np.ndarray], want: list[np.ndarray], what: str) -> None:
    if len(got) != len(want):
        raise Failure(f"{what}: {len(got)} label maps, expected {len(want)}")
    for i, (g, w) in enumerate(zip(got, want)):
        if g.shape != w.shape:
            raise Failure(f"{what}[{i}]: shape {g.shape}, expected {w.shape}")
        share = float(np.mean(g != w))
        if share > LABEL_TOL:
            raise Failure(f"{what}[{i}]: {share:.2%} of pixels differ (tolerance {LABEL_TOL})")


def _pack(labels: np.ndarray) -> str:
    raw = labels.astype(np.uint8).tobytes()
    return base64.b64encode(zlib.compress(raw, 9)).decode("ascii")


def _unpack(text: str, shape) -> np.ndarray:
    raw = zlib.decompress(base64.b64decode(text))
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape).astype(np.int64)


@dataclass
class Outputs:
    """What an episode produced: loss-like values and predicted label maps."""

    values: list[float]
    labels: list[np.ndarray]

    def check_finite(self) -> None:
        bad = [i for i, v in enumerate(self.values) if not math.isfinite(v)]
        if bad:
            raise Failure(f"non-finite outputs at {bad}")

    def check_same(self, first: "Outputs", what: str) -> None:
        _close(self.values, first.values, what)
        _labels_close(self.labels, first.labels, what)

    def to_json(self) -> dict:
        return {"values": self.values, "labels": [_pack(x) for x in self.labels],
                "label_shapes": [list(x.shape) for x in self.labels]}

    @classmethod
    def from_json(cls, obj: dict) -> "Outputs":
        return cls(values=list(obj["values"]),
                   labels=[_unpack(t, s) for t, s in zip(obj["labels"], obj["label_shapes"])])


class Workload:
    """A named config; ``setup`` makes inputs from a seed, ``episode`` uses them."""

    unit = ""

    def __init__(self, name: str, cfg):
        self.name = name
        self.cfg = cfg

    def describe(self) -> dict:
        return asdict(self.cfg)

    def probed_episode(self, inputs: dict, tracer) -> Outputs:
        """An episode whose outputs are compared with the recorded reference."""
        return self.episode(inputs, tracer)


class TrainWorkload(Workload):
    """Train a fresh model for ``epochs`` with validation every epoch."""

    unit = "step"

    def setup(self, seed: int, scratch: Path) -> dict:
        cfg = self.cfg
        train_s = data.synth_generate(cfg.train_n, cfg.size, cfg.size, cfg.classes,
                                      _rng(seed, 1))
        val_s = data.synth_generate(cfg.val_n, cfg.size, cfg.size, cfg.classes, _rng(seed, 2))
        model = unet.build_model(cfg.unet_config(), training.init_rng(seed))
        return {"seed": seed, "train": train_s, "val": val_s, "model": model,
                "initial": model.state_arrays()}

    def episode(self, inputs: dict, tracer) -> Outputs:
        """Train from the initial weights."""
        seed, model = inputs["seed"], inputs["model"]
        # copies: load_state_arrays keeps the arrays it is given, and AdamW
        # updates them in place
        model.load_state_arrays({k: v.copy() for k, v in inputs["initial"].items()})
        result = training.train(model, inputs["train"], inputs["val"], self.cfg.settings(seed))
        values = [v for row in result.log.rows for v in (row.train_loss, row.val_loss)]
        return Outputs(values=values, labels=[])

    def probed_episode(self, inputs: dict, tracer) -> Outputs:
        """An episode that also records every loss, each step's gradient norm
        and, at the first step, every parameter's gradient norm (the global
        norm is dominated by biases, and AdamW hides a rescaled gradient)."""
        losses: list[float] = []
        norms: list[float] = []
        loss_fn, step_fn = training.combined_loss, training.adamw_step

        def loss_probe(*args, **kwargs):
            out = loss_fn(*args, **kwargs)
            losses.append(out.item())
            return out

        def step_probe(params, grads, state, lr):
            squares = [float(np.vdot(g, g)) for g in grads]
            if not norms:
                norms.extend(math.sqrt(x) for x in squares)
            norms.append(math.sqrt(sum(squares)))
            return step_fn(params, grads, state, lr)

        training.combined_loss, training.adamw_step = loss_probe, step_probe
        try:
            outputs = self.episode(inputs, tracer)
        finally:
            training.combined_loss, training.adamw_step = loss_fn, step_fn
        return Outputs(values=outputs.values + losses + norms, labels=[])


class InferWorkload(Workload):
    """Load a checkpoint, evaluate the val split, then serve single-image requests."""

    unit = "pass"

    def setup(self, seed: int, scratch: Path) -> dict:
        cfg = self.cfg
        root = scratch / f"infer-{seed}"
        val = data.synth_generate(cfg.val_n, cfg.size, cfg.size, cfg.classes, _rng(seed, 2),
                                  id_prefix="val")
        for sample in val:
            data.save_sample(root / "val", sample)
        requests = data.synth_generate(cfg.requests, cfg.size, cfg.size, cfg.classes,
                                       _rng(seed, 3), id_prefix="req")
        for sample in requests:
            data.save_sample(root / "requests", sample)
        run_cfg = cfg.run_config(seed)
        model = unet.build_model(run_cfg.unet_config(), training.init_rng(seed))
        ckpt = root / "model.ckpt"
        checkpoint.save_checkpoint(ckpt, run_cfg.resolved_text(), model.state_arrays())
        paths = sorted((root / "requests").glob(f"*{data.IMG_SUFFIX}"))
        return {"seed": seed, "root": root, "ckpt": ckpt, "requests": paths}

    def episode(self, inputs: dict, tracer) -> Outputs:
        """One pass: load the checkpoint, evaluate, serve every request."""
        config_text, params = checkpoint.load_checkpoint(inputs["ckpt"])
        cfg = runconfig.parse_config_text(config_text)
        model = unet.build_model(cfg.unet_config(), training.init_rng(cfg.seed))
        model.load_state_arrays(params)
        spec = data.DatasetSpec(root=inputs["root"], split="val", num_classes=cfg.num_classes,
                                ignore_index=cfg.ignore_index)
        samples = data.load_split(spec)
        val_loss, _ = training.evaluate(model, samples, cfg.loss_config(), cfg.batch_size)
        labels = []
        for path in inputs["requests"]:
            with tracer.span(REQUEST):
                rgb = data.read_ppm(path)
                x = tensor.Tensor(rgb.astype(np.float64).transpose(2, 0, 1)[None] / 255.0)
                pred = unet.predict_labels(model, x)[0]
            if pred.min() < 0 or pred.max() >= cfg.num_classes:
                raise Failure(f"{path.name}: predicted class outside [0, {cfg.num_classes})")
            labels.append(pred)
        return Outputs(values=[val_loss], labels=labels)


def make(name: str, tiny: bool):
    cfg = (TINY if tiny else FULL)[name]
    if isinstance(cfg, InferConfig):
        return InferWorkload(name, cfg)
    return TrainWorkload(name, cfg)
