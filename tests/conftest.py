import gc
import sys
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from auseg import attention, losses_metrics, nn_ops
from auseg.data import Sample, synth_generate
from auseg.losses_metrics import LossConfig
from auseg.tensor import Tensor, record_op
from auseg.training import CosineSchedule, TrainLog, TrainResult, TrainSettings, init_rng, train
from auseg.unet import UnetConfig, UnetModel, build_model


def rng(seed: int = 0) -> np.random.Generator:
    return np.random.default_rng(seed)


@pytest.fixture
def no_gc():
    """Cycle collection off: what the test sees freed, reference counting freed."""
    gc.disable()
    yield
    gc.enable()


def dot(y: Tensor, g) -> Tensor:
    """The scalar <g, y> as one node; its backward is s * g, so g reaches y unchanged."""
    g = np.broadcast_to(np.asarray(g, dtype=np.float64), y.shape)
    return record_op("dot", (y,), np.vdot(g, y.data), lambda s: (s * g,))


def sum_sq(y: Tensor) -> Tensor:
    """The scalar sum(y * y) as one node, with backward s * 2y."""
    return record_op("sum_sq", (y,), np.vdot(y.data, y.data), lambda s: (s * 2.0 * y.data,))


def traced_rise_mib(fn) -> float:
    """How far traced memory rises above its level at the call, in MiB."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return (tracemalloc.get_traced_memory()[1] - base) / 2 ** 20
    finally:
        tracemalloc.stop()


def spy_record_op(monkeypatch, seen) -> None:
    """Route every model op's ``record_op`` through a wrapper that calls
    ``seen(op, inputs, out)`` with each output Tensor, recorded on a tape or not."""
    def spy(op, inputs, out_data, backward):
        out = record_op(op, inputs, out_data, backward)
        seen(op, inputs, out)
        return out

    for module in (nn_ops, attention, losses_metrics):
        monkeypatch.setattr(module, "record_op", spy)


def _uniform(r: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> Tensor:
    s = 1.0 / np.sqrt(fan_in)
    return Tensor(r.uniform(-s, s, size=shape), requires_grad=True)


def channel_gate(channels: int, ratio: int, r: np.random.Generator) -> tuple[Tensor, Tensor]:
    """w1 [C/r, C] and w2 [C, C/r] of an attention gate, drawn as ``build_model`` draws them."""
    reduced = channels // ratio
    return _uniform(r, (reduced, channels), channels), _uniform(r, (channels, reduced), reduced)


def spatial_gate(k: int, r: np.random.Generator) -> tuple[Tensor, Tensor]:
    """The spatial gate's kernel [1, 2, k, k], drawn as ``build_model`` draws it, and zero bias."""
    return _uniform(r, (1, 2, k, k), 2 * k * k), Tensor(np.zeros(1), requires_grad=True)


def gate_tensors(channels: int, ratio: int, k: int, r: np.random.Generator) -> tuple[Tensor, ...]:
    """w1, w2, kernel and bias for ``hybrid_attention_block``, channel gate drawn first."""
    return channel_gate(channels, ratio, r) + spatial_gate(k, r)


# ---------------------------------------------------------------------------
# The desk-scale acceptance runs: 3 classes at 32x32, 64 train / 16 val,
# everything seed-fixed. The hyperparameters below are the frozen fixture
# confirmed by the first verified training run.

DESK_SEED = 7
DESK_TRAIN_SEED = 100
DESK_VAL_SEED = 200
DESK_LR = 3e-3


def desk_unet_config(attention: bool = True) -> UnetConfig:
    return UnetConfig(in_channels=3, num_classes=3, depth=2, base_channels=8,
                      attention_enabled=attention, reduction_ratio=4, spatial_kernel=7,
                      dropout_rate=0.0, attention_composition="parallel")


def desk_train_settings() -> TrainSettings:
    return TrainSettings(epochs=30, batch_size=8, seed=DESK_SEED, loss=LossConfig(),
                         schedule=CosineSchedule(eta_max=DESK_LR, eta_min=1e-6,
                                                 total_epochs=30),
                         weight_decay=0.01, patience=30, min_delta=1e-4,
                         flip_p=0.5, jitter_delta=0.02, crop_h=0, crop_w=0)


def desk_data() -> tuple[list[Sample], list[Sample]]:
    return (synth_generate(64, 32, 32, 3, rng(DESK_TRAIN_SEED)),
            synth_generate(16, 32, 32, 3, rng(DESK_VAL_SEED)))


@dataclass
class DeskRun:
    model: UnetModel
    result: TrainResult
    log: TrainLog
    seconds: float
    train_samples: list[Sample]
    val_samples: list[Sample]


def _run_desk(attention: bool) -> DeskRun:
    import time

    train_s, val_s = desk_data()
    model = build_model(desk_unet_config(attention), init_rng(DESK_SEED))
    started = time.perf_counter()
    result = train(model, train_s, val_s, desk_train_settings())
    elapsed = time.perf_counter() - started
    return DeskRun(model=model, result=result, log=result.log, seconds=elapsed,
                   train_samples=train_s, val_samples=val_s)


@pytest.fixture(scope="session")
def desk_run() -> DeskRun:
    """Attention-enabled training on the synthetic desk task (shared, ~70s)."""
    return _run_desk(attention=True)


@pytest.fixture(scope="session")
def desk_run_plain() -> DeskRun:
    """Same data and seed with attention disabled (the ablation twin)."""
    return _run_desk(attention=False)
