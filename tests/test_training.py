import ctypes
import importlib
import math
import os
import platform
import subprocess
import sys
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from oracles import adam_reference_step

from conftest import DESK_SEED, desk_data, desk_train_settings, desk_unet_config, traced_rise_mib

from auseg.data import synth_generate
import auseg
from auseg import training, unet
from auseg.errors import ConfigError, ContractError, NumericError
from auseg.losses_metrics import LossConfig, combined_loss
from auseg.tensor import Tape, Tensor
from auseg.training import (AdamWState, CosineSchedule, EarlyStopper, TrainSettings,
                            adamw_step, cosine_lr, early_stop_check, evaluate,
                            format_sweep_report, init_rng, lr_sweep, train)
from auseg.unet import build_model, forward


def rng(seed=0):
    return np.random.default_rng(seed)


def make_params(seed=0, shapes=((3, 4), (5,))):
    r = rng(seed)
    return {f"p{i}": Tensor(r.normal(size=s), requires_grad=True) for i, s in enumerate(shapes)}


class TestAdamW:
    def test_zero_gradient_zero_decay_stationary(self):
        params = make_params(1)
        before = [p.data.copy() for p in params.values()]
        state = AdamWState.init(params, weight_decay=0.0)
        adamw_step(params, [np.zeros_like(p.data) for p in params.values()], state, lr=0.1)
        for p, b in zip(params.values(), before):
            assert np.array_equal(p.data, b)

    def test_pure_decay_exact(self):
        params = make_params(2)
        before = [p.data.copy() for p in params.values()]
        lam, lr = 0.03, 0.5
        state = AdamWState.init(params, weight_decay=lam)
        adamw_step(params, [np.zeros_like(p.data) for p in params.values()], state, lr=lr)
        for p, b in zip(params.values(), before):
            # one ulp of slack for the two evaluation orders of theta*(1 - lr*lam)
            assert np.max(np.abs(p.data - b * (1.0 - lr * lam))) < 1e-15

    def test_first_step_is_signed_unit_step(self):
        params = make_params(3)
        g = [np.full_like(p.data, 0.37) * np.sign(rng(4).normal(size=p.shape))
             for p in params.values()]
        before = [p.data.copy() for p in params.values()]
        lr = 1e-3
        state = AdamWState.init(params, weight_decay=0.0)
        adamw_step(params, g, state, lr=lr)
        for p, b, gi in zip(params.values(), before, g):
            update = p.data - b
            assert np.max(np.abs(update + lr * np.sign(gi))) < 1e-7

    def test_nan_grad_names_parameter(self):
        params = make_params(5)
        g = [np.zeros_like(p.data) for p in params.values()]
        g[1][0] = np.nan
        state = AdamWState.init(params, weight_decay=0.01)
        with pytest.raises(NumericError, match="p1"):
            adamw_step(params, g, state, lr=0.1)

    def test_bad_gradient_changes_no_state(self):
        # the NaN sits in the second parameter: the first must not have been updated
        params = make_params(5)
        state = AdamWState.init(params, weight_decay=0.01)
        adamw_step(params, [np.ones_like(p.data) for p in params.values()], state, lr=0.1)
        before = ({n: p.data.copy() for n, p in params.items()},
                  {n: a.copy() for n, a in state.m.items()},
                  {n: a.copy() for n, a in state.v.items()}, state.t)
        g = [np.ones_like(p.data) for p in params.values()]
        g[1][0] = np.nan
        with pytest.raises(NumericError, match="'p1'"):
            adamw_step(params, g, state, lr=0.1)
        after = ({n: p.data for n, p in params.items()}, state.m, state.v, state.t)
        for want, got in zip(before[:3], after[:3]):
            assert list(got) == list(want)
            assert all(np.array_equal(got[n], want[n]) for n in want)
        assert after[3] == before[3] == 1

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_inf_grad_names_parameter(self, bad):
        params = make_params(5, shapes=((3, 4), (5,), (2,)))
        g = [np.ones_like(p.data) for p in params.values()]
        g[1][3] = bad
        with pytest.raises(NumericError, match="'p1'"):
            adamw_step(params, g, AdamWState.init(params, weight_decay=0.01), lr=0.1)

    def test_huge_finite_grad_accepted(self):
        # its square overflows the sum of squares, but every entry is finite
        params = make_params(5)
        g = [np.zeros_like(p.data) for p in params.values()]
        g[0][1, 2] = 1e200
        with np.errstate(over="ignore"):
            assert np.vdot(g[0], g[0]) == np.inf
            # the second moment overflows too, which leaves a finite update
            adamw_step(params, g, AdamWState.init(params, weight_decay=0.01), lr=0.1)
        assert all(np.all(np.isfinite(p.data)) for p in params.values())

    @pytest.mark.parametrize("count", [1, 3])
    def test_gradient_count_must_match(self, count):
        # zip would stop at the shorter side: update some parameters, skip the rest
        params = make_params(8)
        before = [p.data.copy() for p in params.values()]
        state = AdamWState.init(params, weight_decay=0.01)
        with pytest.raises(ContractError, match=f"{count} gradients for 2 parameters"):
            adamw_step(params, [np.ones((3, 4)), np.ones(5), np.ones(2)][:count], state, lr=0.1)
        assert state.t == 0
        assert all(np.array_equal(p.data, b) for p, b in zip(params.values(), before))

    def test_lambda_zero_matches_adam_reference(self):
        r = rng(6)
        params = make_params(7, shapes=((4, 3),))
        state = AdamWState.init(params, weight_decay=0.0)
        theta = params["p0"].data.copy()
        m = np.zeros_like(theta)
        v = np.zeros_like(theta)
        for t in range(1, 6):
            g = r.normal(size=theta.shape)
            adamw_step(params, [g], state, lr=0.01)
            theta, m, v = adam_reference_step(theta, g, m, v, t, lr=0.01)
            assert np.max(np.abs(params["p0"].data - theta)) < 1e-15

    def test_in_place_update_bytes_match_expression(self):
        # the update runs in place; its bytes must equal the plain expression's
        shapes = ((8, 3, 3, 3), (8,), (2, 8, 1, 1), (5, 7))
        params = make_params(9, shapes=shapes)
        state = AdamWState.init(params, weight_decay=0.02)
        theta = {name: p.data.copy() for name, p in params.items()}
        m = {name: np.zeros_like(t) for name, t in theta.items()}
        v = {name: np.zeros_like(t) for name, t in theta.items()}
        b1, b2, eps, wd = 0.9, 0.999, 1e-8, 0.02
        r = rng(10)
        for t in range(1, 6):
            lr = 0.01 / t
            grads = [r.normal(scale=10.0 ** r.integers(-3, 2), size=p.shape)
                     for p in params.values()]
            adamw_step(params, grads, state, lr=lr)
            bc1, bc2 = 1.0 - b1 ** t, 1.0 - b2 ** t
            for (name, p), g in zip(params.items(), grads):
                m[name] = m[name] * b1 + (1.0 - b1) * g
                v[name] = v[name] * b2 + (1.0 - b2) * g * g
                m_hat = m[name] / bc1
                v_hat = v[name] / bc2
                theta[name] = theta[name] - lr * (m_hat / (np.sqrt(v_hat) + eps)
                                                  + wd * theta[name])
                assert p.data.tobytes() == theta[name].tobytes()
                assert state.m[name].tobytes() == m[name].tobytes()
                assert state.v[name].tobytes() == v[name].tobytes()

    def test_moment_shapes_mirror_params(self):
        params = make_params(8)
        state = AdamWState.init(params, weight_decay=0.01)
        for name, p in params.items():
            assert state.m[name].shape == p.shape
            assert state.v[name].shape == p.shape
            assert np.all(state.v[name] >= 0.0)


class TestCosine:
    def test_endpoints_exact(self):
        sched = CosineSchedule(eta_max=5e-4, eta_min=1e-6, total_epochs=100)
        assert abs(cosine_lr(sched, 0) - 5e-4) < 1e-15
        assert abs(cosine_lr(sched, 100) - 1e-6) < 1e-15

    def test_midpoint(self):
        sched = CosineSchedule(eta_max=4e-3, eta_min=2e-3, total_epochs=10)
        assert abs(cosine_lr(sched, 5) - 3e-3) < 1e-15

    def test_clamps_past_total(self):
        sched = CosineSchedule(eta_max=1e-3, eta_min=1e-6, total_epochs=10)
        assert cosine_lr(sched, 11) == 1e-6
        assert cosine_lr(sched, 1000) == 1e-6

    def test_monotone_non_increasing(self):
        sched = CosineSchedule(eta_max=1e-2, eta_min=1e-5, total_epochs=50)
        values = [cosine_lr(sched, e) for e in range(51)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_invalid_bounds(self):
        with pytest.raises(ConfigError):
            CosineSchedule(eta_max=1e-6, eta_min=1e-3, total_epochs=5)


class TestEarlyStopper:
    def test_strictly_decreasing_never_stops(self):
        stopper = EarlyStopper(patience=2, min_delta=1e-4)
        for loss in np.linspace(1.0, 0.1, 50):
            assert not early_stop_check(stopper, float(loss))

    def test_constant_loss_patience_three(self):
        stopper = EarlyStopper(patience=3, min_delta=1e-4)
        assert not early_stop_check(stopper, 1.0)  # first call improves on inf
        results = [early_stop_check(stopper, 1.0) for _ in range(4)]
        assert results == [False, False, False, True]

    def test_exact_min_delta_counts_as_non_improvement(self):
        stopper = EarlyStopper(patience=0, min_delta=0.1)
        assert not early_stop_check(stopper, 1.0)
        # improvement by exactly min_delta is NOT an improvement (strict <)
        assert early_stop_check(stopper, 0.9)

    def test_improvement_resets_counter(self):
        stopper = EarlyStopper(patience=2, min_delta=1e-4)
        early_stop_check(stopper, 1.0)
        early_stop_check(stopper, 1.0)
        assert stopper.since_improvement == 1
        early_stop_check(stopper, 0.5)
        assert stopper.since_improvement == 0

    def test_non_finite_rejected(self):
        with pytest.raises(NumericError):
            early_stop_check(EarlyStopper(patience=10, min_delta=1e-4), float("nan"))


def tiny_setup(seed=7, attention=True, epochs=3, dropout=0.1):
    train_s = synth_generate(8, 16, 16, 3, rng(50))
    val_s = synth_generate(4, 16, 16, 3, rng(51))
    cfg = desk_unet_config(attention)
    cfg = type(cfg)(**{**cfg.__dict__, "depth": 1, "base_channels": 4,
                       "dropout_rate": dropout})
    model = build_model(cfg, init_rng(seed))
    settings = TrainSettings(epochs=epochs, batch_size=4, seed=seed, loss=LossConfig(),
                             schedule=CosineSchedule(eta_max=1e-3, eta_min=1e-6,
                                                     total_epochs=epochs),
                             patience=10, flip_p=0.5, jitter_delta=0.05)
    return model, train_s, val_s, settings


class TestTrainLoop:
    def test_one_epoch_smoke(self):
        model, train_s, val_s, settings = tiny_setup(epochs=1)
        result = train(model, train_s, val_s, settings)
        row = result.log.rows[0]
        assert math.isfinite(row.train_loss) and row.train_loss > 0.0
        assert math.isfinite(row.val_loss)
        assert 0.0 <= row.val_miou <= 1.0 and 0.0 <= row.val_pa <= 1.0

    def test_deterministic_replay(self):
        logs = []
        finals = []
        for _ in range(2):
            model, train_s, val_s, settings = tiny_setup(epochs=2)
            result = train(model, train_s, val_s, settings)
            logs.append([(r.epoch, r.train_loss, r.val_loss, r.lr, r.val_miou, r.val_pa)
                         for r in result.log.rows])
            finals.append({n: a.tobytes() for n, a in model.state_arrays().items()})
        assert logs[0] == logs[1]
        assert finals[0] == finals[1]

    def test_lr_column_matches_schedule(self):
        model, train_s, val_s, settings = tiny_setup(epochs=3)
        result = train(model, train_s, val_s, settings)
        for row in result.log.rows:
            assert row.lr == cosine_lr(settings.schedule, row.epoch)

    def test_best_checkpoint_property(self):
        model, train_s, val_s, settings = tiny_setup(epochs=3)
        result = train(model, train_s, val_s, settings)
        best = result.log.best_row()
        assert best.val_loss == min(r.val_loss for r in result.log.rows)
        # re-evaluating the snapshot reproduces the logged numbers exactly
        model.load_state_arrays(result.best_state)
        val_loss, cm = evaluate(model, val_s, settings.loss, settings.batch_size)
        assert val_loss == best.val_loss

    def test_early_stop_truncates_run(self):
        model, train_s, val_s, settings = tiny_setup(epochs=50)
        settings.patience = 0
        settings.min_delta = 1e9  # nothing counts as improvement after the first epoch
        result = train(model, train_s, val_s, settings)
        assert len(result.log.rows) == 2

    def test_step_state_released_before_evaluate(self, monkeypatch, no_gc):
        # evaluate runs with no gradients and no activation of the last step alive,
        # and best_state is copied on improving epochs only
        model, train_s, val_s, settings = tiny_setup(epochs=4)
        loss_fn, backward_fn = training.combined_loss, training.backward
        evaluate_fn = training.evaluate
        state_fn = model.state_arrays
        logits_refs, grad_refs, checks, snapshots = [], [], [], []

        def loss_probe(logits, *args, **kwargs):
            logits_refs.append(weakref.ref(logits.data))
            return loss_fn(logits, *args, **kwargs)

        def backward_probe(*args, **kwargs):
            grads = backward_fn(*args, **kwargs)
            grad_refs.append({n: weakref.ref(g) for n, g in grads.items()})
            return grads

        def evaluate_probe(*args, **kwargs):
            assert list(grad_refs[-1]) == list(model.params)
            checks.append(([n for n, ref in grad_refs[-1].items() if ref() is not None],
                           logits_refs[-1]() is None))
            return evaluate_fn(*args, **kwargs)

        def state_probe():
            snapshots.append(None)
            return state_fn()

        monkeypatch.setattr(training, "combined_loss", loss_probe)
        monkeypatch.setattr(training, "backward", backward_probe)
        monkeypatch.setattr(training, "evaluate", evaluate_probe)
        monkeypatch.setattr(model, "state_arrays", state_probe)
        result = train(model, train_s, val_s, settings)
        assert checks == [([], True)] * len(result.log.rows)
        vals = [r.val_loss for r in result.log.rows]
        improving = sum(v < min(vals[:i], default=math.inf) for i, v in enumerate(vals))
        assert len(snapshots) == improving

    def test_empty_split_rejected(self):
        model, train_s, val_s, settings = tiny_setup()
        with pytest.raises(ConfigError):
            train(model, [], val_s, settings)

    def test_log_rows_strictly_increasing(self):
        model, train_s, val_s, settings = tiny_setup(epochs=3)
        result = train(model, train_s, val_s, settings)
        epochs = [r.epoch for r in result.log.rows]
        assert epochs == sorted(set(epochs))


class TestNonFiniteParameter:
    """One NaN kernel entry must stop training, not leave a dead channel behind."""

    def test_desk_step_raises(self):
        train_s, _ = desk_data()
        model = build_model(desk_unet_config(), init_rng(DESK_SEED))
        model.params["enc0.conv1.kernel"].data[0, 0, 1, 1] = np.nan
        images = Tensor(np.stack([s.image for s in train_s[:8]]))
        labels = np.stack([s.label for s in train_s[:8]])
        with Tape():
            logits = forward(model, images, training=True, rng=rng(0))
            # conv2d's relu passes the NaN channel on, so it reaches the logits
            assert np.isnan(logits.data).any()
            with pytest.raises(NumericError):
                combined_loss(logits, labels, LossConfig())

    def test_train_stops_before_first_epoch(self):
        model, train_s, val_s, settings = tiny_setup(epochs=2)
        model.params["enc0.conv1.kernel"].data[0, 0, 1, 1] = np.nan
        lines = []
        with pytest.raises(NumericError):
            train(model, train_s, val_s, settings, log_line=lines.append)
        assert lines == []


class TestSweep:
    def test_single_lr_matches_standalone(self):
        _, train_s, val_s, settings = tiny_setup(epochs=2)
        cfg = desk_unet_config()
        cfg = type(cfg)(**{**cfg.__dict__, "depth": 1, "base_channels": 4,
                           "dropout_rate": 0.1})
        rows = lr_sweep(cfg, train_s, val_s, settings, [settings.schedule.eta_max])

        model = build_model(cfg, init_rng(settings.seed))
        result = train(model, train_s, val_s, settings)
        model.load_state_arrays(result.best_state)
        _, cm = evaluate(model, val_s, settings.loss, settings.batch_size)
        from auseg.losses_metrics import miou, pixel_accuracy
        assert rows[0].val_miou == miou(cm)
        assert rows[0].val_pa == pixel_accuracy(cm)

    def test_report_columns(self):
        _, train_s, val_s, settings = tiny_setup(epochs=1)
        cfg = desk_unet_config()
        cfg = type(cfg)(**{**cfg.__dict__, "depth": 1, "base_channels": 4})
        rows = lr_sweep(cfg, train_s, val_s, settings, [2e-3, 5e-4])
        report = format_sweep_report(rows)
        lines = report.strip().splitlines()
        assert lines[0] == "Learning Rate | mIoU | PA"
        assert len(lines) == 3
        assert lines[1].startswith("0.002 | ")

    def test_grid_order_preserved(self):
        _, train_s, val_s, settings = tiny_setup(epochs=1)
        cfg = desk_unet_config()
        cfg = type(cfg)(**{**cfg.__dict__, "depth": 1, "base_channels": 4})
        grid = [5e-3, 5e-4]
        rows = lr_sweep(cfg, train_s, val_s, settings, grid)
        assert [r.lr for r in rows] == grid


# One desk-config training step (8 images, batch 8) plus a one-image validation
# pass; prints the loss bytes and a digest of every parameter's bytes. Then one
# batch-1 forward of a depth-4, base-16 model on a 64x64 image (the GEMM shapes
# of a predict request); prints a digest of the logits' bytes. Then one batch-2
# backward of that model (input gradients up to [C, O*9] @ [O*9, 4096] per
# sample); prints a digest of its parameter gradients' bytes.
_THREAD_STEP = """
import hashlib
from dataclasses import replace
import numpy as np
from conftest import desk_train_settings, desk_unet_config, rng
from auseg.data import synth_generate
from auseg.losses_metrics import LossConfig, combined_loss
from auseg.tensor import Tape, Tensor, backward
from auseg.training import init_rng, train
from auseg.unet import build_model, forward
settings = replace(desk_train_settings(), epochs=1)
model = build_model(desk_unet_config(), init_rng(settings.seed))
result = train(model, synth_generate(8, 32, 32, 3, rng(100)),
               synth_generate(1, 32, 32, 3, rng(200)), settings)
digest = hashlib.sha256()
for _, p in sorted(model.params.items()):
    digest.update(p.data.tobytes())
row = result.log.rows[0]
cfg = replace(desk_unet_config(), num_classes=19, depth=4, base_channels=16)
image = synth_generate(1, 64, 64, 19, rng(300))[0].image
mid = build_model(cfg, init_rng(1))
logits = forward(mid, Tensor(image[None]))
quad = synth_generate(4, 64, 64, 19, rng(500))
batch = forward(mid, Tensor(np.stack([s.image for s in quad])))    # batch > 1, many bands
pair = synth_generate(2, 64, 64, 19, rng(400))
with Tape() as tape:
    out = forward(mid, Tensor(np.stack([s.image for s in pair])))
    grad_arrays = backward(tape, combined_loss(out, np.stack([s.label for s in pair]),
                                               LossConfig()), mid.params)
grads = hashlib.sha256()
for _, g in sorted(grad_arrays.items()):
    grads.update(g.tobytes())
print(row.train_loss.hex(), row.val_loss.hex(), digest.hexdigest(),
      hashlib.sha256(logits.data.tobytes()).hexdigest(),
      hashlib.sha256(batch.data.tobytes()).hexdigest(), grads.hexdigest())
"""


def test_train_step_bytes_independent_of_blas_threads():
    # every convolution is a BLAS matmul, so the thread count must not leak into results
    paths = [str(Path(auseg.__file__).parents[1]), str(Path(__file__).parent)]
    outputs = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(paths)}
        done = subprocess.run([sys.executable, "-c", _THREAD_STEP], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout.split())
    assert len(outputs[0]) == 6
    assert outputs[0] == outputs[1]


# Prints minor page faults per call of the given ops, each after 2 warm-up
# calls and counted over 3, in a fresh process.
_FAULTS_PER_CALL = """
import resource
import numpy as np

def faults_per_call(fn):
    for _ in range(2):
        fn()
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(3):
        fn()
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 3
"""
# a desk-config training step (batch 8) and a batch-1 predict of the default model at 64x64
_FAULT_STEP = _FAULTS_PER_CALL + """
from conftest import desk_train_settings, desk_unet_config, rng
from auseg import training, unet
from auseg.data import synth_generate
from auseg.tensor import Tensor
from auseg.training import AdamWState, init_rng
from auseg.unet import build_model

settings = desk_train_settings()
model = build_model(desk_unet_config(), init_rng(settings.seed))
batch = synth_generate(8, 32, 32, 3, rng(100))
images = Tensor(np.stack([s.image for s in batch]))
labels = np.stack([s.label for s in batch])
state = AdamWState.init(model.params, weight_decay=settings.weight_decay)
dropout_rng = rng(2)
mid = build_model(unet.UnetConfig(), init_rng(1))
x = Tensor(synth_generate(1, 64, 64, 19, rng(300))[0].image[None])
print(faults_per_call(lambda: training._train_step(model, images, labels, settings, dropout_rng,
                                                   state, 1e-3, "step")),
      faults_per_call(lambda: unet.predict_labels(mid, x)))
"""
# an 8 MiB array filled and freed right after import
_FAULT_ARRAY = _FAULTS_PER_CALL + """
import auseg
print(faults_per_call(lambda: np.ones(1 << 20).sum()))
"""


def _faults_in_fresh_process(script: str) -> list:
    paths = [str(Path(auseg.__file__).parents[1]), str(Path(__file__).parent)]
    done = subprocess.run([sys.executable, "-c", script],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(paths)},
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return [float(f) for f in done.stdout.split()]


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap pad is set in glibc only")
def test_steady_steps_do_not_refault_freed_heap():
    # a step frees and reallocates arrays of the same shapes; if the C library gave
    # that heap back, each step would fault it in again (about 2,000 pages each)
    step, predict = _faults_in_fresh_process(_FAULT_STEP)
    assert step <= 50 and predict <= 50, (step, predict)
    # an array above glibc's mmap threshold at import, which the heap top cannot yet
    # hold, would be mmapped and refaulted on every call (about 500 pages) if the
    # pad had left the threshold there
    array, = _faults_in_fresh_process(_FAULT_ARRAY)
    assert array <= 50, array


def test_package_imports_without_mallopt(monkeypatch):
    # a C library other than glibc may have no mallopt: the heap pad is then skipped
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    importlib.reload(auseg)
    assert auseg.predict_labels is unet.predict_labels


def test_inference_traced_peaks():
    # each conv holds one sample's padded input and one column band, the loss one
    # softmax-sized buffer, and no activation outlives its last use (about 11 and 3.6 MiB);
    # whole-batch padded copies and whole-sample im2col matrices rose about 23.5 and 12.5
    model = build_model(unet.UnetConfig(), init_rng(1))
    samples = synth_generate(4, 64, 64, 19, rng(60))
    x = Tensor(samples[0].image[None])
    assert traced_rise_mib(lambda: evaluate(model, samples, LossConfig(), 4)) <= 16
    assert traced_rise_mib(lambda: unet.predict_labels(model, x)) <= 6


def test_instrumented_calling_conventions(monkeypatch):
    # a profiler that wraps the convolutions as fn(x, p), reading p.kernel.shape, and
    # probes adamw_step's gradients as a sequence of arrays in parameter order
    # (perfbench's traced and probed runs) sees one desk-config step through
    settings = replace(desk_train_settings(), epochs=1)
    model = build_model(desk_unet_config(), init_rng(settings.seed))
    calls, squares = [], []

    def two_argument(name, fn):
        def wrapper(x, p):
            calls.append((name, p.kernel.shape))
            return fn(x, p)
        return wrapper

    step_fn = training.adamw_step

    def step_probe(params, grads, state, lr):
        squares.append([float(np.vdot(g, g)) for g in grads])
        return step_fn(params, grads, state, lr)

    for name in ("conv2d", "transposed_conv2d"):
        monkeypatch.setattr(unet, name, two_argument(name, getattr(unet, name)))
    monkeypatch.setattr(training, "adamw_step", step_probe)
    train(model, synth_generate(8, 32, 32, 3, rng(100)), synth_generate(1, 32, 32, 3, rng(200)),
          settings)
    # one training forward and one validation forward, depth 2: 11 convs, 2 up-convs each
    assert [name for name, _ in calls].count("conv2d") == 22
    assert [name for name, _ in calls].count("transposed_conv2d") == 4
    assert calls[0] == ("conv2d", model.params["enc0.conv1.kernel"].shape)
    assert len(squares) == 1 and len(squares[0]) == len(model.params)
    assert all(math.isfinite(s) and s > 0 for s in squares[0])
