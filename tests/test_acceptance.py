"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s``. The desk-scale training
fixtures (attention + ablation twin) are session-scoped and shared.
"""
import math
import time

import numpy as np

from oracles import (adam_reference_step, formula_sigmoid, loop_channel_avg, loop_channel_max,
                     loop_confusion, loop_conv2d, loop_cross_entropy, loop_dice,
                     loop_global_avg_pool, loop_matmul, loop_maxpool2d, loop_miou,
                     loop_pixel_accuracy, loop_transposed_conv2d)

from conftest import desk_unet_config, gate_tensors

from auseg import attention
from auseg.attention import channel_attention, hybrid_attention_block, spatial_attention
from auseg.checkpoint import deserialize, save_checkpoint
from auseg.cli import main
from auseg.data import Sample, batch_iter, color_jitter, horizontal_flip, random_crop
from auseg.losses_metrics import (LossConfig, combined_loss, confusion_accumulate,
                                  format_eval_report, miou, pixel_accuracy)
from auseg.nn_ops import Conv2dParams, conv2d, maxpool2d, transposed_conv2d
from auseg.tensor import Tensor
from auseg.training import AdamWState, CosineSchedule, adamw_step, cosine_lr, evaluate, init_rng
from auseg.unet import build_model, forward
from auseg.verification import run_gradcheck_suite


def report(line: str) -> None:
    print(f"\n[ACCEPTANCE] {line}")


def test_c1_gradient_gate():
    started = time.perf_counter()
    results = run_gradcheck_suite(seed=0)
    elapsed = time.perf_counter() - started
    failures = [r.name for r in results if not r.passed]
    worst = max(r.worst_rel_err for r in results)
    ok = not failures and elapsed < 120.0
    report(f"C1 gradient gate: {'PASS' if ok else 'FAIL'} "
           f"(worst rel err {worst:.2e}, {len(results)} units x 3 seeds, {elapsed:.1f}s)")
    assert not failures, failures
    assert elapsed < 120.0


def test_c2_oracle_equivalence():
    r = np.random.default_rng(202)
    worst = 0.0
    instances = 100
    for _ in range(instances):
        n = int(r.integers(1, 3))
        c = int(r.integers(1, 4))
        o = int(r.integers(1, 4))
        h = int(r.integers(2, 4)) * 2
        w = int(r.integers(2, 4)) * 2
        x = r.uniform(-2, 2, size=(n, c, h, w))

        k = r.uniform(-2, 2, size=(o, c, 3, 3))
        b = r.uniform(-2, 2, size=o)
        got = conv2d(Tensor(x), Conv2dParams(Tensor(k), Tensor(b))).data
        worst = max(worst, float(np.max(np.abs(got - loop_conv2d(x, k, b, 1, 1)))))

        kt = r.uniform(-2, 2, size=(c, o, 2, 2))
        bt = r.uniform(-2, 2, size=o)
        got = transposed_conv2d(Tensor(x), Conv2dParams(Tensor(kt), Tensor(bt))).data
        worst = max(worst, float(np.max(np.abs(got - loop_transposed_conv2d(x, kt, bt, 2)))))

        got = maxpool2d(Tensor(x)).data
        worst = max(worst, float(np.max(np.abs(got - loop_maxpool2d(x, 2, 2)))))

        # channel gate: spatial mean -> bottleneck with relu -> sigmoid
        red = c // int(r.choice([d for d in (1, 2, 3) if c % d == 0]))
        w1, w2 = r.uniform(-2, 2, size=(red, c)), r.uniform(-2, 2, size=(c, red))
        got = channel_attention(x, w1, w2)
        hidden = np.maximum(loop_matmul(loop_global_avg_pool(x), w1.T), 0.0)
        want = formula_sigmoid(loop_matmul(hidden, w2.T))
        worst = max(worst, float(np.max(np.abs(got[:, :, 0, 0] - want))))
        # spatial gate: [channel-max, channel-avg] -> odd "same" conv -> sigmoid
        ks = int(r.choice([1, 3, 5, 7]))
        k_s, b_s = r.uniform(-2, 2, size=(1, 2, ks, ks)), r.uniform(-2, 2, size=1)
        got = spatial_attention(x, k_s, b_s)
        stacked = np.concatenate([loop_channel_max(x), loop_channel_avg(x)], axis=1)
        want = formula_sigmoid(loop_conv2d(stacked, k_s, b_s, 1, (ks - 1) // 2))
        worst = max(worst, float(np.max(np.abs(got - want))))

        kk = int(r.integers(2, 5))
        logits = r.normal(scale=2.0, size=(1, kk, 3, 4))
        y = r.integers(0, kk, size=(1, 3, 4))
        y[0, 0, 0] = 255  # exercise the ignore path
        # the two loss terms, each alone at an endpoint of alpha
        got_ce = combined_loss(Tensor(logits), y, LossConfig(alpha=1.0)).item()
        worst = max(worst, abs(got_ce - loop_cross_entropy(logits, y)))
        cfg = LossConfig(alpha=0.0)
        got_dice = combined_loss(Tensor(logits), y, cfg).item()
        worst = max(worst, abs(got_dice - loop_dice(logits, y, cfg.dice_smooth)))

        pred = r.integers(0, kk, size=(1, 3, 4))
        cm = np.zeros((kk, kk), dtype=np.int64)
        confusion_accumulate(cm, pred, y)
        ref = loop_confusion(pred, y, kk)
        assert np.array_equal(cm, ref)
        worst = max(worst, abs(miou(cm) - loop_miou(ref)))
        worst = max(worst, abs(pixel_accuracy(cm) - loop_pixel_accuracy(ref)))

    ok = worst < 1e-12
    report(f"C2 oracle equivalence: {'PASS' if ok else 'FAIL'} "
           f"(9 kernels x {instances} instances, worst abs diff {worst:.2e})")
    assert ok


def test_c3_gate_identity_and_attenuation(monkeypatch):
    att_model = build_model(desk_unet_config(True), init_rng(30))
    plain_model = build_model(desk_unet_config(False), init_rng(31))
    shared = {n: a for n, a in att_model.state_arrays().items() if not n.startswith("att")}
    plain_model.load_state_arrays(shared)
    x = Tensor(np.random.default_rng(32).uniform(0, 1, size=(2, 3, 32, 32)))
    plain = forward(plain_model, x)
    # both gates pinned to 1 inside the fused op
    with monkeypatch.context() as pin:
        pin.setattr(attention, "_sigmoid", np.ones_like)
        pinned = forward(att_model, x)
    bit_exact = pinned.data.tobytes() == plain.data.tobytes()

    attenuated = True
    r = np.random.default_rng(33)
    for _ in range(10):
        f = r.normal(scale=2.0, size=(1, 8, 6, 6))
        out = hybrid_attention_block(Tensor(f), *gate_tensors(8, 4, 3, r)).data
        attenuated &= bool(np.all(np.abs(out) <= np.abs(f)))

    ok = bit_exact and attenuated
    report(f"C3 gate identity/attenuation: {'PASS' if ok else 'FAIL'} "
           f"(pinned gates bit-exact: {bit_exact}, |F'|<=|F| on 10 random inputs: {attenuated})")
    assert bit_exact and attenuated


def test_c4_desk_scale_learnability(desk_run):
    best = desk_run.log.best_row()
    ok = (best.val_miou >= 0.90 and best.val_pa >= 0.95
          and len(desk_run.log.rows) <= 30 and desk_run.seconds < 900.0)
    report(f"C4 desk-scale learnability: {'PASS' if ok else 'FAIL'} "
           f"(val mIoU {best.val_miou:.4f} >= 0.90, PA {best.val_pa:.4f} >= 0.95, "
           f"{len(desk_run.log.rows)} epochs, {desk_run.seconds:.0f}s < 900s)")
    assert best.val_miou >= 0.90
    assert best.val_pa >= 0.95
    assert len(desk_run.log.rows) <= 30
    assert desk_run.seconds < 900.0


def test_c5_ablation_direction(desk_run, desk_run_plain):
    def converged(run):
        rows = run.log.rows
        return math.isfinite(rows[-1].val_loss) and rows[-1].val_loss < rows[0].val_loss / 2

    settings_loss = LossConfig()
    matrices = []
    for run in (desk_run, desk_run_plain):
        model = run.model
        model.load_state_arrays(run.result.best_state)
        _, cm = evaluate(model, run.val_samples, settings_loss, 8)
        matrices.append(cm)
    att_ok = converged(desk_run)
    plain_ok = converged(desk_run_plain)
    report("C5 ablation direction: "
           f"{'PASS' if att_ok and plain_ok else 'FAIL'} (both converged; "
           f"attention mIoU {miou(matrices[0]):.4f}, plain mIoU {miou(matrices[1]):.4f})")
    print(format_eval_report("attention-unet", matrices[0]))
    print(format_eval_report("plain-unet", matrices[1]))
    assert att_ok and plain_ok


def test_c6_loss_trend_and_gap(desk_run):
    rows = desk_run.log.rows
    assert len(rows) >= 26

    def ma5(values, epoch):
        return sum(values[epoch - 4:epoch + 1]) / 5.0

    train_curve = [r.train_loss for r in rows]
    val_curve = [r.val_loss for r in rows]
    train_drop = ma5(train_curve, 25) < ma5(train_curve, 5)
    val_drop = ma5(val_curve, 25) < ma5(val_curve, 5)
    final = rows[-1]
    gap = abs(final.train_loss - final.val_loss)
    gap_ok = gap < 0.25 * final.val_loss
    ok = train_drop and val_drop and gap_ok
    report(f"C6 loss trend: {'PASS' if ok else 'FAIL'} "
           f"(train MA5 {ma5(train_curve, 25):.4f} < {ma5(train_curve, 5):.4f}, "
           f"val MA5 {ma5(val_curve, 25):.4f} < {ma5(val_curve, 5):.4f}, "
           f"final gap {gap:.4f} < {0.25 * final.val_loss:.4f})")
    assert train_drop and val_drop and gap_ok


def test_c7_schedule_and_optimizer_exactness():
    sched = CosineSchedule(eta_max=5e-4, eta_min=1e-6, total_epochs=100)
    start_err = abs(cosine_lr(sched, 0) - 5e-4)
    end_err = abs(cosine_lr(sched, 100) - 1e-6)

    r = np.random.default_rng(70)
    worst = 0.0
    for _ in range(20):
        theta0 = r.normal(size=(4, 3))
        g = r.normal(size=(4, 3))
        params = {"p": Tensor(theta0.copy(), requires_grad=True)}
        state = AdamWState.init(params, weight_decay=0.0)
        lr = float(r.uniform(1e-4, 1e-2))
        adamw_step(params, [g], state, lr=lr)
        ref, _, _ = adam_reference_step(theta0, g, np.zeros_like(g), np.zeros_like(g), 1, lr)
        worst = max(worst, float(np.max(np.abs(params["p"].data - ref))))

    ok = start_err < 1e-15 and end_err < 1e-15 and worst < 1e-15
    report(f"C7 schedule/optimizer exactness: {'PASS' if ok else 'FAIL'} "
           f"(cosine endpoint errs {start_err:.1e}/{end_err:.1e}, "
           f"AdamW-vs-Adam worst {worst:.1e}, 20 random steps)")
    assert start_err < 1e-15 and end_err < 1e-15
    assert worst < 1e-15


CONFIG = """\
seed = 5
epochs = 3
batch_size = 4
data_root = {root}
num_classes = 3
depth = 1
base_channels = 4
spatial_kernel = 3
dropout_rate = 0.1
eta_max = 0.002
patience = 10
"""


def test_c8_determinism_and_persistence(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data / "train"), "--count", "8",
                 "--size", "16", "16", "--classes", "3", "--seed", "80"]) == 0
    assert main(["synth", "--out", str(data / "val"), "--count", "4",
                 "--size", "16", "16", "--classes", "3", "--seed", "81"]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(CONFIG.format(root=data))
    outs = [tmp_path / "r1", tmp_path / "r2"]
    for out in outs:
        assert main(["train", "--config", str(cfg), "--out", str(out)]) == 0

    def log_without_seconds(path):
        # the wall-seconds column is the single timing field exempt from
        # byte reproducibility; every other byte must match
        return [ln.rsplit(",", 1)[0] for ln in (path / "trainlog.csv").read_text().splitlines()]

    logs_match = log_without_seconds(outs[0]) == log_without_seconds(outs[1])
    ckpts_match = all((outs[0] / n).read_bytes() == (outs[1] / n).read_bytes()
                      for n in ("best.ckpt", "final.ckpt"))

    blob = (outs[0] / "best.ckpt").read_bytes()
    cfg_text, params = deserialize(blob)
    save_checkpoint(tmp_path / "resaved.ckpt", cfg_text, params)
    round_trip = (tmp_path / "resaved.ckpt").read_bytes() == blob

    bad = tmp_path / "corrupt.ckpt"
    bad.write_bytes(blob[:-7])
    corrupt_exit = main(["eval", "--ckpt", str(bad), "--data", str(data), "--split", "val"])

    ok = logs_match and ckpts_match and round_trip and corrupt_exit == 5
    report(f"C8 determinism & persistence: {'PASS' if ok else 'FAIL'} "
           f"(logs match: {logs_match}, checkpoints byte-identical: {ckpts_match}, "
           f"round trip byte-exact: {round_trip}, corrupt exit {corrupt_exit} == 5)")
    assert logs_match and ckpts_match and round_trip
    assert corrupt_exit == 5


def test_c9_data_pipeline_properties():
    cases = 0
    r = np.random.default_rng(90)

    for _ in range(220):  # flip involution
        s = Sample(image=r.uniform(0, 1, size=(3, 6, 7)),
                   label=r.integers(0, 4, size=(6, 7)), id="s")
        twice = horizontal_flip(horizontal_flip(s, r, p=1.0), r, p=1.0)
        assert np.array_equal(twice.image, s.image)
        assert np.array_equal(twice.label, s.label)
        cases += 1

    for _ in range(220):  # crop keeps image/label alignment
        label = r.integers(0, 5, size=(8, 8))
        image = np.repeat(label[None].astype(np.float64) / 8.0, 3, axis=0)
        ch, cw = int(r.integers(2, 8)), int(r.integers(2, 8))
        out = random_crop(Sample(image=image, label=label, id="s"), ch, cw, r)
        assert np.array_equal(np.round(out.image[0] * 8.0).astype(np.int64), out.label)
        cases += 1

    for _ in range(220):  # jitter never touches the label, image stays in range
        s = Sample(image=r.uniform(0, 1, size=(3, 5, 5)),
                   label=r.integers(0, 4, size=(5, 5)), id="s")
        out = color_jitter(s, float(r.uniform(0, 0.5)), r)
        assert np.array_equal(out.label, s.label)
        assert out.image.min() >= 0.0 and out.image.max() <= 1.0
        cases += 1

    for _ in range(220):  # every epoch visits every sample exactly once
        n = int(r.integers(1, 10))
        batch = int(r.integers(1, 5))
        samples = [Sample(image=np.full((1, 2, 2), i, dtype=np.float64),
                          label=np.zeros((2, 2), dtype=np.int64), id=str(i))
                   for i in range(n)]
        seen = []
        for images, _ in batch_iter(samples, batch, shuffle=True, rng=r):
            seen.extend(int(images.data[b, 0, 0, 0]) for b in range(images.shape[0]))
        assert sorted(seen) == list(range(n))
        cases += 1

    for _ in range(220):  # seeded batch streams are bit-reproducible
        seed = int(r.integers(0, 2 ** 32))
        base = np.random.default_rng(seed ^ 0xA5A5)
        samples = [Sample(image=base.uniform(0, 1, size=(2, 4, 4)),
                          label=base.integers(0, 3, size=(4, 4)), id=str(i))
                   for i in range(5)]
        augs = [lambda s, g: horizontal_flip(s, g, 0.5),
                lambda s, g: color_jitter(s, 0.2, g)]

        def stream():
            return [im.data.tobytes() + lab.tobytes()
                    for im, lab in batch_iter(samples, 3, True,
                                              np.random.default_rng(seed), augs)]

        assert stream() == stream()
        cases += 1

    ok = cases >= 1000
    report(f"C9 data-pipeline properties: {'PASS' if ok else 'FAIL'} "
           f"({cases} generated cases across 5 properties)")
    assert ok
