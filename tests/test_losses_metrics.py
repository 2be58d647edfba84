import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (loop_confusion, loop_cross_entropy, loop_dice, loop_miou,
                     loop_pixel_accuracy)

from auseg.errors import ConfigError, ContractError, DataError, ShapeError
from auseg.losses_metrics import (LossConfig, combined_loss, confusion_accumulate,
                                  eval_report_csv, format_eval_report,
                                  inverse_frequency_weights, miou, per_class_iou,
                                  pixel_accuracy)
from auseg.tensor import Tape, Tensor, backward, grad_check


def rng(seed=0):
    return np.random.default_rng(seed)


def ce_term(logits, y, cfg):
    """The cross-entropy term alone: the combined loss at alpha = 1."""
    return combined_loss(logits, y, replace(cfg, alpha=1.0))


def dice_term(logits, y, cfg):
    """The Dice term alone: the combined loss at alpha = 0."""
    return combined_loss(logits, y, replace(cfg, alpha=0.0))


def one_hot_logits(y, k, margin=40.0):
    n, h, w = y.shape
    logits = np.zeros((n, k, h, w))
    for cls in range(k):
        logits[:, cls][y == cls] = margin
    return logits


class TestCrossEntropy:
    def test_perfect_prediction_loss_vanishes(self):
        y = rng(1).integers(0, 3, size=(1, 4, 4))
        prev = None
        for margin in (5.0, 10.0, 20.0):
            loss = ce_term(Tensor(one_hot_logits(y, 3, margin)), y, LossConfig()).item()
            if prev is not None:
                assert loss < prev
            prev = loss
        assert prev < 1e-8

    def test_uniform_logits_log_k(self):
        y = rng(2).integers(0, 4, size=(1, 3, 3))
        loss = ce_term(Tensor(np.zeros((1, 4, 3, 3))), y, LossConfig()).item()
        assert abs(loss - math.log(4)) < 1e-12

    def test_random_vs_per_pixel_oracle(self):
        r = rng(3)
        logits = r.normal(size=(1, 3, 4, 4))
        y = r.integers(0, 3, size=(1, 4, 4))
        loss = ce_term(Tensor(logits), y, LossConfig()).item()
        assert abs(loss - loop_cross_entropy(logits, y)) < 1e-12

    def test_weights_and_ignore_vs_oracle(self):
        r = rng(4)
        logits = r.normal(size=(2, 3, 4, 4))
        y = r.integers(0, 3, size=(2, 4, 4))
        y[0, 0, :] = 255
        weights = [0.5, 2.0, 1.25]
        cfg = LossConfig(class_weights=np.array(weights))
        loss = ce_term(Tensor(logits), y, cfg).item()
        assert abs(loss - loop_cross_entropy(logits, y, weights)) < 1e-12

    def test_ignored_pixels_have_zero_gradient(self):
        r = rng(5)
        logits = Tensor(r.normal(size=(1, 3, 2, 2)), requires_grad=True)
        y = np.array([[[0, 255], [1, 255]]])
        with Tape() as tape:
            g = backward(tape, ce_term(logits, y, LossConfig()), {"z": logits})["z"]
        assert np.all(g[0, :, 0, 1] == 0.0)
        assert np.all(g[0, :, 1, 1] == 0.0)
        assert np.any(g[0, :, 0, 0] != 0.0)

    def test_all_ignored_is_contract_error(self):
        with pytest.raises(ContractError):
            combined_loss(Tensor(np.zeros((1, 2, 2, 2))), np.full((1, 2, 2), 255), LossConfig())

    def test_label_out_of_range_names_value_and_location(self):
        y = np.zeros((1, 2, 2), dtype=np.int64)
        y[0, 1, 0] = 7
        with pytest.raises(DataError, match=r"7.*\(0, 1, 0\)"):
            combined_loss(Tensor(np.zeros((1, 3, 2, 2))), y, LossConfig())

    def test_gradcheck(self):
        r = rng(6)
        logits = Tensor(r.normal(size=(1, 3, 4, 4)), requires_grad=True)
        y = r.integers(0, 3, size=(1, 4, 4))
        cfg = LossConfig(class_weights=r.uniform(0.5, 2.0, size=3))
        assert grad_check(lambda z: ce_term(z, y, cfg), [logits], rng=rng(7)) < 1e-5


class TestDiceLoss:
    def test_perfect_overlap_within_smoothing_bound(self):
        y = rng(8).integers(0, 2, size=(1, 4, 4))
        cfg = LossConfig()
        loss = dice_term(Tensor(one_hot_logits(y, 2)), y, cfg).item()
        n_min = min(np.count_nonzero(y == 0), np.count_nonzero(y == 1))
        assert 0.0 <= loss <= cfg.dice_smooth / (2 * n_min + cfg.dice_smooth) + 1e-12

    def test_disjoint_prediction_approaches_one(self):
        # prediction says class 1 everywhere truth says 0 and vice versa
        y = np.array([[[0, 0], [1, 1]]])
        flipped = 1 - y
        values = []
        for smooth in (1e-2, 1e-5, 1e-9):
            cfg = LossConfig(dice_smooth=smooth)
            values.append(dice_term(Tensor(one_hot_logits(flipped, 2)), y, cfg).item())
        assert values[0] < values[1] < values[2]
        assert values[-1] > 1.0 - 1e-6

    def test_random_vs_direct_sum_oracle(self):
        r = rng(9)
        logits = r.normal(size=(1, 3, 4, 4))
        y = r.integers(0, 3, size=(1, 4, 4))
        cfg = LossConfig()
        loss = dice_term(Tensor(logits), y, cfg).item()
        assert abs(loss - loop_dice(logits, y, cfg.dice_smooth)) < 1e-12

    def test_ignore_vs_oracle(self):
        r = rng(10)
        logits = r.normal(size=(2, 3, 3, 3))
        y = r.integers(0, 3, size=(2, 3, 3))
        y[1, 2, :] = 255
        cfg = LossConfig()
        loss = dice_term(Tensor(logits), y, cfg).item()
        assert abs(loss - loop_dice(logits, y, cfg.dice_smooth)) < 1e-12

    def test_absent_class_skipped(self):
        r = rng(11)
        logits = r.normal(size=(1, 4, 3, 3))
        y = np.zeros((1, 3, 3), dtype=np.int64)  # only class 0 present
        cfg = LossConfig()
        loss = dice_term(Tensor(logits), y, cfg).item()
        assert abs(loss - loop_dice(logits, y, cfg.dice_smooth)) < 1e-12

    def test_gradcheck(self):
        r = rng(12)
        logits = Tensor(r.normal(size=(1, 3, 4, 4)), requires_grad=True)
        y = r.integers(0, 3, size=(1, 4, 4))
        assert grad_check(lambda z: dice_term(z, y, LossConfig()), [logits], rng=rng(13)) < 1e-5


class TestCombined:
    @staticmethod
    def _value_and_grad(logits, y, cfg):
        z = Tensor(logits, requires_grad=True)
        with Tape() as tape:
            loss = combined_loss(z, y, cfg)
            grads = backward(tape, loss, {"z": z})
        return loss.data.tobytes(), grads["z"].tobytes()

    def test_alpha_one_is_cross_entropy_bitwise(self):
        # no trace of the Dice term, so its smoothing cannot move a bit
        r = rng(14)
        logits = r.normal(size=(1, 3, 4, 4))
        y = r.integers(0, 3, size=(1, 4, 4))
        y[0, 0, 0] = 255
        cfg = LossConfig(alpha=1.0, class_weights=np.array([0.5, 2.0, 1.25]))
        assert self._value_and_grad(logits, y, cfg) == \
            self._value_and_grad(logits, y, replace(cfg, dice_smooth=0.5))

    def test_alpha_zero_is_dice_bitwise(self):
        # no trace of the cross-entropy term, so its class weights cannot move a bit
        r = rng(15)
        logits = r.normal(size=(1, 3, 4, 4))
        y = r.integers(0, 3, size=(1, 4, 4))
        y[0, 0, 0] = 255
        cfg = LossConfig(alpha=0.0)
        assert self._value_and_grad(logits, y, cfg) == \
            self._value_and_grad(logits, y, replace(cfg, class_weights=np.array([0.5, 2.0, 1.25])))

    def test_alpha_half_affine_identity(self):
        r = rng(16)
        logits = r.normal(size=(1, 3, 4, 4))
        y = r.integers(0, 3, size=(1, 4, 4))
        cfg = LossConfig(alpha=0.5)
        combo = combined_loss(Tensor(logits), y, cfg).item()
        ce = ce_term(Tensor(logits), y, cfg).item()
        dc = dice_term(Tensor(logits), y, cfg).item()
        assert abs(combo - 0.5 * (ce + dc)) < 1e-15

    def test_non_negative_across_alpha(self):
        r = rng(17)
        logits = r.normal(size=(1, 3, 4, 4))
        y = r.integers(0, 3, size=(1, 4, 4))
        for alpha in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert combined_loss(Tensor(logits), y, LossConfig(alpha=alpha)).item() >= 0.0

    def test_gradcheck_two_class_4x4(self):
        r = rng(18)
        logits = Tensor(r.normal(size=(1, 2, 4, 4)), requires_grad=True)
        y = r.integers(0, 2, size=(1, 4, 4))
        assert grad_check(lambda z: combined_loss(z, y, LossConfig()), [logits],
                          rng=rng(19)) < 1e-5

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError):
            LossConfig(alpha=1.5)


class TestInverseFrequencyWeights:
    def test_balanced_gives_uniform(self):
        labels = [np.array([[0, 1], [0, 1]])]
        w = inverse_frequency_weights(labels, 2)
        assert np.allclose(w, 1.0)

    def test_rare_class_upweighted(self):
        labels = [np.array([[0, 0, 0, 1]])]
        w = inverse_frequency_weights(labels, 2)
        assert w[1] > w[0] > 0
        assert abs(w.mean() - 1.0) < 1e-12

    def test_ignore_and_absent(self):
        labels = [np.array([[0, 255], [0, 255]])]
        w = inverse_frequency_weights(labels, 3)
        assert w[1] == 1.0 and w[2] == 1.0


class TestConfusionMatrix:
    def test_perfect_prediction_diagonal(self):
        y = rng(20).integers(0, 3, size=(2, 4, 4))
        cm = np.zeros((3, 3), dtype=np.int64)
        confusion_accumulate(cm, y, y)
        assert np.diag(cm).sum() == 32
        assert cm.sum() == 32

    def test_all_ignored_unchanged(self):
        cm = np.zeros((3, 3), dtype=np.int64)
        y = np.full((1, 2, 2), 255)
        confusion_accumulate(cm, np.zeros((1, 2, 2), dtype=int), y)
        assert cm.sum() == 0

    def test_random_vs_loop_count(self):
        r = rng(21)
        y = r.integers(0, 4, size=(2, 5, 5))
        y[r.random(y.shape) < 0.2] = 255
        pred = r.integers(0, 4, size=(2, 5, 5))
        cm = np.zeros((4, 4), dtype=np.int64)
        confusion_accumulate(cm, pred, y)
        assert np.array_equal(cm, loop_confusion(pred, y, 4))

    def test_out_of_range_pred_names_value_and_location(self):
        cm = np.zeros((3, 3), dtype=np.int64)
        pred = np.zeros((1, 2, 2), dtype=int)
        pred[0, 0, 1] = 9
        with pytest.raises(DataError, match=r"9.*\(0, 0, 1\)"):
            confusion_accumulate(cm, pred, np.zeros((1, 2, 2), dtype=int))

    def test_shape_mismatch(self):
        cm = np.zeros((2, 2), dtype=np.int64)
        with pytest.raises(ShapeError):
            confusion_accumulate(cm, np.zeros((1, 2, 2), dtype=int),
                                 np.zeros((1, 2, 3), dtype=int))


class TestMiouPa:
    def test_perfect(self):
        y = rng(23).integers(0, 3, size=(1, 6, 6))
        cm = np.zeros((3, 3), dtype=np.int64)
        confusion_accumulate(cm, y, y)
        assert miou(cm) == 1.0
        assert pixel_accuracy(cm) == 1.0

    def test_balanced_all_zero_prediction(self):
        # two balanced classes, everything predicted class 0
        y = np.array([[[0, 0, 1, 1]]])
        pred = np.zeros_like(y)
        cm = np.zeros((2, 2), dtype=np.int64)
        confusion_accumulate(cm, pred, y)
        observed, iou = per_class_iou(cm)
        assert iou[0] == 0.5 and iou[1] == 0.0
        assert miou(cm) == 0.25
        assert pixel_accuracy(cm) == 0.5

    def test_random_vs_loop_oracles(self):
        r = rng(24)
        y = r.integers(0, 4, size=(2, 6, 6))
        pred = r.integers(0, 4, size=(2, 6, 6))
        cm = np.zeros((4, 4), dtype=np.int64)
        confusion_accumulate(cm, pred, y)
        assert abs(miou(cm) - loop_miou(cm)) < 1e-12
        assert abs(pixel_accuracy(cm) - loop_pixel_accuracy(cm)) < 1e-12

    def test_empty_matrix_rejected(self):
        with pytest.raises(ContractError):
            miou(np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(ContractError):
            pixel_accuracy(np.zeros((3, 3), dtype=np.int64))

    def test_absent_class_does_not_lower_miou(self):
        y = np.array([[[0, 0, 1, 1]]])
        cm_small = np.zeros((2, 2), dtype=np.int64)
        confusion_accumulate(cm_small, y, y)
        cm_big = np.zeros((5, 5), dtype=np.int64)  # classes 2..4 never appear
        confusion_accumulate(cm_big, y, y)
        assert miou(cm_small) == miou(cm_big) == 1.0

    def test_permutation_stability(self):
        r = rng(25)
        y = r.integers(0, 3, size=(1, 4, 4))
        pred = r.integers(0, 3, size=(1, 4, 4))
        cm_a = np.zeros((3, 3), dtype=np.int64)
        confusion_accumulate(cm_a, pred, y)
        perm = r.permutation(16)
        cm_b = np.zeros((3, 3), dtype=np.int64)
        confusion_accumulate(cm_b, pred.reshape(1, 16)[:, perm].reshape(1, 4, 4),
                             y.reshape(1, 16)[:, perm].reshape(1, 4, 4))
        assert np.array_equal(cm_a, cm_b)


class TestReport:
    def _cm(self):
        y = np.array([[[0, 0, 1, 1, 2, 2]]])
        pred = np.array([[[0, 1, 1, 1, 2, 2]]])
        cm = np.zeros((3, 3), dtype=np.int64)
        confusion_accumulate(cm, pred, y)
        return cm

    def test_text_report_layout(self):
        report = format_eval_report("ours", self._cm())
        lines = report.splitlines()
        assert "ignore-labeled pixels excluded" in lines[0]
        assert lines[1].startswith("Model")
        row = lines[2]
        assert row.startswith("ours")
        cells = row.split()
        # percentages with exactly one decimal
        assert all("." in c and len(c.split(".")[1]) == 1 for c in cells[1:])

    def test_csv_twin(self):
        csv = eval_report_csv("ours", self._cm())
        header, row = csv.strip().splitlines()
        assert header == "model,miou,pa,iou_0,iou_1,iou_2"
        cells = row.split(",")
        assert cells[0] == "ours"
        # values are serialized at 9 significant digits
        assert abs(float(cells[1]) - miou(self._cm())) < 1e-8


@given(st.integers(min_value=0, max_value=2 ** 31 - 1), st.integers(min_value=2, max_value=5))
@settings(max_examples=80, deadline=None)
def test_metric_ranges(seed, k):
    r = np.random.default_rng(seed)
    y = r.integers(0, k, size=(1, 5, 5))
    pred = r.integers(0, k, size=(1, 5, 5))
    cm = np.zeros((k, k), dtype=np.int64)
    confusion_accumulate(cm, pred, y)
    assert 0.0 <= miou(cm) <= 1.0
    assert 0.0 <= pixel_accuracy(cm) <= 1.0
