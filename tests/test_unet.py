import sys
import threading
import weakref
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import spy_record_op
from oracles import loop_argmax_labels

from auseg import attention, unet
from auseg.errors import ConfigError, ContractError, ShapeError
from auseg.losses_metrics import LossConfig, combined_loss
from auseg.tensor import Tape, Tensor, backward
from auseg.unet import UnetConfig, build_model, forward, predict_labels


def rng(seed=0):
    return np.random.default_rng(seed)


def small_cfg(**overrides):
    base = dict(in_channels=3, num_classes=3, depth=2, base_channels=4,
                attention_enabled=True, reduction_ratio=4, spatial_kernel=3,
                dropout_rate=0.0)
    base.update(overrides)
    return UnetConfig(**base)


class TestBuild:
    def test_parameter_count_ledger(self):
        # depth 1, base 4, 2 classes, 3 input channels, ratio 4, spatial kernel 7
        cfg = UnetConfig(in_channels=3, num_classes=2, depth=1, base_channels=4,
                         reduction_ratio=4, spatial_kernel=7, dropout_rate=0.0)
        model = build_model(cfg, rng(0))
        enc0 = (4 * 3 * 3 * 3 + 4) + (4 * 4 * 3 * 3 + 4)
        bottleneck = (8 * 4 * 3 * 3 + 8) + (8 * 8 * 3 * 3 + 8)
        up0 = 8 * 4 * 2 * 2 + 4
        att0 = (1 * 4) + (4 * 1) + (1 * 2 * 7 * 7 + 1)
        dec0 = (4 * 8 * 3 * 3 + 4) + (4 * 4 * 3 * 3 + 4)
        head = 2 * 4 * 1 * 1 + 2
        total = sum(t.size for t in model.params.values())
        assert total == enc0 + bottleneck + up0 + att0 + dec0 + head

    def test_ablation_has_no_attention_params(self):
        model = build_model(small_cfg(attention_enabled=False), rng(1))
        with_att = build_model(small_cfg(), rng(1))
        shapes = {n: t.shape for n, t in model.params.items()}
        assert shapes == {n: t.shape for n, t in with_att.params.items()
                          if not n.startswith("att")}
        assert not [n for n in model.params if n.startswith("att")]

    def test_attention_model_has_skip_per_level(self):
        model = build_model(small_cfg(depth=3, base_channels=4), rng(2))
        att = {n: t.shape for n, t in model.params.items() if n.startswith("att")}
        expected = {}
        for level in range(3):
            c = 4 * 2 ** level
            expected.update({f"att{level}.w1": (c // 4, c), f"att{level}.w2": (c, c // 4),
                             f"att{level}.conv.kernel": (1, 2, 3, 3),
                             f"att{level}.conv.bias": (1,)})
        assert att == expected

    def test_parameter_order_and_shapes(self):
        # the build order is the checkpoint byte layout and the optimizer's order
        model = build_model(small_cfg(), rng(0))
        expected = [
            ("enc0.conv1.kernel", (4, 3, 3, 3)), ("enc0.conv1.bias", (4,)),
            ("enc0.conv2.kernel", (4, 4, 3, 3)), ("enc0.conv2.bias", (4,)),
            ("enc1.conv1.kernel", (8, 4, 3, 3)), ("enc1.conv1.bias", (8,)),
            ("enc1.conv2.kernel", (8, 8, 3, 3)), ("enc1.conv2.bias", (8,)),
            ("bottleneck.conv1.kernel", (16, 8, 3, 3)), ("bottleneck.conv1.bias", (16,)),
            ("bottleneck.conv2.kernel", (16, 16, 3, 3)), ("bottleneck.conv2.bias", (16,)),
            ("up1.kernel", (16, 8, 2, 2)), ("up1.bias", (8,)),
            ("dec1.conv1.kernel", (8, 16, 3, 3)), ("dec1.conv1.bias", (8,)),
            ("dec1.conv2.kernel", (8, 8, 3, 3)), ("dec1.conv2.bias", (8,)),
            ("att1.w1", (2, 8)), ("att1.w2", (8, 2)),
            ("att1.conv.kernel", (1, 2, 3, 3)), ("att1.conv.bias", (1,)),
            ("up0.kernel", (8, 4, 2, 2)), ("up0.bias", (4,)),
            ("dec0.conv1.kernel", (4, 8, 3, 3)), ("dec0.conv1.bias", (4,)),
            ("dec0.conv2.kernel", (4, 4, 3, 3)), ("dec0.conv2.bias", (4,)),
            ("att0.w1", (1, 4)), ("att0.w2", (4, 1)),
            ("att0.conv.kernel", (1, 2, 3, 3)), ("att0.conv.bias", (1,)),
            ("head.kernel", (3, 4, 1, 1)), ("head.bias", (3,)),
        ]
        assert [(n, t.shape) for n, t in model.params.items()] == expected
        assert all(t.requires_grad for t in model.params.values())

    def test_same_seed_identical_build(self):
        a = build_model(small_cfg(), rng(42))
        b = build_model(small_cfg(), rng(42))
        assert list(a.params) == list(b.params)
        for name in a.params:
            assert a.params[name].data.tobytes() == b.params[name].data.tobytes()

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ConfigError):
            build_model(small_cfg(base_channels=6, reduction_ratio=4), rng(3))

    def test_depth_zero_rejected(self):
        with pytest.raises(ConfigError):
            build_model(small_cfg(depth=0), rng(4))

    @pytest.mark.parametrize("fault, error, message", [
        ("missing", ConfigError, "missing parameter 'head.bias'"),
        ("shape", ConfigError, r"parameter 'head.bias' shape \(4,\) != \(3,\)"),
        ("value", ValueError, "could not convert string to float"),
        ("extra", ConfigError, "unknown parameters in state: \\['head.scale'\\]"),
    ])
    def test_failed_load_changes_no_parameter(self, fault, error, message):
        # every fault sits in the last parameter or after it, so a load that swaps
        # parameters in as it checks them would already have changed all the others
        model = build_model(small_cfg(), rng(6))
        before = {name: t.data.tobytes() for name, t in model.params.items()}
        state = {name: t.data + 1.0 for name, t in model.params.items()}
        if fault == "missing":
            del state["head.bias"]
        elif fault == "shape":
            state["head.bias"] = np.zeros(4)
        elif fault == "value":
            state["head.bias"] = ["a", "b", "c"]
        else:
            state["head.scale"] = np.zeros(1)
        with pytest.raises(error, match=message):
            model.load_state_arrays(state)
        assert {name: t.data.tobytes() for name, t in model.params.items()} == before

    def test_unique_parameter_names(self, monkeypatch):
        # a build that names every level as level 0 must not overwrite enc0's tensors
        monkeypatch.setattr(unet, "range", lambda *args: [0] * len(range(*args)), raising=False)
        with pytest.raises(ContractError, match="duplicate parameter name 'enc0.conv1.kernel'"):
            build_model(small_cfg(depth=3), rng(5))


class TestForward:
    def test_shape_contract(self):
        model = build_model(small_cfg(num_classes=3), rng(6))
        x = Tensor(rng(7).uniform(0, 1, size=(2, 3, 32, 32)))
        logits = forward(model, x)
        assert logits.shape == (2, 3, 32, 32)

    def test_divisibility_error_names_multiple(self):
        model = build_model(small_cfg(depth=2), rng(8))
        x = Tensor(np.zeros((1, 3, 18, 16)))
        with pytest.raises(ShapeError, match="divisible by 4"):
            forward(model, x)

    def test_channel_mismatch(self):
        model = build_model(small_cfg(), rng(9))
        with pytest.raises(ShapeError):
            forward(model, Tensor(np.zeros((1, 4, 16, 16))))

    def test_gate_bypass_equals_plain_unet_bitwise(self, monkeypatch):
        att_model = build_model(small_cfg(), rng(10))
        plain_model = build_model(small_cfg(attention_enabled=False), rng(999))
        shared = {n: a for n, a in att_model.state_arrays().items() if not n.startswith("att")}
        plain_model.load_state_arrays(shared)

        x = Tensor(rng(11).uniform(0, 1, size=(1, 3, 16, 16)))
        plain = forward(plain_model, x)
        # gates pinned to 1 inside the fused op: F * 1 * 1 is F bit for bit
        monkeypatch.setattr(attention, "_sigmoid", np.ones_like)
        pinned = forward(att_model, x)
        assert pinned.data.tobytes() == plain.data.tobytes()

    def test_gates_override_constant_scales(self, monkeypatch):
        model = build_model(small_cfg(), rng(12))
        x = Tensor(rng(13).uniform(0, 1, size=(1, 3, 16, 16)))
        monkeypatch.setattr(attention, "_sigmoid", lambda z: np.full_like(z, 0.5))
        gates = []
        spy_record_op(monkeypatch, lambda op, inputs, out: gates.append((op, inputs[0], out)))
        with Tape() as tape:
            forward(model, x)
        gates = [(f, out) for op, f, out in gates if op == "hybrid_attention_block"]
        assert len(gates) == model.cfg.depth
        assert [node.op for node in tape.nodes].count("hybrid_attention_block") == len(gates)
        # both gates pinned to 0.5 attenuate every skip by exactly 0.25
        for f, out in gates:
            assert out.requires_grad    # recorded on the tape
            assert np.array_equal(out.data, 0.25 * f.data)

    def test_dropout_needs_rng_in_training(self):
        model = build_model(small_cfg(dropout_rate=0.5), rng(14))
        x = Tensor(np.zeros((1, 3, 16, 16)))
        with pytest.raises(ContractError):
            forward(model, x, training=True)

    def test_training_forward_deterministic_with_seeded_rng(self):
        model = build_model(small_cfg(dropout_rate=0.3), rng(15))
        x = Tensor(rng(16).uniform(0, 1, size=(1, 3, 16, 16)))
        a = forward(model, x, training=True, rng=rng(77)).data
        b = forward(model, x, training=True, rng=rng(77)).data
        assert np.array_equal(a, b)


# (depth, base, classes, dropout, nodes): the desk-train and mid-train models
@pytest.mark.parametrize("depth, base, classes, dropout, nodes",
                         [(2, 8, 3, 0.0, 20), (4, 16, 19, 0.1, 36)])
@pytest.mark.parametrize("composition", ["parallel", "sequential"])
def test_training_step_op_histogram(depth, base, classes, dropout, nodes, composition):
    # one node per conv layer (relu and dropout fused in) and one per attention gate
    model = build_model(small_cfg(depth=depth, base_channels=base, num_classes=classes,
                                  dropout_rate=dropout, attention_composition=composition),
                        rng(20))
    x = Tensor(rng(21).uniform(0, 1, size=(2, 3, 16, 16)))
    y = rng(22).integers(0, classes, size=(2, 16, 16))
    with Tape() as tape:
        combined_loss(forward(model, x, training=True, rng=rng(23)), y, LossConfig())
    ops = [node.op for node in tape.nodes]
    assert Counter(ops) == {"conv2d": 2 * (2 * depth + 1) + 1, "maxpool2d": depth,
                            "transposed_conv2d": depth, "hybrid_attention_block": depth,
                            "concat_channels": depth, "combined_loss": 1}
    assert len(ops) == nodes


class TestPredict:
    def test_argmax_all_one_class(self):
        # a zero head kernel makes the logits the head bias at every pixel
        model = build_model(small_cfg(), rng(20))
        model.params["head.kernel"].data[...] = 0.0
        model.params["head.bias"].data[...] = [0.0, 0.0, 50.0]
        labels = predict_labels(model, Tensor(rng(21).uniform(0, 1, size=(2, 3, 16, 16))))
        assert labels.shape == (2, 16, 16) and np.all(labels == 2)

    def test_tie_breaks_low_index(self):
        # zero head kernel and bias: every class logit is (+/-) 0, all tied
        model = build_model(small_cfg(), rng(22))
        model.params["head.kernel"].data[...] = 0.0
        model.params["head.bias"].data[...] = 0.0
        labels = predict_labels(model, Tensor(rng(23).uniform(0, 1, size=(2, 3, 16, 16))))
        assert labels.shape == (2, 16, 16) and np.all(labels == 0)

    def test_predict_matches_loop_argmax(self):
        model = build_model(small_cfg(), rng(23))
        x = Tensor(rng(24).uniform(0, 1, size=(2, 3, 16, 16)))
        labels = predict_labels(model, x)
        logits = forward(model, x)
        assert np.array_equal(labels, loop_argmax_labels(logits.data))

    def test_predict_shape_and_dtype(self):
        model = build_model(small_cfg(), rng(25))
        labels = predict_labels(model, Tensor(rng(26).uniform(0, 1, size=(2, 3, 16, 16))))
        assert labels.shape == (2, 16, 16)
        assert labels.dtype == np.int64


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("size", [8, 16, 32])
def test_shape_preservation_grid(depth, size):
    cfg = small_cfg(depth=depth, base_channels=4)
    model = build_model(cfg, rng(27))
    x = Tensor(rng(28).uniform(0, 1, size=(1, 3, size, size)))
    assert forward(model, x).shape == (1, 3, size, size)


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_argmax_invariant_to_per_pixel_shift(seed):
    r = np.random.default_rng(seed)
    logits = r.normal(size=(1, 4, 5, 5))
    shift = r.normal(scale=10.0, size=(1, 1, 5, 5))
    assert np.array_equal(np.argmax(logits, axis=1), np.argmax(logits + shift, axis=1))


def _recorded_output_refs(monkeypatch) -> list[tuple[str, weakref.ref]]:
    """(op, weak reference to the output array) of every op recorded on a tape from now on."""
    refs = []

    def seen(op, inputs, out):
        if out.requires_grad:
            refs.append((op, weakref.ref(out.data)))

    spy_record_op(monkeypatch, seen)
    return refs


@pytest.mark.parametrize("composition", ["parallel", "sequential"])
def test_training_step_sweep_frees_every_node_output(composition, monkeypatch, no_gc):
    # no op's backward rule keeps an activation alive through a reference cycle:
    # with the collector off, every node output but the loss dies in the sweep
    model = build_model(small_cfg(dropout_rate=0.2, attention_composition=composition), rng(24))
    x = Tensor(rng(25).uniform(0, 1, size=(2, 3, 16, 16)))
    y = rng(26).integers(0, 3, size=(2, 16, 16))
    refs = _recorded_output_refs(monkeypatch)
    with Tape() as tape:
        loss = combined_loss(forward(model, x, training=True, rng=rng(27)), y, LossConfig())
    assert len(refs) == len(tape.nodes) and refs[-1][0] == "combined_loss"
    refs = {(i, op): ref for i, (op, ref) in enumerate(refs[:-1])}
    backward(tape, loss, model.params)
    assert [key for key, ref in refs.items() if ref() is not None] == []


@pytest.mark.parametrize("composition", ["parallel", "sequential"])
def test_training_forward_frees_outputs_no_rule_reads(composition, monkeypatch, no_gc):
    # the concat copies the upsampled map and the gated skip, and the loss's rule
    # holds the softmax: those outputs are dead before backward starts
    model = build_model(small_cfg(dropout_rate=0.2, attention_composition=composition), rng(28))
    x = Tensor(rng(29).uniform(0, 1, size=(2, 3, 16, 16)))
    y = rng(30).integers(0, 3, size=(2, 16, 16))
    refs = _recorded_output_refs(monkeypatch)
    with Tape() as tape:
        loss = combined_loss(forward(model, x, training=True, rng=rng(31)), y, LossConfig())
    ops = [op for op, _ in refs]
    head = len(ops) - 2    # the logits: the last conv2d, just before the loss
    assert ops[head:] == ["conv2d", "combined_loss"]
    dead = {(i, op): ref() is None for i, (op, ref) in enumerate(refs)
            if op in ("transposed_conv2d", "hybrid_attention_block") or i == head}
    assert len(dead) == 2 * model.cfg.depth + 1
    assert all(dead.values()), dead
    backward(tape, loss, model.params)


@pytest.mark.parametrize("attention", [True, False])
def test_inference_frees_block_inputs_and_skips_before_conv2(attention, monkeypatch, no_gc):
    # with no tape, a block's input (in the decoder, the concat) is dead once its conv1
    # has run, and each skip once its gate, or ungated the concat, has read it
    model = build_model(small_cfg(depth=3, attention_enabled=attention), rng(32))
    layers = {id(t): name.rsplit(".", 1)[0] for name, t in model.params.items()}
    conv, inputs, skips, alive = unet.conv2d, {}, {}, []

    def spy(x, p):
        block, _, part = layers[id(p.kernel)].partition(".")
        if part == "conv1":
            inputs[block] = weakref.ref(x.data)
        elif part == "conv2" and block != "enc0":    # enc0's input is the caller's
            if inputs[block]() is not None:
                alive.append(block)
            if block.startswith("dec") and skips[block[3:]]() is not None:
                alive.append(f"skip{block[3:]}")
        out = conv(x, p)
        if part == "conv2" and block.startswith("enc"):
            skips[block[3:]] = weakref.ref(out.data)
        return out

    monkeypatch.setattr(unet, "conv2d", spy)
    forward(model, Tensor(rng(33).uniform(0, 1, size=(2, 3, 16, 16))))
    assert sorted(inputs) == ["bottleneck", "dec0", "dec1", "dec2", "enc0", "enc1", "enc2"]
    assert alive == []


def test_concurrent_predicts_match_sequential():
    # the conv core allocates its buffers per call, so two threads predicting at once
    # (BLAS and copies release the interpreter lock) get the bytes of sequential runs
    model = build_model(UnetConfig(num_classes=19, depth=2, base_channels=16), rng(34))
    inputs = [Tensor(rng(35 + i).uniform(0, 1, size=(1, 3, 64, 64))) for i in range(2)]
    want = [predict_labels(model, x).tobytes() for x in inputs]
    got: list[list[bytes]] = [[], []]
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        for _ in range(4):
            got[i].append(predict_labels(model, inputs[i]).tobytes())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert got == [[want[0]] * 4, [want[1]] * 4]
