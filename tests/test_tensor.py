import weakref

import numpy as np
import pytest

from conftest import dot, gate_tensors, sum_sq

from auseg.attention import hybrid_attention_block
from auseg.errors import ContractError, ShapeError
from auseg.nn_ops import Conv2dParams, concat_channels, conv2d
from auseg.tensor import Tape, Tensor, backward, grad_check, record_op


def rng(seed=0):
    return np.random.default_rng(seed)


# Test-local ops on same-shape operands: the tape mechanics need a graph, not
# the model's ops.
def _mul(a: Tensor, b: Tensor) -> Tensor:
    return record_op("mul", (a, b), a.data * b.data, lambda g: (g * b.data, g * a.data))


def _add(a: Tensor, b: Tensor) -> Tensor:
    return record_op("add", (a, b), a.data + b.data, lambda g: (g, g))


class TestFactories:
    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            Tensor(np.zeros((1, 1, 1, 1, 1)))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rng(4).normal(size=(2, 3)), requires_grad=True)
        with Tape() as tape:
            grads = backward(tape, dot(x, 1.0), {"x": x})
        assert np.array_equal(grads["x"], np.ones((2, 3)))

    def test_quadratic_gives_2x(self):
        # one node that reads x twice: the fan-in sum adds both input gradients
        x = Tensor(rng(5).normal(size=(7,)), requires_grad=True)
        with Tape() as tape:
            grads = backward(tape, dot(_mul(x, x), 1.0), {"x": x})
        assert np.array_equal(grads["x"], 2 * x.data)

    def test_fresh_sweeps_give_the_same_gradient(self):
        # nothing carries over from one sweep to the next: no accumulation, no zeroing
        x = Tensor([1.0, 2.0], requires_grad=True)
        grads = []
        for _ in range(2):
            with Tape() as tape:
                grads.append(backward(tape, dot(_mul(x, x), 1.0), {"x": x})["x"])
        assert np.array_equal(grads[0], [2.0, 4.0])
        assert np.array_equal(grads[1], grads[0])
        assert not np.shares_memory(grads[0], grads[1])

    def test_gradients_follow_wrt_keys_and_order(self):
        # a tensor the root does not reach, or one not marked for gradients, gets zeros
        r = rng(20)
        a, b = Tensor(r.normal(size=(2,)), requires_grad=True), Tensor(r.normal(size=(3,)))
        unused = Tensor(r.normal(size=(2, 2)), requires_grad=True)
        with Tape() as tape:
            grads = backward(tape, dot(_mul(a, a), 1.0), {"unused": unused, "b": b, "a": a})
        assert list(grads) == ["unused", "b", "a"]
        assert np.array_equal(grads["unused"], np.zeros((2, 2)))
        assert np.array_equal(grads["b"], np.zeros(3))
        assert np.array_equal(grads["a"], 2 * a.data)

    def test_root_leaf_gets_ones(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            grads = backward(tape, x, {"x": x})
        assert grads["x"].tolist() == [1.0]

    def test_wrt_produced_tensor_rejected(self):
        # the sweep drops intermediate gradients, so asking for one would read zeros;
        # the check runs before the sweep, which leaves the tape usable
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            m = _mul(x, x)
            root = dot(_add(m, x), 1.0)
        with pytest.raises(ContractError, match="'m'"):
            backward(tape, root, {"x": x, "m": m})
        with pytest.raises(ContractError, match="root"):
            backward(tape, root, {"root": root})
        assert not tape.swept and len(tape.nodes) == 3
        assert np.array_equal(backward(tape, root, {"x": x})["x"], 2 * x.data + 1.0)

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = _mul(x, x)
            with pytest.raises(ContractError):
                backward(tape, y, {"x": x})

    def test_composite_graph_finite_differences(self):
        r = rng(6)
        x = Tensor(r.normal(size=(1, 2, 4, 4)), requires_grad=True)
        k = Tensor(r.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(r.normal(size=(3,)), requires_grad=True)

        def f(x, k, b):
            # x reaches the root directly and through the convolution
            return sum_sq(concat_channels(x, conv2d(x, Conv2dParams(k, b))))

        assert grad_check(f, [x, k, b], h=1e-5, coords_per_input=10, rng=rng(7)) < 1e-5

    def test_fanout_accumulates(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        with Tape() as tape:
            y = concat_channels(x, x)  # dsum(y)/dx = 2
            grads = backward(tape, dot(y, 1.0), {"x": x})
        assert grads["x"].tolist() == [[[[2.0]]]]

    def test_only_leaves_keep_gradients(self):
        # intermediate gradients are dropped during the sweep; each leaf gets its own
        # copy, although _add's rule hands the same array to both of its inputs
        x = Tensor(rng(16).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng(17).normal(size=(2, 3)), requires_grad=True)
        with Tape() as tape:
            m = _mul(x, x)
            y = _add(m, b)
            z = _add(y, x)
            grads = backward(tape, dot(z, 1.0), {"x": x, "b": b})
        assert np.array_equal(grads["x"], (1.0 + x.data) + x.data)
        assert np.array_equal(grads["b"], np.ones((2, 3)))
        assert not np.shares_memory(grads["x"], grads["b"])

    def test_fresh_gradient_returned_as_is(self):
        # a gradient nothing else refers to comes back as the very array the rule made
        x = Tensor([1.0, 2.0], requires_grad=True)
        made = []

        def rule(g):
            gx = 3.0 * g
            made.append(weakref.ref(gx))
            return (gx,)

        with Tape() as tape:
            grads = backward(tape, dot(record_op("triple", (x,), 3.0 * x.data, rule), 1.0),
                             {"x": x})
        assert grads["x"] is made[0]()
        assert np.array_equal(grads["x"], [3.0, 3.0])

    def test_pass_through_gradients_come_back_apart(self):
        # _add's rule hands one array to both inputs: one of the two must be a copy
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        with Tape() as tape:
            grads = backward(tape, dot(_add(a, b), [5.0, 6.0]), {"a": a, "b": b})
        assert np.array_equal(grads["a"], [5.0, 6.0]) and np.array_equal(grads["b"], [5.0, 6.0])
        assert not np.shares_memory(grads["a"], grads["b"])

    def test_tensor_data_returned_by_a_rule_is_copied(self):
        # a rule may hand back a live tensor's array; the caller must not get that array
        x = Tensor([1.0, 2.0], requires_grad=True)
        held = Tensor([7.0, 8.0])
        with Tape() as tape:
            root = record_op("const", (x,), np.float64(0.0), lambda g: (held.data,))
            grads = backward(tape, root, {"x": x})
        assert np.array_equal(grads["x"], [7.0, 8.0])
        assert not np.shares_memory(grads["x"], held.data)
        grads["x"][0] = 0.0
        assert held.data.tolist() == [7.0, 8.0]

    def test_same_tensor_under_two_names_gets_two_arrays(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            grads = backward(tape, dot(_mul(x, x), 1.0), {"x": x, "again": x})
        assert np.array_equal(grads["x"], 2 * x.data) and np.array_equal(grads["again"], 2 * x.data)
        assert not np.shares_memory(grads["x"], grads["again"])

    def test_recording_is_topological(self):
        x = Tensor(rng(8).normal(size=(2, 2)), requires_grad=True)
        with Tape() as tape:
            y = _mul(_add(x, x), x)
            dot(y, 1.0)
        produced = set()
        for node in tape.nodes:
            assert None not in node.in_keys    # every input here needs a gradient
            for key in node.in_keys:
                # inputs must be leaves or outputs of earlier nodes
                assert key == x.key or key in produced
            produced.add(node.out_key)
        assert len(produced) == len(tape.nodes) == 3


def _scale(a: Tensor) -> Tensor:
    return record_op("scale", (a,), 2.0 * a.data, lambda g: (2.0 * g,))


class TestTapeLifetime:
    def test_sweep_empties_tape_and_frees_intermediates(self, no_gc):
        r = rng(18)
        x = Tensor(r.normal(size=(1, 2, 5, 5)), requires_grad=True)
        k1 = Tensor(r.normal(size=(3, 2, 3, 3)), requires_grad=True)
        k2 = Tensor(r.normal(size=(2, 3, 3, 3)), requires_grad=True)
        with Tape() as tape:
            # the second conv's rule holds y1 for its kernel gradient, the first
            # conv's rule holds y1 for its relu mask
            y1 = conv2d(x, Conv2dParams(k1, Tensor(np.zeros(3)), relu=True))
            y2 = conv2d(y1, Conv2dParams(k2, Tensor(np.zeros(2)), relu=True))
            root = sum_sq(y2)
        refs = [weakref.ref(y1.data), weakref.ref(y2.data)]
        del y1, y2
        grads = backward(tape, root, {"x": x, "k1": k1})
        assert tape.nodes == []
        assert [ref() for ref in refs] == [None, None]
        assert grads["x"].shape == x.shape and grads["k1"].shape == k1.shape

    def test_each_node_is_freed_once_it_has_run(self, no_gc):
        x = Tensor(rng(19).normal(size=(3,)), requires_grad=True)
        dead_when_first_ran = []

        def first_rule(g):
            dead_when_first_ran.append([ref() is None for ref in refs])
            return (2.0 * g,)

        with Tape() as tape:
            a = record_op("first", (x,), 2.0 * x.data, first_rule)
            b = _scale(a)
            c = _scale(b)
            root = dot(c, 1.0)
        refs = [weakref.ref(b.data), weakref.ref(c.data)]
        del a, b, c
        grads = backward(tape, root, {"x": x})
        # the later nodes' outputs were gone before the sweep reached the first node
        assert dead_when_first_ran == [[True, True]]
        assert np.array_equal(grads["x"], np.full(3, 8.0))

    def test_swept_tape_raises_on_second_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            root = dot(_mul(x, x), 1.0)
            grad = backward(tape, root, {"x": x})["x"]
            with pytest.raises(ContractError, match="swept"):
                backward(tape, root, {"x": x})
        assert np.array_equal(grad, 2 * x.data)


class TestInvariantProperties:
    def test_linearity_of_backward(self):
        r = rng(10)
        x_data = r.normal(size=(2, 4, 4, 4))
        gate = gate_tensors(4, 2, 3, r)
        g1, g2 = r.normal(size=x_data.shape), r.normal(size=x_data.shape)

        def grad_of(g):
            x = Tensor(x_data.copy(), requires_grad=True)
            with Tape() as tape:
                return backward(tape, dot(hybrid_attention_block(x, *gate), g), {"x": x})["x"]

        a, b = 2.5, -1.25
        lhs = grad_of(a * g1 + b * g2)
        rhs = a * grad_of(g1) + b * grad_of(g2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_determinism_bitwise(self):
        def run():
            r = rng(11)
            x = Tensor(r.normal(size=(2, 4, 4, 4)), requires_grad=True)
            k = Tensor(r.normal(size=(4, 4, 3, 3)), requires_grad=True)
            gate = gate_tensors(4, 2, 3, r)
            with Tape() as tape:
                y = conv2d(x, Conv2dParams(k, Tensor(np.zeros(4)), relu=True))
                out = sum_sq(hybrid_attention_block(y, *gate))
                grads = backward(tape, out, {"x": x, "k": k, "w1": gate[0]})
            return out.data.tobytes(), *(g.tobytes() for g in grads.values())

        assert run() == run()


class TestGradCheckHarness:
    def test_exact_linear_case(self):
        x = Tensor(rng(13).normal(size=(5,)), requires_grad=True)
        assert grad_check(lambda t: dot(t, 1.0), [x]) < 1e-9

    def test_mean_cubic(self):
        x = Tensor(rng(14).normal(size=(3, 3)), requires_grad=True)
        assert grad_check(lambda t: dot(_mul(t, _mul(t, t)), 1.0 / 9.0), [x]) < 1e-5

    def test_report_carries_failures(self):
        x = Tensor(rng(15).normal(size=(4,)), requires_grad=True)
        # rounding in the central differences leaves an error a tight tolerance sees
        assert grad_check(sum_sq, [x]) > 1e-18
