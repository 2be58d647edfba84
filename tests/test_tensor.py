import weakref

import numpy as np
import pytest

from conftest import dot, sum_sq

from auseg.attention import hybrid_attention_block, init_channel_attention, init_spatial_attention
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
            backward(tape, dot(x, 1.0))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gives_2x(self):
        # one node that reads x twice: the fan-in sum adds both input gradients
        x = Tensor(rng(5).normal(size=(7,)), requires_grad=True)
        with Tape() as tape:
            backward(tape, dot(_mul(x, x), 1.0))
        assert np.array_equal(x.grad, 2 * x.data)

    def test_grads_accumulate_until_zeroed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                backward(tape, dot(x, 1.0))
        assert np.array_equal(x.grad, [2.0, 2.0])
        x.zero_grad()
        assert x.grad is None

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = _mul(x, x)
            with pytest.raises(ContractError):
                backward(tape, y)

    def test_composite_graph_finite_differences(self):
        r = rng(6)
        x = Tensor(r.normal(size=(1, 2, 4, 4)), requires_grad=True)
        k = Tensor(r.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(r.normal(size=(3,)), requires_grad=True)

        def f(x, k, b):
            # x reaches the root directly and through the convolution
            return sum_sq(concat_channels(x, conv2d(x, Conv2dParams(k, b, padding="same"))))

        report = grad_check(f, [x, k, b], h=1e-5, tol=1e-5, coords_per_input=10, rng=rng(7))
        assert report.passed, report.max_rel_err

    def test_fanout_accumulates(self):
        x = Tensor(np.full((1, 1, 1, 1), 3.0), requires_grad=True)
        with Tape() as tape:
            y = concat_channels(x, x)  # dsum(y)/dx = 2
            backward(tape, dot(y, 1.0))
        assert x.grad.tolist() == [[[[2.0]]]]

    def test_only_leaves_keep_gradients(self):
        # intermediate gradients are dropped during the sweep; each leaf gets its own copy
        x = Tensor(rng(16).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng(17).normal(size=(2, 3)), requires_grad=True)
        with Tape() as tape:
            m = _mul(x, x)
            y = _add(m, b)
            z = _add(y, x)
            backward(tape, dot(z, 1.0))
        assert m.grad is None and y.grad is None and z.grad is None
        assert np.array_equal(x.grad, (1.0 + x.data) + x.data)
        assert np.array_equal(b.grad, np.ones((2, 3)))
        assert not np.shares_memory(x.grad, b.grad)

    def test_recording_is_topological(self):
        x = Tensor(rng(8).normal(size=(2, 2)), requires_grad=True)
        with Tape() as tape:
            y = _mul(_add(x, x), x)
            dot(y, 1.0)
        produced = set()
        for node in tape.nodes:
            for inp in node.inputs:
                # inputs must be leaves or outputs of earlier nodes
                assert id(inp) == id(x) or id(inp) in produced
            produced.add(id(node.output))


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
            y1 = conv2d(x, Conv2dParams(k1, Tensor(np.zeros(3)), padding="same", relu=True))
            y2 = conv2d(y1, Conv2dParams(k2, Tensor(np.zeros(2)), padding="same", relu=True))
            root = sum_sq(y2)
        refs = [weakref.ref(y1.data), weakref.ref(y2.data)]
        del y1, y2
        backward(tape, root)
        assert tape.nodes == []
        assert [ref() for ref in refs] == [None, None]
        assert x.grad.shape == x.shape and k1.grad.shape == k1.shape

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
        backward(tape, root)
        # the later nodes' outputs were gone before the sweep reached the first node
        assert dead_when_first_ran == [[True, True]]
        assert np.array_equal(x.grad, np.full(3, 8.0))

    def test_swept_tape_raises_on_second_backward(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            root = dot(_mul(x, x), 1.0)
            backward(tape, root)
            grad = x.grad.copy()
            with pytest.raises(ContractError, match="swept"):
                backward(tape, root)
        assert np.array_equal(x.grad, grad)


class TestInvariantProperties:
    def test_linearity_of_backward(self):
        r = rng(10)
        x_data = r.normal(size=(2, 4, 4, 4))
        cp, sp = init_channel_attention(4, 2, r), init_spatial_attention(3, r)
        g1, g2 = r.normal(size=x_data.shape), r.normal(size=x_data.shape)

        def grad_of(g):
            x = Tensor(x_data.copy(), requires_grad=True)
            with Tape() as tape:
                backward(tape, dot(hybrid_attention_block(x, cp, sp), g))
            return x.grad

        a, b = 2.5, -1.25
        lhs = grad_of(a * g1 + b * g2)
        rhs = a * grad_of(g1) + b * grad_of(g2)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_determinism_bitwise(self):
        def run():
            r = rng(11)
            x = Tensor(r.normal(size=(2, 4, 4, 4)), requires_grad=True)
            k = Tensor(r.normal(size=(4, 4, 3, 3)), requires_grad=True)
            cp, sp = init_channel_attention(4, 2, r), init_spatial_attention(3, r)
            with Tape() as tape:
                y = conv2d(x, Conv2dParams(k, Tensor(np.zeros(4)), padding="same", relu=True))
                out = sum_sq(hybrid_attention_block(y, cp, sp))
                backward(tape, out)
            return out.data.tobytes(), x.grad.tobytes(), k.grad.tobytes(), cp.w1.grad.tobytes()

        assert run() == run()


class TestGradCheckHarness:
    def test_exact_linear_case(self):
        x = Tensor(rng(13).normal(size=(5,)), requires_grad=True)
        report = grad_check(lambda t: dot(t, 1.0), [x])
        assert report.passed
        assert report.max_rel_err < 1e-9

    def test_mean_cubic(self):
        x = Tensor(rng(14).normal(size=(3, 3)), requires_grad=True)
        report = grad_check(lambda t: dot(_mul(t, _mul(t, t)), 1.0 / 9.0), [x], tol=1e-5)
        assert report.passed

    def test_report_carries_failures(self):
        x = Tensor(rng(15).normal(size=(4,)), requires_grad=True)
        report = grad_check(sum_sq, [x], tol=1e-18)
        assert not report.passed
        assert report.max_rel_err > report.tol
