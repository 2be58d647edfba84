import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import loop_broadcast_mul, loop_reduce

from auseg.errors import ContractError, ShapeError
from auseg.tensor import (Tape, Tensor, add, backward, full, grad_check, mul_elementwise,
                          reduce_mean, reduce_sum)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestFactories:
    def test_full(self):
        t = full([2, 3], 2.5)
        assert t.shape == (2, 3)
        assert t.size == 6
        assert np.all(t.data == 2.5)

    @pytest.mark.parametrize("shape", [[0], [2, 0], [-1, 3]])
    def test_bad_extents(self, shape):
        with pytest.raises(ShapeError):
            full(shape, 0.0)

    def test_rank_limit(self):
        with pytest.raises(ShapeError):
            full([1, 1, 1, 1, 1], 0.0)


class TestElementwise:
    def test_mul_identity(self):
        out = mul_elementwise(Tensor([1.0, 2.0, 3.0]), Tensor([1.0, 1.0, 1.0]))
        assert out.data.tolist() == [1.0, 2.0, 3.0]

    def test_add(self):
        assert add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0])).data.tolist() == [4.0, 6.0]

    def test_broadcast_mul_matches_loop_oracle(self):
        r = rng(1)
        f = r.normal(size=(2, 3, 4, 4))
        w = r.normal(size=(2, 3, 1, 1))
        out = mul_elementwise(Tensor(f), Tensor(w))
        assert np.max(np.abs(out.data - loop_broadcast_mul(f, w))) < 1e-12

    def test_incompatible_shapes(self):
        with pytest.raises(ShapeError):
            add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))))
        with pytest.raises(ShapeError):
            mul_elementwise(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3,))))

    def test_two_sided_broadcast_rejected(self):
        with pytest.raises(ShapeError):
            mul_elementwise(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 1))))


class TestReductions:
    def test_mean_axis0(self):
        assert reduce_mean(Tensor([2.0, 4.0, 6.0]), axes=0).item() == 4.0

    def test_sum_zeros(self):
        assert reduce_sum(full([3, 3], 0.0)).item() == 0.0

    def test_mean_axis2_vs_loop(self):
        x = rng(3).normal(size=(2, 3, 4))
        out = reduce_mean(Tensor(x), axes=(2,))
        assert np.max(np.abs(out.data - loop_reduce(x, [2], "mean"))) < 1e-12

    def test_keepdims(self):
        out = reduce_sum(Tensor(np.ones((2, 3))), axes=(1,), keepdims=True)
        assert out.shape == (2, 1)

    def test_duplicate_axis(self):
        with pytest.raises(ShapeError):
            reduce_sum(Tensor(np.ones((2, 3))), axes=(1, 1))

    def test_out_of_range_axis(self):
        with pytest.raises(ShapeError):
            reduce_mean(Tensor(np.ones((2, 3))), axes=(2,))


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(rng(4).normal(size=(2, 3)), requires_grad=True)
        with Tape() as tape:
            backward(tape, reduce_sum(x))
        assert np.array_equal(x.grad, np.ones((2, 3)))

    def test_quadratic_gives_2x(self):
        x = Tensor(rng(5).normal(size=(7,)), requires_grad=True)
        with Tape() as tape:
            backward(tape, reduce_sum(mul_elementwise(x, x)))
        assert np.allclose(x.grad, 2 * x.data, atol=1e-15)

    def test_grads_accumulate_until_zeroed(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        for _ in range(2):
            with Tape() as tape:
                backward(tape, reduce_sum(x))
        assert np.array_equal(x.grad, [2.0, 2.0])
        x.zero_grad()
        assert x.grad is None

    def test_non_scalar_root_rejected(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        with Tape() as tape:
            y = mul_elementwise(x, x)
            with pytest.raises(ContractError):
                backward(tape, y)

    def test_composite_graph_finite_differences(self):
        r = rng(6)
        x = Tensor(r.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(r.normal(size=(1, 4)), requires_grad=True)

        def f(x, w):
            # row-wise dot products x @ w.T, squared, plus a linear term
            y = reduce_sum(mul_elementwise(x, w), axes=(1,), keepdims=True)
            return reduce_mean(add(mul_elementwise(y, y), reduce_mean(x, axes=(1,), keepdims=True)))

        report = grad_check(f, [x, w], h=1e-5, tol=1e-5, coords_per_input=10, rng=rng(7))
        assert report.passed, report.max_rel_err

    def test_fanout_accumulates(self):
        x = Tensor([3.0], requires_grad=True)
        with Tape() as tape:
            y = add(x, x)  # dy/dx = 2
            backward(tape, reduce_sum(y))
        assert x.grad.tolist() == [2.0]

    def test_only_leaves_keep_gradients(self):
        # intermediate gradients are dropped during the sweep; each leaf gets its own copy
        x = Tensor(rng(16).normal(size=(2, 3)), requires_grad=True)
        b = Tensor(rng(17).normal(size=(2, 3)), requires_grad=True)
        with Tape() as tape:
            m = mul_elementwise(x, x)
            y = add(m, b)
            z = add(y, x)
            backward(tape, reduce_sum(z))
        assert m.grad is None and y.grad is None and z.grad is None
        assert np.array_equal(x.grad, (1.0 + x.data) + x.data)
        assert np.array_equal(b.grad, np.ones((2, 3)))
        assert not np.shares_memory(x.grad, b.grad)

    def test_recording_is_topological(self):
        x = Tensor(rng(8).normal(size=(2, 2)), requires_grad=True)
        with Tape() as tape:
            y = mul_elementwise(add(x, x), x)
            reduce_sum(y)
        produced = set()
        for node in tape.nodes:
            for inp in node.inputs:
                # inputs must be leaves or outputs of earlier nodes
                assert id(inp) == id(x) or id(inp) in produced
            produced.add(id(node.output))


class TestInvariantProperties:
    def test_linearity_of_backward(self):
        r = rng(10)
        x_data = r.normal(size=(3, 3))

        def grad_of(fn):
            x = Tensor(x_data.copy(), requires_grad=True)
            with Tape() as tape:
                backward(tape, fn(x))
            return x.grad

        f = lambda x: reduce_sum(mul_elementwise(x, x))
        g = lambda x: reduce_mean(x)
        a, b = 2.5, -1.25
        combo = lambda x: add(mul_elementwise(f(x), full((), a)), mul_elementwise(g(x), full((), b)))
        lhs = grad_of(combo)
        rhs = a * grad_of(f) + b * grad_of(g)
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_determinism_bitwise(self):
        def run():
            r = rng(11)
            x = Tensor(r.normal(size=(4, 4)), requires_grad=True)
            w = Tensor(r.normal(size=(1, 4)), requires_grad=True)
            with Tape() as tape:
                y = reduce_sum(mul_elementwise(x, w), axes=(1,))
                out = reduce_mean(mul_elementwise(y, y))
                backward(tape, out)
            return out.data.tobytes(), x.grad.tobytes(), w.grad.tobytes()

        assert run() == run()

    def test_broadcast_grad_equals_tiled_grad(self):
        r = rng(12)
        f = r.normal(size=(2, 3, 4, 4))
        w_data = r.normal(size=(2, 3, 1, 1))

        w = Tensor(w_data.copy(), requires_grad=True)
        with Tape() as tape:
            backward(tape, reduce_sum(mul_elementwise(Tensor(f), w)))
        broadcast_grad = w.grad

        w_tiled = Tensor(np.tile(w_data, (1, 1, 4, 4)), requires_grad=True)
        with Tape() as tape:
            backward(tape, reduce_sum(mul_elementwise(Tensor(f), w_tiled)))
        tiled_sum = w_tiled.grad.sum(axis=(2, 3), keepdims=True)
        assert np.max(np.abs(broadcast_grad - tiled_sum)) < 1e-12


class TestGradCheckHarness:
    def test_exact_linear_case(self):
        x = Tensor(rng(13).normal(size=(5,)), requires_grad=True)
        report = grad_check(lambda t: reduce_sum(t), [x])
        assert report.passed
        assert report.max_rel_err < 1e-9

    def test_mean_cubic(self):
        x = Tensor(rng(14).normal(size=(3, 3)), requires_grad=True)
        report = grad_check(lambda t: reduce_mean(mul_elementwise(t, mul_elementwise(t, t))), [x],
                            tol=1e-5)
        assert report.passed

    def test_report_carries_failures(self):
        x = Tensor(rng(15).normal(size=(4,)), requires_grad=True)
        report = grad_check(lambda t: reduce_sum(mul_elementwise(t, t)), [x], tol=1e-18)
        assert not report.passed
        assert report.worst is not None


@given(st.integers(min_value=1, max_value=4), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=60, deadline=None)
def test_add_commutes_and_mul_identity(rows, cols, seed):
    r = np.random.default_rng(seed)
    a = r.normal(size=(rows, cols))
    b = r.normal(size=(rows, cols))
    ab = add(Tensor(a), Tensor(b)).data
    ba = add(Tensor(b), Tensor(a)).data
    assert np.array_equal(ab, ba)
    assert np.array_equal(mul_elementwise(Tensor(a), full([rows, cols], 1.0)).data, a)
