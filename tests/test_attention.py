import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import formula_sigmoid, loop_channel_avg, loop_channel_max, loop_conv2d

from conftest import channel_gate, dot, gate_tensors, spatial_gate, sum_sq

from auseg import attention
from auseg.attention import channel_attention, hybrid_attention_block, spatial_attention
from auseg.errors import ConfigError, ShapeError
from auseg.tensor import Tape, Tensor, backward, grad_check
from auseg.unet import UnetConfig


def rng(seed=0):
    return np.random.default_rng(seed)


def zero_gate(c, r, k=3):
    """w1, w2, kernel and bias of a gate whose every weight is zero."""
    return tuple(Tensor(np.zeros(shape), requires_grad=True)
                 for shape in ((c // r, c), (c, c // r), (1, 2, k, k), (1,)))


def arrays(*tensors):
    return [t.data for t in tensors]


class TestChannelAttention:
    def test_zero_weights_give_half(self):
        out = channel_attention(rng(1).normal(size=(2, 4, 3, 3)), *arrays(*zero_gate(4, 2)[:2]))
        assert out.shape == (2, 4, 1, 1)
        assert np.all(out == 0.5)

    def test_gap_symmetry_constant_spatial(self):
        # per-channel constant input: identical gates regardless of H x W
        values = np.array([0.3, -1.2, 2.0, 0.7])
        w = arrays(*channel_gate(4, 2, rng(2)))
        outs = []
        for h, wd in [(1, 1), (3, 5), (8, 2)]:
            f = np.broadcast_to(values[None, :, None, None], (1, 4, h, wd)).copy()
            outs.append(channel_attention(f, *w).reshape(-1))
        assert np.max(np.abs(outs[0] - outs[1])) < 1e-15
        assert np.max(np.abs(outs[0] - outs[2])) < 1e-15

    def test_vs_matrix_vector_oracle(self):
        r = rng(3)
        c, red = 4, 2
        f = r.uniform(-2, 2, size=(2, c, 3, 3))
        w1 = r.normal(size=(red, c))
        w2 = r.normal(size=(c, red))
        out = channel_attention(f, w1, w2)

        for n in range(2):
            gap = np.array([f[n, ci].sum() / 9.0 for ci in range(c)])
            hidden = np.array([max(0.0, sum(w1[i, j] * gap[j] for j in range(c)))
                               for i in range(red)])
            logits = np.array([sum(w2[i, j] * hidden[j] for j in range(red))
                               for i in range(c)])
            expected = formula_sigmoid(logits)
            assert np.max(np.abs(out[n, :, 0, 0] - expected)) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            channel_attention(np.zeros((1, 6, 2, 2)), *arrays(*zero_gate(4, 2)[:2]))

    def test_w2_must_mirror_w1(self):
        with pytest.raises(ShapeError, match="mirror"):
            channel_attention(np.zeros((1, 4, 2, 2)), np.zeros((2, 4)), np.zeros((4, 1)))

    def test_spatial_permutation_invariance(self):
        r = rng(4)
        f = r.normal(size=(1, 4, 4, 4))
        w = arrays(*channel_gate(4, 4, r))
        base = channel_attention(f, *w)
        perm = r.permutation(16)
        shuffled = f.reshape(1, 4, 16)[:, :, perm].reshape(1, 4, 4, 4)
        out = channel_attention(shuffled, *w)
        assert np.max(np.abs(base - out)) < 1e-12

    def test_ratio_must_divide(self):
        with pytest.raises(ConfigError, match="must divide stage width 6"):
            UnetConfig(depth=1, base_channels=6, reduction_ratio=4)

    def test_ratio_must_be_positive(self):
        with pytest.raises(ConfigError, match="reduction_ratio"):
            UnetConfig(reduction_ratio=0)

    def test_huge_logits_saturate_without_overflow(self):
        # hidden unit = mean of channel 0 = 1; logits -800 and +800
        w1, w2 = np.array([[1.0, 0.0]]), np.array([[-800.0], [800.0]])
        f = np.zeros((1, 2, 2, 2))
        f[0, 0] = 1.0
        with np.errstate(over="raise"):
            out = channel_attention(f, w1, w2)
        assert out.reshape(-1).tolist() == [0.0, 1.0]


class TestSpatialAttention:
    def test_zero_conv_gives_half(self):
        out = spatial_attention(rng(6).normal(size=(2, 3, 4, 4)), *arrays(*zero_gate(4, 2)[2:]))
        assert out.shape == (2, 1, 4, 4)
        assert np.all(out == 0.5)

    def test_constant_input_gives_constant_map(self):
        out = spatial_attention(np.full((1, 3, 5, 5), 0.75), *arrays(*spatial_gate(3, rng(7))))
        interior = out[0, 0, 1:-1, 1:-1]  # away from zero-padding border effects
        assert np.max(np.abs(interior - interior[0, 0])) < 1e-15

    def test_vs_composed_loop_oracle(self):
        r = rng(8)
        f = r.uniform(-2, 2, size=(1, 3, 6, 6))
        k = r.normal(size=(1, 2, 7, 7))
        b = r.normal(size=1)
        out = spatial_attention(f, k, b)

        stacked = np.concatenate([loop_channel_max(f), loop_channel_avg(f)], axis=1)
        convolved = loop_conv2d(stacked, k, b, 1, 3)
        expected = formula_sigmoid(convolved)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_stacking_order_max_first(self):
        # a kernel reading only channel 0 must see the max map
        f = np.zeros((1, 2, 3, 3))
        f[0, 0] = 4.0
        f[0, 1] = -4.0  # max = 4, avg = 0
        k = np.zeros((1, 2, 1, 1))
        k[0, 0, 0, 0] = 1.0
        out = spatial_attention(f, k, np.zeros(1))
        assert np.allclose(out, 1.0 / (1.0 + math.exp(-4.0)))

    def test_huge_logits_saturate_without_overflow(self):
        f = rng(24).normal(size=(1, 3, 3, 3))
        for bias, gate in ((-800.0, 0.0), (800.0, 1.0)):
            with np.errstate(over="raise"):
                out = spatial_attention(f, np.zeros((1, 2, 3, 3)), np.array([bias]))
            assert np.all(out == gate)

    def test_requires_two_input_channels(self):
        with pytest.raises(ShapeError, match="2 -> 1"):
            spatial_attention(np.zeros((1, 3, 4, 4)), np.zeros((1, 3, 3, 3)), np.zeros(1))

    @pytest.mark.parametrize("shape", [(1, 2, 2, 2), (1, 2, 3, 5)])
    def test_requires_square_odd_kernel(self, shape):
        with pytest.raises(ShapeError, match="square odd"):
            spatial_attention(np.zeros((1, 3, 4, 4)), np.zeros(shape), np.zeros(1))

    def test_flip_equivariance_with_symmetric_kernel(self):
        r = rng(9)
        f = r.normal(size=(1, 3, 4, 6))
        k = r.normal(size=(1, 2, 3, 3))
        k = (k + k[:, :, :, ::-1]) / 2.0  # left-right symmetric
        direct = spatial_attention(f[:, :, :, ::-1].copy(), k.copy(), np.zeros(1))
        flipped = spatial_attention(f, k.copy(), np.zeros(1))[:, :, :, ::-1]
        assert np.max(np.abs(direct - flipped)) < 1e-12


class TestHybridApply:
    """The fused op multiplies F by both gates: F[n,c,h,w] * w_c[n,c] * w_s[n,h,w]."""

    def test_identity_gates(self, monkeypatch):
        monkeypatch.setattr(attention, "_sigmoid", np.ones_like)
        r = rng(10)
        f = Tensor(r.normal(size=(2, 4, 4, 4)))
        gate = gate_tensors(4, 2, 3, r)
        for composition in ("parallel", "sequential"):
            out = hybrid_attention_block(f, *gate, composition)
            assert out.data.tobytes() == f.data.tobytes()

    def test_zero_spatial_gate_annihilates(self):
        r = rng(11)
        f = Tensor(r.normal(size=(2, 4, 4, 4)))
        w1, w2 = channel_gate(4, 2, r)
        out = hybrid_attention_block(f, w1, w2, Tensor(np.zeros((1, 2, 3, 3))),
                                     Tensor(np.array([-800.0])))
        assert np.all(out.data == 0.0)

    def test_vs_triple_loop_oracle(self):
        r = rng(12)
        f = r.uniform(-2, 2, size=(2, 4, 5, 5))
        gate = gate_tensors(4, 2, 3, r)
        w1, w2, k, b = arrays(*gate)
        wc = channel_attention(f, w1, w2)
        for composition in ("parallel", "sequential"):
            out = hybrid_attention_block(Tensor(f), *gate, composition).data
            ws = spatial_attention(f if composition == "parallel" else f * wc, k, b)
            expected = np.zeros_like(f)
            for n in range(2):
                for c in range(4):
                    for i in range(5):
                        for j in range(5):
                            expected[n, c, i, j] = f[n, c, i, j] * wc[n, c, 0, 0] * ws[n, 0, i, j]
            assert np.max(np.abs(out - expected)) < 1e-12

    def test_broadcast_mismatch(self):
        f = Tensor(np.zeros((2, 3, 4, 4)))
        with pytest.raises(ShapeError):
            hybrid_attention_block(f, *zero_gate(2, 1))


class TestHybridBlock:
    def test_all_zero_parameters_quarter_identity(self):
        f_data = rng(13).normal(size=(2, 4, 4, 4))
        out = hybrid_attention_block(Tensor(f_data), *zero_gate(4, 2))
        assert np.max(np.abs(out.data - 0.25 * f_data)) < 1e-15

    def test_gradcheck_all_parameters(self):
        r = rng(14)
        f = Tensor(r.normal(size=(1, 4, 4, 4)), requires_grad=True)
        gate = gate_tensors(4, 2, 3, r)

        def loss(*ts):
            return sum_sq(hybrid_attention_block(*ts))

        assert grad_check(loss, [f, *gate], rng=rng(15)) < 1e-5

    def test_gradcheck_sequential(self):
        r = rng(25)
        f = Tensor(r.normal(size=(2, 4, 4, 4)), requires_grad=True)
        gate = gate_tensors(4, 2, 3, r)

        def loss(*ts):
            return sum_sq(hybrid_attention_block(*ts, composition="sequential"))

        assert grad_check(loss, [f, *gate], rng=rng(26)) < 1e-5

    @pytest.mark.parametrize("composition", ["parallel", "sequential"])
    def test_max_route_goes_to_first_maximal_channel(self, composition):
        # channels 0 and 1 tie at the max of every pixel; the spatial kernel reads the
        # max map only, so the two channels' gradients differ by the max route alone
        f_data = np.array([2.0, 2.0, -1.0]).reshape(1, 3, 1, 1) * np.ones((1, 3, 2, 2))
        f = Tensor(f_data, requires_grad=True)
        k = np.zeros((1, 2, 1, 1))
        k[0, 0, 0, 0] = 1.0
        w1, w2 = zero_gate(3, 1)[:2]
        with Tape() as tape:
            root = dot(hybrid_attention_block(f, w1, w2, Tensor(k), Tensor(np.zeros(1)),
                                              composition), 1.0)
            gf = backward(tape, root, {"f": f})["f"]
        # w_c = 0.5; the max map is 2, or 1 when it is taken of the gated map F * w_c
        ws = 1.0 / (1.0 + np.exp(-(1.0 if composition == "sequential" else 2.0)))
        max_route = 0.5 * 3.0 * ws * (1.0 - ws)    # sum_c F * w_c * sigmoid'
        if composition == "sequential":
            max_route *= 0.5                        # routed through F * w_c
        assert np.allclose(gf[0, 0] - gf[0, 1], max_route, rtol=1e-12, atol=0)
        assert np.array_equal(gf[0, 1], 0.5 * ws * np.ones((2, 2)))

    def test_attenuation_elementwise(self):
        r = rng(16)
        f_data = r.normal(size=(2, 4, 5, 5))
        out = hybrid_attention_block(Tensor(f_data), *gate_tensors(4, 2, 5, r)).data
        assert np.all(np.abs(out) <= np.abs(f_data))
        assert np.all(np.sign(out[f_data != 0]) == np.sign(f_data[f_data != 0]))

    def test_gate_ranges_strictly_open(self):
        r = rng(17)
        f = r.normal(scale=3.0, size=(2, 8, 4, 4))
        w1, w2, k, b = arrays(*gate_tensors(8, 4, 3, r))
        wc = channel_attention(f, w1, w2)
        ws = spatial_attention(f, k, b)
        for gates in (wc, ws):
            assert np.all(gates > 0.0) and np.all(gates < 1.0)

    def test_sequential_composition_differs_from_parallel(self):
        r = rng(18)
        f = Tensor(r.normal(size=(1, 4, 4, 4)))
        gate = gate_tensors(4, 2, 3, r)
        par = hybrid_attention_block(f, *gate, composition="parallel").data
        seq = hybrid_attention_block(f, *gate, composition="sequential").data
        assert par.shape == seq.shape
        assert np.max(np.abs(par - seq)) > 0.0

    def test_unknown_composition(self):
        f = Tensor(np.zeros((1, 4, 2, 2)))
        with pytest.raises(ConfigError):
            hybrid_attention_block(f, *zero_gate(4, 2), composition="stacked")


@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
@settings(max_examples=80, deadline=None)
def test_attenuation_property(seed):
    r = np.random.default_rng(seed)
    f_data = r.normal(scale=2.0, size=(1, 4, 4, 4))
    out = hybrid_attention_block(Tensor(f_data), *gate_tensors(4, 2, 3, r)).data
    assert np.all(np.abs(out) <= np.abs(f_data))


def two_branch_sigmoid(z):
    """The overflow-free sigmoid as first written: boolean-indexed branches."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_bytes_match_two_branch_formula():
    specials = [0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, 1e-300, -1e-300, 36.0, -36.0]
    z = np.concatenate([rng(40).normal(scale=8.0, size=246), specials, [np.nan] * 4])
    z = z.reshape(2, 1, 13, 10)
    got, want = attention._sigmoid(z), two_branch_sigmoid(z)
    finite = ~np.isnan(z)
    assert got[finite].tobytes() == want[finite].tobytes()
    # a NaN stays NaN (its sign bit is not part of the contract)
    assert np.all(np.isnan(got[~finite]))
