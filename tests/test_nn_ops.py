import numpy as np
import pytest

from oracles import (composed_conv_layer, loop_conv2d, loop_maxpool2d, loop_maxpool2d_grad,
                     loop_transposed_conv2d)

from conftest import desk_unet_config, dot, sum_sq, traced_rise_mib

from auseg import attention, nn_ops
from auseg.errors import ConfigError, ContractError, ShapeError
from auseg.losses_metrics import LossConfig, combined_loss
from auseg.nn_ops import Conv2dParams, concat_channels, conv2d, maxpool2d, transposed_conv2d
from auseg.tensor import Tape, Tensor, backward, grad_check
from auseg.unet import UnetConfig, build_model, forward


def rng(seed=0):
    return np.random.default_rng(seed)


def params(kernel, bias=None, grad=False):
    kernel = np.asarray(kernel, dtype=np.float64)
    if bias is None:
        bias = np.zeros(kernel.shape[0])
    return Conv2dParams(Tensor(kernel, requires_grad=grad),
                        Tensor(np.asarray(bias, dtype=np.float64), requires_grad=grad))


class TestConv2d:
    def test_all_ones(self):
        # each output counts the taps of its 3x3 window that lie inside the input
        x = Tensor(np.ones((1, 1, 3, 3)))
        out = conv2d(x, params(np.ones((1, 1, 3, 3))))
        assert out.data[0, 0].tolist() == [[4.0, 6.0, 4.0], [6.0, 9.0, 6.0], [4.0, 6.0, 4.0]]

    def test_zero_kernel(self):
        x = Tensor(rng(1).normal(size=(2, 3, 5, 5)))
        p = params(np.zeros((4, 3, 3, 3)))
        assert np.all(conv2d(x, p).data == 0.0)

    def test_same_padding_vs_loop_oracle(self):
        r = rng(2)
        x = r.uniform(-2, 2, size=(1, 3, 5, 5))
        k = r.uniform(-2, 2, size=(4, 3, 3, 3))
        b = r.uniform(-1, 1, size=4)
        out = conv2d(Tensor(x), params(k, b))
        assert np.max(np.abs(out.data - loop_conv2d(x, k, b, 1, 1))) < 1e-12

    def test_stride_two_vs_oracle(self):
        # conv2d itself is stride 1; its core also runs at stride s for the up-conv's
        # input gradient, and here at stride 2 with padding 1
        r = rng(3)
        x = r.uniform(-2, 2, size=(2, 2, 6, 6))
        k = r.uniform(-2, 2, size=(3, 2, 3, 3))
        b = r.uniform(-1, 1, size=3)
        out = nn_ops._conv(x, k, 2, 1, 3, 3).reshape(2, 3, 3, 3) + b[:, None, None]
        assert np.max(np.abs(out - loop_conv2d(x, k, b, 2, 1))) < 1e-12

    def test_input_smaller_than_kernel_vs_loop_oracle(self):
        # a 5x5 kernel over a 2x3 input: every window is zero-extended on all sides
        r = rng(3)
        x = r.uniform(-2, 2, size=(2, 2, 2, 3))
        k = r.uniform(-2, 2, size=(3, 2, 5, 5))
        b = r.uniform(-1, 1, size=3)
        out = conv2d(Tensor(x), params(k, b))
        assert np.max(np.abs(out.data - loop_conv2d(x, k, b, 1, 2))) < 1e-12

    def test_channel_mismatch(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 2, 4, 4))), params(np.zeros((1, 3, 3, 3))))

    @pytest.mark.parametrize("shape", [(1, 1, 2, 2), (1, 1, 3, 5)], ids=["2x2", "3x5"])
    def test_kernel_must_be_square_odd(self, shape):
        with pytest.raises(ShapeError, match='conv2d needs a square odd "same" kernel'):
            conv2d(Tensor(np.zeros((1, 1, 4, 4))), params(np.zeros(shape)))

    def test_same_preserves_spatial_extent(self):
        for h, w, k in [(4, 6, 3), (8, 8, 5), (5, 7, 7)]:
            x = Tensor(rng(4).normal(size=(1, 2, h, w)))
            p = params(rng(5).normal(size=(3, 2, k, k)))
            assert conv2d(x, p).shape == (1, 3, h, w)

    def test_gradcheck(self):
        r = rng(6)
        x = Tensor(r.normal(size=(1, 2, 4, 4)), requires_grad=True)
        k = Tensor(r.normal(size=(3, 2, 3, 3)), requires_grad=True)
        b = Tensor(r.normal(size=3), requires_grad=True)

        def f(x, k, b):
            return sum_sq(conv2d(x, Conv2dParams(k, b)))

        assert grad_check(f, [x, k, b], rng=rng(7)) < 1e-5


class TestTransposedConv2d:
    def test_single_tap_expansion(self):
        v = 1.75
        k = rng(8).normal(size=(1, 1, 2, 2))
        x = Tensor(np.full((1, 1, 1, 1), v))
        out = transposed_conv2d(x, Conv2dParams(Tensor(k), Tensor(np.zeros(1))))
        assert out.shape == (1, 1, 2, 2)
        assert np.max(np.abs(out.data - v * k[0, 0])) < 1e-15

    def test_zero_input(self):
        p = Conv2dParams(Tensor(rng(9).normal(size=(2, 3, 2, 2))), Tensor(np.zeros(3)))
        out = transposed_conv2d(Tensor(np.zeros((1, 2, 3, 3))), p)
        assert np.all(out.data == 0.0)

    def test_doubles_spatial_extent(self):
        p = Conv2dParams(Tensor(rng(10).normal(size=(4, 2, 2, 2))), Tensor(np.zeros(2)))
        assert transposed_conv2d(Tensor(np.zeros((1, 4, 5, 6))), p).shape == (1, 2, 10, 12)

    def test_vs_loop_oracle(self):
        r = rng(11)
        x = r.uniform(-2, 2, size=(2, 3, 3, 4))
        k = r.uniform(-2, 2, size=(3, 2, 2, 2))
        b = r.uniform(-1, 1, size=2)
        out = transposed_conv2d(Tensor(x), Conv2dParams(Tensor(k), Tensor(b)))
        assert np.max(np.abs(out.data - loop_transposed_conv2d(x, k, b, 2))) < 1e-12

    def test_adjoint_of_conv2d(self):
        # the forward pass is the adjoint of the stride-2 conv with the same kernel, and
        # the input gradient is that conv: <up(x), g> == <x, conv(g)>
        r = rng(12)
        k = r.normal(size=(3, 2, 2, 2))    # up: 3 -> 2 channels, conv: 2 -> 3
        x = Tensor(r.normal(size=(2, 3, 3, 4)), requires_grad=True)
        g = r.normal(size=(2, 2, 6, 8))
        with Tape() as tape:
            y = transposed_conv2d(x, Conv2dParams(Tensor(k), Tensor(np.zeros(2))))
            gx = backward(tape, dot(y, g), {"x": x})["x"]
        conv_g = loop_conv2d(g, k, np.zeros(3), 2, 0)
        assert np.max(np.abs(gx - conv_g)) < 1e-12
        lhs, rhs = float(np.sum(y.data * g)), float(np.sum(x.data * conv_g))
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))

    def test_kernel_must_be_square(self):
        p = Conv2dParams(Tensor(np.zeros((2, 3, 2, 3))), Tensor(np.zeros(3)))
        with pytest.raises(ShapeError, match="transposed_conv2d needs a square kernel"):
            transposed_conv2d(Tensor(np.zeros((1, 2, 3, 3))), p)

    def test_gradcheck(self):
        r = rng(13)
        x = Tensor(r.normal(size=(1, 3, 3, 3)), requires_grad=True)
        k = Tensor(r.normal(size=(3, 2, 2, 2)), requires_grad=True)
        b = Tensor(r.normal(size=2), requires_grad=True)

        def f(x, k, b):
            return sum_sq(transposed_conv2d(x, Conv2dParams(k, b)))

        assert grad_check(f, [x, k, b], rng=rng(14)) < 1e-5


def _extent(size, k, s, pad):
    return (size + 2 * pad - k) // s + 1


# Shapes the convolution core must get right: (n, c, o, h, w, k, stride, pad).
# conv2d runs the stride-1 "same" ones; the up-conv's backward runs it at stride s.
CONV_CASES = {
    "stride2_pad1": (2, 3, 4, 7, 6, 3, 2, 1),
    "head_1x1": (2, 8, 3, 5, 5, 1, 1, 0),
    "spatial_attention_7x7_same": (2, 2, 1, 6, 6, 7, 1, 3),
    "h_ne_w": (1, 2, 3, 4, 7, 3, 1, 1),
    # (h + 2*pad - k) % s != 0 in both axes: the last input rows and columns get no gradient
    "k2_s3_rows_without_gradient": (2, 2, 3, 9, 7, 2, 3, 0),
}
SAME_CASES = {name: case for name, case in CONV_CASES.items()
              if case[6] == 1 and 2 * case[7] == case[5] - 1}


@pytest.mark.parametrize("case", CONV_CASES.values(), ids=CONV_CASES.keys())
def test_conv2d_core_cases_vs_oracle(case):
    # the core's forward pass against the oracle, and its kernel gradient as that pass's
    # adjoint in the kernel: <conv(x, K), g> == <K, kernel_grad(g, x)>
    n, c, o, h, w, k, s, pad = case
    r = rng(40)
    x = r.uniform(-2, 2, size=(n, c, h, w))
    kern = r.uniform(-2, 2, size=(o, c, k, k))
    ho, wo = _extent(h, k, s, pad), _extent(w, k, s, pad)
    y = nn_ops._conv(x, kern, s, pad, ho, wo).reshape(n, o, ho, wo)
    assert np.max(np.abs(y - loop_conv2d(x, kern, np.zeros(o), s, pad))) < 1e-12
    g = r.normal(size=y.shape)
    gk = nn_ops._conv_kernel_grad(g, x, kern.shape, s, pad)
    lhs, rhs = float(np.sum(y * g)), float(np.sum(kern * gk))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


@pytest.mark.parametrize("case", SAME_CASES.values(), ids=SAME_CASES.keys())
def test_conv2d_same_cases_gradcheck(case):
    n, c, o, h, w, k, _, _ = case
    r = rng(41)
    xt = Tensor(r.normal(size=(n, c, h, w)), requires_grad=True)
    kt = Tensor(r.normal(size=(o, c, k, k)), requires_grad=True)
    bt = Tensor(r.normal(size=o), requires_grad=True)

    def f(x, kk, bb):
        return sum_sq(conv2d(x, Conv2dParams(kk, bb)))

    assert grad_check(f, [xt, kt, bt], rng=rng(42)) < 1e-5


# (n, c, o, h, w, s) for transposed_conv2d, kernel [c, o, s, s].
TRANSPOSED_CASES = {
    "s2": (2, 3, 2, 3, 4, 2),
    "s3": (2, 2, 3, 3, 2, 3),
}


@pytest.mark.parametrize("case", TRANSPOSED_CASES.values(), ids=TRANSPOSED_CASES.keys())
def test_transposed_conv2d_core_cases_vs_oracle(case):
    # forward against the oracle, the input gradient against the oracle's stride-s conv,
    # and every gradient against finite differences
    n, c, o, h, w, s = case
    r = rng(42)
    x = r.uniform(-2, 2, size=(n, c, h, w))
    kern = r.uniform(-2, 2, size=(c, o, s, s))
    b = r.uniform(-1, 1, size=o)
    xt = Tensor(x, requires_grad=True)
    g = r.normal(size=(n, o, s * h, s * w))
    with Tape() as tape:
        out = transposed_conv2d(xt, Conv2dParams(Tensor(kern), Tensor(b)))
        gx = backward(tape, dot(out, g), {"x": xt})["x"]
    assert np.max(np.abs(out.data - loop_transposed_conv2d(x, kern, b, s))) < 1e-12
    assert np.max(np.abs(gx - loop_conv2d(g, kern, np.zeros(c), s, 0))) < 1e-12

    xt = Tensor(r.normal(size=x.shape), requires_grad=True)
    kt = Tensor(r.normal(size=kern.shape), requires_grad=True)
    bt = Tensor(r.normal(size=o), requires_grad=True)

    def f(x, kk, bb):
        return sum_sq(transposed_conv2d(x, Conv2dParams(kk, bb)))

    assert grad_check(f, [xt, kt, bt], rng=rng(43)) < 1e-5


def _core_adjoint(x, kern, s, pad, g):
    """<conv(x), g> and <x, conv^T(g)>: the core's forward pass and the oracle's transpose."""
    y = nn_ops._conv(x, kern, s, pad, *g.shape[2:]).reshape(g.shape)
    xt = loop_transposed_conv2d(g, kern, np.zeros(kern.shape[1]), s, pad)
    assert xt.shape == x.shape
    return float(np.sum(y * g)), float(np.sum(x * xt))


def test_conv_adjoint_identity_padded_stride2():
    # <conv(x), g> == <x, conv^T(g)> with one kernel, stride 2, padding 1
    r = rng(44)
    kern = r.normal(size=(3, 2, 3, 3))  # conv: 2 -> 3 channels
    lhs, rhs = _core_adjoint(r.normal(size=(2, 2, 7, 9)), kern, 2, 1, r.normal(size=(2, 3, 4, 5)))
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def _adjoint_case(k, s, pad):
    # an input of at least 2 rows that the core's windows tile exactly, made non-square
    h = s * max(1, -((k - 2 - 2 * pad) // s)) + k - 2 * pad
    return k, s, pad, h, h + s


ADJOINT_CASES = {f"k{k}_s{s}_pad{pad}": _adjoint_case(k, s, pad)
                 for k in (1, 2, 3, 5) for s in (1, 2, 3) for pad in range(k)}


@pytest.mark.parametrize("case", ADJOINT_CASES.values(), ids=ADJOINT_CASES.keys())
def test_conv_adjoint_identity_grid(case):
    # <conv(x), g> == <x, conv^T(g)> for the core at every stride and padding, with the
    # oracle's transposed conv, whose output covers x exactly
    k, s, pad, h, w = case
    r = rng(46)
    kern = r.normal(size=(3, 2, k, k))
    x = r.normal(size=(2, 2, h, w))
    g = r.normal(size=(2, 3, _extent(h, k, s, pad), _extent(w, k, s, pad)))
    lhs, rhs = _core_adjoint(x, kern, s, pad, g)
    assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(lhs))


def _transposed_same(x, p):
    """The stride-1 "same" transposed conv of a [C, O, k, k] kernel, as conv2d's input
    gradient computes it: conv2d with the kernel flipped, channels swapped."""
    flipped = p.kernel.data[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    return conv2d(x, Conv2dParams(Tensor(flipped), p.bias))


# (op, c, o, h, w, k): the convolutions run one GEMM per sample
BATCH_CASES = {
    "conv_3x3_same": (conv2d, 3, 4, 7, 6, 3),
    "conv_7x7_same": (conv2d, 2, 1, 6, 6, 7),
    "transposed_k2_s2_pad0": (transposed_conv2d, 3, 2, 3, 4, 2),
    "transposed_k3_s3_pad0": (transposed_conv2d, 3, 2, 3, 4, 3),
    "transposed_k7_s1_pad3": (_transposed_same, 2, 1, 6, 6, 7),
}


@pytest.mark.parametrize("case", BATCH_CASES.values(), ids=BATCH_CASES.keys())
def test_conv_sample_of_batch_equals_sample_alone(case):
    # sample i of a batch-3 call has the bytes of the same sample run at batch 1,
    # so a batch-1 predict sees the same convolutions as a batched evaluate
    op, c, o, h, w, k = case
    r = rng(45)
    kern = r.normal(size=(o, c, k, k) if op is conv2d else (c, o, k, k))
    b = r.normal(size=o)
    x = r.normal(size=(3, c, h, w))

    def run(xs, gs=None):
        xt = Tensor(xs, requires_grad=True)
        with Tape() as tape:
            y = op(xt, Conv2dParams(Tensor(kern), Tensor(b)))
            if gs is None:
                return y.data, None
            return y.data, backward(tape, dot(y, gs), {"x": xt})["x"]

    y, _ = run(x)
    g = r.normal(size=y.shape)
    y, gx = run(x, g)
    for i in range(3):
        yi, gxi = run(x[i:i + 1], g[i:i + 1])
        assert yi.tobytes() == y[i:i + 1].tobytes()
        assert gxi.tobytes() == gx[i:i + 1].tobytes()


def _whole_columns(x, kh, kw, s, pad, ho, wo):
    """Each sample's whole im2col matrix [C*kh*kw, Ho*Wo] of x zero-padded by pad, as
    [N, C*kh*kw, Ho*Wo]."""
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (kh, kw), axis=(2, 3))
    cols = win[:, :, ::s, ::s][:, :, :ho, :wo].transpose(0, 1, 4, 5, 2, 3)
    return cols.reshape(x.shape[0], -1, ho * wo)


def _one_gemm_per_sample(x, kernel, s, pad, ho, wo):
    """The forward core without bands: each sample's whole im2col matrix in one GEMM."""
    (n, c), (o, _, kh, kw) = x.shape[:2], kernel.shape
    cols = _whole_columns(x, kh, kw, s, pad, ho, wo)
    return np.stack([kernel.reshape(o, -1) @ cols[i] for i in range(n)])


def _kernel_grad_per_sample(g, x, shape, s, pad):
    """The kernel gradient without bands: the sum over samples of g_i @ cols_i.T, each
    with the sample's whole im2col matrix."""
    o, ho, wo = g.shape[1:]
    cols = _whole_columns(x, *shape[2:], s, pad, ho, wo)
    gk2 = np.zeros((o, cols.shape[1]))
    for gi, ci in zip(g, cols):
        gk2 += gi.reshape(o, -1) @ ci.T
    return gk2.reshape(shape)


def _one_pass(cfg, size, batch=1):
    """One forward and backward pass of ``cfg`` at size x size on random inputs."""
    model = build_model(cfg, rng(50))
    x = Tensor(rng(51).uniform(0, 1, size=(batch, 3, size, size)))
    y = rng(52).integers(0, cfg.num_classes, size=(batch, size, size))
    with Tape() as tape:
        backward(tape, combined_loss(forward(model, x), y, LossConfig()), model.params)


def _spied_calls(monkeypatch, name, key, cfg, size):
    """``key(*args)`` of every call of the core helper ``name`` made by one forward and
    backward pass of ``cfg`` at size x size."""
    core, calls = getattr(nn_ops, name), set()

    def spy(*args):
        calls.add(key(*args))
        return core(*args)

    monkeypatch.setattr(nn_ops, name, spy)
    monkeypatch.setattr(attention, name, spy)
    _one_pass(cfg, size)
    monkeypatch.undo()
    return sorted(calls)


def _core_calls(monkeypatch, cfg, size):
    """(sample shape, kernel shape, stride, pad, Ho, Wo) of every ``_conv`` call made by
    one forward and backward pass of ``cfg`` at size x size."""
    return _spied_calls(monkeypatch, "_conv", lambda x, kernel, s, pad, ho, wo: (
        x.shape[1:], kernel.shape, s, pad, ho, wo), cfg, size)


def _kernel_grad_calls(monkeypatch, cfg, size):
    """(sample shape, kernel shape, stride, pad, output gradient's sample shape) of every
    ``_conv_kernel_grad`` call made by one forward and backward pass of ``cfg``."""
    return _spied_calls(monkeypatch, "_conv_kernel_grad", lambda g, x, shape, s, pad: (
        x.shape[1:], shape, s, pad, g.shape[1:]), cfg, size)


# a mid-model 3x3 conv at 128x256: its columns (about 4.7 M elements) are cut into bands
CUT_BAND_CALL = ((16, 128, 256), (16, 16, 3, 3), 1, 1, 128, 256)


# The tolerance of a row-expanded result, fixed before any run: it splits each output's
# sum over the kernel's rows, so it may differ from one whole-sample GEMM, or from the
# exactly rounded loop oracle, by rounding only, here at most 1e-14 of the largest element
# (about 45 float64 epsilons)
ROW_TOL = 1e-14


def _rounding_only(got, ref):
    return np.max(np.abs(got - ref)) <= ROW_TOL * np.max(np.abs(ref))


def _columns_fit(c, kh, kw, ho, wo):
    """Whether a call's im2col columns hold at most 4*_BAND elements: then ``_columns``
    keeps a sample whole, else a stride-1 call is row-expanded."""
    return c * kh * kw * ho * wo <= 4 * nn_ops._BAND


@pytest.mark.parametrize("cfg, size", [(UnetConfig(), 64), (desk_unet_config(), 32), (None, 128)],
                         ids=["default_64", "desk_32", "cut_band_128x256"])
def test_conv_bands_equal_one_gemm_per_sample(cfg, size, monkeypatch):
    # a band splits the GEMM's output pixels, never an inner sum, so BLAS must give every
    # element the bits of the whole-sample product wherever a sample's columns hold at most
    # 4*_BAND elements; a row-expanded call splits the sum over kernel rows, so there only
    # rounding may differ. This covers every shape the models run (the 3x3 convs, the
    # head, the 7x7 gate, the input gradients of conv2d and the gate, the up-conv's
    # stride-2 input gradient) and one shape cut into bands
    if cfg is None:
        calls, batches = [CUT_BAND_CALL], (1,)
        assert not _columns_fit(16, 3, 3, 128, 256)
    else:
        calls, batches = _core_calls(monkeypatch, cfg, size), (1, 4)
        kernels = {(s, kernel[2]) for _, kernel, s, *_ in calls}
        assert kernels >= {(1, 3), (1, 1), (1, 7), (2, 2)}
    r = rng(53)
    for (c, h, w), kernel_shape, s, pad, ho, wo in calls:
        kernel = r.normal(size=kernel_shape)
        for n in batches:
            x = r.normal(size=(n, c, h, w))
            got = nn_ops._conv(x, kernel, s, pad, ho, wo)
            ref = _one_gemm_per_sample(x, kernel, s, pad, ho, wo)
            if _columns_fit(c, *kernel_shape[2:], ho, wo):
                assert got.tobytes() == ref.tobytes()
            else:
                assert _rounding_only(got, ref)


@pytest.mark.parametrize("cfg, size", [(UnetConfig(), 64), (desk_unet_config(), 32), (None, 128)],
                         ids=["default_64", "desk_32", "cut_band_128x256"])
def test_kernel_grad_bands_equal_one_gemm_per_sample(cfg, size, monkeypatch):
    # a band of output rows splits the kernel gradient's inner sums, so a sample whose
    # columns are cut into bands may differ from the whole-sample product by rounding
    # only, and a sample kept whole (at most 4*_BAND elements of columns, as at every desk
    # and gradcheck shape) keeps its bytes; this covers every kernel gradient the models
    # run (the 3x3 convs, the head, the 7x7 gate, the up-conv) and one shape cut into bands
    if cfg is None:
        x_shape, kernel_shape, s, pad, ho, wo = CUT_BAND_CALL
        calls, batches = [(x_shape, kernel_shape, s, pad, (kernel_shape[0], ho, wo))], (1,)
    else:
        calls, batches = _kernel_grad_calls(monkeypatch, cfg, size), (1, 4)
        kernels = {(s, shape[2]) for _, shape, s, *_ in calls}
        assert kernels >= {(1, 3), (1, 1), (1, 7), (2, 2)}
    r = rng(54)
    cut = set()
    for x_shape, shape, s, pad, g_shape in calls:
        whole = _columns_fit(*shape[1:], *g_shape[1:])
        for n in batches:
            x, g = r.normal(size=(n,) + x_shape), r.normal(size=(n,) + g_shape)
            got = nn_ops._conv_kernel_grad(g, x, shape, s, pad)
            ref = _kernel_grad_per_sample(g, x, shape, s, pad)
            if whole:
                assert got.tobytes() == ref.tobytes()
            else:
                assert _rounding_only(got, ref)
                cut.add(shape)
    assert bool(cut) == (size != 32)    # the default model at 64x64 cuts, the desk one not


def _expanded_calls(monkeypatch):
    """(sample shape, kernel size, band heights) of each ``_row_expanded`` call, as the
    calls happen."""
    core, calls = nn_ops._row_expanded, []

    def spy(a, kh, *args):
        bands = []
        calls.append((a.shape[1:], kh, bands))
        for i, y0, y1, views in core(a, kh, *args):
            if i == 0:
                bands.append(y1 - y0)
            yield i, y0, y1, views

    monkeypatch.setattr(nn_ops, "_row_expanded", spy)
    return calls


@pytest.mark.parametrize("cfg, size", [(UnetConfig(), 64), (desk_unet_config(), 32)],
                         ids=["default_64", "desk_32"])
def test_row_expanded_takes_exactly_the_large_calls(cfg, size, monkeypatch):
    # a conv core call is row-expanded iff its columns exceed 4*_BAND elements: at 64x64
    # the default model's full-resolution 3x3 convs and dec1.conv1, their input and kernel
    # gradients, and no call of the desk config at 32x32, so desk-train keeps its bits
    expanded, routed = _expanded_calls(monkeypatch), []

    def spy_on(name, fits):
        core = getattr(nn_ops, name)

        def spy(*args):
            before = len(expanded)
            out = core(*args)
            routed.append((fits(*args), len(expanded) - before))
            return out

        monkeypatch.setattr(nn_ops, name, spy)
        monkeypatch.setattr(attention, name, spy)

    spy_on("_conv", lambda x, kernel, s, pad, ho, wo: _columns_fit(
        x.shape[1], *kernel.shape[2:], ho, wo))
    spy_on("_conv_kernel_grad", lambda g, x, shape, s, pad: _columns_fit(
        x.shape[1], *shape[2:], *g.shape[2:]))
    _one_pass(cfg, size, batch=4)
    assert sorted({taken for fits, taken in routed if fits}) == [0]
    assert sorted({taken for fits, taken in routed if not fits}) == ([1] if size == 64 else [])
    assert sum(taken for _, taken in routed) == len(expanded)


def test_row_expanded_conv2d_vs_loop_oracle(monkeypatch):
    # a 3x3 conv2d at 700x256 has 1.6 M elements of columns, so its forward pass, input
    # gradient and kernel gradient are row-expanded, in bands of 680 output rows and a
    # 20-row tail, with zero padding on every border
    expanded = _expanded_calls(monkeypatch)
    r = rng(56)
    x, k, b = r.normal(size=(1, 1, 700, 256)), r.normal(size=(1, 1, 3, 3)), r.normal(size=1)
    g = r.normal(size=(1, 1, 700, 256))
    xt, kt = Tensor(x, requires_grad=True), Tensor(k, requires_grad=True)
    with Tape() as tape:
        y = conv2d(xt, Conv2dParams(kt, Tensor(b)))
        grads = backward(tape, dot(y, g), {"x": xt, "k": kt})
    assert expanded == [((1, 700, 256), 3, [680, 20])] * 3
    assert _rounding_only(y.data, loop_conv2d(x, k, b, 1, 1))
    flipped = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    assert _rounding_only(grads["x"], loop_conv2d(g, flipped, np.zeros(1), 1, 1))
    # gk[o, c] is x[:, c] correlated with g[:, o], both padded by 1
    gk = loop_conv2d(x.transpose(1, 0, 2, 3), g.transpose(1, 0, 2, 3), np.zeros(1), 1, 1)
    assert _rounding_only(grads["k"], gk.transpose(1, 0, 2, 3))


def test_row_expanded_gate_conv_vs_loop_oracle(monkeypatch):
    # the gate's 7x7 conv, [max, avg] maps -> 1 channel padded by 3, and its kernel
    # gradient at 300x128: 3.8 M elements of columns, in bands of 286 rows and a 14-row tail
    expanded = _expanded_calls(monkeypatch)
    r = rng(57)
    pools, k, dz = r.normal(size=(1, 2, 300, 128)), r.normal(size=(1, 2, 7, 7)), \
        r.normal(size=(1, 1, 300, 128))
    got = nn_ops._conv(pools, k, 1, 3, 300, 128).reshape(dz.shape)
    assert _rounding_only(got, loop_conv2d(pools, k, np.zeros(1), 1, 3))
    got = nn_ops._conv_kernel_grad(dz, pools, k.shape, 1, 3)
    gk = loop_conv2d(pools.transpose(1, 0, 2, 3), dz.transpose(1, 0, 2, 3), np.zeros(2), 1, 3)
    assert _rounding_only(got, gk.transpose(1, 0, 2, 3))
    assert expanded == [((2, 300, 128), 7, [286, 14])] * 2


def test_row_expanded_gate_input_grad_vs_loop_oracle(monkeypatch):
    # the gate conv's input gradient at 600x128: the 1-channel output gradient has 3.8 M
    # elements of columns, in bands of 579 rows and a 21-row tail
    expanded = _expanded_calls(monkeypatch)
    r = rng(58)
    k, dz = r.normal(size=(1, 2, 7, 7)), r.normal(size=(1, 1, 600, 128))
    flipped = k[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
    got = nn_ops._conv_input_grad(dz, k, 3)
    assert _rounding_only(got, loop_conv2d(dz, flipped, np.zeros(2), 1, 3))
    assert expanded == [((1, 600, 128), 7, [579, 21])]


def test_row_expanded_kernel_grad_keeps_whole_sample_bytes(monkeypatch):
    # dec0.conv1 of the default model at 64x64, batch 4: its columns (1.2 M elements) are
    # row-expanded, and its buffer (0.4 M elements) holds the whole sample, so each kernel
    # row's gradient sums every pixel of a sample in one GEMM, in the order of the
    # whole-sample product
    expanded = _expanded_calls(monkeypatch)
    r = rng(59)
    x, g = r.normal(size=(4, 32, 64, 64)), r.normal(size=(4, 16, 64, 64))
    got = nn_ops._conv_kernel_grad(g, x, (16, 32, 3, 3), 1, 1)
    assert expanded == [((32, 64, 64), 3, [64])]
    assert got.tobytes() == _kernel_grad_per_sample(g, x, (16, 32, 3, 3), 1, 1).tobytes()


def test_conv2d_backward_holds_one_padded_sample():
    # dec0.conv1 of the default model at 64x64, batch 4: beyond the input gradient (4 MiB)
    # and the relu-masked output gradient (2 MiB), the kernel gradient holds one sample's
    # row-expanded buffer (3.1 MiB), and the input gradient one of the output gradient
    # (1.5 MiB) and one kernel row's product (1 MiB), so the rise is about 10.6 MiB; a
    # zero-bordered sample and a 1 MiB band of im2col columns per helper rose 9.6 MiB, a
    # kernel gradient that copied each sample's whole columns (1.2 M elements) 14.1 MiB,
    # and whole-batch padded copies of the input and of the output gradient about 17.3 MiB
    r = rng(47)
    x = Tensor(r.normal(size=(4, 32, 64, 64)), requires_grad=True)
    k = Tensor(r.normal(size=(16, 32, 3, 3)), requires_grad=True)
    b = Tensor(np.zeros(16), requires_grad=True)
    g = r.normal(size=(4, 16, 64, 64))
    with Tape() as tape:
        root = dot(conv2d(x, Conv2dParams(k, b, relu=True)), g)
        assert traced_rise_mib(lambda: backward(tape, root, {"x": x, "k": k, "b": b})) <= 11


# (id, input maker): batch > 1 and several channels throughout
MAXPOOL_CASES = [
    ("normal_s2", lambda r: r.normal(size=(3, 4, 8, 10))),
    ("integers_s2", lambda r: r.integers(-2, 3, size=(3, 4, 8, 8)).astype(np.float64)),
    ("all_equal_s2", lambda r: np.full((2, 3, 6, 8), -1.25)),
]


class TestMaxpool:
    def test_hand_window(self):
        out = maxpool2d(Tensor([[[[1.0, 2.0], [3.0, 4.0]]]]))
        assert out.data.tolist() == [[[[4.0]]]]

    def test_constant_input(self):
        out = maxpool2d(Tensor(np.full((1, 2, 4, 4), 3.25)))
        assert np.all(out.data == 3.25)

    def test_vs_loop_oracle(self):
        x = rng(15).uniform(-2, 2, size=(1, 2, 8, 8))
        out = maxpool2d(Tensor(x))
        assert np.max(np.abs(out.data - loop_maxpool2d(x, 2, 2))) < 1e-12

    def test_non_divisible(self):
        with pytest.raises(ShapeError, match="even extents, got 5x4"):
            maxpool2d(Tensor(np.zeros((1, 1, 5, 4))))

    def test_grad_routes_to_first_argmax(self):
        x = Tensor(np.array([[[[2.0, 2.0], [1.0, 2.0]]]]), requires_grad=True)
        with Tape() as tape:
            grads = backward(tape, dot(maxpool2d(x), 1.0), {"x": x})
        # tie between three entries: row-major first (0,0) wins
        assert grads["x"].tolist() == [[[[1.0, 0.0], [0.0, 0.0]]]]

    @pytest.mark.parametrize("case", MAXPOOL_CASES, ids=lambda c: c[0])
    def test_bytes_vs_loop_oracle(self, case):
        _, make = case
        r = rng(18)
        x = make(r)
        g = r.normal(size=(x.shape[0], x.shape[1], x.shape[2] // 2, x.shape[3] // 2))
        t = Tensor(x, requires_grad=True)
        with Tape() as tape:
            out = maxpool2d(t)
            grads = backward(tape, dot(out, g), {"x": t})
        assert out.data.tobytes() == loop_maxpool2d(x, 2, 2).tobytes()
        assert grads["x"].tobytes() == loop_maxpool2d_grad(x, g, 2).tobytes()

    @pytest.mark.parametrize("case", MAXPOOL_CASES, ids=lambda c: c[0])
    def test_forward_same_bytes_with_and_without_tape(self, case):
        _, make = case
        x = make(rng(19))
        with Tape():
            taped = maxpool2d(Tensor(x, requires_grad=True))
        assert taped.requires_grad
        assert maxpool2d(Tensor(x)).data.tobytes() == taped.data.tobytes()

    def test_shape_round_trip_with_upsampling(self):
        for size in (8, 16, 32):
            x = Tensor(rng(16).normal(size=(1, 2, size, size)))
            pooled = maxpool2d(x)
            p = Conv2dParams(Tensor(rng(17).normal(size=(2, 2, 2, 2))), Tensor(np.zeros(2)))
            restored = transposed_conv2d(pooled, p)
            assert restored.shape[2:] == x.shape[2:]


class TestConcat:
    def test_shape_arithmetic(self):
        out = concat_channels(Tensor(np.zeros((2, 2, 3, 3))), Tensor(np.zeros((2, 3, 3, 3))))
        assert out.shape == (2, 5, 3, 3)

    def test_round_trip_slices(self):
        a = rng(21).normal(size=(1, 2, 3, 3))
        out = concat_channels(Tensor(a), Tensor(np.zeros((1, 1, 3, 3))))
        assert np.array_equal(out.data[:, :2], a)
        assert np.all(out.data[:, 2:] == 0.0)

    def test_mismatch(self):
        with pytest.raises(ShapeError):
            concat_channels(Tensor(np.zeros((1, 2, 3, 3))), Tensor(np.zeros((1, 2, 4, 3))))

    def test_grad_split_vs_indexing(self):
        r = rng(22)
        a = Tensor(r.normal(size=(1, 2, 2, 2)), requires_grad=True)
        b = Tensor(r.normal(size=(1, 3, 2, 2)), requires_grad=True)
        g = r.normal(size=(1, 5, 2, 2))
        with Tape() as tape:
            out = concat_channels(a, b)
            grads = backward(tape, dot(out, g), {"a": a, "b": b})
        assert np.array_equal(grads["a"], g[:, :2])
        assert np.array_equal(grads["b"], g[:, 2:])


def relu_layer(x, keep=None, rate=0.0, relu=True) -> Tensor:
    """conv2d's relu (and dropout) on an identity 1x1 conv: the pre-activations are x."""
    c = x.shape[1]
    eye = Conv2dParams(Tensor(np.eye(c).reshape(c, c, 1, 1)), Tensor(np.zeros(c)), relu=relu,
                       keep=keep, rate=rate)
    return conv2d(x, eye)


@pytest.mark.parametrize("rate", [0.0, 0.3])
def test_fused_layer_bytes_match_composition(rate):
    # conv2d with relu (and a keep mask) against conv2d, np.maximum and x * keep * s as
    # separate tape nodes: forward and every gradient byte for byte
    r = rng(40)
    x_data = r.normal(size=(2, 3, 6, 6))
    x_data[:, :, :3] = 0.0  # with a zero bias, exact zero pre-activations: the kink itself
    k_data, b_data = r.normal(size=(4, 3, 3, 3)), np.array([0.0, 0.5, -0.5, 0.1])
    g = r.normal(size=(2, 4, 6, 6))
    keep = r.random(g.shape) >= rate if rate else None

    def run(fused):
        x = Tensor(x_data, requires_grad=True)
        k, b = Tensor(k_data, requires_grad=True), Tensor(b_data, requires_grad=True)
        with Tape() as tape:
            if fused:
                out = conv2d(x, Conv2dParams(k, b, relu=True, keep=keep, rate=rate))
            else:
                out = composed_conv_layer(x, Conv2dParams(k, b), keep, rate)
            grads = backward(tape, dot(out, g), {"x": x, "k": k, "b": b})
        return [a.tobytes() for a in (out.data, *grads.values())]

    assert run(fused=True) == run(fused=False)


class TestActivations:
    def test_relu_definition(self):
        out = relu_layer(Tensor(np.array([-3.0, 0.0, 3.0]).reshape(1, 1, 1, 3)))
        assert out.data.ravel().tolist() == [0.0, 0.0, 3.0]

    def test_relu_subgradient_zero_at_zero(self):
        x = Tensor(np.array([0.0, 1.0]).reshape(1, 1, 1, 2), requires_grad=True)
        with Tape() as tape:
            grads = backward(tape, dot(relu_layer(x), 1.0), {"x": x})
        assert grads["x"].ravel().tolist() == [0.0, 1.0]

    def test_relu_bytes_match_where_formula(self):
        # forward max(x, 0) gives np.where's bytes, signed zeros too; the input gradient
        # passes the 1x1 conv's GEMM, which does not keep the sign of a zero (the bytes of
        # the relu backward itself are checked against the composition above)
        x = np.concatenate([rng(28).normal(size=64), [0.0, -0.0, np.inf, -np.inf, 1e-310, -1e-310]])
        g = rng(29).normal(size=x.shape)
        t = Tensor(x.reshape(1, 1, 1, -1), requires_grad=True)
        with Tape() as tape:
            out = relu_layer(t)
            grads = backward(tape, dot(out, g.reshape(out.shape)), {"x": t})
        assert out.data.tobytes() == np.where(x > 0, x, 0.0).tobytes()
        assert np.array_equal(grads["x"].ravel(), g * (x > 0))

    def test_relu_keeps_nan(self):
        # NaN passes relu and, kept or dropped (NaN * 0 is NaN), the dropout mask
        for keep in (None, np.array([False, True, True]).reshape(1, 1, 1, 3)):
            x = Tensor(np.array([np.nan, -1.0, 2.0]).reshape(1, 1, 1, 3), requires_grad=True)
            with Tape() as tape:
                out = relu_layer(x, keep, 0.5 if keep is not None else 0.0)
                grads = backward(tape, dot(out, 1.0), {"x": x})
            scale, flat = (1.0 if keep is None else 2.0), out.data.ravel()
            assert np.isnan(flat[0]) and flat[1:].tolist() == [0.0, 2.0 * scale]
            assert grads["x"].ravel().tolist() == [0.0, 0.0, scale]


def tiny_model(rate):
    cfg = UnetConfig(in_channels=1, num_classes=2, depth=1, base_channels=4,
                     attention_enabled=False, dropout_rate=rate)
    return build_model(cfg, rng(33))


class TestDropout:
    def test_rate_zero_identity(self):
        # rate 0 in training draws nothing and gives the inference output
        model, x, r = tiny_model(0.0), Tensor(rng(26).normal(size=(1, 1, 4, 4))), rng(0)
        state = r.bit_generator.state
        out = forward(model, x, training=True, rng=r)
        assert r.bit_generator.state == state
        assert out.data.tobytes() == forward(model, x).data.tobytes()

    def test_inference_identity(self):
        model, x = tiny_model(0.9), Tensor(rng(27).normal(size=(1, 1, 4, 4)))
        plain = tiny_model(0.0)
        assert forward(model, x).data.tobytes() == forward(plain, x).data.tobytes()

    def test_bad_rate(self):
        k, b = Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1))
        model, x = tiny_model(0.1), Tensor(np.zeros((1, 1, 4, 4)))
        for rate in (-0.1, 1.0, 1.5):
            with pytest.raises(ConfigError):
                Conv2dParams(k, b, relu=True, rate=rate)
            model.cfg.dropout_rate = rate
            for training in (False, True):
                with pytest.raises(ConfigError):
                    forward(model, x, training=training, rng=rng(0))

    def test_training_requires_rng(self):
        model, x = tiny_model(0.5), Tensor(np.zeros((1, 1, 4, 4)))
        forward(model, x)
        with pytest.raises(ContractError):
            forward(model, x, training=True)

    def test_monte_carlo_survivors_and_mean(self):
        n = 100_000
        x_data = rng(28).uniform(0.5, 1.5, size=n)
        keep = rng(29).random((1, 1, 1, n)) >= 0.5
        out = relu_layer(Tensor(x_data.reshape(keep.shape)), keep, 0.5)
        survivors = np.count_nonzero(out.data) / n
        assert abs(survivors - 0.5) < 0.01
        assert abs(out.data.mean() - x_data.mean()) < 0.015

    def test_grad_masks_match_forward(self):
        for relu in (True, False):
            x = Tensor(rng(30).uniform(0.1, 1.0, size=(1, 1, 1, 50)), requires_grad=True)
            if not relu:
                x.data[0, 0, 0, ::2] *= -1.0  # without relu, only the mask zeroes an entry
            keep = rng(31).random(x.shape) >= 0.3
            with Tape() as tape:
                out = relu_layer(x, keep, 0.3, relu)
                gx = backward(tape, dot(out, 1.0), {"x": x})["x"]
            mask = out.data != 0
            assert np.array_equal(mask, keep & ((x.data > 0) | (not relu)))
            assert np.array_equal(gx != 0, mask)
            assert np.allclose(gx[mask], 1.0 / 0.7)

    def test_mask_shape_checked(self):
        with pytest.raises(ShapeError, match="dropout mask"):
            relu_layer(Tensor(np.ones((1, 1, 2, 2))), np.ones((1, 1, 2, 3), dtype=bool), 0.5)


def test_oracle_equivalence_random_battery():
    # broad random sweep in [-2, 2]: conv2d vs its loop oracle (the gate pools are in C2)
    r = rng(32)
    for _ in range(25):
        n, c, o = int(r.integers(1, 3)), int(r.integers(1, 4)), int(r.integers(1, 4))
        h, w = int(r.integers(3, 7)), int(r.integers(3, 7))
        x = r.uniform(-2, 2, size=(n, c, h, w))
        k = r.uniform(-2, 2, size=(o, c, 3, 3))
        b = r.uniform(-2, 2, size=o)
        out = conv2d(Tensor(x), params(k, b))
        assert np.max(np.abs(out.data - loop_conv2d(x, k, b, 1, 1))) < 1e-12
