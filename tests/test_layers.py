import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import assert_grad_close, central_difference, random_batch
from tsclab import layers as L
from tsclab import models as M
from tsclab.errors import DegenerateVarianceError, ShapeError
from tsclab.tensor import SplitMix64


def naive_conv1d(x, w, b, padding):
    batch, T, c_in = x.shape
    c_out, length, _ = w.shape
    if padding == "same":
        pl = (length - 1) // 2
        pr = length - 1 - pl
        xp = np.pad(x, ((0, 0), (pl, pr), (0, 0)))
    else:
        xp = x
    t_out = xp.shape[1] - length + 1
    out = np.zeros((batch, t_out, c_out))
    for n in range(batch):
        for t in range(t_out):
            for o in range(c_out):
                acc = 0.0
                for j in range(length):
                    for c in range(c_in):
                        acc += xp[n, t + j, c] * w[o, j, c]
                out[n, t, o] = acc + b[o]
    return out


def reference_conv1d(x, w, b, padding):
    """The ``np.pad`` + ``sliding_window_view`` form of the conv kernels: ``y`` and a backward."""
    c_out, length, _ = w.shape
    pl, pr = L._conv_padding(length, padding, x.shape[1])
    xp = np.pad(x, ((0, 0), (pl, pr), (0, 0)))
    win = np.lib.stride_tricks.sliding_window_view(xp, length, axis=1).transpose(0, 1, 3, 2)
    wt = w.transpose(1, 2, 0).reshape(-1, c_out)
    y = np.dot(win.reshape(-1, len(wt)), wt).reshape(*win.shape[:2], c_out) + b

    def backward(gy):
        gcols = np.tensordot(gy, w, axes=([2], [0]))
        gxp = np.zeros_like(xp)
        for j in range(length):
            gxp[:, j : j + gy.shape[1], :] += gcols[:, :, j, :]
        gw = np.tensordot(gy, win, axes=([0, 1], [0, 1]))
        return gxp[:, pl : pl + x.shape[1], :], gw, gy.sum(axis=(0, 1))

    return y, backward


class TestConv1d:
    @pytest.mark.parametrize("view", ["whole", "every-other-step", "every-other-series"])
    def test_windows_are_a_read_only_view_of_the_input(self, view):
        x = random_batch((6, 15, 3), seed=9)
        x = {"whole": x, "every-other-step": x[:, ::2], "every-other-series": x[::2]}[view]
        win = L._windows(x, 4)
        want = np.lib.stride_tricks.sliding_window_view(x, 4, axis=1).transpose(0, 1, 3, 2)
        assert win.shape == want.shape and win.strides == want.strides
        assert np.array_equal(win, want)
        assert np.shares_memory(win, x) and not win.flags.writeable

    @pytest.mark.parametrize("padding", ["same", "valid"])
    @pytest.mark.parametrize("length, c_in", [(1, 1), (4, 3), (5, 1), (7, 2)])
    def test_kernels_keep_the_bits_of_the_pad_and_sliding_view_form(self, padding, length, c_in):
        x = random_batch((5, 19, c_in), seed=length + c_in)
        w = random_batch((6, length, c_in), seed=50)
        b = random_batch((6,), seed=51)
        y, cache = L.conv1d_forward(x, w, b, padding)
        want_y, want_backward = reference_conv1d(x, w, b, padding)
        gy = random_batch(y.shape, seed=52)
        assert_same_bits((y,), (want_y,))
        assert_same_bits(L.conv1d_backward(gy, cache), want_backward(gy))

    def test_moving_average_filter(self):
        x = random_batch((1, 20, 1), seed=0)
        w = np.full((1, 3, 1), 1.0 / 3.0)
        y, _ = L.conv1d_forward(x, w, np.zeros(1), "same")
        inner = np.array([
            (x[0, t - 1, 0] + x[0, t, 0] + x[0, t + 1, 0]) / 3.0 for t in range(1, 19)
        ])
        assert np.allclose(y[0, 1:19, 0], inner, atol=1e-12)
        # edges see zero padding
        assert np.isclose(y[0, 0, 0], (x[0, 0, 0] + x[0, 1, 0]) / 3.0)

    def test_unit_filter_identity(self):
        x = random_batch((2, 9, 3), seed=1)
        w = np.zeros((3, 1, 3))
        for c in range(3):
            w[c, 0, c] = 1.0
        y, _ = L.conv1d_forward(x, w, np.zeros(3), "same")
        assert np.array_equal(y, x)

    def test_against_naive_oracle(self):
        x = random_batch((2, 11, 2), seed=2)
        w = random_batch((4, 5, 2), seed=3)
        b = random_batch((4,), seed=4)
        for padding in ("same", "valid"):
            y, _ = L.conv1d_forward(x, w, b, padding)
            assert np.max(np.abs(y - naive_conv1d(x, w, b, padding))) < 1e-12

    def test_valid_length_error(self):
        x = random_batch((1, 4, 1), seed=5)
        with pytest.raises(ValueError):
            L.conv1d_forward(x, np.zeros((1, 5, 1)), np.zeros(1), "valid")

    def test_same_padding_preserves_length(self):
        for length in (3, 5, 8, 11, 21):
            x = random_batch((1, 30, 2), seed=length)
            y, _ = L.conv1d_forward(x, np.zeros((4, length, 2)), np.zeros(4), "same")
            assert y.shape == (1, 30, 4)

    def test_zero_upstream_gives_zero_grads(self):
        x = random_batch((2, 8, 1), seed=6)
        w = random_batch((3, 3, 1), seed=7)
        y, cache = L.conv1d_forward(x, w, np.zeros(3), "same")
        gx, gw, gb = L.conv1d_backward(np.zeros_like(y), cache)
        assert not gx.any() and not gw.any() and not gb.any()

    def test_sum_of_unit_conv_grad_is_ones(self):
        x = random_batch((2, 6, 1), seed=8)
        w = np.ones((1, 1, 1))
        y, cache = L.conv1d_forward(x, w, np.zeros(1), "same")
        gx, _, _ = L.conv1d_backward(np.ones_like(y), cache)
        assert np.allclose(gx, np.ones_like(x))

    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_gradients_match_finite_differences(self, padding):
        x = random_batch((2, 9, 2), seed=9)
        w = random_batch((3, 5, 2), seed=10)
        b = random_batch((3,), seed=11)
        gy = random_batch(L.conv1d_forward(x, w, b, padding)[0].shape, seed=12)

        def loss(x_, w_, b_):
            y, _ = L.conv1d_forward(x_, w_, b_, padding)
            return float((y * gy).sum())

        _, cache = L.conv1d_forward(x, w, b, padding)
        gx, gw, gb = L.conv1d_backward(gy, cache)
        assert_grad_close(gx, central_difference(lambda v: loss(v, w, b), x.copy()))
        assert_grad_close(gw, central_difference(lambda v: loss(x, v, b), w.copy()))
        assert_grad_close(gb, central_difference(lambda v: loss(x, w, v), b.copy()))

    @pytest.mark.parametrize("c_in", [1, 3])
    @pytest.mark.parametrize("padding", ["same", "valid"])
    def test_chunked_contraction_is_byte_equal_to_one_tensordot(self, monkeypatch, padding, c_in):
        x = random_batch((11, 20, c_in), seed=40 + c_in)
        w = random_batch((6, 5, c_in), seed=41)
        b = random_batch((6,), seed=42)
        xp = np.pad(x, ((0, 0), (2, 2), (0, 0))) if padding == "same" else x
        win = np.lib.stride_tricks.sliding_window_view(xp, 5, axis=1).transpose(0, 1, 3, 2)
        expected = np.tensordot(win, w, axes=([2, 3], [1, 2])) + b
        # three series' windows a chunk: 11 series run as 3 + 3 + 3 + 2
        monkeypatch.setattr(L, "CONV_CHUNK", 3 * win[0].size + 1)
        real_dot, rows = np.dot, []

        def dot(a, b, out):
            rows.append(len(a))
            return real_dot(a, b, out=out)

        monkeypatch.setattr(np, "dot", dot)
        y, _ = L.conv1d_forward(x, w, b, padding)
        assert rows == [3 * win.shape[1]] * 3 + [2 * win.shape[1]]
        assert y.shape == expected.shape and y.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("c_out", [5, 20])
    def test_one_series_over_a_whole_chunk_keeps_tensordot_bits(self, c_out):
        # 2,622 series where 2,621 fill a chunk: a lone last series' GEMM
        # rounded differently from the whole batch's, so the chunks are
        # near-equal (1,311 series each)
        x = random_batch((2622, 40, 8), seed=43)
        w = random_batch((c_out, 5, 8), seed=44)
        b = random_batch((c_out,), seed=45)
        assert L.CONV_CHUNK // (40 * 5 * 8) == 2621
        win = np.lib.stride_tricks.sliding_window_view(
            np.pad(x, ((0, 0), (2, 2), (0, 0))), 5, axis=1).transpose(0, 1, 3, 2)
        expected = np.tensordot(win, w, axes=([2, 3], [1, 2])) + b
        assert L.conv1d_forward(x, w, b, "same")[0].tobytes() == expected.tobytes()


class TestDense:
    def test_identity_weights(self):
        x = random_batch((3, 4), seed=0)
        y, _ = L.dense_forward(x, np.eye(4), np.zeros(4))
        assert np.array_equal(y, x)

    def test_one_hot_row_selects_weight_row(self):
        w = random_batch((4, 5), seed=1)
        b = random_batch((5,), seed=2)
        x = np.zeros((1, 4))
        x[0, 2] = 1.0
        y, _ = L.dense_forward(x, w, b)
        assert np.allclose(y[0], w[2] + b)

    def test_shape_error(self):
        with pytest.raises(ShapeError):
            L.dense_forward(np.zeros((2, 3)), np.zeros((4, 5)), np.zeros(5))

    def test_gradients_match_finite_differences(self):
        x = random_batch((3, 4), seed=3)
        w = random_batch((4, 2), seed=4)
        b = random_batch((2,), seed=5)
        gy = random_batch((3, 2), seed=6)

        def loss(x_, w_, b_):
            y, _ = L.dense_forward(x_, w_, b_)
            return float((y * gy).sum())

        _, cache = L.dense_forward(x, w, b)
        gx, gw, gb = L.dense_backward(gy, cache)
        assert_grad_close(gx, central_difference(lambda v: loss(v, w, b), x.copy()))
        assert_grad_close(gw, central_difference(lambda v: loss(x, v, b), w.copy()))
        assert_grad_close(gb, central_difference(lambda v: loss(x, w, v), b.copy()))


class TestBatchNorm:
    def _params(self, c):
        return np.ones(c), np.zeros(c), np.zeros(c), np.ones(c)

    def test_train_mode_normalizes_channels(self):
        # variance must dominate eps (1e-5) for the 1e-6 unit-variance bound
        x = random_batch((4, 10, 3), seed=0, scale=12.0) + 1.5
        gamma, beta, rm, rv = self._params(3)
        y, _, _, _ = L.batch_norm_forward(x, gamma, beta, rm, rv, "train")
        assert np.max(np.abs(y.mean(axis=(0, 1)))) < 1e-9
        assert np.max(np.abs(y.var(axis=(0, 1)) - 1.0)) < 1e-6
        x_unit = random_batch((4, 10, 3), seed=1) + 0.5
        y, _, _, _ = L.batch_norm_forward(x_unit, gamma, beta, rm, rv, "train")
        assert np.max(np.abs(y.mean(axis=(0, 1)))) < 1e-9
        assert np.max(np.abs(y.var(axis=(0, 1)) - 1.0)) < 1e-4  # eps floor

    def test_constant_channel_gives_beta(self):
        x = np.full((2, 5, 1), 3.25)
        gamma, beta = np.array([2.0]), np.array([0.7])
        y, _, _, _ = L.batch_norm_forward(x, gamma, beta, np.zeros(1), np.ones(1), "train")
        assert np.allclose(y, 0.7)

    def test_single_value_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            L.batch_norm_forward(
                np.zeros((1, 1, 2)), np.ones(2), np.zeros(2), np.zeros(2), np.ones(2), "train"
            )

    def test_running_stats_momentum(self):
        x = random_batch((4, 6, 2), seed=1)
        gamma, beta, rm, rv = self._params(2)
        _, _, new_mean, new_var = L.batch_norm_forward(x, gamma, beta, rm, rv, "train")
        assert np.allclose(new_mean, 0.1 * x.mean(axis=(0, 1)))
        assert np.allclose(new_var, 0.9 * 1.0 + 0.1 * x.var(axis=(0, 1)))

    def test_infer_uses_running_stats(self):
        x = random_batch((2, 4, 1), seed=2)
        rm, rv = np.array([0.5]), np.array([4.0])
        y, cache, _, _ = L.batch_norm_forward(
            x, np.ones(1), np.zeros(1), rm, rv, "infer"
        )
        assert np.allclose(y, (x - 0.5) / np.sqrt(4.0 + 1e-5))
        # normalized in place of its own output: the input is left as it was
        assert cache is None
        assert np.array_equal(x, random_batch((2, 4, 1), seed=2))
        assert rm.tolist() == [0.5] and rv.tolist() == [4.0]

    def test_gradients_through_batch_statistics(self):
        x = random_batch((3, 5, 2), seed=3)
        gamma = random_batch((2,), seed=4) + 1.5
        beta = random_batch((2,), seed=5)
        gy = random_batch((3, 5, 2), seed=6)

        def loss(x_, g_, b_):
            y, _, _, _ = L.batch_norm_forward(
                x_, g_, b_, np.zeros(2), np.ones(2), "train"
            )
            return float((y * gy).sum())

        _, cache, _, _ = L.batch_norm_forward(x, gamma, beta, np.zeros(2), np.ones(2), "train")
        gx, dgamma, dbeta = L.batch_norm_backward(gy, cache)
        assert_grad_close(gx, central_difference(lambda v: loss(v, gamma, beta), x.copy()), 1e-5)
        assert_grad_close(dgamma, central_difference(lambda v: loss(x, v, beta), gamma.copy()), 1e-5)
        assert_grad_close(dbeta, central_difference(lambda v: loss(x, gamma, v), beta.copy()), 1e-5)


class TestInstanceNorm:
    def test_zero_mean_per_slice(self):
        x = random_batch((3, 12, 2), seed=0, scale=3.0)
        y, _ = L.instance_norm_forward(x, np.ones(2), np.zeros(2))
        assert np.max(np.abs(y.mean(axis=1))) < 1e-9

    def test_scale_invariance(self):
        # the 1e-9 bound needs variance >> eps (1e-5); at unit scale the eps
        # floor itself moves the output by ~1e-5
        x = random_batch((1, 10, 1), seed=1, scale=500.0)
        y1, _ = L.instance_norm_forward(x, np.ones(1), np.zeros(1))
        y2, _ = L.instance_norm_forward(10.0 * x, np.ones(1), np.zeros(1))
        assert np.max(np.abs(y1 - y2)) < 1e-9
        x_unit = random_batch((1, 10, 1), seed=2)
        y1, _ = L.instance_norm_forward(x_unit, np.ones(1), np.zeros(1))
        y2, _ = L.instance_norm_forward(10.0 * x_unit, np.ones(1), np.zeros(1))
        assert np.max(np.abs(y1 - y2)) < 1e-4

    def test_length_one_rejected(self):
        with pytest.raises(DegenerateVarianceError):
            L.instance_norm_forward(np.zeros((2, 1, 3)), np.ones(3), np.zeros(3))

    def test_gradients_match_finite_differences(self):
        x = random_batch((2, 7, 2), seed=2)
        gamma = random_batch((2,), seed=3) + 1.5
        beta = random_batch((2,), seed=4)
        gy = random_batch((2, 7, 2), seed=5)

        def loss(x_, g_, b_):
            y, _ = L.instance_norm_forward(x_, g_, b_)
            return float((y * gy).sum())

        _, cache = L.instance_norm_forward(x, gamma, beta)
        gx, dgamma, dbeta = L.instance_norm_backward(gy, cache)
        assert_grad_close(gx, central_difference(lambda v: loss(v, gamma, beta), x.copy()), 1e-5)
        assert_grad_close(dgamma, central_difference(lambda v: loss(x, v, beta), gamma.copy()), 1e-5)
        assert_grad_close(dbeta, central_difference(lambda v: loss(x, gamma, v), beta.copy()), 1e-5)


# The two normalization kernels as they were written before they shared
# ``layers._normalize``; the shared core must keep their bits.

def reference_batch_norm_train(x, gamma, beta, running_mean, running_var,
                               momentum=L.BN_MOMENTUM, eps=L.EPS_NORM):
    n = x.shape[0] * x.shape[1]
    mean = x.mean(axis=(0, 1))
    var = x.var(axis=(0, 1))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    y = xhat * gamma + beta
    new_mean = momentum * running_mean + (1.0 - momentum) * mean
    new_var = momentum * running_var + (1.0 - momentum) * var
    return y, (inv, xhat, gamma, n), new_mean, new_var


def reference_batch_norm_backward(gy, cache):
    inv, xhat, gamma, n = cache
    dgamma = (gy * xhat).sum(axis=(0, 1))
    dbeta = gy.sum(axis=(0, 1))
    gxhat = gy * gamma
    gx = (inv / n) * (
        n * gxhat
        - gxhat.sum(axis=(0, 1))
        - xhat * (gxhat * xhat).sum(axis=(0, 1))
    )
    return gx, dgamma, dbeta


def reference_instance_norm(x, gamma, beta, eps=L.EPS_NORM):
    T = x.shape[1]
    mean = x.mean(axis=1, keepdims=True)
    var = x.var(axis=1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    return xhat * gamma + beta, (inv, xhat, gamma, T)


def reference_instance_norm_backward(gy, cache):
    inv, xhat, gamma, T = cache
    dgamma = (gy * xhat).sum(axis=(0, 1))
    dbeta = gy.sum(axis=(0, 1))
    gxhat = gy * gamma
    gx = (inv / T) * (
        T * gxhat
        - gxhat.sum(axis=1, keepdims=True)
        - xhat * (gxhat * xhat).sum(axis=1, keepdims=True)
    )
    return gx, dgamma, dbeta


def reference_normalize(x, gamma, beta, axes, eps=L.EPS_NORM):
    """``layers._normalize``'s earlier form: ``x.var`` forms ``x - mean`` a second time."""
    mean = x.mean(axis=axes, keepdims=True)
    var = x.var(axis=axes, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x - mean) * inv
    return xhat * gamma + beta, xhat, inv, mean, var


def assert_same_bits(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


norm_case = st.tuples(st.integers(1, 6), st.integers(2, 40), st.integers(1, 9),
                      st.integers(0, 2 ** 31), st.sampled_from([1e-3, 1.0, 40.0]))


class TestNormalizationCore:
    @given(norm_case)
    @settings(max_examples=40)
    def test_batch_norm_keeps_the_bits_of_its_own_formulas(self, case):
        batch, T, C, seed, scale = case
        x = random_batch((batch, T, C), seed=seed, scale=scale) + 0.25
        gamma, beta, rm = (random_batch((C,), seed=seed + i) for i in (1, 2, 3))
        rv = random_batch((C,), seed=seed + 4) + 2.0
        gy = random_batch(x.shape, seed=seed + 5)
        y, cache, new_mean, new_var = L.batch_norm_forward(x, gamma, beta, rm, rv, "train")
        want_y, want_cache, want_mean, want_var = reference_batch_norm_train(x, gamma, beta, rm, rv)
        assert_same_bits((y, new_mean, new_var), (want_y, want_mean, want_var))
        assert_same_bits(L.batch_norm_backward(gy, cache),
                         reference_batch_norm_backward(gy, want_cache))

    @given(norm_case)
    @settings(max_examples=40)
    def test_instance_norm_keeps_the_bits_of_its_own_formulas(self, case):
        batch, T, C, seed, scale = case
        x = random_batch((batch, T, C), seed=seed, scale=scale) - 0.5
        gamma, beta = random_batch((C,), seed=seed + 1), random_batch((C,), seed=seed + 2)
        gy = random_batch(x.shape, seed=seed + 3)
        y, cache = L.instance_norm_forward(x, gamma, beta)
        want_y, want_cache = reference_instance_norm(x, gamma, beta)
        assert_same_bits((y,), (want_y,))
        assert_same_bits(L.instance_norm_backward(gy, cache),
                         reference_instance_norm_backward(gy, want_cache))

    @given(norm_case, st.sampled_from([(0, 1), (1,)]), st.sampled_from([0.0, 0.25, -3e3]))
    @settings(max_examples=40)
    def test_normalize_keeps_the_bits_of_its_two_pass_form(self, case, axes, offset):
        batch, T, C, seed, scale = case
        x = random_batch((batch, T, C), seed=seed, scale=scale) + offset
        gamma, beta = random_batch((C,), seed=seed + 1), random_batch((C,), seed=seed + 2)
        y, (inv, xhat, *_), mean, var = L._normalize(x, gamma, beta, axes)
        assert_same_bits((y, xhat, inv, mean, var), reference_normalize(x, gamma, beta, axes))

    @pytest.mark.parametrize("T", [8, 9, 150])
    def test_instance_norm_lays_out_on_an_empty_batch(self, T):
        # the empty-batch forward that gives each node its out shape: counting
        # the reduced values as x.size // mean.size would divide by zero here
        with np.errstate(all="raise"):
            y, _ = L.instance_norm_forward(np.zeros((0, T, 3)), np.ones(3), np.zeros(3))
            spec = M.build_encoder(T, 2, 3)
            layout = spec.layout.params
        assert y.shape == (0, T, 3)
        assert spec.net.layout((T, 2), "", M.Layout()) == (3,)
        assert [name for name, _, _ in layout if name.startswith("2.")] == ["2.slopes"]
        assert ("1.gamma", (128,), 1.0) in layout and ("1.beta", (128,), 0.0) in layout


def test_kernel_names_pair_up_for_profilers():
    # a profiler wraps every ``*_forward``/``*_backward`` name of ``layers`` and
    # files its time under a kernel group by the name's prefix, so each kernel
    # needs both names, no private helper may carry one, and a function that
    # answered to two names would be wrapped twice
    names = [n for n in dir(L) if n.endswith(("_forward", "_backward"))]
    forwards = {n.removesuffix("_forward") for n in names if n.endswith("_forward")}
    backwards = {n.removesuffix("_backward") for n in names if n.endswith("_backward")}
    assert forwards == backwards
    assert not [n for n in names if n.startswith("_")]
    assert len({id(getattr(L, n)) for n in names}) == len(names)


def _strided(shape, seed):
    """A random batch that is a slice of a wider one, as a branch node's gradient is."""
    return random_batch((*shape[:-1], shape[-1] + 4), seed=seed)[..., 2:-2]


@pytest.mark.parametrize("kernel, inputs", [
    ("dense", lambda: (random_batch((5, 7), 1), random_batch((7, 3), 2), random_batch((3,), 3))),
    ("conv1d", lambda: (random_batch((4, 20, 3), 1), random_batch((6, 5, 3), 2),
                        random_batch((6,), 3), "same")),
    ("conv1d", lambda: (random_batch((4, 20, 3), 1), random_batch((6, 7, 3), 2),
                        random_batch((6,), 3), "valid")),
    ("batch_norm", lambda: (random_batch((4, 10, 6), 1), random_batch((6,), 2),
                            random_batch((6,), 3), np.zeros(6), np.ones(6), "train")),
    ("instance_norm", lambda: (random_batch((4, 10, 6), 1), random_batch((6,), 2),
                               random_batch((6,), 3))),
    ("prelu", lambda: (random_batch((4, 10, 6), 1), random_batch((6,), 2))),
], ids=["dense", "conv-same", "conv-valid", "batch_norm", "instance_norm", "prelu"])
@pytest.mark.parametrize("gy_layout", ["contiguous", "strided"])
def test_gradient_outputs_keep_the_bits_of_the_allocating_call(kernel, inputs, gy_layout):
    y, cache = getattr(L, f"{kernel}_forward")(*inputs())[:2]
    gy = _strided(y.shape, 4) if gy_layout == "strided" else random_batch(y.shape, 4)
    backward = getattr(L, f"{kernel}_backward")
    allocated = backward(gy, cache)
    slots = [np.full_like(g, np.nan) for g in allocated[1:]]
    written = backward(gy, cache, *slots)
    assert written[0].tobytes() == allocated[0].tobytes()
    for slot, got, want in zip(slots, written[1:], allocated[1:]):
        assert np.shares_memory(got, slot) and got.shape == slot.shape
        assert slot.tobytes() == want.tobytes()


def nan_bits(payload, negative=False):
    """A quiet NaN with ``payload`` in its low mantissa bits."""
    return np.array(0x7FF8000000000000 | payload | negative << 63, np.uint64).view(np.float64)


SIGNED_NANS = [nan_bits(1), nan_bits(1, negative=True), nan_bits(2), nan_bits(2, negative=True)]


def where_prelu(x, slopes, gy):
    """PReLU's ``np.where`` forms: ``y``, ``gx`` and ``gslopes``."""
    pos = x > 0.0
    gslopes = np.sum(gy * np.where(pos, 0.0, x), axis=tuple(range(x.ndim - 1)))
    return np.where(pos, x, slopes * x), gy * np.where(pos, 1.0, slopes), gslopes


class TestActivations:
    def test_softmax_symmetry(self):
        y, _ = L.softmax_forward(np.zeros((1, 4)), "train")
        assert np.allclose(y, 0.25)

    def test_softmax_rows_sum_to_one(self):
        logits = random_batch((50, 7), seed=0, scale=100.0)
        y, _ = L.softmax_forward(logits, "train")
        assert np.max(np.abs(y.sum(axis=1) - 1.0)) < 1e-12

    def test_prelu_zero_slope_is_relu(self):
        x = random_batch((3, 6, 2), seed=1)
        y_prelu, _ = L.prelu_forward(x, np.zeros(2))
        y_relu, _ = L.relu_forward(x, "train")
        assert np.array_equal(y_prelu, y_relu)

    @pytest.mark.parametrize("kind", ["relu", "sigmoid", "softmax"])
    def test_gradients_match_finite_differences(self, kind):
        x = random_batch((3, 5), seed=2) + 0.01  # keep relu off the kink
        gy = random_batch((3, 5), seed=3)

        forward, backward = getattr(L, f"{kind}_forward"), getattr(L, f"{kind}_backward")

        def loss(x_):
            y, _ = forward(x_, "train")
            return float((y * gy).sum())

        _, cache = forward(x, "train")
        gx = backward(gy, cache)
        assert_grad_close(gx, central_difference(loss, x.copy()))

    @pytest.mark.parametrize("view", ["batch", "branch"])
    def test_prelu_keeps_the_bits_of_its_where_forms(self, view):
        # NaNs of two payloads and both signs, ±0 and ±inf in every channel, a
        # NaN in gy; slopes negative, ±0, above 1 and inf
        x = random_batch((3, 12, 6), seed=6)
        x[0, :8] = np.array([*SIGNED_NANS, 0.0, -0.0, np.inf, -np.inf])[:, None]
        gy = random_batch(x.shape, seed=7)
        gy[0, 1], gy[2, 5] = SIGNED_NANS[1], np.nan
        slopes = np.array([-0.5, 0.0, -0.0, 1.5, np.inf, 0.25])
        cases = [(x, slopes, gy)] if view == "batch" else [
            (M.SplitDims([])._branch_input(x, i), slopes[i : i + 1],
             M.SplitDims([])._branch_input(gy, i)) for i in range(len(slopes))]
        for x_, slopes_, gy_ in [*cases, (x[:0], slopes, gy[:0])]:
            with np.errstate(invalid="ignore"):  # inf * 0
                y, cache = L.prelu_forward(x_, slopes_)
                want = where_prelu(x_, slopes_, gy_)
            assert_same_bits((y, *L.prelu_backward(gy_, cache)), want)

    def test_select_keeps_the_bits_of_where(self):
        x = random_batch((3, 12, 6), seed=8)
        x[0, :4] = np.array(SIGNED_NANS)[:, None]
        cond = x > 0.0
        for cond_, a, b in [(cond, np.asarray(1.0), x), (cond, x, np.asarray(-0.0)),
                            (cond, np.asarray(np.inf), np.asarray(-np.nan)),
                            (cond[:0], x[:0], 2.0 * x[:0])]:
            assert_same_bits([L._select(cond_, a, b)], [np.where(cond_, a, b)])

    def test_prelu_gradients_including_slopes(self):
        x = random_batch((2, 6, 3), seed=4) + 0.01
        slopes = np.full(3, 0.25)
        gy = random_batch((2, 6, 3), seed=5)

        def loss(x_, s_):
            y, _ = L.prelu_forward(x_, s_)
            return float((y * gy).sum())

        _, cache = L.prelu_forward(x, slopes)
        gx, gslopes = L.prelu_backward(gy, cache)
        assert_grad_close(gx, central_difference(lambda v: loss(v, slopes), x.copy()))
        assert_grad_close(gslopes, central_difference(lambda v: loss(x, v), slopes.copy()))


class TestDropout:
    def test_rate_zero_identity(self):
        x = random_batch((4, 5), seed=0)
        for mode in ("train", "infer"):
            y, _ = L.dropout_forward(x, 0.0, mode, SplitMix64(0))
            assert np.array_equal(y, x)

    def test_infer_identity_any_rate(self):
        x = random_batch((4, 5), seed=1)
        y, _ = L.dropout_forward(x, 0.7, "infer", None)
        assert np.array_equal(y, x)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            L.dropout_forward(np.zeros((2, 2)), 1.0, "train", SplitMix64(0))

    def test_survivor_fraction_and_mean(self):
        x = np.ones((1000, 1000))
        y, _ = L.dropout_forward(x, 0.5, "train", SplitMix64(7))
        survivors = (y != 0).mean()
        assert abs(survivors - 0.5) < 0.01
        assert abs(y.mean() - 1.0) < 0.02  # inverted scaling preserves the mean

    def test_backward_uses_same_mask(self):
        x = random_batch((3, 4), seed=2)
        y, cache = L.dropout_forward(x, 0.4, "train", SplitMix64(3))
        gy = np.ones_like(x)
        gx = L.dropout_backward(gy, cache)
        assert np.array_equal(gx == 0, y == 0)


def reference_max_pool(x, window):
    """The ``argmax`` + ``take_along_axis`` + ``put_along_axis`` form: ``y``, ``idx``, a backward."""
    batch, T, C = x.shape
    t_out = T // window
    blocks = x[:, : t_out * window, :].reshape(batch, t_out, window, C)
    idx = blocks.argmax(axis=2)
    y = np.take_along_axis(blocks, idx[:, :, None, :], axis=2)[:, :, 0, :]

    def backward(gy):
        gblocks = np.zeros((batch, t_out, window, C))
        np.put_along_axis(gblocks, idx[:, :, None, :], gy[:, :, None, :], axis=2)
        gx = np.zeros(x.shape)
        gx[:, : t_out * window, :] = gblocks.reshape(batch, t_out * window, C)
        return gx

    return y, idx, backward


def pool_input(kind, seed):
    x = random_batch((4, 23, 5), seed=seed)
    if kind == "relu":  # many tied zeros, of both signs
        x = np.maximum(x, 0.0)
        x.reshape(-1)[::7] = -0.0
    elif kind == "equal-pairs":  # exact ties between nonzero values
        x = np.round(x) / 2.0
    elif kind == "nan-pairs":  # a +NaN and a -NaN of other payloads, and ±0, side by side in both
        # orders over a negative background, at a shift that differs by series and channel
        a, b = SIGNED_NANS[0], SIGNED_NANS[3]
        pattern = [a, b, -0.0, 0.0, 0.0, -0.0, b, a]
        x = -np.abs(x)
        for n, c in np.ndindex(x.shape[0], x.shape[2]):
            x[n, :, c] = np.roll(np.concatenate([np.resize(pattern, 12), x[n, 12:, c]]), 5 * n + c)
    else:  # NaNs, some at a window's start: argmax takes the first NaN it meets
        x.reshape(-1)[::9] = np.nan
    return x


class TestPooling:
    @pytest.mark.parametrize("kind", ["relu", "equal-pairs", "nan", "nan-pairs"])
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5])
    def test_max_pool_keeps_the_bits_of_argmax(self, window, kind):
        x = pool_input(kind, seed=window)
        y, cache = L.pool1d_forward(x, window, "max", "train")
        want_y, want_idx, want_backward = reference_max_pool(x, window)
        assert np.array_equal(cache[1], want_idx)
        gy = random_batch(y.shape, seed=60)
        assert_same_bits((y, L.pool1d_backward(gy, cache)), (want_y, want_backward(gy)))

    def test_max_pool_example(self):
        x = np.array([1.0, 3.0, 2.0, 5.0]).reshape(1, 4, 1)
        y, _ = L.pool1d_forward(x, 2, "max", "train")
        assert np.array_equal(y[0, :, 0], [3.0, 5.0])

    def test_avg_pool_constant(self):
        x = np.full((1, 9, 2), 4.5)
        y, _ = L.pool1d_forward(x, 3, "avg", "train")
        assert y.shape == (1, 3, 2)
        assert np.allclose(y, 4.5)

    def test_remainder_dropped(self):
        x = random_batch((1, 7, 1), seed=0)
        y, _ = L.pool1d_forward(x, 3, "max", "train")
        assert y.shape == (1, 2, 1)

    def test_window_larger_than_series_rejected(self):
        with pytest.raises(ValueError):
            L.pool1d_forward(np.zeros((1, 3, 1)), 4, "max", "train")

    def test_max_tie_routes_to_first_index(self):
        x = np.array([2.0, 2.0]).reshape(1, 2, 1)
        y, cache = L.pool1d_forward(x, 2, "max", "train")
        gx = L.pool1d_backward(np.ones_like(y), cache)
        assert np.array_equal(gx[0, :, 0], [1.0, 0.0])

    @pytest.mark.parametrize("kind", ["max", "avg"])
    def test_gradients_match_finite_differences(self, kind):
        x = random_batch((2, 9, 2), seed=1)
        y0, cache = L.pool1d_forward(x, 3, kind, "train")
        gy = random_batch(y0.shape, seed=2)

        def loss(x_):
            y, _ = L.pool1d_forward(x_, 3, kind, "train")
            return float((y * gy).sum())

        gx = L.pool1d_backward(gy, cache)
        assert_grad_close(gx, central_difference(loss, x.copy()))


# The kernels' forwards as they were written before infer mode dropped the
# ReLU mask and the max-pool index; the max pool's is ``reference_max_pool``.
def old_relu(x):
    return np.maximum(x, 0.0), (x > 0.0)


def old_avg_pool(x, window):
    batch, T, C = x.shape
    t_out = T // window
    return x[:, : t_out * window, :].reshape(batch, t_out, window, C).mean(axis=2)


def old_sigmoid(x):
    y = np.empty_like(x)
    pos = x >= 0
    y[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    y[~pos] = ex / (1.0 + ex)
    return y


def where_sigmoid(x):
    """The sigmoid's ``where`` form: ``where(x >= 0, 1, e) / (1 + e)``, ``e = exp(-|x|)``."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def kernel_input(kind, seed, view):
    """``pool_input`` with a window of -0.0 (its mean is +0.0); whole, or as the
    non-contiguous slice that mcdcnn's third ``SplitDims`` branch sees."""
    x = pool_input(kind, seed)
    x[:, 4:12] = -0.0
    return x if view == "batch" else M.SplitDims([])._branch_input(x, 2)


class TestInferModeKernels:
    """Both modes give the old formulas' output bits; infer mode keeps no cache."""

    @pytest.mark.parametrize("view", ["batch", "branch"])
    @pytest.mark.parametrize("kind", ["relu", "equal-pairs", "nan"])
    def test_relu(self, kind, view):
        x = kernel_input(kind, 70, view)
        want_y, want_mask = old_relu(x)
        y, mask = L.relu_forward(x, "train")
        y_infer, cache = L.relu_forward(x, "infer")
        assert cache is None
        assert_same_bits((y, mask, y_infer), (want_y, want_mask, want_y))

    @pytest.mark.parametrize("view", ["batch", "branch"])
    @pytest.mark.parametrize("kind", ["relu", "equal-pairs", "nan", "nan-pairs"])
    @pytest.mark.parametrize("window", [1, 2, 3, 4])
    def test_max_pool(self, window, kind, view):
        x = kernel_input(kind, 70 + window, view)
        want_y, want_idx, _ = reference_max_pool(x, window)
        y, cache = L.pool1d_forward(x, window, "max", "train")
        y_infer, none = L.pool1d_forward(x, window, "max", "infer")
        assert none is None and cache[0] == "max"
        assert_same_bits((y, cache[1], y_infer), (want_y, want_idx, want_y))

    @pytest.mark.parametrize("view", ["batch", "branch"])
    @pytest.mark.parametrize("kind", ["relu", "equal-pairs", "nan"])
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 7])  # numpy's mean regroups from 8
    def test_avg_pool(self, window, kind, view):
        x = kernel_input(kind, 80 + window, view)
        want_y = old_avg_pool(x, window)
        y, cache = L.pool1d_forward(x, window, "avg", "train")
        y_infer, none = L.pool1d_forward(x, window, "avg", "infer")
        assert none is None and cache == ("avg", None, x.shape, window)
        assert_same_bits((y, y_infer), (want_y, want_y))

    def test_sigmoid_at_its_edges(self):
        edges = [0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 1e-310, -1e-310,
                 709.5, -709.5, 745.2, -745.2, 800.0, -800.0, 1e308, -1e308]
        x = np.concatenate([edges, *(random_batch((4000,), seed=90, scale=s)
                                     for s in (1e-3, 1.0, 40.0, 800.0))]).reshape(4, -1, 2)
        want_y = old_sigmoid(x)
        y, cache = L.sigmoid_forward(x, "train")
        y_infer, none = L.sigmoid_forward(x, "infer")
        assert none is None and cache is y
        assert_same_bits((y, y_infer), (want_y, want_y))

        # NaN inputs keep the bits of the where form; the masked form's +NaN
        # outputs differ from it in the sign bit alone
        nans = np.array(SIGNED_NANS * 2).reshape(2, 2, 2)
        want_nan = where_sigmoid(nans)
        y_nan, _ = L.sigmoid_forward(nans, "train")
        assert_same_bits((y_nan, L.sigmoid_forward(nans, "infer")[0]), (want_nan, want_nan))
        flipped = old_sigmoid(nans).view(np.uint64) ^ want_nan.view(np.uint64)
        assert np.array_equal(flipped, np.where(np.signbit(nans), 0, 1 << 63).astype(np.uint64))


class TestGapAndAttention:
    def test_gap_length_one_squeezes(self):
        x = random_batch((2, 1, 3), seed=0)
        y, _ = L.gap_forward(x)
        assert np.array_equal(y, x[:, 0, :])

    def test_gap_constant(self):
        x = np.full((2, 6, 2), 1.25)
        y, _ = L.gap_forward(x)
        assert np.allclose(y, 1.25)

    def test_gap_gradient(self):
        x = random_batch((2, 6, 2), seed=1)
        _, cache = L.gap_forward(x)
        gy = random_batch((2, 2), seed=2)

        def loss(x_):
            y, _ = L.gap_forward(x_)
            return float((y * gy).sum())

        gx = L.gap_backward(gy, cache)
        assert_grad_close(gx, central_difference(loss, x.copy()), 1e-8)

    def test_attention_uniform_weights_give_time_mean(self):
        v = random_batch((2, 5, 3), seed=3)
        a = np.ones((2, 5, 3)) * 0.37  # constant over time -> uniform softmax
        x = np.concatenate([a, v], axis=2)
        y, _ = L.attention_forward(x)
        assert np.allclose(y, v.mean(axis=1), atol=1e-12)

    def test_attention_saturated_logit_selects_timestep(self):
        v = random_batch((1, 6, 2), seed=4)
        a = np.zeros((1, 6, 2))
        a[0, 3, :] = 1000.0
        x = np.concatenate([a, v], axis=2)
        y, _ = L.attention_forward(x)
        assert np.max(np.abs(y[0] - v[0, 3, :])) < 1e-9

    def test_attention_rejects_odd_channels(self):
        with pytest.raises(ValueError):
            L.attention_forward(np.zeros((1, 4, 3)))

    def test_attention_gradient(self):
        x = random_batch((2, 5, 4), seed=5)
        _, cache = L.attention_forward(x)
        gy = random_batch((2, 2), seed=6)

        def loss(x_):
            y, _ = L.attention_forward(x_)
            return float((y * gy).sum())

        gx = L.attention_backward(gy, cache)
        assert_grad_close(gx, central_difference(loss, x.copy()), 1e-5)


class TestFixedTransforms:
    def test_downsample_keeps_every_kth(self):
        x = np.arange(10.0).reshape(1, 10, 1)
        y, _ = L.downsample_forward(x, 4)
        assert np.array_equal(y[0, :, 0], [0.0, 4.0, 8.0])

    def test_moving_average_matches_manual(self):
        x = np.arange(6.0).reshape(1, 6, 1)
        y, _ = L.moving_average_forward(x, 3)
        assert np.allclose(y[0, :, 0], [1.0, 2.0, 3.0, 4.0])

    @pytest.mark.parametrize("before, after", [(0, 0), (1, 0), (0, 3), (2, 5)])
    def test_time_pad_keeps_the_bits_of_np_pad(self, before, after):
        x = random_batch((3, 7, 2), seed=before + after)[:, ::-1]  # not contiguous
        want = np.pad(x, ((0, 0), (before, after), (0, 0)))
        assert_same_bits((L.pad_time(x, before, after),), (want,))

    def test_moving_average_and_align_time_keep_the_bits_of_np_pad(self):
        x = random_batch((3, 9, 2), seed=3)
        c = np.cumsum(np.pad(x, ((0, 0), (1, 0), (0, 0))), axis=1)
        assert_same_bits((L.moving_average_forward(x, 4)[0],), ((c[:, 4:] - c[:, :-4]) / 4,))
        align, caches, gy = M.AlignTime(12), {}, random_batch((3, 5, 2), seed=4)
        assert_same_bits((align.forward(x, {}, "train", None, caches),),
                         (np.pad(x, ((0, 0), (0, 3), (0, 0))),))
        crop = M.AlignTime(5)
        crop.forward(x, {}, "train", None, caches)
        assert_same_bits((crop.backward(gy, caches, {}),),
                         (np.pad(gy, ((0, 0), (0, 4), (0, 0))),))

    def test_transform_gradients(self):
        x = random_batch((2, 8, 2), seed=0)
        for fwd, bwd, arg in (
            (L.downsample_forward, L.downsample_backward, 3),
            (L.moving_average_forward, L.moving_average_backward, 4),
        ):
            y0, cache = fwd(x, arg)
            gy = random_batch(y0.shape, seed=1)

            def loss(x_):
                y, _ = fwd(x_, arg)
                return float((y * gy).sum())

            assert_grad_close(bwd(gy, cache), central_difference(loss, x.copy()))


class TestResidualAdd:
    def test_zero_branch_identity(self):
        x = random_batch((2, 4, 3), seed=0)
        assert np.array_equal(L.residual_add(x, np.zeros_like(x)), x)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            L.residual_add(np.zeros((2, 3)), np.zeros((3, 2)))


class TestLosses:
    def test_perfect_prediction(self):
        target = np.eye(4)
        ce, _ = L.cross_entropy_loss(target.copy(), target)
        mse, _ = L.mse_loss(target.copy(), target)
        assert ce <= 1e-12 * 4
        assert mse == 0.0

    def test_uniform_prediction_gives_log_k(self):
        for k in (2, 5, 10):
            target = np.zeros((3, k))
            target[:, 0] = 1.0
            pred = np.full((3, k), 1.0 / k)
            ce, _ = L.cross_entropy_loss(pred, target)
            assert abs(ce - math.log(k)) < 1e-12

    def test_non_one_hot_rejected(self):
        pred = np.full((2, 2), 0.5)
        with pytest.raises(ValueError):
            L.cross_entropy_loss(pred, np.array([[0.5, 0.5], [1.0, 0.0]]))
        with pytest.raises(ValueError):
            L.mse_loss(pred, np.array([[1.0, 1.0], [1.0, 0.0]]))

    def test_cross_entropy_gradient_through_softmax(self):
        logits = random_batch((4, 3), seed=0, scale=2.0)
        target = np.zeros((4, 3))
        for i in range(4):
            target[i, i % 3] = 1.0

        def loss(z):
            p, _ = L.softmax_forward(z, "train")
            value, _ = L.cross_entropy_loss(p, target)
            return value

        p, cache = L.softmax_forward(logits, "train")
        _, gpred = L.cross_entropy_loss(p, target)
        gz = L.softmax_backward(gpred, cache)
        assert_grad_close(gz, central_difference(loss, logits.copy()))

    def test_mse_gradient_through_sigmoid(self):
        logits = random_batch((4, 3), seed=1, scale=2.0)
        target = np.zeros((4, 3))
        for i in range(4):
            target[i, i % 3] = 1.0

        def loss(z):
            p, _ = L.sigmoid_forward(z, "train")
            value, _ = L.mse_loss(p, target)
            return value

        p, cache = L.sigmoid_forward(logits, "train")
        _, gpred = L.mse_loss(p, target)
        gz = L.sigmoid_backward(gpred, cache)
        assert_grad_close(gz, central_difference(loss, logits.copy()))


@given(st.integers(0, 2 ** 31), st.integers(2, 5), st.integers(2, 7))
@settings(max_examples=30)
def test_softmax_simplex_property(seed, rows, cols):
    logits = random_batch((rows, cols), seed=seed, scale=50.0)
    y, _ = L.softmax_forward(logits, "train")
    assert np.all(y >= 0)
    assert np.max(np.abs(y.sum(axis=1) - 1.0)) < 1e-12
