"""Tests for conv/pool/embedding/dropout functional ops, including gradient checks."""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np
import pytest

from repro.nn import functional as F
from repro.nn.dtype import default_dtype
from repro.nn.plan import GraphPlan
from repro.nn.tensor import Tensor

from gradcheck import assert_grad_close, numerical_gradient


def naive_conv2d(x, w, b, stride, padding):
    """Straightforward loop reference used to validate the convolution kernel."""
    n, c, h, wdt = x.shape
    oc, ic, kh, kw = w.shape
    if padding:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out_h = (h + 2 * padding - kh) // stride + 1
    out_w = (wdt + 2 * padding - kw) // stride + 1
    out = np.zeros((n, oc, out_h, out_w))
    for i in range(n):
        for o in range(oc):
            for y in range(out_h):
                for xx in range(out_w):
                    patch = x[i, :, y * stride : y * stride + kh, xx * stride : xx * stride + kw]
                    out[i, o, y, xx] = (patch * w[o]).sum()
            if b is not None:
                out[i, o] += b[o]
    return out


#: (kernel, stride, padding) geometries the conv kernel is checked on
CONV_GEOMETRIES = [(1, 1, 0), (1, 2, 0), (3, 1, 0), (3, 1, 1), (3, 2, 0), (3, 2, 1), (2, 2, 0)]


def _stacked(array: np.ndarray, **kwargs) -> Tensor:
    tensor = Tensor(array, **kwargs)
    tensor.seed_dim = array.shape[0]
    return tensor


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_matches_naive_reference(self, rng, stride, padding):
        x = rng.standard_normal((2, 3, 6, 6))
        w = rng.standard_normal((4, 3, 3, 3))
        b = rng.standard_normal(4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride, padding=padding)
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, b, stride, padding), atol=1e-10)

    @pytest.mark.parametrize("kernel,stride,padding", CONV_GEOMETRIES)
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_matches_naive_reference_every_geometry(self, rng, kernel, stride, padding, with_bias):
        x = rng.standard_normal((2, 3, 6, 5))
        w = rng.standard_normal((4, 3, kernel, kernel))
        b = rng.standard_normal(4) if with_bias else None
        out = F.conv2d(
            Tensor(x), Tensor(w), None if b is None else Tensor(b), stride=stride, padding=padding
        )
        np.testing.assert_allclose(out.data, naive_conv2d(x, w, b, stride, padding), atol=1e-10)

    @pytest.mark.parametrize("kernel,stride,padding", CONV_GEOMETRIES)
    @pytest.mark.parametrize("with_bias", [True, False])
    def test_gradcheck_float64(self, rng, kernel, stride, padding, with_bias):
        x_data = rng.standard_normal((2, 2, 5, 6))
        w_data = rng.standard_normal((3, 2, kernel, kernel))
        b_data = rng.standard_normal(3) if with_bias else None
        out_shape = F.conv2d(Tensor(x_data), Tensor(w_data), None, stride, padding).shape
        proj = rng.standard_normal(out_shape)

        def loss(x_arr, w_arr, b_arr):
            b = None if b_arr is None else Tensor(b_arr)
            return float((F.conv2d(Tensor(x_arr), Tensor(w_arr), b, stride, padding).data * proj).sum())

        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = None if b_data is None else Tensor(b_data, requires_grad=True)
        F.conv2d(x, w, b, stride, padding).backward(proj)
        assert_grad_close(x.grad, numerical_gradient(lambda a: loss(a, w_data, b_data), x_data.copy()))
        assert_grad_close(w.grad, numerical_gradient(lambda a: loss(x_data, a, b_data), w_data.copy()))
        if b is not None:
            assert_grad_close(b.grad, numerical_gradient(lambda a: loss(x_data, w_data, a), b_data.copy()))

    @pytest.mark.parametrize("dtype", ["float64", "float32", "bfloat16", "float16"])
    @pytest.mark.parametrize("kernel,stride,padding", [(3, 1, 1), (3, 2, 1), (1, 1, 0)])
    def test_seed_stacked_is_bitwise_serial(self, rng, dtype, kernel, stride, padding):
        num_seeds = 3
        x_data = rng.standard_normal((num_seeds, 2, 3, 6, 6))
        w_data = rng.standard_normal((num_seeds, 4, 3, kernel, kernel))
        b_data = rng.standard_normal((num_seeds, 4))
        with default_dtype(dtype):
            x = _stacked(x_data, requires_grad=True)
            w = _stacked(w_data, requires_grad=True)
            b = _stacked(b_data, requires_grad=True)
            out = F.conv2d(x, w, b, stride, padding)
            grad = rng.standard_normal(out.shape).astype(out.data.dtype)
            out.backward(grad)
            for s in range(num_seeds):
                xs = Tensor(x_data[s], requires_grad=True)
                ws = Tensor(w_data[s], requires_grad=True)
                bs = Tensor(b_data[s], requires_grad=True)
                serial = F.conv2d(xs, ws, bs, stride, padding)
                serial.backward(grad[s])
                for stacked_arr, serial_arr in [
                    (out.data, serial.data), (x.grad, xs.grad), (w.grad, ws.grad), (b.grad, bs.grad)
                ]:
                    assert stacked_arr[s].tobytes() == serial_arr.tobytes()

    @pytest.mark.parametrize("passes", ["default", "all"])
    def test_planned_is_bitwise_unplanned(self, rng, passes):
        x_data = rng.standard_normal((4, 3, 8, 8))
        w1_data = rng.standard_normal((5, 3, 3, 3))
        b1_data = rng.standard_normal(5)
        w2_data = rng.standard_normal((2, 5, 1, 1))
        proj = rng.standard_normal((4, 2, 4, 4))

        def run(plan):
            x = Tensor(x_data, requires_grad=True)
            params = [Tensor(a.copy(), requires_grad=True) for a in (w1_data, b1_data, w2_data)]
            seen = []
            for _ in range(3):
                with plan.step() if plan is not None else nullcontext():
                    for t in (x, *params):
                        t.zero_grad()
                    hidden = F.conv2d(x, params[0], params[1], stride=2, padding=1).leaky_relu(0.1)
                    out = F.conv2d(hidden, params[2])
                    (out * Tensor(proj)).sum().backward()
                    seen.append([out.data.copy(), x.grad.copy()] + [p.grad.copy() for p in params])
                    for p in params:
                        p.data -= 0.01 * p.grad
            return seen

        plan = GraphPlan(passes=passes)
        planned, unplanned = run(plan), run(None)
        assert plan.reused_checkouts > 0
        for step_planned, step_unplanned in zip(planned, unplanned):
            for a, b in zip(step_planned, step_unplanned):
                assert a.tobytes() == b.tobytes()

    def test_gradients_numerical(self, rng):
        x_data = rng.standard_normal((1, 2, 5, 5))
        w_data = rng.standard_normal((3, 2, 3, 3))
        b_data = rng.standard_normal(3)
        x = Tensor(x_data, requires_grad=True)
        w = Tensor(w_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        F.conv2d(x, w, b, stride=1, padding=1).sum().backward()

        def fx(arr):
            return float(F.conv2d(Tensor(arr), Tensor(w_data), Tensor(b_data), 1, 1).sum().data)

        def fw(arr):
            return float(F.conv2d(Tensor(x_data), Tensor(arr), Tensor(b_data), 1, 1).sum().data)

        def fb(arr):
            return float(F.conv2d(Tensor(x_data), Tensor(w_data), Tensor(arr), 1, 1).sum().data)

        assert_grad_close(x.grad, numerical_gradient(fx, x_data.copy()), atol=1e-4)
        assert_grad_close(w.grad, numerical_gradient(fw, w_data.copy()), atol=1e-4)
        assert_grad_close(b.grad, numerical_gradient(fb, b_data.copy()), atol=1e-4)

    def test_channel_mismatch_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 3, 4, 4)))
        w = Tensor(rng.standard_normal((2, 4, 3, 3)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)

    def test_too_small_input_raises(self, rng):
        x = Tensor(rng.standard_normal((1, 1, 2, 2)))
        w = Tensor(rng.standard_normal((1, 1, 5, 5)))
        with pytest.raises(ValueError):
            F.conv2d(x, w)


class TestIm2Col:
    def test_col2im_is_adjoint_of_im2col(self, rng):
        """<im2col(x), y> == <x, col2im(y)> — the defining adjoint property."""
        x = rng.standard_normal((2, 3, 6, 6))
        cols, out_h, out_w = F.im2col(x, 3, 3, 1, 1)
        y = rng.standard_normal(cols.shape)
        lhs = float((cols * y).sum())
        rhs = float((x * F.col2im(y, x.shape, 3, 3, 1, 1)).sum())
        assert abs(lhs - rhs) < 1e-8

    def test_output_size(self, rng):
        x = rng.standard_normal((1, 1, 8, 8))
        cols, out_h, out_w = F.im2col(x, 2, 2, 2, 0)
        assert (out_h, out_w) == (4, 4)
        assert cols.shape == (1, 4, 16)


class TestPooling:
    def test_max_pool_values_and_gradient(self):
        x_data = np.arange(16, dtype=float).reshape(1, 1, 4, 4)
        x = Tensor(x_data, requires_grad=True)
        out = F.max_pool2d(x, 2)
        np.testing.assert_allclose(out.data.reshape(2, 2), [[5, 7], [13, 15]])
        out.sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1.0
        np.testing.assert_allclose(x.grad.reshape(4, 4), expected)

    def test_avg_pool_values_and_gradient(self):
        x_data = np.ones((1, 2, 4, 4))
        x = Tensor(x_data, requires_grad=True)
        out = F.avg_pool2d(x, 2)
        np.testing.assert_allclose(out.data, np.ones((1, 2, 2, 2)))
        out.sum().backward()
        np.testing.assert_allclose(x.grad, np.full((1, 2, 4, 4), 0.25))

    def test_global_avg_pool(self, rng):
        x = rng.standard_normal((3, 5, 4, 4))
        out = F.global_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data, x.mean(axis=(2, 3)))

    def test_global_avg_pool_requires_4d(self):
        with pytest.raises(ValueError):
            F.global_avg_pool2d(Tensor(np.zeros((3, 4))))


class TestEmbeddingDropoutOneHot:
    def test_embedding_lookup_and_gradient(self, rng):
        weight = Tensor(rng.standard_normal((10, 4)), requires_grad=True)
        idx = np.array([[1, 1, 3], [0, 9, 3]])
        out = F.embedding(idx, weight)
        assert out.shape == (2, 3, 4)
        out.sum().backward()
        # Row 1 appears twice, row 3 twice, rows 0 and 9 once.
        assert weight.grad[1].sum() == pytest.approx(8.0)
        assert weight.grad[3].sum() == pytest.approx(8.0)
        assert weight.grad[2].sum() == pytest.approx(0.0)

    def test_embedding_out_of_range(self, rng):
        weight = Tensor(rng.standard_normal((5, 4)))
        with pytest.raises(ValueError):
            F.embedding(np.array([5]), weight)

    def test_dropout_train_and_eval(self, rng):
        x = Tensor(np.ones((100, 100)), requires_grad=True)
        dropped = F.dropout(x, 0.5, rng, training=True)
        kept_fraction = (dropped.data != 0).mean()
        assert 0.4 < kept_fraction < 0.6
        # surviving entries are rescaled by 1/(1-p)
        assert np.allclose(dropped.data[dropped.data != 0], 2.0)
        same = F.dropout(x, 0.5, rng, training=False)
        assert same is x

    def test_dropout_invalid_p(self, rng):
        with pytest.raises(ValueError):
            F.dropout(Tensor(np.ones(3)), 1.0, rng)

    def test_one_hot(self):
        out = F.one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, np.eye(3)[[0, 2, 1]])
        with pytest.raises(ValueError):
            F.one_hot(np.array([3]), 3)

    def test_linear_with_and_without_bias(self, rng):
        x = Tensor(rng.standard_normal((4, 3)))
        w = Tensor(rng.standard_normal((2, 3)))
        b = Tensor(rng.standard_normal(2))
        np.testing.assert_allclose(F.linear(x, w, b).data, x.data @ w.data.T + b.data)
        np.testing.assert_allclose(F.linear(x, w).data, x.data @ w.data.T)
