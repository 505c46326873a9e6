"""Autograd engine tests: every op's gradient is checked against finite differences."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.tensor import Tensor, concatenate, no_grad, stack, unbroadcast, where

from gradcheck import assert_grad_close, numerical_gradient


def _check_unary(op, x_data, **kwargs):
    """Compare analytic and numerical gradients of a unary op summed to a scalar."""
    x = Tensor(x_data.copy(), requires_grad=True)
    out = op(x, **kwargs).sum()
    out.backward()

    def f(arr):
        return float(op(Tensor(arr), **kwargs).sum().data)

    assert_grad_close(x.grad, numerical_gradient(f, x_data.copy()))


class TestBasicOps:
    def test_add_broadcast_gradients(self, rng):
        a_data = rng.standard_normal((3, 4))
        b_data = rng.standard_normal((4,))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        out = (a + b).sum()
        out.backward()
        np.testing.assert_allclose(a.grad, np.ones((3, 4)))
        np.testing.assert_allclose(b.grad, np.full((4,), 3.0))

    def test_mul_gradients(self, rng):
        a_data = rng.standard_normal((3, 4))
        b_data = rng.standard_normal((3, 4))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a * b).sum().backward()
        np.testing.assert_allclose(a.grad, b_data)
        np.testing.assert_allclose(b.grad, a_data)

    def test_div_gradient_numerical(self, rng):
        x_data = rng.uniform(0.5, 2.0, size=(3, 3))
        _check_unary(lambda t: t / 3.7, x_data)
        _check_unary(lambda t: 2.0 / t, x_data)

    def test_sub_and_neg(self, rng):
        a = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        (a - b).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, -np.ones((2, 2)))

    def test_pow_gradient(self, rng):
        x_data = rng.uniform(0.5, 2.0, size=(4,))
        _check_unary(lambda t: t**3, x_data)

    def test_pow_rejects_tensor_exponent(self):
        with pytest.raises(TypeError):
            Tensor([1.0]) ** Tensor([2.0])  # type: ignore[operator]

    def test_matmul_2d_gradients(self, rng):
        a_data = rng.standard_normal((3, 4))
        b_data = rng.standard_normal((4, 2))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()

        def fa(arr):
            return float((Tensor(arr) @ Tensor(b_data)).sum().data)

        def fb(arr):
            return float((Tensor(a_data) @ Tensor(arr)).sum().data)

        assert_grad_close(a.grad, numerical_gradient(fa, a_data.copy()))
        assert_grad_close(b.grad, numerical_gradient(fb, b_data.copy()))

    def test_matmul_batched_gradients(self, rng):
        a_data = rng.standard_normal((2, 3, 4))
        b_data = rng.standard_normal((2, 4, 5))
        a = Tensor(a_data, requires_grad=True)
        b = Tensor(b_data, requires_grad=True)
        (a @ b).sum().backward()

        def fa(arr):
            return float((Tensor(arr) @ Tensor(b_data)).sum().data)

        assert_grad_close(a.grad, numerical_gradient(fa, a_data.copy()))

    def test_rsub_radd_rmul(self):
        x = Tensor([2.0], requires_grad=True)
        y = (3.0 - x) + (1.0 + x) * 2.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])


class TestNonlinearities:
    @pytest.mark.parametrize(
        "op",
        [
            lambda t: t.exp(),
            lambda t: t.tanh(),
            lambda t: t.sigmoid(),
            lambda t: t.relu(),
            lambda t: t.leaky_relu(0.1),
            lambda t: t.abs(),
            lambda t: t.softmax(axis=-1),
            lambda t: t.log_softmax(axis=-1),
        ],
    )
    def test_unary_gradients(self, rng, op):
        x_data = rng.standard_normal((3, 4)) + 0.1  # avoid exact zeros for relu/abs kinks
        _check_unary(op, x_data)

    @pytest.mark.parametrize("slope", [0.01, 0.1, 0.3, 0.7, 1.0])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("planned", [False, True], ids=["unplanned", "planned"])
    def test_leaky_relu_bitwise_matches_scale_array_formula(self, rng, dtype, planned, slope):
        from contextlib import nullcontext

        from repro.nn.plan import GraphPlan

        tiny = np.finfo(dtype).tiny
        edge = [-0.0, 0.0, tiny, -tiny, tiny / 4, -tiny / 4, -1e-30, 1e-30, -np.inf, np.inf]
        data = np.concatenate([np.array(edge), rng.standard_normal(22)]).astype(dtype).reshape(4, 8)
        g = rng.standard_normal(data.shape).astype(dtype)
        g[0, 2:6] = [-0.0, 0.0, -tiny, tiny]  # x's zeros keep nonzero gradients
        g[1, :2] = [np.nan, -np.inf]
        scale = np.where(data > 0, dtype(1.0), dtype(slope))
        plan = GraphPlan() if planned else None
        for _ in range(2 if planned else 1):  # capture, then replay
            with plan.step() if plan is not None else nullcontext():
                x = Tensor(data, requires_grad=True, dtype=dtype)
                out = x.leaky_relu(slope)
                out.backward(g)
            # bitwise, sign of zero included
            assert out.data.tobytes() == (data * scale).tobytes()
            assert x.grad.tobytes() == (g * scale).tobytes()

    @pytest.mark.parametrize("slope", [-0.1, 0.0, 1.5])
    def test_leaky_relu_rejects_slope_outside_unit_interval(self, slope):
        with pytest.raises(ValueError):
            Tensor([1.0, -1.0]).leaky_relu(slope)

    def test_log_gradient(self, rng):
        x_data = rng.uniform(0.5, 3.0, size=(3, 3))
        _check_unary(lambda t: t.log(), x_data)

    def test_sqrt_matches_power(self, rng):
        x = rng.uniform(0.5, 2.0, size=(5,))
        np.testing.assert_allclose(Tensor(x).sqrt().data, np.sqrt(x))

    def test_clip_gradient_masks_out_of_range(self):
        x = Tensor([-2.0, 0.5, 2.0], requires_grad=True)
        x.clip(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 0.0])

    def test_softmax_rows_sum_to_one(self, rng):
        x = Tensor(rng.standard_normal((6, 10)))
        probs = x.softmax(axis=1).data
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6))
        assert np.all(probs >= 0)


class TestReductionsAndShapes:
    def test_sum_axis_gradient(self, rng):
        x_data = rng.standard_normal((3, 4, 5))
        _check_unary(lambda t: t.sum(axis=1), x_data)
        _check_unary(lambda t: t.sum(axis=(0, 2)), x_data)

    def test_mean_gradient(self, rng):
        x_data = rng.standard_normal((4, 6))
        _check_unary(lambda t: t.mean(axis=0), x_data)

    def test_var_matches_numpy(self, rng):
        x_data = rng.standard_normal((5, 7))
        np.testing.assert_allclose(Tensor(x_data).var(axis=1).data, x_data.var(axis=1))

    def test_max_gradient_routes_to_argmax(self):
        x = Tensor(np.array([[1.0, 5.0, 2.0], [7.0, 0.0, 3.0]]), requires_grad=True)
        x.max(axis=1).sum().backward()
        expected = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
        np.testing.assert_allclose(x.grad, expected)

    def test_reshape_transpose_gradients(self, rng):
        x_data = rng.standard_normal((2, 3, 4))
        _check_unary(lambda t: t.reshape(6, 4), x_data)
        _check_unary(lambda t: t.transpose(2, 0, 1), x_data)
        _check_unary(lambda t: t.T, rng.standard_normal((3, 5)))

    def test_getitem_gradient(self, rng):
        x_data = rng.standard_normal((4, 5))
        x = Tensor(x_data, requires_grad=True)
        x[1:3, ::2].sum().backward()
        expected = np.zeros((4, 5))
        expected[1:3, ::2] = 1.0
        np.testing.assert_allclose(x.grad, expected)

    @pytest.mark.parametrize(
        "index",
        [
            0,
            (1, 2, 3),  # every axis: a 0-d view
            (slice(None), 0),
            (Ellipsis, 1),
            (None, slice(1, 3), Ellipsis, None),
            (np.int64(2), slice(None, None, -2)),
            np.array([0, 0, 2]),  # advanced: repeated rows must accumulate
            (slice(None), [1, 1]),
            np.array([True, False, True, True]),
        ],
    )
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_getitem_gradient_is_bitwise_add_at(self, index, dtype, rng):
        x = Tensor(rng.standard_normal((4, 3, 5)), requires_grad=True, dtype=dtype)
        out = x[index]
        grad = rng.standard_normal(out.shape).astype(dtype)
        grad.flat[0] = -0.0  # 0 + -0 is +0 on both paths
        out.backward(grad)
        expected = np.zeros((4, 3, 5), dtype=dtype)
        np.add.at(expected, index, grad)
        assert x.grad.dtype == expected.dtype
        assert x.grad.tobytes() == expected.tobytes()

    def test_pad2d_roundtrip_gradient(self, rng):
        x_data = rng.standard_normal((2, 3, 4, 4))
        x = Tensor(x_data, requires_grad=True)
        padded = x.pad2d(1)
        assert padded.shape == (2, 3, 6, 6)
        padded.sum().backward()
        np.testing.assert_allclose(x.grad, np.ones_like(x_data))

    def test_pad2d_requires_nchw(self):
        with pytest.raises(ValueError):
            Tensor(np.zeros((3, 4))).pad2d(1)


class TestCombinators:
    def test_concatenate_gradients(self, rng):
        a = Tensor(rng.standard_normal((2, 3)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 2)), requires_grad=True)
        out = concatenate([a, b], axis=1)
        assert out.shape == (2, 5)
        (out * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, np.full((2, 3), 2.0))
        np.testing.assert_allclose(b.grad, np.full((2, 2), 2.0))

    def test_stack_gradients(self, rng):
        tensors = [Tensor(rng.standard_normal((3,)), requires_grad=True) for _ in range(4)]
        out = stack(tensors, axis=0)
        assert out.shape == (4, 3)
        out.sum().backward()
        for t in tensors:
            np.testing.assert_allclose(t.grad, np.ones(3))

    def test_where_gradient(self, rng):
        cond = np.array([True, False, True])
        a = Tensor(rng.standard_normal(3), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        where(cond, a, b).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 0.0, 1.0])
        np.testing.assert_allclose(b.grad, [0.0, 1.0, 0.0])


class TestGraphMechanics:
    def test_backward_requires_scalar_without_grad(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(RuntimeError):
            (x * 2).backward()

    def test_backward_on_non_grad_tensor_raises(self):
        x = Tensor(np.ones(3))
        with pytest.raises(RuntimeError):
            x.backward()

    def test_grad_accumulates_across_backward_calls(self):
        x = Tensor([2.0], requires_grad=True)
        (x * 3.0).sum().backward()
        (x * 3.0).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])
        x.zero_grad()
        assert x.grad is None

    def test_reused_tensor_accumulates_gradient(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0 + x * 3.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [5.0, 5.0])

    def test_no_grad_disables_graph(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert not y.requires_grad
        assert y._prev == ()

    def test_deep_chain_does_not_overflow(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_detach_breaks_graph(self):
        x = Tensor([1.0], requires_grad=True)
        d = (x * 2.0).detach()
        assert not d.requires_grad

    def test_unbroadcast_reduces_correctly(self):
        grad = np.ones((2, 3, 4))
        assert unbroadcast(grad, (3, 4)).shape == (3, 4)
        assert unbroadcast(grad, (1, 4)).shape == (1, 4)
        np.testing.assert_allclose(unbroadcast(grad, (1, 4)), np.full((1, 4), 6.0))

    def test_constructors(self):
        assert Tensor.zeros(2, 3).shape == (2, 3)
        assert Tensor.ones(2).data.sum() == 2.0
        assert Tensor.randn(3, 2, rng=np.random.default_rng(0)).shape == (3, 2)
        assert len(Tensor(np.zeros((5, 2)))) == 5


class TestMaxTieDtype:
    """Regression: Tensor.max used to cast its tie mask with a hard-coded
    np.float64, silently upcasting float32 graphs in the backward pass."""

    def test_tied_maxima_split_gradient_in_float32(self):
        from repro.nn.dtype import default_dtype

        with default_dtype("float32"):
            x = Tensor(np.array([[1.0, 2.0, 2.0], [3.0, 3.0, 3.0]]), requires_grad=True)
            out = x.max(axis=1)
            assert out.dtype == np.float32
            out.backward(np.array([1.0, 1.0], dtype=np.float32))
        assert x.grad is not None
        assert x.grad.dtype == np.float32
        np.testing.assert_allclose(
            x.grad, [[0.0, 0.5, 0.5], [1.0 / 3, 1.0 / 3, 1.0 / 3]], rtol=1e-6
        )

    def test_global_max_tie_mask_keeps_dtype(self):
        from repro.nn.dtype import default_dtype

        with default_dtype("float32"):
            x = Tensor(np.array([2.0, 2.0, 1.0]), requires_grad=True)
            x.max().backward()
        assert x.grad is not None
        assert x.grad.dtype == np.float32
        np.testing.assert_allclose(x.grad, [0.5, 0.5, 0.0], rtol=1e-6)

    def test_float64_behaviour_unchanged(self):
        x = Tensor(np.array([1.0, 5.0, 5.0]), requires_grad=True)
        x.max().backward()
        assert x.grad.dtype == np.float64
        np.testing.assert_allclose(x.grad, [0.0, 0.5, 0.5])
