"""Tests for nn.Module layers: shapes, parameter registration, train/eval modes."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.nn.tensor import Tensor

from gradcheck import random_affine, tolerances_for


class TestModuleBase:
    def test_parameter_registration_and_count(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(4, 8, rng=rng), nn.ReLU(), nn.Linear(8, 2, rng=rng))
        names = [n for n, _ in model.named_parameters()]
        assert names == ["0.weight", "0.bias", "2.weight", "2.bias"]
        assert model.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_state_dict_roundtrip(self):
        rng = np.random.default_rng(0)
        model = nn.Sequential(nn.Linear(4, 4, rng=rng), nn.BatchNorm1d(4))
        state = model.state_dict()
        clone = nn.Sequential(nn.Linear(4, 4, rng=np.random.default_rng(7)), nn.BatchNorm1d(4))
        clone.load_state_dict(state)
        for (name_a, p_a), (name_b, p_b) in zip(model.named_parameters(), clone.named_parameters()):
            assert name_a == name_b
            np.testing.assert_allclose(p_a.data, p_b.data)

    def test_load_state_dict_shape_mismatch(self):
        model = nn.Linear(3, 2)
        state = model.state_dict()
        state["weight"] = np.zeros((5, 5))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_load_state_dict_missing_key(self):
        model = nn.Linear(3, 2)
        with pytest.raises(KeyError):
            model.load_state_dict({})

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.Sequential(nn.Dropout(0.2)))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        model = nn.Linear(3, 2)
        out = model(Tensor(np.ones((1, 3))))
        out.sum().backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_module_list(self):
        layers = nn.ModuleList([nn.Linear(2, 2) for _ in range(3)])
        assert len(layers) == 3
        assert len(list(layers.parameters())) == 6
        with pytest.raises(RuntimeError):
            layers(Tensor(np.ones((1, 2))))


class TestLinearConv:
    def test_linear_forward_shape_and_error(self):
        layer = nn.Linear(5, 3, rng=np.random.default_rng(0))
        out = layer(Tensor(np.ones((7, 5))))
        assert out.shape == (7, 3)
        with pytest.raises(ValueError):
            layer(Tensor(np.ones((7, 4))))

    def test_linear_no_bias(self):
        layer = nn.Linear(5, 3, bias=False)
        assert layer.bias is None
        assert len(layer.parameters()) == 1

    def test_linear_invalid_sizes(self):
        with pytest.raises(ValueError):
            nn.Linear(0, 3)

    def test_conv_output_shape(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1, rng=np.random.default_rng(0))
        out = conv(Tensor(np.random.default_rng(0).standard_normal((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_conv_invalid_args(self):
        with pytest.raises(ValueError):
            nn.Conv2d(3, 8, 0)


class TestNorms:
    def test_batchnorm2d_normalises_training_batch(self):
        rng = np.random.default_rng(0)
        bn = nn.BatchNorm2d(4)
        x = Tensor(rng.standard_normal((8, 4, 5, 5)) * 3.0 + 2.0)
        out = bn(x)
        assert abs(float(out.data.mean())) < 1e-6
        assert abs(float(out.data.std()) - 1.0) < 1e-2

    def test_batchnorm_running_stats_used_in_eval(self):
        rng = np.random.default_rng(0)
        bn = nn.BatchNorm1d(3)
        for _ in range(50):
            bn(Tensor(rng.standard_normal((32, 3)) * 2.0 + 5.0))
        bn.eval()
        x = Tensor(rng.standard_normal((256, 3)) * 2.0 + 5.0)
        out = bn(x)
        # eval-mode output should be roughly standardised using running stats
        assert abs(float(out.data.mean())) < 0.25
        assert 0.7 < float(out.data.std()) < 1.3

    def test_batchnorm_shape_checks(self):
        bn = nn.BatchNorm2d(4)
        with pytest.raises(ValueError):
            bn(Tensor(np.zeros((2, 3, 4, 4))))
        with pytest.raises(ValueError):
            nn.BatchNorm1d(4)(Tensor(np.zeros((2, 3, 4, 4))))

    def test_layernorm_normalises_last_axis(self):
        rng = np.random.default_rng(0)
        ln = nn.LayerNorm(16)
        x = Tensor(rng.standard_normal((4, 7, 16)) * 5 + 3)
        out = ln(x).data
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-2)

    def test_layernorm_wrong_width(self):
        with pytest.raises(ValueError):
            nn.LayerNorm(8)(Tensor(np.zeros((2, 4))))

    def test_batchnorm_gradients_flow(self):
        bn = nn.BatchNorm2d(2)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 2, 3, 3)), requires_grad=True)
        bn(x).sum().backward()
        assert x.grad is not None
        assert bn.weight.grad is not None


def _composite_norm(x, weight, bias, axes, shape, eps):
    """The normalisation as composed tensor ops (reference for the fused node)."""
    mean = x.mean(axis=axes, keepdims=True)
    centered = x - mean
    var = (centered * centered).mean(axis=axes, keepdims=True)
    x_hat = centered / ((var + eps) ** 0.5)
    return x_hat * weight.reshape(*shape) + bias.reshape(*shape), mean, var


# (module factory, input shape, statistics axes, parameter broadcast shape)
NORM_CASES = {
    "batchnorm1d": (lambda: nn.BatchNorm1d(5), (7, 5), (0,), (1, 5)),
    "batchnorm2d": (lambda: nn.BatchNorm2d(3), (4, 3, 5, 2), (0, 2, 3), (1, 3, 1, 1)),
    "layernorm": (lambda: nn.LayerNorm(6), (4, 6), (-1,), (6,)),
    "layernorm3d": (lambda: nn.LayerNorm(6), (2, 5, 6), (-1,), (6,)),
}


def _buffers(module):
    return [buf for m in module.modules() for buf in m._buffers.values()]


def _stacked_input(shape, num_seeds, rng):
    return np.stack([rng.standard_normal(shape) * 2.0 + 1.0 for _ in range(num_seeds)])


class TestFusedNorm:
    """BatchNorm/LayerNorm train as one graph node with a closed-form backward."""

    @pytest.mark.parametrize("name", sorted(NORM_CASES))
    def test_single_graph_node(self, name):
        factory, shape, _, _ = NORM_CASES[name]
        module = factory()
        x = Tensor(np.random.default_rng(0).standard_normal(shape), requires_grad=True)
        out = module(x)
        assert out._prev == (x, module.weight, module.bias)

    @pytest.mark.parametrize("dtype", ["float64", "float32", "bfloat16"])
    @pytest.mark.parametrize("name", sorted(NORM_CASES))
    def test_matches_composite_formula(self, name, dtype):
        factory, shape, axes, pshape = NORM_CASES[name]
        rng = np.random.default_rng(1)
        x_data = rng.standard_normal(shape) * 3.0 + 2.0
        proj = rng.standard_normal(shape)
        with nn.default_dtype(dtype):
            module = random_affine(factory(), rng)
            x = Tensor(x_data, requires_grad=True)
            out = module(x)
            out.backward(proj.astype(out.data.dtype))
            ref_w = nn.Parameter(module.weight.data.copy())
            ref_b = nn.Parameter(module.bias.data.copy())
            ref_x = Tensor(x_data, requires_grad=True)
            ref_out, _, _ = _composite_norm(ref_x, ref_w, ref_b, axes, pshape, module.eps)
            ref_out.backward(proj.astype(ref_out.data.dtype))
        tols = tolerances_for(dtype)
        pairs = [
            (out.data, ref_out.data),
            (x.grad, ref_x.grad),
            (module.weight.grad, ref_w.grad),
            (module.bias.grad, ref_b.grad),
        ]
        for got, want in pairs:
            assert got.dtype == want.dtype
            np.testing.assert_allclose(got, want, **tols)

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", ["batchnorm1d", "batchnorm2d"])
    def test_running_stats_match_composite_update(self, name, dtype):
        factory, shape, axes, pshape = NORM_CASES[name]
        rng = np.random.default_rng(2)
        with nn.default_dtype(dtype):
            module = factory()
            running_mean = module._buffers["running_mean"].copy()
            running_var = module._buffers["running_var"].copy()
            for _ in range(3):
                x = Tensor(rng.standard_normal(shape) * 2.0 + 5.0)
                module(x)
                _, mean, var = _composite_norm(
                    x, module.weight, module.bias, axes, pshape, module.eps
                )
                running_mean *= 1.0 - module.momentum
                running_mean += module.momentum * mean.data.reshape(running_mean.shape)
                running_var *= 1.0 - module.momentum
                running_var += module.momentum * var.data.reshape(running_var.shape)
        np.testing.assert_array_equal(module._buffers["running_mean"], running_mean)
        np.testing.assert_array_equal(module._buffers["running_var"], running_var)

    @pytest.mark.parametrize("dtype", ["float64", "float32", "bfloat16"])
    @pytest.mark.parametrize("name", sorted(NORM_CASES))
    def test_seed_stacked_matches_serial_bitwise(self, name, dtype):
        factory, shape, _, _ = NORM_CASES[name]
        num_seeds = 3
        rng = np.random.default_rng(3)
        per_seed = _stacked_input(shape, num_seeds, rng)
        proj = rng.standard_normal(per_seed.shape)
        with nn.default_dtype(dtype):
            replicas = [
                random_affine(factory(), np.random.default_rng(10 + s)) for s in range(num_seeds)
            ]
            stacked = nn.stack_modules(
                [random_affine(factory(), np.random.default_rng(10 + s)) for s in range(num_seeds)]
            )
            for mode in ("train", "eval"):
                if mode == "eval":
                    stacked.eval()
                    for replica in replicas:
                        replica.eval()
                x = nn.seed_stacked(per_seed, dtype=dtype)
                x.requires_grad = True
                out = stacked(x)
                out.backward(proj.astype(out.data.dtype))
                for s, replica in enumerate(replicas):
                    xs = Tensor(per_seed[s], requires_grad=True)
                    out_s = replica(xs)
                    out_s.backward(proj[s].astype(out_s.data.dtype))
                    where = f"{mode} seed {s}"
                    np.testing.assert_array_equal(out.data[s], out_s.data, err_msg=where)
                    np.testing.assert_array_equal(x.grad[s], xs.grad, err_msg=where)
                    for (pname, p_b), (_, p_s) in zip(
                        stacked.named_parameters(), replica.named_parameters()
                    ):
                        np.testing.assert_array_equal(p_b.grad[s], p_s.grad, err_msg=f"{where} {pname}")
                    for b_b, b_s in zip(_buffers(stacked), _buffers(replica)):
                        np.testing.assert_array_equal(b_b[s], b_s, err_msg=f"{where} buffer")
                stacked.zero_grad()
                for replica in replicas:
                    replica.zero_grad()

    @pytest.mark.parametrize("dtype", ["float64", "float32", "bfloat16"])
    # one label, kept so the test ids stay stable
    @pytest.mark.parametrize("label", ["default"])
    def test_planned_matches_unplanned_bitwise(self, label, dtype):
        from contextlib import nullcontext

        from repro.nn.plan import GraphPlan
        from repro.optim import SGD

        def train(plan):
            rng = np.random.default_rng(4)
            with nn.default_dtype(dtype):
                conv = nn.Sequential(
                    nn.Conv2d(2, 3, kernel_size=3, padding=1, rng=rng),
                    random_affine(nn.BatchNorm2d(3), rng),
                    nn.LeakyReLU(0.1),
                    nn.GlobalAvgPool2d(),
                    nn.Linear(3, 6, rng=rng),
                    random_affine(nn.BatchNorm1d(6), rng),
                    nn.ReLU(),
                    nn.Linear(6, 6, rng=rng),
                    random_affine(nn.LayerNorm(6), rng),
                )
                optimizer = SGD(conv.parameters(), lr=0.05, momentum=0.9)
                x = Tensor(rng.standard_normal((4, 2, 5, 5)))
                target = rng.standard_normal((4, 6))
                losses = []
                for _ in range(4):
                    with plan.step() if plan is not None else nullcontext():
                        diff = conv(x) - Tensor(target)
                        loss = (diff * diff).mean()
                        optimizer.zero_grad()
                        loss.backward()
                        optimizer.step()
                    losses.append(loss.data.copy())
                state = [p.data.copy() for p in conv.parameters()]
                state += [b.copy() for b in _buffers(conv)]
                return losses, state

        plain = train(None)
        plan = GraphPlan()
        planned = train(plan)
        assert plan.reused_checkouts > 0 and plan.diverged_steps == 0
        for got, want in zip(planned[0] + planned[1], plain[0] + plain[1]):
            assert got.tobytes() == want.tobytes()


class TestActivationsDropout:
    def test_activation_shapes(self):
        x = Tensor(np.linspace(-2, 2, 12).reshape(3, 4))
        for act in [nn.ReLU(), nn.LeakyReLU(), nn.Tanh(), nn.Sigmoid(), nn.GELU(), nn.Softmax()]:
            assert act(x).shape == (3, 4)

    def test_gelu_values(self):
        x = Tensor(np.array([0.0, 1.0, -1.0]))
        out = nn.GELU()(x).data
        np.testing.assert_allclose(out[0], 0.0, atol=1e-8)
        assert out[1] == pytest.approx(0.8412, abs=1e-3)
        assert out[2] == pytest.approx(-0.1588, abs=1e-3)

    def test_dropout_module_respects_mode(self):
        drop = nn.Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((50, 50)))
        train_out = drop(x)
        assert (train_out.data == 0).any()
        drop.eval()
        eval_out = drop(x)
        np.testing.assert_allclose(eval_out.data, x.data)

    def test_dropout_invalid_probability(self):
        with pytest.raises(ValueError):
            nn.Dropout(1.5)


class TestPoolingFlatten:
    def test_pooling_modules(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 8, 8)))
        assert nn.MaxPool2d(2)(x).shape == (2, 3, 4, 4)
        assert nn.AvgPool2d(4)(x).shape == (2, 3, 2, 2)
        assert nn.GlobalAvgPool2d()(x).shape == (2, 3)
        assert nn.Flatten()(x).shape == (2, 3 * 8 * 8)


class TestAttention:
    def test_self_attention_shapes(self):
        rng = np.random.default_rng(0)
        attn = nn.MultiHeadSelfAttention(16, 4, rng=rng)
        x = Tensor(rng.standard_normal((2, 5, 16)))
        assert attn(x).shape == (2, 5, 16)

    def test_embed_dim_must_divide(self):
        with pytest.raises(ValueError):
            nn.MultiHeadSelfAttention(10, 3)

    def test_attention_mask_blocks_padding(self):
        rng = np.random.default_rng(0)
        attn = nn.MultiHeadSelfAttention(8, 2, rng=rng)
        x_data = rng.standard_normal((1, 4, 8))
        mask = np.array([[1, 1, 0, 0]])
        out_masked = attn(Tensor(x_data), attention_mask=mask).data
        # Changing a masked (padded) position must not affect unmasked outputs.
        x_data2 = x_data.copy()
        x_data2[0, 3] += 100.0
        out_masked2 = attn(Tensor(x_data2), attention_mask=mask).data
        np.testing.assert_allclose(out_masked[0, :2], out_masked2[0, :2], atol=1e-8)

    def test_attention_mask_shape_check(self):
        attn = nn.MultiHeadSelfAttention(8, 2)
        x = Tensor(np.zeros((2, 4, 8)))
        with pytest.raises(ValueError):
            attn(x, attention_mask=np.ones((2, 5)))

    def test_encoder_layer_gradients_flow(self):
        rng = np.random.default_rng(0)
        layer = nn.TransformerEncoderLayer(8, 2, 16, rng=rng)
        x = Tensor(rng.standard_normal((2, 3, 8)), requires_grad=True)
        layer(x).sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in layer.parameters())
