"""Numerical gradchecks for every module family in the zoo, across dtypes.

The satellite op-level gradient tests live in ``test_tensor.py`` /
``test_functional.py``; this file closes the gap at the *module* level —
attention, convolution, pooling and normalisation — and parameterises each
check over float64, float32 and the emulated low-precision dtypes
(bfloat16/float16 compute in float32 but round every stored tensor to
their grid, so they get progressively looser tolerances — see
``gradcheck.tolerances_for``).  The numeric reference is always float64.
"""

from __future__ import annotations

import numpy as np
import pytest

from gradcheck import module_gradcheck, random_affine
from repro import nn

DTYPES = ("float64", "float32", "bfloat16", "float16")


@pytest.mark.parametrize("dtype", DTYPES)
class TestLinearFamily:
    def test_linear(self, dtype):
        module_gradcheck(lambda rng: nn.Linear(5, 4, rng=rng), (3, 5), dtype=dtype)

    def test_embedding_path_via_transformer_layer(self, dtype):
        # Embedding itself takes integer indices (no input gradient); its
        # weight gradient is covered through the attention stack below.
        module_gradcheck(
            lambda rng: nn.TransformerEncoderLayer(8, num_heads=2, ffn_dim=12, rng=rng),
            (2, 3, 8),
            dtype=dtype,
        )


@pytest.mark.parametrize("dtype", DTYPES)
class TestAttention:
    def test_multi_head_self_attention(self, dtype):
        module_gradcheck(
            lambda rng: nn.MultiHeadSelfAttention(8, num_heads=2, rng=rng), (2, 3, 8), dtype=dtype
        )

    def test_attention_with_padding_mask(self, dtype):
        mask = np.array([[1, 1, 0], [1, 1, 1]])
        module_gradcheck(
            lambda rng: nn.MultiHeadSelfAttention(8, num_heads=2, rng=rng),
            (2, 3, 8),
            dtype=dtype,
            forward=lambda m, x: m(x, attention_mask=mask),
        )


@pytest.mark.parametrize("dtype", DTYPES)
class TestConv:
    def test_conv2d(self, dtype):
        module_gradcheck(
            lambda rng: nn.Conv2d(2, 3, kernel_size=3, padding=1, rng=rng), (2, 2, 4, 4), dtype=dtype
        )

    def test_conv2d_strided_no_bias(self, dtype):
        module_gradcheck(
            lambda rng: nn.Conv2d(2, 2, kernel_size=2, stride=2, bias=False, rng=rng),
            (2, 2, 4, 4),
            dtype=dtype,
        )


@pytest.mark.parametrize("dtype", DTYPES)
class TestPooling:
    def test_max_pool(self, dtype):
        module_gradcheck(lambda rng: nn.MaxPool2d(2), (2, 2, 4, 4), dtype=dtype)

    def test_avg_pool(self, dtype):
        module_gradcheck(lambda rng: nn.AvgPool2d(2), (2, 2, 4, 4), dtype=dtype)

    def test_global_avg_pool(self, dtype):
        module_gradcheck(lambda rng: nn.GlobalAvgPool2d(), (2, 3, 4, 4), dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
class TestNorm:
    def test_batchnorm1d_train(self, dtype):
        module_gradcheck(lambda rng: nn.BatchNorm1d(5), (6, 5), dtype=dtype)

    def test_batchnorm1d_eval_uses_running_stats(self, dtype):
        module_gradcheck(
            lambda rng: nn.BatchNorm1d(5), (6, 5), dtype=dtype, eval_mode=True, warmup_steps=2
        )

    def test_batchnorm2d_train(self, dtype):
        module_gradcheck(lambda rng: nn.BatchNorm2d(3), (2, 3, 3, 3), dtype=dtype)

    def test_batchnorm2d_eval_uses_running_stats(self, dtype):
        module_gradcheck(
            lambda rng: nn.BatchNorm2d(3), (2, 3, 3, 3), dtype=dtype, eval_mode=True, warmup_steps=2
        )

    def test_layernorm(self, dtype):
        module_gradcheck(lambda rng: nn.LayerNorm(6), (4, 6), dtype=dtype)


@pytest.mark.parametrize("dtype", DTYPES)
class TestActivationsThroughModules:
    def test_softmax_module(self, dtype):
        module_gradcheck(lambda rng: nn.Softmax(axis=-1), (3, 5), dtype=dtype)

    def test_gelu_module(self, dtype):
        module_gradcheck(lambda rng: nn.GELU(), (3, 5), dtype=dtype)


# ---------------------------------------------------------------------------
# seed-batched property tests: axis independence and batched-vs-loop gradients
# ---------------------------------------------------------------------------

def _stacked_module_and_inputs(build_fn, input_shape, num_seeds=3, seed=0):
    """S stacked replicas plus matching per-seed inputs (stacked and separate)."""
    replicas = [build_fn(np.random.default_rng(seed + s)) for s in range(num_seeds)]
    stacked = nn.stack_modules([build_fn(np.random.default_rng(seed + s)) for s in range(num_seeds)])
    rng = np.random.default_rng(seed + 1000)
    per_seed = [rng.standard_normal(input_shape) for _ in range(num_seeds)]
    return replicas, stacked, per_seed


def _batched_forward_backward(stacked, per_seed, forward=None, proj_seed=7):
    x = nn.seed_stacked(np.stack(per_seed), dtype="float64")
    x.requires_grad = True
    out = forward(stacked, x) if forward is not None else stacked(x)
    proj = np.random.default_rng(proj_seed).standard_normal(out.shape)
    (out * nn.Tensor(proj)).sum().backward()
    return x, out, proj


@pytest.mark.parametrize(
    "build_fn,input_shape",
    [
        (lambda rng: nn.Conv2d(2, 3, kernel_size=3, padding=1, rng=rng), (2, 2, 4, 4)),
        (lambda rng: nn.BatchNorm2d(3), (2, 3, 3, 3)),
        (lambda rng: nn.LayerNorm(6), (4, 6)),
        (lambda rng: nn.MultiHeadSelfAttention(8, num_heads=2, rng=rng), (2, 3, 8)),
    ],
    ids=["conv2d", "batchnorm2d", "layernorm", "attention"],
)
class TestSeedBatchedProperties:
    def test_batched_matches_per_seed_loop(self, build_fn, input_shape):
        """Batched forward/backward equals running each replica alone (gradcheck by proxy).

        Each replica's module gradients are already numerically verified by
        the serial gradchecks above; equality of the batched path against the
        per-seed loop therefore certifies the batched gradients too.
        """
        replicas, stacked, per_seed = _stacked_module_and_inputs(build_fn, input_shape)
        x, out, proj = _batched_forward_backward(stacked, per_seed)
        for s, replica in enumerate(replicas):
            xs = nn.Tensor(per_seed[s], dtype="float64")
            xs.requires_grad = True
            out_s = replica(xs)
            (out_s * nn.Tensor(proj[s])).sum().backward()
            np.testing.assert_array_equal(out.data[s], out_s.data, err_msg=f"seed {s} forward")
            np.testing.assert_allclose(x.grad[s], xs.grad, rtol=1e-12, atol=0, err_msg=f"seed {s} input grad")
            for (name, p_batched), (_, p_serial) in zip(
                stacked.named_parameters(), replica.named_parameters()
            ):
                np.testing.assert_allclose(
                    p_batched.grad[s], p_serial.grad, rtol=1e-12, atol=0,
                    err_msg=f"seed {s} param {name}",
                )

    def test_seed_axis_independence(self, build_fn, input_shape):
        """Zeroing seed i's gradient leaves seed j's parameters untouched."""
        from repro.optim import SGD

        _, stacked, per_seed = _stacked_module_and_inputs(build_fn, input_shape)
        params = stacked.parameters()
        if not params:
            pytest.skip("module has no parameters")
        before = [p.data.copy() for p in params]
        _batched_forward_backward(stacked, per_seed)
        # zero seed 0's slice of every gradient, then take an optimizer step
        for p in params:
            assert p.grad is not None and p.grad.shape[0] == 3
            p.grad[0] = 0.0
        SGD(params, lr=0.1, momentum=0.9).step()
        for p, orig in zip(params, before):
            np.testing.assert_array_equal(p.data[0], orig[0])  # seed 0 frozen
            assert any(
                not np.array_equal(q.data[j], o[j])
                for q, o in zip(params, before)
                for j in (1, 2)
            ), "seeds 1/2 should have moved"

    def test_perturbing_one_seed_input_isolates(self, build_fn, input_shape):
        """A perturbed seed-i input changes only seed i's outputs and gradients."""
        _, stacked, per_seed = _stacked_module_and_inputs(build_fn, input_shape)
        x1, out1, _ = _batched_forward_backward(stacked, per_seed)
        grads1 = [p.grad.copy() for p in stacked.parameters()]
        for p in stacked.parameters():
            p.zero_grad()
        perturbed = [arr.copy() for arr in per_seed]
        perturbed[1] = perturbed[1] + 0.25
        x2, out2, _ = _batched_forward_backward(stacked, perturbed)
        np.testing.assert_array_equal(out1.data[0], out2.data[0])
        np.testing.assert_array_equal(out1.data[2], out2.data[2])
        assert not np.array_equal(out1.data[1], out2.data[1])
        np.testing.assert_array_equal(x1.grad[0], x2.grad[0])
        np.testing.assert_array_equal(x1.grad[2], x2.grad[2])
        for g1, p in zip(grads1, stacked.parameters()):
            np.testing.assert_array_equal(g1[0], p.grad[0])
            np.testing.assert_array_equal(g1[2], p.grad[2])


# ---------------------------------------------------------------------------
# fused normalisation with a non-trivial affine
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("eval_mode", [False, True], ids=["train", "eval"])
@pytest.mark.parametrize(
    "build_fn,input_shape",
    [
        (lambda rng: random_affine(nn.BatchNorm1d(5), rng), (6, 5)),
        (lambda rng: random_affine(nn.BatchNorm2d(3), rng), (3, 3, 2, 4)),
        (lambda rng: random_affine(nn.LayerNorm(6), rng), (4, 6)),
        (lambda rng: random_affine(nn.LayerNorm(6), rng), (2, 3, 6)),
    ],
    ids=["batchnorm1d", "batchnorm2d", "layernorm", "layernorm3d"],
)
def test_fused_norm_gradcheck_float64(build_fn, input_shape, eval_mode):
    module_gradcheck(
        build_fn,
        input_shape,
        dtype="float64",
        eval_mode=eval_mode,
        warmup_steps=2 if eval_mode else 0,
    )
