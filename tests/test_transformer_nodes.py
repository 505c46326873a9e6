"""The transformer's fused graph nodes and the size of one fine-tuning step.

* float64 gradchecks of :func:`F.attention` (plain, padding-masked, and in
  train mode with attention dropout), :func:`F.gelu`, :func:`F.linear` on
  rank-3/4 inputs and :func:`F.embedding` with repeated indices;
* serial ≡ seed-stacked, bitwise, for each of those nodes in float32 and
  float64: seed *s* of a stacked call equals the stand-alone call on seed
  *s*'s operands, values and gradients alike;
* a deterministic dispatch budget: one planned ``TinyTransformer``
  fine-tuning step registers at most 45 graph nodes, and an AdamW step makes
  as many numpy calls for 40 parameters as for 4.
"""

from __future__ import annotations

import numpy as np
import pytest

from gradcheck import assert_grad_close, numerical_gradient
from repro import nn
from repro.models import TinyTransformer, TransformerConfig
from repro.nn import functional as F
from repro.nn.dtype import default_dtype
from repro.nn.modules.base import Parameter
from repro.nn.tensor import Tensor
from repro.optim import AdamW
from repro.training.tasks import SequenceTask

N, T, D, H = 2, 5, 8, 2


def _leaf(data: np.ndarray, seed_dim: int | None = None) -> Tensor:
    t = Tensor(data, requires_grad=True, dtype=data.dtype)
    t.seed_dim = seed_dim
    return t


def _padding_mask(lead: tuple[int, ...] = ()) -> np.ndarray:
    mask = np.ones(lead + (N, T))
    mask[..., 0, T - 2:] = 0  # the first sequence ends in two padding tokens
    return mask


# ---------------------------------------------------------------------------
# float64 gradchecks
# ---------------------------------------------------------------------------

def _check_input_grads(fn, arrays: list[np.ndarray], seed: int = 0) -> None:
    """Gradcheck ``sum(fn(*tensors) * R)`` with respect to every array."""
    probe = np.random.default_rng(seed)
    weights = None
    tensors = [_leaf(a.copy()) for a in arrays]
    out = fn(*tensors)
    weights = probe.standard_normal(out.shape)
    (out * Tensor(weights)).sum().backward()
    for i, arr in enumerate(arrays):

        def scalar(x: np.ndarray, i: int = i) -> float:
            args = [Tensor(x if j == i else a) for j, a in enumerate(arrays)]
            return float((fn(*args).data * weights).sum())

        assert_grad_close(tensors[i].grad, numerical_gradient(scalar, arr.copy()))


@pytest.mark.parametrize("masked", [False, True], ids=["plain", "masked"])
def test_attention_gradcheck(masked):
    rng = np.random.default_rng(1)
    qkv = [rng.standard_normal((N, T, D)) for _ in range(3)]
    mask = _padding_mask() if masked else None
    with default_dtype("float64"):
        _check_input_grads(lambda q, k, v: F.attention(q, k, v, H, attention_mask=mask), qkv)


def test_attention_gradcheck_with_dropout():
    rng = np.random.default_rng(2)
    qkv = [rng.standard_normal((N, T, D)) for _ in range(3)]

    def fn(q, k, v):
        # a fresh generator per call: every evaluation draws the same mask
        return F.attention(
            q, k, v, H, attention_mask=_padding_mask(), dropout_p=0.1,
            rng=np.random.default_rng(7), training=True,
        )

    with default_dtype("float64"):
        dropped = fn(*(Tensor(a) for a in qkv)).data
        undropped = F.attention(*(Tensor(a) for a in qkv), H, _padding_mask()).data
        assert not np.array_equal(dropped, undropped)  # the mask engaged
        _check_input_grads(fn, qkv)


def test_gelu_gradcheck():
    x = np.random.default_rng(3).standard_normal((3, 4, 5)) * 2.0
    with default_dtype("float64"):
        _check_input_grads(F.gelu, [x])


@pytest.mark.parametrize("shape", [(3, 4, 6), (2, 3, 2, 6)], ids=["3d", "4d"])
@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "nobias"])
def test_linear_gradcheck_high_rank(shape, with_bias):
    rng = np.random.default_rng(4)
    arrays = [rng.standard_normal(shape), rng.standard_normal((5, shape[-1]))]
    if with_bias:
        arrays.append(rng.standard_normal(5))
    with default_dtype("float64"):
        _check_input_grads(F.linear, arrays)


def test_embedding_gradcheck_repeated_indices():
    indices = np.array([[1, 3, 1], [3, 3, 0]])  # 3 appears three times
    weight = np.random.default_rng(5).standard_normal((5, 4))
    with default_dtype("float64"):
        _check_input_grads(lambda w: F.embedding(indices, w), [weight])


# ---------------------------------------------------------------------------
# serial ≡ seed-stacked, bitwise
# ---------------------------------------------------------------------------

S = 3
DTYPES = ("float32", "float64")


def _assert_stacked_matches_serial(fn, stacked_args, serial_args_for, dtype):
    """``fn`` on seed-stacked leaves vs on each seed's own leaves, bitwise.

    ``stacked_args`` are (array, stacked?) pairs; ``serial_args_for(s)`` gives
    seed ``s``'s arrays.  Values and every leaf gradient must match exactly.
    """
    probe = np.random.default_rng(9)
    with default_dtype(dtype):
        leaves = [_leaf(a, S) if stacked else a for a, stacked in stacked_args]
        out = fn(*leaves, seed=None)
        weights = probe.standard_normal(out.shape).astype(out.data.dtype)
        (out * Tensor(weights, dtype=out.data.dtype)).sum().backward()
        for s in range(S):
            serial_leaves = [
                _leaf(a) if isinstance(a, np.ndarray) and a.dtype.kind == "f" else a
                for a in serial_args_for(s)
            ]
            serial_out = fn(*serial_leaves, seed=s)
            assert serial_out.data.dtype == out.data.dtype
            np.testing.assert_array_equal(serial_out.data, out.data[s])
            (serial_out * Tensor(weights[s], dtype=out.data.dtype)).sum().backward()
            for stacked_leaf, serial_leaf in zip(leaves, serial_leaves):
                if isinstance(stacked_leaf, Tensor):
                    np.testing.assert_array_equal(serial_leaf.grad, stacked_leaf.grad[s])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dropout", [0.0, 0.1], ids=["eval", "dropout"])
def test_attention_stacked_matches_serial(dtype, dropout):
    rng = np.random.default_rng(10)
    qkv = [rng.standard_normal((S, N, T, D)).astype(dtype) for _ in range(3)]
    mask = _padding_mask((S,))

    def fn(q, k, v, seed):
        if seed is None:
            rngs = [np.random.default_rng(100 + s) for s in range(S)]
            return F.attention(q, k, v, H, mask, dropout, rng=None, rngs=rngs)
        return F.attention(q, k, v, H, mask[seed], dropout, rng=np.random.default_rng(100 + seed))

    _assert_stacked_matches_serial(
        fn, [(a, True) for a in qkv], lambda s: [a[s] for a in qkv], dtype
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_gelu_stacked_matches_serial(dtype):
    x = np.random.default_rng(11).standard_normal((S, N, T, D)).astype(dtype)
    _assert_stacked_matches_serial(
        lambda a, seed: F.gelu(a), [(x, True)], lambda s: [x[s]], dtype
    )


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("lead", [(N,), (N, T), (N, T, 2)], ids=["2d", "3d", "4d"])
def test_linear_stacked_matches_serial(dtype, lead):
    rng = np.random.default_rng(12)
    x = rng.standard_normal((S,) + lead + (D,)).astype(dtype)
    w = rng.standard_normal((S, 6, D)).astype(dtype)
    b = rng.standard_normal((S, 6)).astype(dtype)
    _assert_stacked_matches_serial(
        lambda *args, seed: F.linear(*args),
        [(x, True), (w, True), (b, True)],
        lambda s: [x[s], w[s], b[s]],
        dtype,
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_embedding_stacked_matches_serial(dtype):
    rng = np.random.default_rng(13)
    weight = rng.standard_normal((S, 7, D)).astype(dtype)
    indices = rng.integers(0, 7, size=(S, N, T))
    _assert_stacked_matches_serial(
        lambda w, idx, seed: F.embedding(idx, w),
        [(weight, True), (indices, False)],
        lambda s: [weight[s], indices[s]],
        dtype,
    )


# ---------------------------------------------------------------------------
# dispatch budget: graph nodes per step, numpy calls per optimizer step
# ---------------------------------------------------------------------------

def test_planned_finetune_step_registers_at_most_45_nodes():
    """One GLUE-sized fine-tuning step: at most 45 graph nodes besides the parameters.

    The composed transformer registered 88 (its attention, GELU and linear
    chains each built several nodes); the fused nodes bring it to 38.
    """
    config = TransformerConfig(vocab_size=64, max_seq_len=32, embed_dim=32, num_heads=4, num_layers=2)
    with default_dtype("float64"):
        model = TinyTransformer(config, num_labels=3, seed=0)
        optimizer = AdamW(model.parameters(), lr=1e-3)
        rng = np.random.default_rng(0)
        batch = (rng.integers(0, 64, (16, 16)), rng.integers(0, 2, (16, 16)), rng.integers(0, 3, 16))
        plan = nn.GraphPlan()
        for _ in range(2):  # capture, then one replay
            with plan.step():
                loss = SequenceTask().compute_loss(model, batch)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
    assert plan.diverged_steps == 0 and plan.topo_replays == 1
    nodes = [n for n in plan._nodes if not isinstance(n, Parameter)]
    assert len(nodes) <= 45, len(nodes)


class _CountingNumpy:
    """A stand-in for the ``np`` module that counts function calls through it."""

    def __init__(self) -> None:
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(np, name)
        if not callable(attr) or isinstance(attr, type):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)

        return counted


def _adamw_step_calls(num_params: int, monkeypatch) -> int:
    rng = np.random.default_rng(num_params)
    with default_dtype("float64"):
        params = [Parameter(rng.standard_normal((3, 2))) for _ in range(num_params)]
    optimizer = AdamW(params, lr=1e-2)
    for p in params:
        p.grad = rng.standard_normal(p.shape)
    optimizer.step()  # the first step creates the moments
    counter = _CountingNumpy()
    import repro.optim.adam as adam_mod
    import repro.optim.optimizer as optimizer_mod

    with monkeypatch.context() as patch:
        patch.setattr(adam_mod, "np", counter)
        patch.setattr(optimizer_mod, "np", counter)
        optimizer.step()
    return counter.calls


def test_adamw_numpy_calls_do_not_grow_with_parameters(monkeypatch):
    few, many = _adamw_step_calls(4, monkeypatch), _adamw_step_calls(40, monkeypatch)
    assert few > 0
    assert many == few
