"""Numerical gradient-checking helpers shared across the test suite.

Lives in its own module (rather than ``conftest.py``) so test files can import
it by a unique name — ``from conftest import ...`` breaks as soon as another
directory's ``conftest.py`` shadows this one on ``sys.path``.

Two layers of helpers:

* :func:`numerical_gradient` / :func:`assert_grad_close` — the low-level
  central-difference checker used by the op-level tests;
* :func:`module_gradcheck` — a whole-module checker, parameterised over the
  training dtype.  The *numeric* reference is always computed on a float64
  twin of the module (central differences in float32 drown in rounding
  noise); the *analytic* gradients come from a module built and run under the
  requested dtype.  Because weight init draws in float64 and casts, both twins
  start from the same weights, so a float32 analytic gradient must match the
  float64 numeric one up to float32 rounding — which is exactly the
  loosened tolerance :func:`tolerances_for` returns.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.nn.dtype import default_dtype, dtype_name, storage_dtype
from repro.nn.modules.base import Module
from repro.nn.tensor import Tensor

__all__ = [
    "numerical_gradient",
    "assert_grad_close",
    "tolerances_for",
    "module_gradcheck",
    "random_affine",
]


def numerical_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued fn with respect to x."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = fn(x)
        flat[i] = original - eps
        minus = fn(x)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def assert_grad_close(analytic: np.ndarray, numeric: np.ndarray, atol: float = 1e-5, rtol: float = 1e-4) -> None:
    np.testing.assert_allclose(analytic, numeric, atol=atol, rtol=rtol)


#: per-dtype gradcheck tolerances, keyed by canonical dtype name.  Analytic
#: gradients are compared against a float64 numeric reference, so each row
#: absorbs that dtype's forward/backward rounding — amplified over the graph —
#: while staying far below the O(1) error of an actually wrong gradient.
#: The emulated dtypes *compute* in float32 but round every stored tensor to
#: their grid (bf16: 7 mantissa bits, ~2^-8 relative per store; fp16: 10 bits,
#: ~2^-11), so their rows are the float32 row widened by the grid's relative
#: step times a graph-depth amplification factor.
TOLERANCES = {
    "float64": {"atol": 1e-5, "rtol": 1e-4},
    "float32": {"atol": 5e-3, "rtol": 1e-2},
    "float16": {"atol": 2e-2, "rtol": 6e-2},
    "bfloat16": {"atol": 8e-2, "rtol": 3e-1},
}


def tolerances_for(dtype: str | np.dtype) -> dict[str, float]:
    """Gradcheck tolerances appropriate for a training dtype (see TOLERANCES)."""
    return dict(TOLERANCES[dtype_name(dtype)])


def _scalar_loss(module: Module, x_arr: np.ndarray, proj: np.ndarray, forward) -> float:
    out = forward(module, Tensor(x_arr)) if forward is not None else module(Tensor(x_arr))
    return float((out.data.astype(np.float64) * proj).sum())


def module_gradcheck(
    build_fn: Callable[[np.random.Generator], Module],
    input_shape: tuple[int, ...],
    dtype: str = "float64",
    seed: int = 0,
    eps: float = 1e-6,
    eval_mode: bool = False,
    warmup_steps: int = 0,
    forward: Callable[[Module, Tensor], Tensor] | None = None,
) -> None:
    """Gradcheck a module's input and parameter gradients under ``dtype``.

    ``build_fn(rng)`` must construct the module deterministically from the
    given generator; it is called twice — once under float64 (the numeric
    reference twin) and once under ``dtype`` (the analytic side).
    ``warmup_steps`` runs that many train-mode forwards first (to populate
    e.g. BatchNorm running statistics) before ``eval_mode`` switches both
    twins to eval.
    """
    tols = tolerances_for(dtype)
    rng = np.random.default_rng(seed)
    x_data = rng.standard_normal(input_shape)

    def prepared(active_dtype: str) -> Module:
        with default_dtype(active_dtype):
            module = build_fn(np.random.default_rng(seed))
            for _ in range(warmup_steps):
                forward(module, Tensor(x_data)) if forward is not None else module(Tensor(x_data))
            if eval_mode:
                module.eval()
        return module

    ref = prepared("float64")
    out_ref = forward(ref, Tensor(x_data)) if forward is not None else ref(Tensor(x_data))
    # A fixed random projection makes the scalar sensitive to every output
    # (a bare .sum() has an identically-zero gradient through softmax-like
    # outputs, which would vacuously pass).
    proj = np.random.default_rng(seed + 1).standard_normal(out_ref.shape)

    # analytic side: the twin of ``ref``, built/run under the requested dtype.
    # Emulated dtypes (bfloat16/float16) *store* float32 arrays, so dtype
    # assertions compare against the storage dtype.
    storage = storage_dtype(dtype)
    module = prepared(dtype)
    with default_dtype(dtype):
        x = Tensor(x_data, requires_grad=True)
        out = forward(module, x) if forward is not None else module(x)
        assert out.dtype == storage, f"forward produced {out.dtype}, expected {storage}"
        out.backward(proj.astype(out.data.dtype))

    # numeric vs analytic: input gradient
    numeric_x = numerical_gradient(lambda arr: _scalar_loss(ref, arr, proj, forward), x_data.copy(), eps=eps)
    assert x.grad is not None and x.grad.dtype == storage
    np.testing.assert_allclose(x.grad.astype(np.float64), numeric_x, **tols)

    # numeric vs analytic: every parameter gradient
    analytic_params = dict(module.named_parameters())
    for name, ref_param in ref.named_parameters():
        flat = ref_param.data.reshape(-1)
        numeric = np.zeros_like(flat)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + eps
            plus = _scalar_loss(ref, x_data, proj, forward)
            flat[i] = original - eps
            minus = _scalar_loss(ref, x_data, proj, forward)
            flat[i] = original
            numeric[i] = (plus - minus) / (2 * eps)
        analytic = analytic_params[name].grad
        assert analytic is not None, f"no gradient accumulated for parameter {name!r}"
        assert analytic.dtype == storage, f"parameter {name!r} grad dtype {analytic.dtype}"
        np.testing.assert_allclose(
            analytic.astype(np.float64).reshape(-1),
            numeric,
            err_msg=f"parameter {name!r}",
            **tols,
        )


def random_affine(module: Module, rng: np.random.Generator) -> Module:
    """Randomise a normalisation module's weight and bias; returns the module.

    With the default weight = 1, bias = 0 an input gradient that misplaces the
    weight (e.g. LayerNorm's, which varies along the normalised axis) still
    passes a gradcheck; a random affine exposes it.
    """
    module.weight.data[...] = rng.uniform(0.5, 1.5, module.weight.shape)
    module.bias.data[...] = rng.standard_normal(module.bias.shape)
    return module
