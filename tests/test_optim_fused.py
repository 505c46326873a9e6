"""Fused-vs-reference optimizer equivalence tests.

The optimizers perform fused in-place buffer updates (no per-step
allocations).  This file keeps straightforward, allocating reference
implementations of the same update rules and asserts the fused steps track
them to tight tolerance over multi-step trajectories, including the
nesterov / dampening / weight-decay corners — so the speedup can never
silently change results.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn.dtype import default_dtype
from repro.nn.modules.base import Parameter
from repro.optim import SGD, AdaGrad, Adam, AdamW, RMSprop


# ---------------------------------------------------------------------------
# reference implementations (the pre-fusion update rules, verbatim)
# ---------------------------------------------------------------------------

class RefSGD:
    def __init__(self, lr, momentum=0.0, weight_decay=0.0, nesterov=False, dampening=0.0):
        self.lr, self.momentum, self.weight_decay = lr, momentum, weight_decay
        self.nesterov, self.dampening = nesterov, dampening
        self.buf = None

    def step(self, param, grad):
        grad = grad + self.weight_decay * param if self.weight_decay else grad
        if self.momentum:
            if self.buf is None:
                self.buf = grad.copy()
            else:
                self.buf = self.momentum * self.buf + (1.0 - self.dampening) * grad
            update = grad + self.momentum * self.buf if self.nesterov else self.buf
        else:
            update = grad
        return param - self.lr * update


class RefAdam:
    def __init__(self, lr, betas=(0.9, 0.999), eps=1e-8, weight_decay=0.0, decoupled=False):
        self.lr, self.betas, self.eps = lr, betas, eps
        self.weight_decay, self.decoupled = weight_decay, decoupled
        self.m = self.v = None
        self.t = 0

    def step(self, param, grad):
        beta1, beta2 = self.betas
        if self.decoupled and self.weight_decay:
            param = param - self.lr * self.weight_decay * param
        elif not self.decoupled and self.weight_decay:
            grad = grad + self.weight_decay * param
        if self.m is None:
            self.m, self.v = np.zeros_like(param), np.zeros_like(param)
        self.t += 1
        self.m = beta1 * self.m + (1.0 - beta1) * grad
        self.v = beta2 * self.v + (1.0 - beta2) * grad * grad
        m_hat = self.m / (1.0 - beta1**self.t)
        v_hat = self.v / (1.0 - beta2**self.t)
        return param - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


class RefRMSprop:
    def __init__(self, lr, alpha=0.99, eps=1e-8, momentum=0.0, weight_decay=0.0):
        self.lr, self.alpha, self.eps = lr, alpha, eps
        self.momentum, self.weight_decay = momentum, weight_decay
        self.sq = self.buf = None

    def step(self, param, grad):
        grad = grad + self.weight_decay * param if self.weight_decay else grad
        if self.sq is None:
            self.sq = np.zeros_like(param)
        self.sq = self.alpha * self.sq + (1.0 - self.alpha) * grad * grad
        step = grad / (np.sqrt(self.sq) + self.eps)
        if self.momentum:
            self.buf = step.copy() if self.buf is None else self.momentum * self.buf + step
            step = self.buf
        return param - self.lr * step


class RefAdaGrad:
    def __init__(self, lr, eps=1e-10, weight_decay=0.0):
        self.lr, self.eps, self.weight_decay = lr, eps, weight_decay
        self.acc = None

    def step(self, param, grad):
        grad = grad + self.weight_decay * param if self.weight_decay else grad
        if self.acc is None:
            self.acc = np.zeros_like(param)
        self.acc = self.acc + grad * grad
        return param - self.lr * grad / (np.sqrt(self.acc) + self.eps)


# ---------------------------------------------------------------------------
# the harness: run fused and reference side by side on a shared grad stream
# ---------------------------------------------------------------------------

def run_trajectory(make_fused, reference, steps=25, shape=(4, 3), dtype="float64", seed=0):
    """Feed identical seeded gradients to both and return (fused, reference)."""
    rng = np.random.default_rng(seed)
    start = rng.standard_normal(shape)
    grads = [rng.standard_normal(shape) for _ in range(steps)]
    with default_dtype(dtype):
        p = Parameter(start.copy())
        opt = make_fused([p])
        for g in grads:
            p.grad = g.astype(p.data.dtype)
            opt.step()
    ref_param = start.copy()
    for g in grads:
        ref_param = reference.step(ref_param, g)
    return p.data.astype(np.float64), ref_param


def assert_trajectories_match(fused, ref, dtype):
    # float64: only fp-association noise separates the two formulations.
    # float32: the fused path accumulates in float32 while the reference runs
    # in float64, so the bound is float32 rounding over the trajectory.
    tol = {"rtol": 1e-10, "atol": 1e-12} if dtype == "float64" else {"rtol": 2e-4, "atol": 2e-5}
    np.testing.assert_allclose(fused, ref, **tol)


DTYPES = ("float64", "float32")

SGD_CORNERS = [
    dict(lr=0.1),
    dict(lr=0.1, momentum=0.9),
    dict(lr=0.1, momentum=0.9, nesterov=True),
    dict(lr=0.1, momentum=0.9, dampening=0.3),
    dict(lr=0.1, momentum=0.9, weight_decay=0.05),
    dict(lr=0.1, momentum=0.9, nesterov=True, weight_decay=0.05),
    dict(lr=0.1, momentum=0.9, dampening=0.3, weight_decay=0.05),
    dict(lr=0.1, weight_decay=0.05),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kwargs", SGD_CORNERS, ids=lambda kw: "-".join(kw) or "vanilla")
def test_sgd_matches_reference(kwargs, dtype):
    fused, ref = run_trajectory(
        lambda ps: SGD(ps, **kwargs), RefSGD(**kwargs), dtype=dtype
    )
    assert_trajectories_match(fused, ref, dtype)


ADAM_CORNERS = [
    dict(lr=0.01),
    dict(lr=0.01, betas=(0.8, 0.95)),
    dict(lr=0.01, weight_decay=0.1),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kwargs", ADAM_CORNERS, ids=lambda kw: "-".join(kw) or "plain")
def test_adam_matches_reference(kwargs, dtype):
    fused, ref = run_trajectory(
        lambda ps: Adam(ps, **kwargs), RefAdam(**kwargs), dtype=dtype
    )
    assert_trajectories_match(fused, ref, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("weight_decay", [0.0, 0.1])
def test_adamw_matches_decoupled_reference(weight_decay, dtype):
    fused, ref = run_trajectory(
        lambda ps: AdamW(ps, lr=0.01, weight_decay=weight_decay),
        RefAdam(lr=0.01, weight_decay=weight_decay, decoupled=True),
        dtype=dtype,
    )
    assert_trajectories_match(fused, ref, dtype)


RMSPROP_CORNERS = [
    dict(lr=0.01),
    dict(lr=0.01, momentum=0.9),
    dict(lr=0.01, momentum=0.9, weight_decay=0.05),
    dict(lr=0.01, alpha=0.9, weight_decay=0.05),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("kwargs", RMSPROP_CORNERS, ids=lambda kw: "-".join(kw) or "plain")
def test_rmsprop_matches_reference(kwargs, dtype):
    fused, ref = run_trajectory(
        lambda ps: RMSprop(ps, **kwargs), RefRMSprop(**kwargs), dtype=dtype
    )
    assert_trajectories_match(fused, ref, dtype)


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("weight_decay", [0.0, 0.05])
def test_adagrad_matches_reference(weight_decay, dtype):
    fused, ref = run_trajectory(
        lambda ps: AdaGrad(ps, lr=0.5, weight_decay=weight_decay),
        RefAdaGrad(lr=0.5, weight_decay=weight_decay),
        dtype=dtype,
    )
    assert_trajectories_match(fused, ref, dtype)


# ---------------------------------------------------------------------------
# the in-place contract itself
# ---------------------------------------------------------------------------

def test_sgd_momentum_buffer_is_never_rebound():
    """The fix this file fences: state buffers must be mutated, not replaced."""
    p = Parameter(np.zeros(8))
    opt = SGD([p], lr=0.1, momentum=0.9)
    p.grad = np.ones(8)
    opt.step()
    buf_before = opt.state_for(p)["momentum_buffer"]
    for _ in range(3):
        p.grad = np.ones(8)
        opt.step()
    assert opt.state_for(p)["momentum_buffer"] is buf_before


def test_adam_moment_buffers_are_never_rebound():
    p = Parameter(np.zeros(8))
    opt = Adam([p], lr=0.1)
    p.grad = np.ones(8)
    opt.step()
    m, v = opt.state_for(p)["exp_avg"], opt.state_for(p)["exp_avg_sq"]
    for _ in range(3):
        p.grad = np.ones(8)
        opt.step()
    assert opt.state_for(p)["exp_avg"] is m
    assert opt.state_for(p)["exp_avg_sq"] is v


def test_step_leaves_gradient_untouched():
    """The autograd engine owns p.grad; weight decay must not mutate it."""
    p = Parameter(np.full(4, 2.0))
    opt = SGD([p], lr=0.1, momentum=0.9, weight_decay=0.5)
    grad = np.ones(4)
    p.grad = grad
    opt.step()
    np.testing.assert_array_equal(grad, np.ones(4))


def test_scratch_buffers_stay_out_of_state_dict():
    p = Parameter(np.zeros(4))
    opt = Adam([p], lr=0.1, weight_decay=0.1)
    p.grad = np.ones(4)
    opt.step()
    entry = opt.state_dict()["state"][0]
    assert set(entry) == {"step", "exp_avg", "exp_avg_sq"}


def test_state_dict_cast_to_param_dtype_on_load():
    with default_dtype("float64"):
        p64 = Parameter(np.zeros(4))
    opt64 = SGD([p64], lr=0.1, momentum=0.9)
    p64.grad = np.ones(4)
    opt64.step()
    with default_dtype("float32"):
        p32 = Parameter(np.zeros(4))
    opt32 = SGD([p32], lr=0.1, momentum=0.9)
    opt32.load_state_dict(opt64.state_dict())
    assert opt32.state_for(p32)["momentum_buffer"].dtype == np.float32


# ---------------------------------------------------------------------------
# flat storage: one fused update per contiguous run of parameters
# ---------------------------------------------------------------------------

FLAT_CASES = [
    (SGD, dict(lr=0.1)),
    (SGD, dict(lr=0.1, momentum=0.9)),
    (SGD, dict(lr=0.1, momentum=0.9, nesterov=True, weight_decay=0.05)),
    (SGD, dict(lr=0.1, momentum=0.9, dampening=0.3, weight_decay=0.05)),
    (Adam, dict(lr=0.01, weight_decay=0.1)),
    (AdamW, dict(lr=0.01, weight_decay=0.1)),
    (RMSprop, dict(lr=0.01, momentum=0.9, weight_decay=0.05)),
    (RMSprop, dict(lr=0.01)),
    (AdaGrad, dict(lr=0.5, weight_decay=0.05)),
]
FLAT_IDS = [f"{cls.__name__}-{'-'.join(kw)}" for cls, kw in FLAT_CASES]
SHAPES = [(4, 3), (5,), (2, 3, 2), (1,), (3, 3)]


def _flat_vs_per_parameter(cls, kwargs, dtype, skip=lambda step, i: False, steps=12):
    """Train the same parameters with one optimizer and with one optimizer per parameter.

    ``skip(step, i)`` withholds parameter ``i``'s gradient at ``step``.  The
    per-parameter optimizers are the reference loop: each updates one
    parameter alone.  Returns both parameter lists and optimizers.
    """
    rng = np.random.default_rng(0)
    starts = [rng.standard_normal(s) for s in SHAPES]
    grads = [[rng.standard_normal(s) for s in SHAPES] for _ in range(steps)]
    with default_dtype(dtype):
        flat = [Parameter(a.copy()) for a in starts]
        alone = [Parameter(a.copy()) for a in starts]
    flat_opt = cls(flat, **kwargs)
    alone_opts = [cls([p], **kwargs) for p in alone]
    for step, step_grads in enumerate(grads):
        for i, g in enumerate(step_grads):
            g = None if skip(step, i) else g.astype(flat[i].data.dtype)
            flat[i].grad = g
            alone[i].grad = None if g is None else g.copy()
        flat_opt.step()
        for i, opt in enumerate(alone_opts):
            if alone[i].grad is not None:
                opt.step()
    return flat, alone, flat_opt, alone_opts


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("cls, kwargs", FLAT_CASES, ids=FLAT_IDS)
def test_flat_step_bitwise_equals_per_parameter_loop(cls, kwargs, dtype):
    flat, alone, flat_opt, alone_opts = _flat_vs_per_parameter(cls, kwargs, dtype)
    for p, q in zip(flat, alone):
        np.testing.assert_array_equal(p.data, q.data)
    for p, q, opt in zip(flat, alone, alone_opts):
        mine, ref = flat_opt.state_for(p), opt.state_for(q)
        assert mine.keys() == ref.keys()
        for key in ref:
            np.testing.assert_array_equal(mine[key], ref[key])


@pytest.mark.parametrize("cls, kwargs", FLAT_CASES, ids=FLAT_IDS)
def test_missing_gradients_keep_moments_and_step_count(cls, kwargs):
    # parameter 1 has no gradient on steps 2-5 and parameter 3 none before
    # step 4 (it joins late, so its step count lags the others'), which
    # splits the flat buffer into several runs on those steps
    def skip(step, i):
        return (i == 1 and 2 <= step <= 5) or (i == 3 and step < 4)

    flat, alone, flat_opt, alone_opts = _flat_vs_per_parameter(cls, kwargs, "float64", skip)
    for p, q in zip(flat, alone):
        np.testing.assert_array_equal(p.data, q.data)
    if cls in (Adam, AdamW):
        steps = [flat_opt.state_for(p)["step"] for p in flat]
        assert steps == [12, 8, 12, 8, 12]


def test_parameters_and_state_are_views_of_flat_buffers():
    params = [Parameter(np.ones(s)) for s in SHAPES]
    opt = Adam(params, lr=0.1)
    for p in params:
        p.grad = np.ones(p.shape)
    opt.step()
    base = params[0].data.base
    assert base is not None and all(p.data.base is base for p in params)
    moments = [opt.state_for(p)["exp_avg"] for p in params]
    assert moments[0].base is not None and all(m.base is moments[0].base for m in moments)


@pytest.mark.parametrize("cls, kwargs", FLAT_CASES, ids=FLAT_IDS)
def test_state_dict_round_trips(cls, kwargs):
    flat, _, flat_opt, _ = _flat_vs_per_parameter(cls, kwargs, "float64")
    saved = flat_opt.state_dict()
    twins = [Parameter(p.data.copy()) for p in flat]
    twin_opt = cls(twins, **kwargs)
    twin_opt.load_state_dict(saved)
    again = twin_opt.state_dict()
    assert [sorted(e) for e in again["state"]] == [sorted(e) for e in saved["state"]]
    for mine, ref in zip(again["state"], saved["state"]):
        for key in ref:
            np.testing.assert_array_equal(mine[key], ref[key])
    # the restored optimizer continues exactly like the original
    rng = np.random.default_rng(5)
    for p, q in zip(flat, twins):
        p.grad = rng.standard_normal(p.shape)
        q.grad = p.grad.copy()
    flat_opt.step()
    twin_opt.step()
    for p, q in zip(flat, twins):
        np.testing.assert_array_equal(p.data, q.data)


def test_load_state_dict_keeps_views_and_trains_loaded_values():
    from repro import nn

    with default_dtype("float64"):
        model = nn.Linear(3, 2, rng=np.random.default_rng(0))
        donor = nn.Linear(3, 2, rng=np.random.default_rng(1))
    opt = AdamW(model.parameters(), lr=0.1)
    views = [p.data for p in model.parameters()]
    # both kinds of load after the optimizer exists copy into the views
    model.load_state_dict(donor.state_dict())
    donor_opt = AdamW(donor.parameters(), lr=0.1)
    for p in donor.parameters():
        p.grad = np.ones(p.shape)
    donor_opt.step()
    opt.load_state_dict(donor_opt.state_dict())
    model.load_state_dict(donor.state_dict())
    assert all(p.data is v for p, v in zip(model.parameters(), views))
    for p, q in zip(model.parameters(), donor.parameters()):
        p.grad = np.full(p.shape, 0.5)
        q.grad = np.full(q.shape, 0.5)
    opt.step()
    donor_opt.step()
    for p, q in zip(model.parameters(), donor.parameters()):
        np.testing.assert_array_equal(p.data, q.data)


def test_rebound_parameter_data_is_reflattened():
    p, q = Parameter(np.zeros(3)), Parameter(np.zeros(2))
    opt = SGD([p, q], lr=1.0, momentum=0.5)
    p.grad, q.grad = np.ones(3), np.ones(2)
    opt.step()
    p.data = np.full(3, 10.0)  # rebinding, e.g. a model restacked for seed batching
    opt.step()
    np.testing.assert_array_equal(p.data, np.full(3, 10.0 - 1.5))
    np.testing.assert_array_equal(q.data, np.full(2, -2.5))


def test_mixed_dtype_group_keeps_each_parameter_dtype():
    with default_dtype("float64"):
        p64 = Parameter(np.ones(3))
    with default_dtype("float32"):
        p32 = Parameter(np.ones(2))
    opt = Adam([p64, p32], lr=0.1)
    p64.grad, p32.grad = np.ones(3), np.ones(2, dtype=np.float32)
    opt.step()
    assert p64.data.dtype == np.float64 and p32.data.dtype == np.float32
    assert opt.state_for(p32)["exp_avg"].dtype == np.float32
    np.testing.assert_allclose(p64.data, 0.9)
    np.testing.assert_allclose(p32.data, 0.9, rtol=1e-6)
