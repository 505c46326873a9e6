"""Differential suite for the graph-plan / workspace-arena layer.

The contract under test (see ``docs/ARCHITECTURE.md``): a planned training
loop — buffers captured on step 1 and recycled on steps 2..N, the topological
order replayed instead of re-derived — must produce **bitwise identical**
trajectories and final parameters to the allocating loop, for every model in
the registry and both dtypes; a step whose shapes diverge from the capture
(e.g. a shorter final batch) must silently fall back to allocation; and the
steady state must stop growing the arena.
"""

from __future__ import annotations

import numpy as np
import pytest

from gradcheck import assert_grad_close, numerical_gradient
from test_batched_equivalence import NUM_SEEDS, _as_inputs, _model_case
from repro import nn
from repro.models.registry import MODEL_REGISTRY
from repro.nn.plan import GraphPlan, get_active, plan_enabled_default
from repro.optim import SGD

DTYPES = ("float64", "float32", "bfloat16")
STEPS = 4


def _assert_bitwise(actual, expected, context: str) -> None:
    a, b = np.asarray(actual), np.asarray(expected)
    assert a.dtype == b.dtype and a.shape == b.shape, context
    assert a.tobytes() == b.tobytes(), f"bitwise mismatch: {context}"


def _train(name: str, dtype: str, planned: bool, steps: int = STEPS):
    """One serial step loop over a registry model; returns (losses, state, plan)."""
    build_fn, batch_fn = _model_case(name)
    losses = []
    plan = GraphPlan() if planned else None
    with nn.default_dtype(dtype):
        batch = batch_fn(np.random.default_rng(7))[0]
        loss_fn = batch_fn(np.random.default_rng(0))[1]
        model = build_fn(0)
        optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
        for _ in range(steps):
            inputs = _as_inputs(batch, stacked=False)
            if plan is None:
                loss = loss_fn(model, *inputs)
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            else:
                with plan.step():
                    loss = loss_fn(model, *inputs)
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
            losses.append(loss.data.copy())
        state = model.state_dict()
    return losses, state, plan


# ---------------------------------------------------------------------------
# planned == unplanned, bitwise, for every registry model in both dtypes
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_planned_trajectory_bitwise_equals_unplanned(name, dtype):
    plain_losses, plain_state, _ = _train(name, dtype, planned=False)
    plan_losses, plan_state, plan = _train(name, dtype, planned=True)
    for step, (a, b) in enumerate(zip(plan_losses, plain_losses)):
        _assert_bitwise(a, b, f"{name}/{dtype} loss at step {step}")
    assert plan_state.keys() == plain_state.keys()
    for key in plain_state:
        _assert_bitwise(plan_state[key], plain_state[key], f"{name}/{dtype} param {key}")
    # the whole point: no divergence, topo replayed on every post-capture step
    assert plan.diverged_steps == 0
    assert plan.topo_captures == 1
    assert plan.topo_replays == STEPS - 1


@pytest.mark.parametrize("name", ["mlp", "transformer"])
def test_second_fresh_plan_replays_bitwise(name):
    """A plan built after another in the same process still replays bitwise.

    Generations are process-global and parameters carry plan stamps from
    earlier plans, so nothing the first plan left behind may leak into the
    second one's capture or replay.
    """
    plain_losses, plain_state, _ = _train(name, "float64", planned=False)
    plans = []
    for _ in range(2):
        plan_losses, plan_state, plan = _train(name, "float64", planned=True)
        plans.append(plan)
        for step, (a, b) in enumerate(zip(plan_losses, plain_losses)):
            _assert_bitwise(a, b, f"{name} plan {len(plans)} loss at step {step}")
        for key in plain_state:
            _assert_bitwise(plan_state[key], plain_state[key], f"{name} plan {len(plans)} {key}")
        assert plan.diverged_steps == 0 and plan.topo_replays == STEPS - 1
    assert plans[0].generation < plans[1].generation


@pytest.mark.parametrize("dtype", DTYPES)
def test_steady_state_stops_allocating(dtype):
    _, _, plan = _train("mlp", dtype, planned=True, steps=6)
    # every fresh checkout happened on the capture step; the pool stopped
    # growing and later steps only reused
    assert plan.fresh_checkouts == len(plan._buffers)
    assert plan.reused_checkouts == (plan.steps - 1) * plan.fresh_checkouts


def test_seed_batched_planned_matches_unplanned():
    """The stacked (S·N) conv/pool GEMM path is plan-stable and bitwise equal."""
    name, dtype = "resnet20", "float32"
    build_fn, batch_fn = _model_case(name)

    def run(planned: bool):
        plan = GraphPlan() if planned else None
        losses = []
        with nn.default_dtype(dtype):
            batches = [batch_fn(np.random.default_rng(100 + s))[0] for s in range(NUM_SEEDS)]
            loss_fn = batch_fn(np.random.default_rng(0))[1]
            stacked_arrays = tuple(
                np.stack([batches[s][field] for s in range(NUM_SEEDS)])
                for field in range(len(batches[0]))
            )
            model = nn.stack_modules([build_fn(s) for s in range(NUM_SEEDS)])
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            ones = np.ones(NUM_SEEDS)
            for _ in range(STEPS):
                inputs = _as_inputs(stacked_arrays, stacked=True)
                if plan is None:
                    loss = loss_fn(model, *inputs)
                    optimizer.zero_grad()
                    loss.backward(ones)
                    optimizer.step()
                else:
                    with plan.step():
                        loss = loss_fn(model, *inputs)
                        optimizer.zero_grad()
                        loss.backward(ones)
                        optimizer.step()
                losses.append(loss.data.copy())
            states = [nn.seed_slice_state(model, s) for s in range(NUM_SEEDS)]
        return losses, states, plan

    plain_losses, plain_states, _ = run(False)
    plan_losses, plan_states, plan = run(True)
    for step, (a, b) in enumerate(zip(plan_losses, plain_losses)):
        _assert_bitwise(a, b, f"stacked loss at step {step}")
    for s in range(NUM_SEEDS):
        for key in plain_states[s]:
            _assert_bitwise(plan_states[s][key], plain_states[s][key], f"seed {s} {key}")
    assert plan.diverged_steps == 0 and plan.topo_replays == STEPS - 1


# ---------------------------------------------------------------------------
# divergence fallback: a shape change mid-loop must not corrupt anything
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["mlp", "resnet20"])
def test_shape_change_falls_back_to_allocation(name):
    """A shorter (partial) batch diverges from the capture and still trains right."""
    build_fn, batch_fn = _model_case(name)

    def run(planned: bool):
        plan = GraphPlan() if planned else None
        losses = []
        with nn.default_dtype("float32"):
            full = batch_fn(np.random.default_rng(7))[0]
            partial = tuple(arr[: max(1, len(arr) // 2)] for arr in full)
            loss_fn = batch_fn(np.random.default_rng(0))[1]
            model = build_fn(0)
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            for batch in (full, full, partial, full):
                inputs = _as_inputs(batch, stacked=False)
                if plan is None:
                    loss = loss_fn(model, *inputs)
                    optimizer.zero_grad()
                    loss.backward()
                    optimizer.step()
                else:
                    with plan.step():
                        loss = loss_fn(model, *inputs)
                        optimizer.zero_grad()
                        loss.backward()
                        optimizer.step()
                losses.append(loss.data.copy())
            state = model.state_dict()
        return losses, state, plan

    plain_losses, plain_state, _ = run(False)
    plan_losses, plan_state, plan = run(True)
    for step, (a, b) in enumerate(zip(plan_losses, plain_losses)):
        _assert_bitwise(a, b, f"{name} loss at step {step}")
    for key in plain_state:
        _assert_bitwise(plan_state[key], plain_state[key], f"{name} param {key}")
    # exactly the partial-batch step fell back; the final full step reused again
    assert plan.diverged_steps == 1


def test_growing_batch_also_falls_back():
    """Divergence must also be safe when the new shapes are *larger*."""
    with nn.default_dtype("float32"):
        model = nn.Linear(6, 3)
        optimizer = SGD(model.parameters(), lr=0.1)
        plan = GraphPlan()
        rng = np.random.default_rng(0)
        for n in (4, 4, 9, 4):
            x = rng.standard_normal((n, 6))
            with plan.step():
                loss = (model(nn.Tensor(x)) * model(nn.Tensor(x))).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
        assert plan.diverged_steps == 1
        assert np.isfinite(float(loss.data))


# ---------------------------------------------------------------------------
# gradcheck with planning on: arena reuse must not corrupt gradients
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("dtype", DTYPES)
def test_gradcheck_under_plan(dtype):
    """Analytic gradients computed inside a reused plan match numeric ones."""
    if dtype == "float64":
        atol, rtol, eps = 1e-5, 1e-4, 1e-6
    else:
        # reduced-precision rows: the shared per-dtype table, with a larger
        # central-difference step so the numeric side rises above rounding
        from gradcheck import tolerances_for

        tols = tolerances_for(dtype)
        atol, rtol, eps = max(tols["atol"], 2e-2), max(tols["rtol"], 2e-2), 1e-3
    with nn.default_dtype(dtype):
        rng = np.random.default_rng(3)
        conv = nn.Conv2d(2, 3, kernel_size=3, padding=1, rng=rng)
        x_arr = rng.standard_normal((2, 2, 5, 5))
        proj = rng.standard_normal((2, 3, 5, 5))
        plan = GraphPlan()

        def loss_value(weight_arr: np.ndarray) -> float:
            conv.weight.data[...] = weight_arr
            with plan.step():
                out = conv(nn.Tensor(x_arr)).relu()
                loss = (out * nn.Tensor(proj)).sum()
            return float(loss.data)

        # analytic gradient, computed inside the (already warm) plan
        loss_value(conv.weight.data.copy())  # capture step
        with plan.step():
            out = conv(nn.Tensor(x_arr)).relu()
            loss = (out * nn.Tensor(proj)).sum()
            conv.zero_grad()
            loss.backward()
            analytic = conv.weight.grad.copy()

        if nn.is_emulated(dtype):
            # central differences are meaningless through a cast-on-store
            # forward (the loss output's own quantization plateau swamps
            # eps-sized perturbations); the oracle for emulated dtypes is the
            # no-plan analytic gradient, which must match *bitwise*
            out = conv(nn.Tensor(x_arr)).relu()
            loss = (out * nn.Tensor(proj)).sum()
            conv.zero_grad()
            loss.backward()
            _assert_bitwise(analytic, conv.weight.grad, "plan vs no-plan grad")
        else:
            numeric = numerical_gradient(loss_value, conv.weight.data.copy(), eps=eps)
            assert_grad_close(analytic, numeric, atol=atol, rtol=rtol)
        assert plan.reused_checkouts > 0


# ---------------------------------------------------------------------------
# plumbing: env default, trainer integration, scope hygiene
# ---------------------------------------------------------------------------

def test_plan_enabled_default_env(monkeypatch):
    monkeypatch.delenv("REPRO_PLAN", raising=False)
    assert plan_enabled_default() is True
    for falsy in ("0", "false", "OFF", "no"):
        monkeypatch.setenv("REPRO_PLAN", falsy)
        assert plan_enabled_default() is False
    monkeypatch.setenv("REPRO_PLAN", "1")
    assert plan_enabled_default() is True


def test_trainer_resolves_plan_from_env(monkeypatch):
    from repro.experiments.settings import get_setting
    from repro.experiments.workloads import build_workload
    from repro.training.trainer import Trainer
    from repro.optim import build_optimizer

    workload = build_workload(get_setting("RN20-CIFAR10"), seed=0, size_scale=0.1)
    optimizer = build_optimizer("sgdm", workload.model.parameters(), lr=0.01)

    def make(plan=None):
        return Trainer(
            model=workload.model,
            optimizer=optimizer,
            task=workload.task,
            train_loader=workload.train_loader,
            plan=plan,
        )

    monkeypatch.delenv("REPRO_PLAN", raising=False)
    assert make().plan is True
    monkeypatch.setenv("REPRO_PLAN", "0")
    assert make().plan is False
    assert make(plan=True).plan is True  # explicit argument beats the env


def test_trainer_planned_history_matches_unplanned():
    from repro.experiments.settings import get_setting
    from repro.experiments.workloads import build_workload
    from repro.training.trainer import Trainer
    from repro.optim import build_optimizer

    def fit(plan: bool):
        with nn.default_dtype("float32"):
            workload = build_workload(get_setting("RN20-CIFAR10"), seed=0, size_scale=0.1)
            optimizer = build_optimizer("sgdm", workload.model.parameters(), lr=0.05)
            trainer = Trainer(
                model=workload.model,
                optimizer=optimizer,
                task=workload.task,
                train_loader=workload.train_loader,
                eval_loader=workload.eval_loader,
                dtype="float32",
                plan=plan,
            )
            history = trainer.fit(6)
        return history, trainer

    planned, trainer = fit(True)
    unplanned, _ = fit(False)
    assert planned.train_losses == unplanned.train_losses
    assert planned.final_metrics == unplanned.final_metrics
    assert trainer.last_plan is not None and trainer.last_plan.steps == 6
    assert trainer.last_plan.diverged_steps == 0


def test_step_scope_restores_active_plan():
    plan = GraphPlan()
    assert get_active() is None
    with plan.step():
        assert get_active() is plan
        inner = GraphPlan()
        with inner.step():
            assert get_active() is inner
        assert get_active() is plan
    assert get_active() is None


def test_unused_parameter_is_skipped_like_unplanned():
    """A param with no contribution in a step must stay grad-None under a plan.

    Regression test: planned ``zero_grad`` must not leave last step's
    gradient visible to the optimizers' ``if p.grad is None`` skip, or a
    conditionally-used parameter would have a stale gradient (and momentum)
    re-applied.
    """
    from contextlib import nullcontext

    def run(planned: bool):
        with nn.default_dtype("float32"):
            p1 = nn.Parameter(np.ones(3))
            p2 = nn.Parameter(np.ones(3))
            opt = SGD([p1, p2], lr=0.1, momentum=0.9)
            plan = GraphPlan() if planned else None
            x = np.arange(3.0)
            for step in range(4):
                with plan.step() if plan is not None else nullcontext():
                    loss = (nn.Tensor(x) * p1).sum()
                    if step % 2 == 0:
                        loss = loss + (nn.Tensor(x) * p2).sum()
                    opt.zero_grad()
                    loss.backward()
                    if step % 2 == 1:
                        assert p2.grad is None  # the optimizer must skip it
                    opt.step()
            return p1.data.copy(), p2.data.copy()

    plain = run(False)
    planned = run(True)
    _assert_bitwise(planned[0], plain[0], "used parameter")
    _assert_bitwise(planned[1], plain[1], "conditionally-used parameter")


def test_sequential_plans_over_same_parameters():
    """A second fit over the same model must capture and reuse cleanly.

    Regression test: generations are process-globally unique, so a new
    plan's capture step can never alias the ``_plan_gen`` stamps a previous
    plan left on shared parameters (which would corrupt the signature and
    permanently disable reuse).
    """
    build_fn, batch_fn = _model_case("mlp")

    def run(split: bool):
        with nn.default_dtype("float32"):
            batch = batch_fn(np.random.default_rng(7))[0]
            loss_fn = batch_fn(np.random.default_rng(0))[1]
            model = build_fn(0)
            optimizer = SGD(model.parameters(), lr=0.05, momentum=0.9)
            plans = [GraphPlan(), GraphPlan()] if split else [GraphPlan()]
            chunks = [2, 4] if split else [6]
            for plan, steps in zip(plans, chunks):
                for _ in range(steps):
                    with plan.step():
                        loss = loss_fn(model, *_as_inputs(batch, stacked=False))
                        optimizer.zero_grad()
                        loss.backward()
                        optimizer.step()
            return model.state_dict(), plans[-1]

    one_state, _ = run(split=False)
    two_state, second_plan = run(split=True)
    for key in one_state:
        _assert_bitwise(two_state[key], one_state[key], f"param {key}")
    assert second_plan.diverged_steps == 0
    assert second_plan.topo_replays == 3


def test_zero_grad_without_plan_still_drops_grad():
    t = nn.Tensor(np.ones(3), requires_grad=True)
    (t * t).sum().backward()
    assert t.grad is not None
    t.zero_grad()
    assert t.grad is None


def test_engine_plan_env_scope_restores(monkeypatch):
    import os
    from repro.execution.engine import _plan_env

    monkeypatch.delenv("REPRO_PLAN", raising=False)
    with _plan_env(False):
        assert os.environ["REPRO_PLAN"] == "0"
    assert "REPRO_PLAN" not in os.environ
    monkeypatch.setenv("REPRO_PLAN", "1")
    with _plan_env(False):
        assert os.environ["REPRO_PLAN"] == "0"
    assert os.environ["REPRO_PLAN"] == "1"
    with _plan_env(None):
        assert os.environ["REPRO_PLAN"] == "1"


# ---------------------------------------------------------------------------
# graph lifetime: freed by refcount, not by the cyclic collector
# ---------------------------------------------------------------------------

def test_finished_step_graph_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    model = nn.Linear(6, 3)
    optimizer = SGD(model.parameters(), lr=0.1)
    plan = GraphPlan()
    x = np.random.default_rng(0).standard_normal((4, 6))
    refs = []
    gc.disable()
    try:
        for _ in range(3):
            batch = x.copy()  # a fresh array per step, held only by its graph
            with plan.step():
                hidden = model(nn.Tensor(batch)).relu()
                loss = (hidden * hidden).mean()
                optimizer.zero_grad()
                loss.backward()
                optimizer.step()
            refs.append(weakref.ref(batch))
            del batch, hidden
        # the plan keeps only the latest step's tape; earlier ones are gone
        assert [ref() is None for ref in refs] == [True, True, False]
        with pytest.raises(RuntimeError, match="finished plan step"):
            loss.backward()
    finally:
        gc.enable()


def test_no_grad_results_keep_no_closure():
    import gc
    import weakref

    model = nn.Linear(6, 3)
    gc.disable()
    try:
        with nn.no_grad():
            out = model(nn.Tensor(np.ones((2, 6)))).relu()
        ref = weakref.ref(out.data)  # a fresh array only the tensor holds
        del out
        assert ref() is None
    finally:
        gc.enable()
