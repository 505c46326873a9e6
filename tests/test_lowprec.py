"""Tests for mixed-precision training: master weights, loss scaling, caching.

The tentpole invariants:

* sub-ULP optimizer updates accumulate in the float32 masters instead of
  being lost to the emulated grid (no stagnation);
* a loss-scaled run that never overflows is *bitwise identical* to an
  unscaled run (power-of-two scales are exact exponent shifts);
* overflowed steps are skipped — parameters untouched, scale halved — and
  the scale recovers after ``growth_interval`` clean steps, with the exact
  trajectory pinned in ``golden/loss_scale.json``;
* emulated-dtype cells fingerprint distinctly, and bumping
  FINGERPRINT_VERSION (3 for the dtype axis, 4 for the fused normalization
  numerics) invalidates every pre-existing cache entry.

Regenerate the golden trajectory (after an *intentional* change) with::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_lowprec.py -q
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.nn.dtype import BFLOAT16, FLOAT16, default_dtype
from repro.nn.lowprec import LossScaler, LowPrecisionState, MasterWeights, grads_finite
from repro.optim import SGD, build_optimizer

GOLDEN_PATH = Path(__file__).parent / "golden" / "loss_scale.json"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN", "") == "1"


class TestLossScaler:
    def test_defaults_and_state(self):
        scaler = LossScaler()
        assert scaler.scale == 2.0**15
        assert scaler.state() == {
            "scale": 2.0**15,
            "applied_steps": 0,
            "skipped_steps": 0,
            "overflows": 0,
        }

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"init_scale": 3.0},
            {"init_scale": 0.0},
            {"init_scale": -2.0},
            {"growth_factor": 3.0},
            {"backoff_factor": 0.3},
            {"min_scale": 1.5},
            {"max_scale": 12.0},
        ],
    )
    def test_non_power_of_two_rejected(self, kwargs):
        # exactness of scale/unscale (and hence the bitwise oracles) depends
        # on every factor being a power of two
        with pytest.raises(ValueError, match="power of two"):
            LossScaler(**kwargs)

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            ({"growth_factor": 1.0}, "growth_factor"),
            ({"backoff_factor": 1.0}, "power of two|backoff_factor"),
            ({"growth_interval": 0}, "growth_interval"),
        ],
    )
    def test_degenerate_factors_rejected(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            LossScaler(**kwargs)

    def test_overflow_halves_scale_and_resets_growth(self):
        scaler = LossScaler(init_scale=2.0**8, growth_interval=2)
        scaler.update(found_overflow=False)
        scaler.update(found_overflow=True)  # growth streak broken at 1
        assert scaler.scale == 2.0**7
        assert (scaler.applied_steps, scaler.skipped_steps, scaler.overflows) == (1, 1, 1)
        # the streak restarted: two *more* clean steps are needed to grow
        scaler.update(found_overflow=False)
        assert scaler.scale == 2.0**7
        scaler.update(found_overflow=False)
        assert scaler.scale == 2.0**8

    def test_scale_clamped_to_min_and_max(self):
        scaler = LossScaler(init_scale=2.0, min_scale=1.0, max_scale=4.0, growth_interval=1)
        scaler.update(found_overflow=True)
        scaler.update(found_overflow=True)
        assert scaler.scale == 1.0  # floor, not 0.5
        for _ in range(5):
            scaler.update(found_overflow=False)
        assert scaler.scale == 4.0  # ceiling, not 32

    def test_applied_steps_exclude_skips(self):
        scaler = LossScaler(init_scale=2.0**4, growth_interval=100)
        outcomes = [False, True, False, False, True, False]
        for overflow in outcomes:
            scaler.update(found_overflow=overflow)
        assert scaler.applied_steps == 4
        assert scaler.skipped_steps == 2
        assert len(scaler.trajectory) == len(outcomes)


class TestGradsFinite:
    def test_detects_inf_and_nan(self):
        with default_dtype("float32"):
            model = nn.Linear(3, 2, rng=np.random.default_rng(0))
        params = model.parameters()
        for p in params:
            p.grad = np.zeros_like(p.data)
        assert grads_finite(params)
        params[0].grad[0, 0] = np.inf
        assert not grads_finite(params)
        params[0].grad[0, 0] = np.nan
        assert not grads_finite(params)
        params[0].grad = None  # absent gradients are not overflows
        assert grads_finite(params)


class TestMasterWeights:
    def test_sub_ulp_updates_accumulate_instead_of_stagnating(self):
        # bf16 ULP at 1.0 is 2^-7; an update of 2^-10 per step is invisible
        # to the grid but must accumulate in the masters and move the
        # published weights after enough steps
        with default_dtype("bfloat16"):
            p = nn.Parameter(np.ones(4, dtype=np.float32))
        masters = MasterWeights([p], BFLOAT16)
        opt = SGD([p], lr=1.0)
        for _ in range(16):
            p.grad = np.full(4, 2.0**-10, dtype=np.float32)
            masters.restore_()
            opt.step()
            masters.store_()
        # 16 * 2^-10 = 2^-6 = 2 bf16 ULPs of drift, visible on the grid
        np.testing.assert_array_equal(p.data, np.float32(1.0 - 2.0**-6))
        # without masters the same loop goes nowhere: each stepped value
        # 1.0 - 2^-10 rounds straight back to 1.0
        q = BFLOAT16.quantize(np.float32([1.0 - 2.0**-10]))
        assert q[0] == np.float32(1.0)

    def test_param_data_identity_preserved(self):
        with default_dtype("bfloat16"):
            p = nn.Parameter(np.ones(3, dtype=np.float32))
        buf = p.data
        masters = MasterWeights([p], BFLOAT16)
        p.grad = np.full(3, 0.25, dtype=np.float32)
        masters.restore_()
        SGD([p], lr=0.5).step()
        masters.store_()
        assert p.data is buf  # plans/scratch alias this array by identity

    def test_published_values_always_on_grid(self):
        rng = np.random.default_rng(0)
        with default_dtype("bfloat16"):
            p = nn.Parameter(rng.standard_normal(32).astype(np.float32))
        masters = MasterWeights([p], BFLOAT16)
        opt = SGD([p], lr=0.137)
        for _ in range(5):
            p.grad = rng.standard_normal(32).astype(np.float32)
            masters.restore_()
            opt.step()
            masters.store_()
            np.testing.assert_array_equal(p.data, BFLOAT16.quantize(p.data))

    def test_stochastic_rounding_store_is_seed_deterministic(self):
        def run(seed):
            rng = np.random.default_rng(3)
            with default_dtype("float16"):
                p = nn.Parameter(rng.standard_normal(64).astype(np.float32))
            masters = MasterWeights([p], FLOAT16, stochastic_rounding=True, seed=seed)
            opt = SGD([p], lr=0.01)
            for _ in range(8):
                p.grad = rng.standard_normal(64).astype(np.float32)
                masters.restore_()
                opt.step()
                masters.store_()
            return p.data.copy()

        np.testing.assert_array_equal(run(seed=5), run(seed=5))
        assert not np.array_equal(run(seed=5), run(seed=6))


def _tiny_problem(dtype="bfloat16", seed=0):
    """A Linear regression cell: model, inputs, targets, param list."""
    rng = np.random.default_rng(seed)
    with default_dtype(dtype):
        model = nn.Linear(6, 4, rng=rng)
    x = rng.standard_normal((8, 6))
    y = rng.standard_normal((8, 4))
    return model, x, y


def _loss(model, x, y, dtype="bfloat16"):
    with default_dtype(dtype):
        pred = model(nn.Tensor(x))
        return ((pred - nn.Tensor(y)) * (pred - nn.Tensor(y))).sum()


class TestLowPrecisionState:
    def test_scaled_run_bitwise_equals_unscaled_when_no_overflow(self):
        def run(scaler):
            model, x, y = _tiny_problem()
            params = model.parameters()
            state = LowPrecisionState(params, BFLOAT16, loss_scaler=scaler)
            opt = SGD(params, lr=0.05, momentum=0.9)
            for _ in range(6):
                for p in params:
                    p.zero_grad()
                loss = _loss(model, x, y)
                with default_dtype("bfloat16"):
                    loss.backward(state.grad_seed(loss))
                assert state.step(opt)
            return [p.data.copy() for p in params]

        unscaled = run(LossScaler(init_scale=1.0, min_scale=1.0))
        scaled = run(LossScaler(init_scale=2.0**12))
        for a, b in zip(unscaled, scaled):
            np.testing.assert_array_equal(a, b)

    def test_overflow_skips_step_and_backs_off(self):
        model, x, y = _tiny_problem()
        params = model.parameters()
        state = LowPrecisionState(params, BFLOAT16, loss_scaler=LossScaler(init_scale=2.0**6))
        opt = SGD(params, lr=0.05)
        before = [p.data.copy() for p in params]
        params[0].grad = np.full_like(params[0].data, np.inf)
        assert state.found_overflow()
        assert state.step(opt) is False
        for p, orig in zip(params, before):
            np.testing.assert_array_equal(p.data, orig)  # step skipped
        assert state.scaler.scale == 2.0**5
        assert state.scaler.state()["skipped_steps"] == 1

    def test_grad_seed_matches_loss_shape_and_scale(self):
        model, x, y = _tiny_problem()
        state = LowPrecisionState(model.parameters(), BFLOAT16, loss_scaler=LossScaler(init_scale=4.0))
        loss = _loss(model, x, y)
        seed = state.grad_seed(loss)
        assert seed.shape == loss.data.shape and seed.dtype == loss.data.dtype
        assert np.all(seed == 4.0)


# ---------------------------------------------------------------------------
# golden trajectory: forced-overflow loss-scale dynamics pinned step by step
# ---------------------------------------------------------------------------

#: steps whose gradients are forced to overflow (0-indexed attempts)
OVERFLOW_AT = (0, 1, 7)
TOTAL_ATTEMPTS = 16
GOLDEN_PARAMS = dict(init_scale=2.0**10, growth_interval=4, min_scale=1.0, max_scale=2.0**16)


def _forced_overflow_trajectory() -> dict:
    """Run a real train loop, injecting inf gradients at OVERFLOW_AT steps."""
    model, x, y = _tiny_problem(seed=1)
    params = model.parameters()
    state = LowPrecisionState(params, BFLOAT16, loss_scaler=LossScaler(**GOLDEN_PARAMS))
    opt = SGD(params, lr=0.05)
    for step in range(TOTAL_ATTEMPTS):
        for p in params:
            p.zero_grad()
        loss = _loss(model, x, y)
        with default_dtype("bfloat16"):
            loss.backward(state.grad_seed(loss))
        if step in OVERFLOW_AT:
            params[0].grad[0, 0] = np.inf
        state.step(opt)
    return {
        "params": {k: float(v) for k, v in GOLDEN_PARAMS.items() if k != "growth_interval"}
        | {"growth_interval": GOLDEN_PARAMS["growth_interval"]},
        "overflow_at": list(OVERFLOW_AT),
        "trajectory": state.scaler.trajectory,
        "final": state.scaler.state(),
    }


class TestGoldenLossScaleTrajectory:
    def _golden(self) -> dict:
        if REGEN:
            GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
            GOLDEN_PATH.write_text(json.dumps(_forced_overflow_trajectory(), indent=2) + "\n")
        assert GOLDEN_PATH.exists(), (
            "golden snapshot missing; regenerate with REPRO_REGEN_GOLDEN=1"
        )
        return json.loads(GOLDEN_PATH.read_text())

    def test_trajectory_matches_golden_exactly(self):
        golden = self._golden()
        current = _forced_overflow_trajectory()
        assert current["trajectory"] == golden["trajectory"]
        assert current["final"] == golden["final"]
        assert current["overflow_at"] == golden["overflow_at"]

    def test_trajectory_properties(self):
        # independent of the snapshot: the dynamics the golden file pins
        traj = _forced_overflow_trajectory()["trajectory"]
        assert len(traj) == TOTAL_ATTEMPTS
        # every forced overflow is recorded as a skip and halves the scale
        for i in OVERFLOW_AT:
            assert traj[i]["applied"] is False
            assert traj[i + 1]["scale"] == traj[i]["scale"] / 2
        # the scale recovers: growth_interval clean steps after the last
        # overflow, the scale doubles
        last = max(OVERFLOW_AT)
        growth_step = last + 1 + GOLDEN_PARAMS["growth_interval"]
        assert traj[growth_step]["scale"] == traj[last + 1]["scale"] * 2
        # applied_steps excludes the skipped attempts
        applied = sum(1 for t in traj if t["applied"])
        assert applied == TOTAL_ATTEMPTS - len(OVERFLOW_AT)


# ---------------------------------------------------------------------------
# trainer integration + cache invalidation
# ---------------------------------------------------------------------------


class TestTrainerIntegration:
    def test_trainer_builds_lowprec_under_emulation_only(self):
        from repro.experiments.settings import get_setting
        from repro.experiments.workloads import build_workload
        from repro.training.trainer import Trainer

        for dtype, expect in (("bfloat16", True), ("float32", False)):
            with default_dtype(dtype):
                workload = build_workload(get_setting("RN20-CIFAR10"), seed=0, size_scale=0.12)
            opt = build_optimizer("sgdm", workload.model.parameters(), lr=0.05)
            trainer = Trainer(
                model=workload.model,
                optimizer=opt,
                task=workload.task,
                train_loader=workload.train_loader,
                dtype=dtype,
            )
            trainer.fit(2)
            assert (trainer.lowprec is not None) is expect
            if expect:
                assert trainer.lowprec.scaler.applied_steps > 0

    def test_skipped_steps_consume_budget(self):
        # the budget counts *attempts*: a run whose first steps overflow
        # still terminates after max_steps attempts
        from repro.experiments.settings import get_setting
        from repro.experiments.workloads import build_workload
        from repro.training.trainer import Trainer

        with default_dtype("float16"):
            workload = build_workload(get_setting("RN20-CIFAR10"), seed=0, size_scale=0.12)
        opt = build_optimizer("sgdm", workload.model.parameters(), lr=0.05)
        # a scale far beyond fp16 max: the scaled backward seed overflows the
        # fp16 grid immediately, forcing skip-and-rescale on early steps
        scaler = LossScaler(init_scale=2.0**24, max_scale=2.0**24)
        trainer = Trainer(
            model=workload.model,
            optimizer=opt,
            task=workload.task,
            train_loader=workload.train_loader,
            dtype="float16",
            loss_scaler=scaler,
        )
        trainer.fit(6)
        assert scaler.skipped_steps > 0, "expected early overflow skips"
        assert scaler.applied_steps + scaler.skipped_steps == 6
        assert scaler.scale < 2.0**24  # backed off


class TestCacheInvalidation:
    def test_fingerprint_version_is_part_of_the_payload(self):
        from repro.execution.cache import FINGERPRINT_VERSION, fingerprint_payload
        from repro.experiments.runner import RunConfig

        config = RunConfig(
            setting="RN20-CIFAR10", schedule="rex", optimizer="sgdm", budget_fraction=0.25
        )
        assert FINGERPRINT_VERSION == 4
        assert fingerprint_payload(config)["version"] == 4

    def test_version_bump_invalidates_prior_entries(self, monkeypatch):
        # a pre-v3 cache entry must never be returned for a v3 config: the
        # fingerprint (hence the cache key) changes with the version
        from repro.execution import cache as cache_mod
        from repro.experiments.runner import RunConfig

        config = RunConfig(
            setting="RN20-CIFAR10", schedule="rex", optimizer="sgdm", budget_fraction=0.25
        )
        current = cache_mod.config_fingerprint(config)
        monkeypatch.setattr(cache_mod, "FINGERPRINT_VERSION", 2)
        assert cache_mod.config_fingerprint(config) != current
