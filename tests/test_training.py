"""Tests for the budgeted-training machinery: Budget, Trainer, callbacks, tasks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data import ArrayDataset, DataLoader
from repro.models import MLP, VAE, TinyDetector
from repro.data.synthetic import make_detection_scenes
from repro.optim import SGD, Adam
from repro.schedules import DecayOnPlateauSchedule, LinearSchedule, REXSchedule
from repro.training import (
    Budget,
    ClassificationTask,
    DetectionTask,
    EarlyStopping,
    History,
    LossNaNGuard,
    LRRecorder,
    PAPER_BUDGET_FRACTIONS,
    Trainer,
    VAETask,
)


def tiny_classification_workload(n=64, features=10, classes=3, batch=16, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.standard_normal((classes, features)) * 3.0
    labels = rng.integers(0, classes, size=n)
    x = centers[labels] + rng.standard_normal((n, features))
    ds = ArrayDataset(x, labels)
    train = DataLoader(ds, batch_size=batch, shuffle=True, seed=seed)
    eval_loader = DataLoader(ds, batch_size=batch, seed=seed)
    model = MLP(features, classes, hidden_sizes=(16,), seed=seed)
    return model, train, eval_loader


class TestBudget:
    def test_step_accounting(self):
        budget = Budget(max_epochs=20, fraction=0.25, steps_per_epoch=10)
        assert budget.max_steps == 200
        assert budget.total_steps == 50
        assert budget.num_epochs == 5
        assert budget.total_steps_with_warmup == 50

    def test_tiny_fraction_still_trains_one_step(self):
        budget = Budget(max_epochs=10, fraction=0.001, steps_per_epoch=10)
        assert budget.total_steps == 1
        assert budget.num_epochs == 1

    def test_warmup_excluded_from_budget(self):
        budget = Budget(max_epochs=10, fraction=0.5, steps_per_epoch=8, warmup_steps=16)
        assert budget.total_steps == 40
        assert budget.total_steps_with_warmup == 56

    def test_epoch_of_step(self):
        budget = Budget(max_epochs=4, fraction=1.0, steps_per_epoch=5)
        assert budget.epoch_of_step(0) == 0
        assert budget.epoch_of_step(5) == 1
        with pytest.raises(ValueError):
            budget.epoch_of_step(-1)

    def test_validation_and_describe(self):
        with pytest.raises(ValueError):
            Budget(max_epochs=0, fraction=0.5, steps_per_epoch=5)
        with pytest.raises(ValueError):
            Budget(max_epochs=5, fraction=0.0, steps_per_epoch=5)
        with pytest.raises(ValueError):
            Budget(max_epochs=5, fraction=1.5, steps_per_epoch=5)
        assert "steps" in Budget(max_epochs=5, fraction=0.5, steps_per_epoch=5).describe()

    def test_paper_budget_grid(self):
        assert PAPER_BUDGET_FRACTIONS == (0.01, 0.05, 0.10, 0.25, 0.50, 1.00)


class TestTrainer:
    def test_runs_exact_number_of_steps_and_records_history(self):
        model, train, eval_loader = tiny_classification_workload()
        opt = SGD(model.parameters(), lr=0.1, momentum=0.9)
        sched = REXSchedule(opt, total_steps=20)
        trainer = Trainer(model, opt, ClassificationTask(), train, eval_loader, schedule=sched)
        history = trainer.fit(20)
        assert history.num_steps == 20
        assert len(history.learning_rates) == 20
        assert "error" in history.final_metrics
        assert history.learning_rates[0] == pytest.approx(0.1)
        assert history.learning_rates[-1] < 0.1

    def test_training_reduces_loss_and_error(self):
        model, train, eval_loader = tiny_classification_workload(n=128)
        opt = Adam(model.parameters(), lr=0.01)
        task = ClassificationTask()
        before = task.evaluate(model, eval_loader)["error"]
        trainer = Trainer(model, opt, task, train, eval_loader, schedule=REXSchedule(opt, total_steps=120))
        history = trainer.fit(120)
        after = history.final_metrics["error"]
        assert after < before
        assert history.train_losses[-1] < history.train_losses[0]

    def test_lr_recorder_matches_schedule_sequence(self):
        model, train, eval_loader = tiny_classification_workload()
        opt = SGD(model.parameters(), lr=0.5)
        sched = LinearSchedule(opt, total_steps=12)
        recorder = LRRecorder()
        trainer = Trainer(model, opt, ClassificationTask(), train, eval_loader, schedule=sched, callbacks=[recorder])
        trainer.fit(12)
        np.testing.assert_allclose(recorder.curve(), LinearSchedule(None, 12, base_lr=0.5).sequence())

    def test_without_schedule_lr_stays_constant(self):
        model, train, eval_loader = tiny_classification_workload()
        opt = SGD(model.parameters(), lr=0.05)
        trainer = Trainer(model, opt, ClassificationTask(), train, eval_loader)
        history = trainer.fit(5)
        assert set(history.learning_rates) == {0.05}

    def test_nan_guard_stops_divergent_training(self):
        model, train, eval_loader = tiny_classification_workload()
        opt = SGD(model.parameters(), lr=1e9)  # absurd LR to force divergence
        guard = LossNaNGuard(ceiling=1e4)
        trainer = Trainer(model, opt, ClassificationTask(), train, eval_loader, callbacks=[guard])
        history = trainer.fit(50)
        assert guard.tripped
        assert history.num_steps < 50

    def test_plateau_schedule_receives_epoch_metrics(self):
        model, train, eval_loader = tiny_classification_workload()
        opt = SGD(model.parameters(), lr=0.1)
        steps_per_epoch = len(train)
        sched = DecayOnPlateauSchedule(opt, total_steps=steps_per_epoch * 6, patience=1, factor=0.1)
        trainer = Trainer(model, opt, ClassificationTask(), train, eval_loader, schedule=sched)
        history = trainer.fit(steps_per_epoch * 6)
        assert len(history.eval_steps) == 6  # one eval per epoch
        assert sched.best_metric is not None

    @pytest.mark.parametrize(
        "extra_steps,callbacks,expected",
        [
            (0, (), 3),  # epoch-aligned: the last epoch's evaluation is the final one
            (1, (), 4),  # truncated: the final model needs its own evaluation
            # a callback overriding on_epoch_end may change the model there,
            # so it forces the final one
            (0, (EarlyStopping(monitor="error", patience=100),), 4),
            # callbacks without that hook leave the last evaluation valid
            (0, (LRRecorder(),), 3),
            (0, (LossNaNGuard(),), 3),
        ],
    )
    def test_final_evaluation_reuses_last_epoch_evaluation(self, extra_steps, callbacks, expected):
        max_epochs = 3
        model, train, eval_loader = tiny_classification_workload()
        opt = SGD(model.parameters(), lr=0.1)
        task = ClassificationTask()
        calls = []
        evaluate = task.evaluate
        task.evaluate = lambda m, loader: calls.append(1) or evaluate(m, loader)
        trainer = Trainer(
            model, opt, task, train, eval_loader, callbacks=list(callbacks), eval_every_epoch=True
        )
        history = trainer.fit(max_epochs * len(train) + extra_steps)
        assert len(calls) == expected
        assert len(history.eval_metrics) == max_epochs
        assert history.final_metrics == evaluate(model, eval_loader)

    def test_early_stopping_callback(self):
        model, train, eval_loader = tiny_classification_workload()
        opt = SGD(model.parameters(), lr=0.0)  # no learning -> metric never improves
        stopper = EarlyStopping(monitor="error", patience=2)
        trainer = Trainer(
            model, opt, ClassificationTask(), train, eval_loader, callbacks=[stopper], eval_every_epoch=True
        )
        steps_per_epoch = len(train)
        history = trainer.fit(steps_per_epoch * 10)
        assert history.num_steps < steps_per_epoch * 10

    def test_invalid_total_steps(self):
        model, train, eval_loader = tiny_classification_workload()
        opt = SGD(model.parameters(), lr=0.1)
        trainer = Trainer(model, opt, ClassificationTask(), train, eval_loader)
        with pytest.raises(ValueError):
            trainer.fit(0)


class TestTasks:
    def test_vae_task(self):
        rng = np.random.default_rng(0)
        images = rng.random((32, 1, 8, 8))
        ds = ArrayDataset(images, images)
        loader = DataLoader(ds, batch_size=8, seed=0)
        model = VAE(image_size=8, channels=1, seed=0)
        task = VAETask()
        metrics = task.evaluate(model, loader)
        assert "elbo" in metrics and metrics["elbo"] > 0
        opt = Adam(model.parameters(), lr=1e-3)
        trainer = Trainer(model, opt, task, loader, loader)
        history = trainer.fit(30)
        assert history.final_metrics["elbo"] < metrics["elbo"]

    def test_vae_task_validation(self):
        with pytest.raises(ValueError):
            VAETask(beta=0.0)

    def test_detection_task(self):
        images, targets = make_detection_scenes(16, seed=0)
        ds = ArrayDataset(images, targets)
        loader = DataLoader(ds, batch_size=8, seed=0)
        model = TinyDetector(seed=0)
        task = DetectionTask()
        metrics = task.evaluate(model, loader)
        assert "map" in metrics
        assert task.higher_is_better

    def test_history_helpers(self):
        history = History()
        for i in range(30):
            history.record_step(lr=0.1, loss=float(30 - i))
        history.record_eval(10, {"error": 5.0})
        assert history.metric_series("error").tolist() == [5.0]
        assert len(history.smoothed_loss(10)) == 21
        assert history.loss_curve()[0] == 30.0
        assert isinstance(history.to_dict(), dict)
