"""Seed-stacked training loop: one step trains S seed replicas at once.

:class:`BatchedTrainer` mirrors :class:`repro.training.trainer.Trainer` for
the protocol the per-setting tables use — a step-deterministic schedule, a
NaN guard, and one final evaluation — but drives a seed-stacked model (see
:mod:`repro.nn.batched`) over a :class:`~repro.data.stacked.StackedLoader`.
Every per-seed quantity it records (step losses, final metrics) is bitwise
identical to the value the serial trainer would record for that seed.

Divergence is the one protocol the batched loop cannot replicate exactly (the
serial loop stops a diverged seed mid-budget while its siblings train on), so
a tripped guard raises :class:`SeedDivergence` and the caller re-runs the
cell's seeds serially.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Sequence

import numpy as np

from repro import nn
from repro.data.stacked import StackedLoader
from repro.nn.losses import cross_entropy, detection_loss, vae_loss
from repro.nn.lowprec import LowPrecisionState
from repro.optim.optimizer import Optimizer
from repro.schedules.schedule import Schedule
from repro.training import metrics as M
from repro.training.callbacks import LossNaNGuard
from repro.training.history import History
from repro.training.tasks import ClassificationTask, DetectionTask, Task, VAETask
from repro.training.trainer import Trainer

__all__ = ["BatchedTrainer", "SeedDivergence", "batched_task_loss", "batched_task_evaluate"]


class SeedDivergence(RuntimeError):
    """At least one stacked seed's loss left the finite/bounded regime."""


def _stacked_input(array: np.ndarray) -> nn.Tensor:
    return nn.seed_stacked(array)


def batched_task_loss(task: Task, model: nn.Module, batch: Sequence[np.ndarray]) -> nn.Tensor:
    """Per-seed loss vector (S,) for one stacked batch, dispatched by task type.

    Mirrors each task's ``compute_loss`` exactly; the batched loss kernels
    reduce per seed instead of globally.
    """
    if isinstance(task, ClassificationTask):
        images, labels = batch
        logits = model(_stacked_input(images))
        return cross_entropy(logits, labels, label_smoothing=task.label_smoothing)
    if isinstance(task, VAETask):
        images, targets = batch
        recon, mu, logvar = model(_stacked_input(images))
        return vae_loss(recon, targets, mu, logvar, beta=task.beta)
    if isinstance(task, DetectionTask):
        images, targets = batch
        preds = model(_stacked_input(images))
        return detection_loss(preds, targets, num_classes=task.num_classes)
    raise TypeError(f"seed-batched training does not support task type {type(task).__name__}")


def _evaluate_classification(
    task: ClassificationTask, model: nn.Module, loader: StackedLoader
) -> list[dict[str, float]]:
    num_seeds = loader.num_seeds
    model.eval()
    preds: list[list[np.ndarray]] = [[] for _ in range(num_seeds)]
    labels_acc: list[list[np.ndarray]] = [[] for _ in range(num_seeds)]
    totals = np.zeros(num_seeds, dtype=np.float64)
    count = 0
    with nn.no_grad():
        for images, labels in loader:
            logits = model(_stacked_input(images))
            loss = cross_entropy(logits, labels)
            batch_size = labels.shape[1]
            # float64 accumulation, exactly like the serial path's
            # ``float(loss) * len(labels)`` python-float arithmetic
            totals += loss.data.astype(np.float64) * batch_size
            count += batch_size
            for s in range(num_seeds):
                preds[s].append(logits.data[s].argmax(axis=1))
                labels_acc[s].append(labels[s])
    model.train()
    results = []
    for s in range(num_seeds):
        seed_preds = np.concatenate(preds[s])
        seed_labels = np.concatenate(labels_acc[s])
        results.append(
            {
                "error": M.error_rate(seed_preds, seed_labels),
                "accuracy": 100.0 * M.accuracy(seed_preds, seed_labels),
                "loss": float(totals[s] / max(count, 1)),
            }
        )
    return results


def _evaluate_vae(task: VAETask, model: nn.Module, loader: StackedLoader) -> list[dict[str, float]]:
    num_seeds = loader.num_seeds
    model.eval()
    totals = np.zeros(num_seeds, dtype=np.float64)
    count = 0
    with nn.no_grad():
        for images, targets in loader:
            recon, mu, logvar = model(_stacked_input(images))
            loss = vae_loss(recon, targets, mu, logvar, beta=task.beta)
            batch_size = images.shape[1]
            totals += loss.data.astype(np.float64) * batch_size
            count += batch_size
    model.train()
    values = totals / max(count, 1)
    return [{"elbo": float(v), "loss": float(v)} for v in values]


def _evaluate_detection(
    task: DetectionTask, model: nn.Module, loader: StackedLoader
) -> list[dict[str, float]]:
    num_seeds = loader.num_seeds
    model.eval()
    all_preds: list[list[np.ndarray]] = [[] for _ in range(num_seeds)]
    all_targets: list[list[np.ndarray]] = [[] for _ in range(num_seeds)]
    totals = np.zeros(num_seeds, dtype=np.float64)
    count = 0
    with nn.no_grad():
        for images, targets in loader:
            preds = model(_stacked_input(images))
            loss = detection_loss(preds, targets, num_classes=task.num_classes)
            batch_size = images.shape[1]
            totals += loss.data.astype(np.float64) * batch_size
            count += batch_size
            for s in range(num_seeds):
                all_preds[s].append(preds.data[s])
                all_targets[s].append(targets[s])
    model.train()
    results = []
    for s in range(num_seeds):
        preds_arr = np.concatenate(all_preds[s])
        targets_arr = np.concatenate(all_targets[s])
        ap = M.detection_average_precision(
            preds_arr, targets_arr, iou_threshold=task.iou_threshold
        )
        results.append({"map": ap, "loss": float(totals[s] / max(count, 1))})
    return results


def batched_task_evaluate(
    task: Task, model: nn.Module, loader: StackedLoader | None
) -> list[dict[str, float]]:
    """Per-seed evaluation metrics, one dict per stacked seed.

    Each dict is identical to what the task's serial ``evaluate`` would return
    for that seed: the batched forward produces bitwise-equal logits, and the
    metric reductions reuse the same :mod:`repro.training.metrics` functions
    on the per-seed slices.
    """
    if loader is None:
        return []
    if isinstance(task, ClassificationTask):
        return _evaluate_classification(task, model, loader)
    if isinstance(task, VAETask):
        return _evaluate_vae(task, model, loader)
    if isinstance(task, DetectionTask):
        return _evaluate_detection(task, model, loader)
    raise TypeError(f"seed-batched evaluation does not support task type {type(task).__name__}")


class BatchedTrainer:
    """Train a seed-stacked model for an exact step budget.

    Parameters mirror :class:`~repro.training.trainer.Trainer` where they
    apply; the schedule must be step-deterministic (anything except the
    plateau family — the engine's batchability predicate enforces this), since
    one learning rate drives all seeds.

    ``loss_ceiling`` replicates :class:`~repro.training.callbacks.LossNaNGuard`
    and defaults to *that class's* default ceiling, so the serial guard and
    the batched divergence check can never drift apart: a non-finite or
    out-of-range per-seed loss raises :class:`SeedDivergence` instead of
    recording a poisoned trajectory.

    ``plan`` mirrors :class:`~repro.training.trainer.Trainer`'s graph-planning
    switch (``None`` defers to ``REPRO_PLAN``): the stacked step's buffers —
    including the conv kernel's column and GEMM workspaces — are captured once and reused on every later step.
    ``plan_passes`` mirrors the serial trainer's compiler-pass selection
    (``None`` defers to ``REPRO_PLAN_PASSES``).
    """

    def __init__(
        self,
        model: nn.Module,
        optimizer: Optimizer,
        task: Task,
        train_loader: StackedLoader,
        eval_loader: StackedLoader | None = None,
        schedule: Schedule | None = None,
        loss_ceiling: float | None = None,
        plan: bool | None = None,
        plan_passes: str | Sequence[str] | None = None,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.task = task
        self.train_loader = train_loader
        self.eval_loader = eval_loader
        self.schedule = schedule
        self.loss_ceiling = LossNaNGuard().ceiling if loss_ceiling is None else loss_ceiling
        self.plan = nn.plan_enabled_default() if plan is None else bool(plan)
        self.plan_passes = plan_passes
        self.last_plan: nn.GraphPlan | None = None
        self.num_seeds = train_loader.num_seeds
        self.histories = [History() for _ in range(self.num_seeds)]

    # same cycle-forever semantics (and rng consumption) as the serial loop
    _batches = Trainer._batches

    def fit(self, total_steps: int) -> list[History]:
        """Run ``total_steps`` stacked updates; return one history per seed."""
        if total_steps < 1:
            raise ValueError(f"total_steps must be at least 1, got {total_steps}")
        self.model.train()
        graph_plan = nn.GraphPlan(passes=self.plan_passes) if self.plan else None
        self.last_plan = graph_plan
        # Under an ambient emulated dtype the stacked loop trains
        # mixed-precision exactly like the serial trainer.  One scalar loss
        # scale is shared by all seeds: absent overflows its trajectory is
        # deterministic (init, growth every interval) and identical to every
        # seed's serial trajectory, preserving per-seed bitwise equality.
        # Any seed's overflow would fork the shared trajectory away from the
        # serial per-seed ones, so it raises SeedDivergence and the engine
        # re-runs the cell's seeds serially (each with its own scaler).
        emulation = nn.active_emulation()
        lowprec: LowPrecisionState | None = None
        if emulation is not None:
            params = [p for group in self.optimizer.param_groups for p in group["params"]]
            lowprec = LowPrecisionState(params, emulation)
        batches = self._batches()
        ones = None
        for _ in range(total_steps):
            if self.schedule is not None:
                lr = self.schedule.step()
            else:
                lr = self.optimizer.get_lr()
            batch = next(batches)
            with graph_plan.step() if graph_plan is not None else nullcontext():
                loss = batched_task_loss(self.task, self.model, batch)
                self.optimizer.zero_grad()
                if lowprec is None:
                    if ones is None or ones.dtype != loss.data.dtype:
                        # d(sum of per-seed losses)/d(loss_s) = 1: each seed's
                        # subgraph receives exactly the serial trainer's scalar
                        # backward seed.
                        ones = np.ones(self.num_seeds, dtype=loss.data.dtype)
                    loss.backward(ones)
                    self.optimizer.step()
                else:
                    # per-seed seed vector filled with the shared scale: each
                    # seed's subgraph receives exactly the serial trainer's
                    # scaled scalar seed
                    loss.backward(lowprec.grad_seed(loss))
                    if lowprec.found_overflow():
                        raise SeedDivergence(
                            "gradients overflowed under the shared loss scale "
                            f"(scale={lowprec.scaler.scale}); re-run seeds serially"
                        )
                    lowprec.step(self.optimizer)
            values = loss.data
            if not np.all(np.isfinite(values)) or np.any(np.abs(values) > self.loss_ceiling):
                raise SeedDivergence(
                    f"per-seed losses left the stable regime: {values.tolist()}"
                )
            for s in range(self.num_seeds):
                self.histories[s].record_step(lr, float(values[s]))
        final = batched_task_evaluate(self.task, self.model, self.eval_loader)
        for s, metrics in enumerate(final):
            self.histories[s].final_metrics = metrics
        return self.histories
