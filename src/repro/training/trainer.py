"""The budgeted Trainer: a workload-agnostic training loop.

The Trainer consumes a model, an optimizer, a :class:`~repro.training.tasks.Task`
and a schedule, and runs for an exact number of optimiser steps (the budget).
Learning-rate scheduling follows the paper's protocol: the schedule decays over
exactly the allocated budget, sampled according to its own sampling policy.
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Iterator, Sequence

import numpy as np

from repro import nn
from repro.data.dataset import DataLoader
from repro.nn.lowprec import LossScaler, LowPrecisionState
from repro.optim.optimizer import Optimizer
from repro.schedules.plateau import DecayOnPlateauSchedule
from repro.schedules.schedule import Schedule
from repro.training.callbacks import Callback
from repro.training.history import History
from repro.training.tasks import Task

__all__ = ["Trainer"]


class Trainer:
    """Train a model for an exact step budget with an attached LR schedule.

    Parameters
    ----------
    model, optimizer, task:
        The workload: the task knows how to turn a batch into a loss and how
        to evaluate the model.
    train_loader, eval_loader:
        Mini-batch sources.  ``eval_loader`` may be ``None`` (no evaluation).
    schedule:
        Any :class:`repro.schedules.Schedule`; ``None`` keeps the optimizer's
        learning rate constant.  :class:`DecayOnPlateauSchedule` additionally
        receives the primary eval metric at every epoch boundary.
    callbacks:
        Optional hooks (LR recording, divergence guards, logging...).
    eval_every_epoch:
        Force an evaluation at every epoch boundary even when the schedule
        does not require it (the plateau schedule always evaluates).
    dtype:
        Float dtype (``"float32"`` / ``"float64"``, or the emulated
        ``"bfloat16"`` / ``"float16"``) activated as the process default for
        the duration of :meth:`fit` and :meth:`_evaluate`, so that batch
        tensors and intermediates match the model.  ``None`` (default) leaves
        the ambient default untouched.  Build the model under the same dtype
        (e.g. with ``nn.default_dtype``) — a mismatched model/trainer dtype
        silently promotes every intermediate to the wider of the two,
        defeating the float32 fast path.  Under an emulated dtype the loop
        automatically trains mixed-precision (:mod:`repro.nn.lowprec`):
        float32 master weights inside the optimizer step, a dynamically
        loss-scaled backward seed, and overflow steps skipped with the scale
        halved.  Skipped steps still consume budget and advance the schedule
        (the budget counts *attempts*, keeping step counts deterministic);
        the scaler's ``applied_steps`` counter excludes them.
    loss_scaler:
        Override the :class:`~repro.nn.lowprec.LossScaler` used under emulated
        dtypes (tests inject scalers with tiny growth intervals or absurd
        initial scales to force overflows).  Ignored for native dtypes.
    stochastic_rounding:
        Opt-in stochastic rounding on the master-weight store path under
        emulated dtypes.  Off by default — SR draws from an RNG, so the
        runner paths keep deterministic round-to-nearest-even to preserve the
        bitwise plan/batched equivalence oracles.
    plan:
        Graph planning (:mod:`repro.nn.plan`): capture the first step's tape
        signature and reuse every activation/gradient/workspace buffer on
        steps 2..N.  Planned and unplanned runs are bitwise identical; only
        allocation behaviour (and therefore wall-clock) changes.  ``None``
        (default) defers to the ``REPRO_PLAN`` environment switch, which is
        **on** unless set to a falsy value — pass ``False`` (or run with
        ``REPRO_PLAN=0`` / the CLI's ``--no-plan``) as the exact-equality
        escape hatch.
    plan_passes:
        Compiler passes the plan runs after its capture step (see
        :mod:`repro.nn.plan_passes`): a comma-separated string or iterable of
        names from ``alias``/``fuse``/``dce``/``parallel``, ``"none"`` for
        plain capture/replay, ``"all"`` for everything.  ``None`` (default)
        defers to ``REPRO_PLAN_PASSES`` (default: ``alias,fuse,dce``).  All
        passes preserve bitwise equality with unplanned execution.
    """

    def __init__(
        self,
        model: nn.Module,
        optimizer: Optimizer,
        task: Task,
        train_loader: DataLoader,
        eval_loader: DataLoader | None = None,
        schedule: Schedule | None = None,
        callbacks: Sequence[Callback] = (),
        eval_every_epoch: bool = False,
        dtype: str | np.dtype | None = None,
        plan: bool | None = None,
        plan_passes: str | Sequence[str] | None = None,
        loss_scaler: LossScaler | None = None,
        stochastic_rounding: bool = False,
    ) -> None:
        self.model = model
        self.optimizer = optimizer
        self.task = task
        self.train_loader = train_loader
        self.eval_loader = eval_loader
        self.schedule = schedule
        self.callbacks = list(callbacks)
        self.eval_every_epoch = eval_every_epoch
        self.dtype = nn.resolve_dtype(dtype) if dtype is not None else None
        self.plan = nn.plan_enabled_default() if plan is None else bool(plan)
        self.plan_passes = plan_passes
        self.loss_scaler = loss_scaler
        self.stochastic_rounding = stochastic_rounding
        #: the :class:`~repro.nn.plan.GraphPlan` of the most recent ``fit``
        #: (``None`` when planning is disabled); exposes reuse counters
        self.last_plan: nn.GraphPlan | None = None
        #: the mixed-precision state of the most recent ``fit`` (``None``
        #: unless an emulated dtype was active); exposes the scaler counters
        self.lowprec: LowPrecisionState | None = None
        self.history = History()

    # -- internals -------------------------------------------------------------
    def _batches(self) -> Iterator[tuple[np.ndarray, ...]]:
        """Yield batches forever, re-shuffling each pass over the loader."""
        while True:
            yielded = False
            for batch in self.train_loader:
                yielded = True
                yield batch
            if not yielded:
                raise RuntimeError("train_loader produced no batches")

    def _needs_epoch_eval(self) -> bool:
        return (
            self.eval_every_epoch
            or isinstance(self.schedule, DecayOnPlateauSchedule)
            or any(hasattr(cb, "monitor") for cb in self.callbacks)
        )

    def _evaluate(self) -> dict[str, float]:
        if self.eval_loader is None:
            return {}
        return self.task.evaluate(self.model, self.eval_loader)

    def _stop_requested(self) -> bool:
        return any(cb.stop_requested for cb in self.callbacks)

    # -- the loop -------------------------------------------------------------------
    def fit(self, total_steps: int) -> History:
        """Run ``total_steps`` optimiser updates and return the training history."""
        if self.dtype is not None:
            with nn.default_dtype(self.dtype):
                return self._fit(total_steps)
        return self._fit(total_steps)

    def _fit(self, total_steps: int) -> History:
        if total_steps < 1:
            raise ValueError(f"total_steps must be at least 1, got {total_steps}")
        steps_per_epoch = len(self.train_loader)
        epoch_eval = self._needs_epoch_eval()

        self.model.train()
        for cb in self.callbacks:
            cb.on_train_begin(self)

        graph_plan = nn.GraphPlan(passes=self.plan_passes) if self.plan else None
        self.last_plan = graph_plan

        # Under an emulated dtype (ambient, whether set by self.dtype or an
        # enclosing default_dtype context) train mixed-precision: float32
        # masters inside the optimizer step, loss-scaled backward seed,
        # overflow steps skipped.  The master set is exactly the optimizer's
        # parameter list — the values step() mutates.
        emulation = nn.active_emulation()
        lowprec: LowPrecisionState | None = None
        if emulation is not None:
            params = [p for group in self.optimizer.param_groups for p in group["params"]]
            lowprec = LowPrecisionState(
                params,
                emulation,
                loss_scaler=self.loss_scaler,
                stochastic_rounding=self.stochastic_rounding,
            )
        self.lowprec = lowprec

        batches = self._batches()
        for step in range(total_steps):
            # metrics of an epoch evaluation run after this step, if any
            step_eval: dict[str, float] | None = None
            if self.schedule is not None:
                lr = self.schedule.step()
            else:
                lr = self.optimizer.get_lr()

            batch = next(batches)
            # the plan scope covers exactly one forward + backward + update;
            # evaluation and callbacks run unplanned outside it
            with graph_plan.step() if graph_plan is not None else nullcontext():
                loss = self.task.compute_loss(self.model, batch)
                self.optimizer.zero_grad()
                if lowprec is None:
                    loss.backward()
                    self.optimizer.step()
                else:
                    # scale rides the backward seed (not a graph node), so
                    # the captured plan tape is byte-for-byte unchanged
                    loss.backward(lowprec.grad_seed(loss))
                    lowprec.step(self.optimizer)

            loss_value = float(loss.data)
            self.history.record_step(lr, loss_value)
            for cb in self.callbacks:
                cb.on_step_end(self, step, loss_value, lr)

            end_of_epoch = (step + 1) % steps_per_epoch == 0
            if end_of_epoch and epoch_eval:
                metrics = step_eval = self._evaluate()
                self.history.record_eval(step, metrics)
                epoch_idx = (step + 1) // steps_per_epoch - 1
                if isinstance(self.schedule, DecayOnPlateauSchedule) and metrics:
                    primary = metrics.get(self.task.primary_metric)
                    if primary is not None:
                        value = -primary if self.task.higher_is_better else primary
                        self.schedule.epoch_end(value)
                for cb in self.callbacks:
                    cb.on_epoch_end(self, epoch_idx, metrics)

            if self._stop_requested():
                break

        if step_eval is not None and not self.callbacks:
            # the last step's epoch evaluation saw the final model; a callback
            # may change the model at an epoch end, so it forces a fresh one
            final_metrics = step_eval
        else:
            final_metrics = self._evaluate()
        self.history.final_metrics = final_metrics
        for cb in self.callbacks:
            cb.on_train_end(self, final_metrics)
        return self.history
