"""GLUE fine-tuning runner for the BERT proxy setting (Tables 10 and 11).

The paper fine-tunes a pre-trained BERT-base on eight GLUE tasks with AdamW,
reporting the score after 1, 2 and 3 epochs for each schedule.  This runner
mirrors that protocol at proxy scale: a :class:`TinyTransformer` encoder is
(briefly) pre-trained once per seed and label count, then fine-tuned per task
with the chosen schedule decaying over the full 3-epoch budget, and scores are
recorded at every epoch boundary.  The pre-trained weights and the task splits
are built once per process and shared by every cell that needs them
(:mod:`repro.experiments.memo`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any

import numpy as np

from repro import nn
from repro.data import DataLoader, GlueTask, SyntheticGlueTask, glue_task_specs
from repro.experiments.memo import INPUTS
from repro.models import TinyTransformer, TransformerConfig
from repro.optim import build_optimizer
from repro.schedules import build_schedule
from repro.training.tasks import SequenceTask
from repro.training.trainer import Trainer
from repro.utils.records import RunRecord, RunStore
from repro.utils.unset import UNSET

if TYPE_CHECKING:
    from repro.execution.context import ExecutionContext

__all__ = [
    "GlueRunConfig",
    "GlueTaskCell",
    "GlueResult",
    "plan_glue_benchmark",
    "run_glue_task",
    "run_glue_cell",
    "run_glue_benchmark",
]

_DEFAULT_LR = 3e-3


@dataclass(frozen=True)
class GlueRunConfig:
    """Configuration for fine-tuning the BERT proxy on the proxy GLUE suite."""

    schedule: str
    optimizer: str = "adamw"
    max_epochs: int = 3
    learning_rate: float = _DEFAULT_LR
    seed: int = 0
    size_scale: float = 1.0
    pretrain_steps: int = 10
    schedule_kwargs: dict = field(default_factory=dict)
    #: float dtype the fine-tune runs in ("float32" / "float64", or the
    #: emulated "bfloat16" / "float16")
    dtype: str = "float64"


@dataclass
class GlueResult:
    """Per-task scores at each epoch for one schedule."""

    schedule: str
    optimizer: str
    #: mapping task name -> list of scores, one per completed epoch
    per_task_scores: dict[str, list[float]]

    def mean_scores(self) -> list[float]:
        """Mean GLUE score after each epoch (the paper's Table 10 column)."""
        num_epochs = min(len(v) for v in self.per_task_scores.values())
        return [
            float(np.mean([scores[e] for scores in self.per_task_scores.values()]))
            for e in range(num_epochs)
        ]

    def score_after(self, epochs: int) -> float:
        return self.mean_scores()[epochs - 1]


def _build_encoder(config: GlueRunConfig, num_labels: int, seed: int) -> TinyTransformer:
    model_config = TransformerConfig(vocab_size=64, max_seq_len=32, embed_dim=32, num_heads=4, num_layers=2)
    model = TinyTransformer(model_config, num_labels=num_labels, seed=seed)
    if config.pretrain_steps > 0:

        def pretrained_weights() -> dict:
            model.pretrain(steps=config.pretrain_steps, seed=seed)
            return model.state_dict()

        # num_labels fixes the classifier's shape and, through the shared init
        # RNG, the mlm_head's draws; the ambient dtype (incl. an emulated
        # policy) fixes the weights' precision
        key = ("glue-encoder", num_labels, seed, config.pretrain_steps, nn.dtype_name(None))
        model.load_state_dict(INPUTS.get(key, pretrained_weights))
    return model


def run_glue_task(task: GlueTask, config: GlueRunConfig) -> list[float]:
    """Fine-tune on one proxy GLUE task; return the score after each epoch."""
    with nn.default_dtype(nn.dtype_name(config.dtype)):
        return _run_glue_task(task, config)


def _run_glue_task(task: GlueTask, config: GlueRunConfig) -> list[float]:
    train_ds, test_ds = INPUTS.get(
        ("glue-splits", task, config.seed), lambda: SyntheticGlueTask.splits(task, seed=config.seed)
    )
    train_loader = DataLoader(train_ds, batch_size=16, shuffle=True, seed=config.seed)
    eval_loader = DataLoader(test_ds, batch_size=32, shuffle=False, seed=config.seed)

    num_labels = 1 if task.spec.regression else task.spec.num_classes
    model = _build_encoder(config, num_labels=num_labels, seed=config.seed)
    optimizer = build_optimizer(config.optimizer, model.parameters(), lr=config.learning_rate)

    steps_per_epoch = len(train_loader)
    total_steps = steps_per_epoch * config.max_epochs
    schedule = build_schedule(
        config.schedule,
        optimizer,
        total_steps=total_steps,
        base_lr=config.learning_rate,
        steps_per_epoch=steps_per_epoch,
        **config.schedule_kwargs,
    )

    seq_task = SequenceTask(metric=task.metric, regression=task.spec.regression)
    trainer = Trainer(
        model=model,
        optimizer=optimizer,
        task=seq_task,
        train_loader=train_loader,
        eval_loader=eval_loader,
        schedule=schedule,
        eval_every_epoch=True,
    )
    history = trainer.fit(total_steps)
    scores = [m["score"] for m in history.eval_metrics]
    if len(scores) < config.max_epochs:
        # The final evaluation covers the last epoch if the loop ended between
        # epoch boundaries (only possible for truncated budgets).
        scores.append(history.final_metrics.get("score", scores[-1] if scores else 0.0))
    return scores[: config.max_epochs]


@dataclass(frozen=True)
class GlueTaskCell:
    """One (task, schedule) fine-tuning cell of the GLUE sweep.

    This is the unit the execution engine caches and parallelises over; it is
    a pure-data mirror of :class:`GlueRunConfig` plus the task name, so it
    pickles cleanly into worker processes and fingerprints stably.
    """

    task: str
    schedule: str
    optimizer: str = "adamw"
    max_epochs: int = 3
    learning_rate: float = _DEFAULT_LR
    seed: int = 0
    size_scale: float = 1.0
    pretrain_steps: int = 10
    schedule_kwargs: dict = field(default_factory=dict)
    dtype: str = "float64"

    def to_run_config(self) -> GlueRunConfig:
        return GlueRunConfig(
            schedule=self.schedule,
            optimizer=self.optimizer,
            max_epochs=self.max_epochs,
            learning_rate=self.learning_rate,
            seed=self.seed,
            size_scale=self.size_scale,
            pretrain_steps=self.pretrain_steps,
            schedule_kwargs=dict(self.schedule_kwargs),
            dtype=self.dtype,
        )


def plan_glue_benchmark(config: GlueRunConfig) -> list[GlueTaskCell]:
    """Enumerate one fine-tuning cell per proxy GLUE task, without training.

    Names are normalised here because the cell is fingerprinted field-by-field:
    "REX" and "rex" describe the same fine-tune and must share a cache entry.
    """
    return [
        GlueTaskCell(
            task=task.name,
            schedule=config.schedule.lower(),
            optimizer=config.optimizer.lower(),
            max_epochs=config.max_epochs,
            learning_rate=config.learning_rate,
            seed=config.seed,
            size_scale=config.size_scale,
            pretrain_steps=config.pretrain_steps,
            schedule_kwargs=dict(config.schedule_kwargs),
            dtype=nn.dtype_name(config.dtype),
        )
        for task in glue_task_specs(size_scale=config.size_scale)
    ]


def run_glue_cell(cell: GlueTaskCell) -> RunRecord:
    """Fine-tune one proxy GLUE task and wrap its per-epoch scores in a record.

    Module-level so the execution engine can dispatch it to worker processes.
    The per-epoch score list lives in ``extra["scores"]``; the headline metric
    is the final-epoch score.
    """
    config = cell.to_run_config()
    by_name = {task.name: task for task in glue_task_specs(size_scale=cell.size_scale)}
    if cell.task not in by_name:
        raise KeyError(f"unknown proxy GLUE task {cell.task!r}; available: {sorted(by_name)}")
    task = by_name[cell.task]
    scores = run_glue_task(task, config)
    return RunRecord(
        setting="BERT-GLUE",
        optimizer=cell.optimizer.lower(),
        schedule=cell.schedule.lower(),
        budget_fraction=1.0,
        learning_rate=cell.learning_rate,
        seed=cell.seed,
        metric=float(scores[-1]),
        metric_name=task.metric,
        higher_is_better=True,
        extra={"task": cell.task, "scores": [float(s) for s in scores]},
    )


def run_glue_benchmark(
    config: GlueRunConfig,
    max_workers: int = UNSET,
    cache_dir: Any = UNSET,
    context: "ExecutionContext | None" = None,
) -> GlueResult:
    """Fine-tune on all eight proxy GLUE tasks; return per-task per-epoch scores.

    Tasks are independent cells, so a multi-worker ``context`` fine-tunes them
    concurrently and its cache makes re-running a schedule free.  The bare
    ``max_workers=``/``cache_dir=`` kwargs are the deprecated legacy spelling.
    """
    from repro.execution import ExperimentEngine, context_from_legacy

    context = context_from_legacy(
        context, "run_glue_benchmark", max_workers=max_workers, cache_dir=cache_dir
    )
    cells = plan_glue_benchmark(config)
    engine = ExperimentEngine(context=context, run_fn=run_glue_cell)
    store = engine.run(cells)
    per_task = {record.extra["task"]: list(record.extra["scores"]) for record in store}
    return GlueResult(schedule=config.schedule, optimizer=config.optimizer, per_task_scores=per_task)


def glue_result_to_records(result: GlueResult, seed: int = 0, learning_rate: float = _DEFAULT_LR) -> RunStore:
    """Convert a :class:`GlueResult` into budget-indexed RunRecords (for rank aggregation).

    Epoch ``e`` of the 3-epoch fine-tune corresponds to budget fraction
    ``e / 3``; the metric is the mean GLUE score, higher is better.
    """
    store = RunStore()
    means = result.mean_scores()
    num_epochs = len(means)
    for epoch_idx, mean_score in enumerate(means, start=1):
        store.add(
            RunRecord(
                setting="BERT-GLUE",
                optimizer=result.optimizer,
                schedule=result.schedule,
                budget_fraction=epoch_idx / num_epochs,
                learning_rate=learning_rate,
                seed=seed,
                metric=float(mean_score),
                metric_name="glue",
                higher_is_better=True,
                extra={"per_task": {k: v[epoch_idx - 1] for k, v in result.per_task_scores.items()}},
            )
        )
    return store
