"""In-memory span tracing of one ``repro report`` run, from outside the program.

:class:`Tracer` keeps spans (name, start, end, parent) in flat arrays and
writes them out at the end as Chrome trace-event JSON.  :class:`Instrumentation`
wraps the public calls of each layer of ``src/repro`` (the artifact registry,
the engine and its cache, the cell runners, the trainers, the tasks, the
autograd backward, the functional ops, the optimizers and the schedules) in
spans, and counts what the layer did at the same boundary: cache hits,
optimizer steps per cell and the learning rate of each step, plan buffer
reuse.  Nothing inside ``src/`` changes; uninstalling restores every wrapped
attribute.

The tracer keeps one stack of open spans, so it traces a single thread: the
benchmark runs the serial engine with the default plan passes, which call
everything on the main thread.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Sequence

__all__ = ["Instrumentation", "Tracer", "self_times"]

#: the layer ops of a model's forward pass, summed into ``nn.forward_ops_s``
FORWARD_OP_SPANS = ("nn.conv2d", "nn.linear", "nn.attention", "nn.embedding")
#: building a cell's model and data, summed into ``experiments.model_build_s``
MODEL_BUILD_SPANS = ("experiments.build_workload", "experiments.glue_encoder")


class Tracer:
    """Nested spans kept in memory: one row of (name, start, end, parent) per span."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self._clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        #: 1 when no span of the same name encloses this one
        self.outermost = array("b")
        self._stack: list[int] = []
        self._open: list[int] = []

    def __len__(self) -> int:
        return len(self.start)

    def _id(self, name: str) -> int:
        key = self._ids.get(name)
        if key is None:
            key = self._ids[name] = len(self.names)
            self.names.append(name)
            self._open.append(0)
        return key

    def begin(self, name: str) -> int:
        """Open a span under the innermost open one; returns its index."""
        key = self._id(name)
        idx = len(self.start)
        self.name_id.append(key)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.outermost.append(1 if self._open[key] == 0 else 0)
        self._open[key] += 1
        self._stack.append(idx)
        self.end.append(0)
        self.start.append(self._clock())
        return idx

    def finish(self, idx: int) -> None:
        """Close span ``idx``, which must be the innermost open one."""
        self.end[idx] = self._clock()
        self._open[self.name_id[idx]] -= 1
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while span {top} is innermost")

    def is_open(self, name: str) -> bool:
        """Whether a span called ``name`` is open on the stack."""
        key = self._ids.get(name)
        return key is not None and self._open[key] > 0

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)

        return traced

    # -- summaries -------------------------------------------------------------
    def durations(self, name: str) -> list[int]:
        """Durations (ns) of the spans called ``name`` that no span of that name encloses."""
        key = self._ids.get(name)
        if key is None:
            return []
        return [
            self.end[i] - self.start[i]
            for i in range(len(self.start))
            if self.name_id[i] == key and self.outermost[i]
        ]

    def total_s(self, name: str) -> float:
        """Inclusive seconds in spans called ``name`` (each instant counted once)."""
        return sum(self.durations(name)) / 1e9

    def count(self, name: str) -> int:
        """Number of outermost spans called ``name``."""
        return len(self.durations(name))

    def self_s(self, name: str) -> float:
        """Seconds in spans called ``name`` not covered by their child spans."""
        key = self._ids.get(name)
        if key is None:
            return 0.0
        own = self_times(self.start, self.end, self.parent)
        return sum(own[i] for i in range(len(own)) if self.name_id[i] == key) / 1e9

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome trace-event JSON (complete ``X`` events, microseconds)."""
        t0 = min(self.start) if len(self.start) else 0
        events = []
        for i in range(len(self.start)):
            name = self.names[self.name_id[i]]
            events.append({
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (self.start[i] - t0) / 1000.0,
                "dur": (self.end[i] - self.start[i]) / 1000.0,
                "pid": 1,
                "tid": 1,
                "args": {"span": i, "parent": self.parent[i]},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: Any) -> None:
        """Write :meth:`chrome_trace` to ``path``."""
        with open(path, "w") as handle:
            json.dump(self.chrome_trace(), handle, separators=(",", ":"))


def self_times(starts: Sequence[int], ends: Sequence[int], parents: Sequence[int]) -> list[int]:
    """Each span's duration minus the part of its interval its child spans cover.

    Children are clipped to their parent's interval and overlapping children
    are counted once, so the result never goes negative.
    """
    children: dict[int, list[int]] = defaultdict(list)
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append(idx)
    result = []
    for idx in range(len(starts)):
        lo_bound, hi_bound = starts[idx], ends[idx]
        covered = 0
        reach = lo_bound
        for child in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            lo = max(starts[child], reach)
            hi = min(ends[child], hi_bound)
            if hi > lo:
                covered += hi - lo
                reach = hi
        result.append(hi_bound - lo_bound - covered)
    return result


class _Fit:
    """What one trainer ``fit`` call did, counted from outside."""

    __slots__ = ("kind", "steps", "lrs", "steps_per_epoch")

    def __init__(self, kind: str, steps_per_epoch: int) -> None:
        self.kind = kind
        self.steps = 0
        self.lrs: list[float] = []
        self.steps_per_epoch = steps_per_epoch


class Instrumentation:
    """Wraps the public calls of each ``repro`` layer in spans of one :class:`Tracer`.

    Besides spans it keeps, per trained record, the optimizer steps its
    ``fit`` took and the learning rate of each one (``cells``), the engine's
    counters, cache hits and the graph plans' buffer reuse.
    """

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.cells: list[dict[str, Any]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.arena_max_bytes = 0
        self._cell_fits: list[_Fit] | None = None
        self._fit: _Fit | None = None
        self._undo: list[tuple[Any, str, Any]] = []

    # -- patching --------------------------------------------------------------
    def _patch(self, owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _span(self, owner: Any, attr: str, name: str) -> None:
        self._patch(owner, attr, lambda fn: self.tracer.wrap(fn, name))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary the per-layer metrics read."""
        from repro.data.dataset import DataLoader
        from repro.data.stacked import StackedLoader
        from repro.execution.cache import RunCache
        from repro.execution.engine import ExperimentEngine
        from repro.experiments import batched as exp_batched
        from repro.experiments import glue_runner, runner
        from repro.nn import functional
        from repro.nn import plan_passes
        from repro.nn.modules.attention import MultiHeadSelfAttention
        from repro.nn.tensor import Tensor
        from repro.optim.optimizer import Optimizer
        from repro.reporting import registry
        from repro.schedules.schedule import Schedule
        from repro.training import batched as train_batched
        from repro.training.tasks import Task
        from repro.training.trainer import Trainer

        # execution
        self._patch(ExperimentEngine, "run", self._engine_run)
        self._patch(RunCache, "get", self._cache_get)
        self._span(RunCache, "put", "execution.cache_put")
        # experiments: one span per engine job (a cell, or all seeds of a batched cell)
        self._patch(registry, "run_cell", lambda fn: self._cell(fn, batched=False))
        self._patch(exp_batched, "run_batched_job", lambda fn: self._cell(fn, batched=True))
        self._span(runner, "build_workload", "experiments.build_workload")
        self._span(exp_batched, "build_workload", "experiments.build_workload")
        self._span(glue_runner, "_build_encoder", "experiments.glue_encoder")
        # training
        self._patch(Trainer, "fit", lambda fn: self._trainer_fit(fn, "serial"))
        self._patch(train_batched.BatchedTrainer, "fit", lambda fn: self._trainer_fit(fn, "batched"))
        for task_cls in _subclasses(Task):
            if "compute_loss" in task_cls.__dict__:
                self._span(task_cls, "compute_loss", "training.forward")
            if "evaluate" in task_cls.__dict__:
                self._span(task_cls, "evaluate", "training.eval")
        self._span(train_batched, "batched_task_loss", "training.forward")
        self._span(train_batched, "batched_task_evaluate", "training.eval")
        self._patch(DataLoader, "__iter__", self._loader_iter)
        self._patch(StackedLoader, "__iter__", self._loader_iter)
        # nn
        self._span(Tensor, "backward", "nn.backward")
        self._span(functional, "conv2d", "nn.conv2d")
        self._span(functional, "im2col", "nn.im2col")
        self._span(functional, "col2im", "nn.col2im")
        self._span(functional, "linear", "nn.linear")
        self._span(functional, "embedding", "nn.embedding")
        self._span(MultiHeadSelfAttention, "forward", "nn.attention")
        self._span(plan_passes, "compile_step", "nn.plan_compile")
        # optim and schedules
        for opt_cls in [Optimizer, *_subclasses(Optimizer)]:
            if "step" in opt_cls.__dict__:
                self._patch(opt_cls, "step", self._optimizer_step)
        for sched_cls in [Schedule, *_subclasses(Schedule)]:
            if "step" in sched_cls.__dict__:
                self._span(sched_cls, "step", "schedules.step")

    # -- wrappers with bookkeeping ---------------------------------------------
    def _engine_run(self, fn: Callable) -> Callable:
        traced = self.tracer.wrap(fn, "execution.engine_run")

        @functools.wraps(fn)
        def run(engine: Any, *args: Any, **kwargs: Any) -> Any:
            try:
                return traced(engine, *args, **kwargs)
            finally:
                report = engine.last_report
                self.counters["cells_executed"] += report.executed
                self.counters["batched_cells"] += report.batched_cells
                self.counters["batched_records"] += report.batched_records

        return run

    def _cache_get(self, fn: Callable) -> Callable:
        traced = self.tracer.wrap(fn, "execution.cache_get")

        @functools.wraps(fn)
        def get(cache: Any, config: Any) -> Any:
            record = traced(cache, config)
            if record is not None:
                self.counters["cache_hits"] += 1
            return record

        return get

    def _cell(self, fn: Callable, batched: bool) -> Callable:
        traced = self.tracer.wrap(fn, "experiments.cell")

        @functools.wraps(fn)
        def run(cell: Any) -> Any:
            outer, self._cell_fits = self._cell_fits, []
            fits = self._cell_fits
            try:
                outcome = traced(cell)
            finally:
                self._cell_fits = outer
            self._note_cell(cell, outcome, fits, batched)
            return outcome

        return run

    def _note_cell(self, cell: Any, outcome: Any, fits: list[_Fit], batched: bool) -> None:
        if batched:
            records, stacked = outcome
            if not stacked and len(records) > 1:
                self.counters["batched_fallbacks"] += 1
            if stacked:
                chosen = [f for f in fits if f.kind == "batched"] * len(records)
            else:
                chosen = [f for f in fits if f.kind == "serial"][-len(records):]
        else:
            records, chosen = [outcome], fits
        max_epochs = getattr(cell, "max_epochs", None)
        for i, record in enumerate(records):
            fit = chosen[i] if len(chosen) == len(records) else None
            self.cells.append({
                "record": record.to_dict(),
                "counted": fit.steps if fit is not None else -1,
                "lrs": fit.lrs if fit is not None else [],
                "steps_per_epoch": fit.steps_per_epoch if fit is not None else 0,
                "max_epochs": max_epochs,
            })

    def _trainer_fit(self, fn: Callable, kind: str) -> Callable:
        traced = self.tracer.wrap(fn, "training.fit")

        @functools.wraps(fn)
        def fit(trainer: Any, *args: Any, **kwargs: Any) -> Any:
            record = _Fit(kind, len(trainer.train_loader))
            outer, self._fit = self._fit, record
            try:
                return traced(trainer, *args, **kwargs)
            finally:
                self._fit = outer
                self.counters["steps"] += record.steps
                if self._cell_fits is not None:
                    self._cell_fits.append(record)
                plan = trainer.last_plan
                if plan is not None:
                    self.counters["plan_reused"] += plan.reused_checkouts
                    self.counters["plan_fresh"] += plan.fresh_checkouts
                    self.arena_max_bytes = max(self.arena_max_bytes, plan.arena_nbytes())

        return fit

    def _optimizer_step(self, fn: Callable) -> Callable:
        traced = self.tracer.wrap(fn, "optim.step")

        @functools.wraps(fn)
        def step(optimizer: Any, *args: Any, **kwargs: Any) -> Any:
            outermost = not self.tracer.is_open("optim.step")
            try:
                return traced(optimizer, *args, **kwargs)
            finally:
                # steps taken outside fit (the GLUE encoder's pre-training) are
                # not part of any cell's budget
                if outermost and self._fit is not None:
                    self._fit.steps += 1
                    self._fit.lrs.append(optimizer.get_lr())

        return step

    def _loader_iter(self, fn: Callable) -> Callable:
        tracer = self.tracer

        @functools.wraps(fn)
        def iterate(loader: Any) -> Any:
            batches = fn(loader)
            while True:
                # batches drawn for evaluation belong to the eval span
                idx = tracer.begin("training.eval_data" if tracer.is_open("training.eval") else "training.data")
                try:
                    batch = next(batches)
                except StopIteration:
                    return
                finally:
                    tracer.finish(idx)
                yield batch

        return iterate

    # -- the per-layer metrics -------------------------------------------------
    def op_seconds(self) -> dict[str, float]:
        """Inclusive seconds of each op-level span (the breakdown below ``nn.forward_ops_s``)."""
        names = [*MODEL_BUILD_SPANS, *FORWARD_OP_SPANS, "nn.im2col", "nn.col2im"]
        return {name: self.tracer.total_s(name) for name in names}

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as ``name -> (value, unit)``.

        Each time metric is non-zero on every workload: op-level times that
        only one model family has (convolution vs. attention) are summed into
        ``nn.forward_ops_s``, and the per-setting workload build and the GLUE
        encoder build into ``experiments.model_build_s``; the split of each is
        in :meth:`op_seconds`, the call counts and the Chrome trace.
        """
        tr = self.tracer
        cell_s = sorted(d / 1e9 for d in tr.durations("experiments.cell"))
        fit_in_cells = _covered_by(tr, "training.fit", "experiments.cell")
        reused, fresh = self.counters["plan_reused"], self.counters["plan_fresh"]
        c = self.counters
        metrics: dict[str, tuple[float, str]] = {
            "reporting.plan_s": (tr.total_s("reporting.plan"), "s"),
            "reporting.build_s": (tr.total_s("reporting.build"), "s"),
            "reporting.write_s": (tr.total_s("reporting.write"), "s"),
            "execution.engine_self_s": (tr.self_s("execution.engine_run"), "s"),
            "execution.cache_get_s": (tr.total_s("execution.cache_get"), "s"),
            "execution.cache_gets": (tr.count("execution.cache_get"), "count"),
            "execution.cache_hits": (c["cache_hits"], "count"),
            "execution.cache_put_s": (tr.total_s("execution.cache_put"), "s"),
            "execution.cache_puts": (tr.count("execution.cache_put"), "count"),
            "execution.cells_executed": (c["cells_executed"], "count"),
            "execution.batched_cells": (c["batched_cells"], "count"),
            "execution.batched_records": (c["batched_records"], "count"),
            "execution.batched_fallbacks": (c["batched_fallbacks"], "count"),
            "experiments.cells": (len(cell_s), "count"),
            "experiments.cell_s.median": (statistics.median(cell_s) if cell_s else 0.0, "s"),
            "experiments.cell_s.p90": (_p90(cell_s), "s"),
            "experiments.cell_setup_s": (sum(cell_s) - fit_in_cells, "s"),
            "experiments.model_build_s": (_group_total_s(tr, MODEL_BUILD_SPANS), "s"),
            "training.fit_s": (tr.total_s("training.fit"), "s"),
            "training.steps": (c["steps"], "count"),
            "training.forward_s": (tr.total_s("training.forward"), "s"),
            "training.data_s": (tr.total_s("training.data"), "s"),
            "training.eval_s": (tr.total_s("training.eval"), "s"),
            "training.evals": (tr.count("training.eval"), "count"),
            "nn.backward_s": (tr.total_s("nn.backward"), "s"),
            "nn.forward_ops_s": (_group_total_s(tr, FORWARD_OP_SPANS), "s"),
            "nn.conv2d_calls": (tr.count("nn.conv2d"), "count"),
            "nn.im2col_calls": (tr.count("nn.im2col"), "count"),
            "nn.col2im_calls": (tr.count("nn.col2im"), "count"),
            "nn.linear_calls": (tr.count("nn.linear"), "count"),
            "nn.attention_calls": (tr.count("nn.attention"), "count"),
            "nn.embedding_calls": (tr.count("nn.embedding"), "count"),
            "nn.plan_compile_s": (tr.total_s("nn.plan_compile"), "s"),
            "nn.plan_captures": (tr.count("nn.plan_compile"), "count"),
            "nn.plan_reuse_ratio": (reused / (reused + fresh) if reused + fresh else 0.0, "ratio"),
            "nn.plan_arena_mb": (self.arena_max_bytes / 1e6, "MB"),
            "optim.step_s": (tr.total_s("optim.step"), "s"),
            "schedules.step_s": (tr.total_s("schedules.step"), "s"),
            "schedules.steps": (tr.count("schedules.step"), "count"),
        }
        return metrics


def _subclasses(cls: type) -> list[type]:
    found, todo = [], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in found:
            found.append(sub)
            todo.extend(sub.__subclasses__())
    return found


def _p90(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


def _group_total_s(tracer: Tracer, names: Sequence[str]) -> float:
    """Seconds inside any span of the group ``names``, each instant counted once."""
    group = {tracer._ids[name] for name in names if name in tracer._ids}
    total = 0
    for i in range(len(tracer.start)):
        if tracer.name_id[i] not in group:
            continue
        parent = tracer.parent[i]
        while parent >= 0 and tracer.name_id[parent] not in group:
            parent = tracer.parent[parent]
        if parent < 0:
            total += tracer.end[i] - tracer.start[i]
    return total / 1e9


def _covered_by(tracer: Tracer, inner: str, outer: str) -> float:
    """Seconds of outermost ``inner`` spans that lie inside some ``outer`` span."""
    inner_id = tracer._ids.get(inner)
    outer_id = tracer._ids.get(outer)
    if inner_id is None or outer_id is None:
        return 0.0
    total = 0
    for i in range(len(tracer.start)):
        if tracer.name_id[i] != inner_id or not tracer.outermost[i]:
            continue
        parent = tracer.parent[i]
        while parent >= 0 and tracer.name_id[parent] != outer_id:
            parent = tracer.parent[parent]
        if parent >= 0:
            total += tracer.end[i] - tracer.start[i]
    return total / 1e9
