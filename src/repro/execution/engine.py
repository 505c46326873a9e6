"""Deterministic experiment execution engine.

The engine takes an iterable of run configurations, consults an optional
content-addressed :class:`~repro.execution.cache.RunCache`, dispatches the
misses to an executor (a ``ProcessPoolExecutor`` for ``max_workers > 1``, an
in-process serial loop otherwise), retries transient failures once, and
streams completed records into a :class:`~repro.utils.records.RunStore`.

Results are always emitted in *plan order* — the order of the input configs —
regardless of which worker finishes first, so ``max_workers=8`` produces a
``RunStore`` record-for-record identical to serial execution.
"""

from __future__ import annotations

import os
import time
import uuid
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.execution.cache import InMemoryRunCache, RunCache, config_fingerprint
from repro.execution.context import ExecutionContext, resolve_cache_spec
from repro.utils.records import RunRecord, RunStore

__all__ = ["EngineReport", "ExperimentEngine", "run_configs"]

RunFn = Callable[[Any], RunRecord]


@dataclass(frozen=True)
class _Job:
    """One executable unit: a payload whose records fill ``indices`` in plan order.

    Plain configs map one payload to one index; seed-batched cells map one
    :class:`~repro.experiments.batched.BatchedRunCell` to every member seed's
    index.  ``fn`` must be module-level (picklable) for the process pool.
    """

    fn: Callable[[Any], RunRecord | list[RunRecord] | tuple[list[RunRecord], bool]]
    payload: Any
    indices: tuple[int, ...]


@contextmanager
def _plan_env(plan: bool | None) -> Iterator[None]:
    """Scope the ``REPRO_PLAN`` switch around one engine run.

    Graph planning is a pure execution detail (results are bitwise identical
    either way), so it travels to the workers through the environment — the
    process pool is created inside the scope and inherits it — instead of
    through the cell payloads, whose bytes are the cache fingerprint.
    """
    if plan is None:
        yield
        return
    previous = os.environ.get("REPRO_PLAN")
    os.environ["REPRO_PLAN"] = "1" if plan else "0"
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_PLAN", None)
        else:
            os.environ["REPRO_PLAN"] = previous


def _default_run_fn() -> RunFn:
    # Imported lazily: repro.experiments.runner wraps this engine, so a
    # top-level import here would be circular.  Resolving at call time also
    # lets tests monkeypatch ``repro.experiments.runner.run_single``.
    from repro.experiments.runner import run_single

    return run_single


@dataclass
class EngineReport:
    """What one :meth:`ExperimentEngine.run` call actually did."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    retried: int = 0
    #: seed-stacked cells that trained multiple configs in one pass
    batched_cells: int = 0
    #: configs whose record came out of a seed-stacked cell
    batched_records: int = 0
    #: records trained by external queue workers rather than this process
    remote: int = 0
    #: executor backend the misses ran on: "serial", "process", "queue" — or
    #: "cache" when every record was a hit and nothing executed at all
    executor: str = "cache"
    #: per-cache-tier hit/miss/store deltas for this run (empty without a
    #: cache); lets equivalence tests assert *where* records came from
    cache_tiers: dict[str, dict[str, int]] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)

    @property
    def cache_errors(self) -> int:
        """Total backend errors across every cache tier this run touched.

        Non-zero means a tier misbehaved (HTTP 5xx, transport failure on a
        put/len probe) rather than merely missing — the signal the drift
        history records so a flaky cache server shows up in the trend, not
        as a mysteriously cold cache.
        """
        return sum(int(counters.get("errors", 0)) for counters in self.cache_tiers.values())

    @property
    def retry_attempts(self) -> int:
        """Every retry this run needed, engine- and transport-level combined.

        Engine cell re-executions (:attr:`retried`) plus the per-tier
        ``retries`` counters the :class:`~repro.execution.retry.RetryPolicy`
        records on cache transports.  The drift history stores this rollup,
        so a week of "passing but limping on retries" is visible as a trend
        before it becomes an outage.
        """
        return self.retried + sum(
            int(counters.get("retries", 0)) for counters in self.cache_tiers.values()
        )

    @property
    def corrupt_entries(self) -> int:
        """Cache entries that failed integrity verification this run.

        Corrupt entries are quarantined and retrained, so the *results* stay
        correct — this counter is how silent storage rot shows up in reports
        and the drift history instead of disappearing into the miss count.
        """
        return sum(int(counters.get("corrupt", 0)) for counters in self.cache_tiers.values())

    def as_dict(self) -> dict[str, Any]:
        """Report counters as a plain dict (for logging / JSON serialisation)."""
        return {
            "total": self.total,
            "cache_hits": self.cache_hits,
            "executed": self.executed,
            "retried": self.retried,
            "batched_cells": self.batched_cells,
            "batched_records": self.batched_records,
            "remote": self.remote,
            "executor": self.executor,
            "cache_errors": self.cache_errors,
            "retry_attempts": self.retry_attempts,
            "corrupt_entries": self.corrupt_entries,
            "cache_tiers": {tier: dict(c) for tier, c in self.cache_tiers.items()},
            "failures": list(self.failures),
        }


def _tier_stats(cache: Any) -> dict[str, dict[str, int]]:
    """Snapshot the stats counters of ``cache`` and any tiers/shards it composes."""
    snapshot: dict[str, dict[str, int]] = {}

    def add(obj: Any) -> None:
        name = getattr(obj, "tier_name", type(obj).__name__)
        base, n = name, 1
        while name in snapshot:
            n += 1
            name = f"{base}{n}"
        stats = getattr(obj, "stats", None)
        snapshot[name] = stats.as_dict() if stats is not None else {}

    if cache is None:
        return snapshot
    add(cache)
    for member in getattr(cache, "tiers", None) or []:
        add(member)
    for member in getattr(cache, "shards", None) or []:
        add(member)
    return snapshot


def _tier_delta(
    before: dict[str, dict[str, int]], after: dict[str, dict[str, int]]
) -> dict[str, dict[str, int]]:
    """Per-tier counter difference ``after - before`` (what *this run* did)."""
    return {
        name: {key: value - before.get(name, {}).get(key, 0) for key, value in counters.items()}
        for name, counters in after.items()
    }


class ExperimentEngine:
    """Run experiment cells through a cache-aware, optionally parallel executor.

    Parameters
    ----------
    cache:
        A :class:`RunCache` (or any object with its ``get``/``put`` surface,
        e.g. :class:`~repro.execution.cache.InMemoryRunCache`), a cache
        directory path, or ``None`` to disable caching entirely.
    max_workers:
        ``1`` (the default) runs every miss serially in-process — this is also
        the mode tests use, since it keeps tracebacks trivial.  Larger values
        fan misses out to a ``ProcessPoolExecutor``; configs and the run
        function must then be picklable.
    retries:
        How many times a failed cell is re-executed before the error
        propagates.  The default of 1 absorbs transient failures (a worker
        killed by the OS, a flaky filesystem) without masking real bugs.
    run_fn:
        Maps one config to one :class:`RunRecord`.  Defaults to
        :func:`repro.experiments.runner.run_single`.  Must be a module-level
        function when ``max_workers > 1``.
    batch_seeds:
        Stack cache-missing cells that differ only in their seed into one
        seed-batched training pass
        (:func:`repro.experiments.batched.run_batched_cell`).  Records — and
        therefore cache entries, which stay keyed per seed — are bitwise
        identical to serial execution; only wall-clock changes.  Off by
        default.
    plan:
        Graph planning (:mod:`repro.nn.plan`) for every cell this run
        executes: ``True``/``False`` pin the ``REPRO_PLAN`` switch for the
        duration of :meth:`run` (workers inherit it through the
        environment), ``None`` (default) leaves the ambient setting — on
        unless ``REPRO_PLAN`` is falsy — untouched.  Records are bitwise
        identical either way; like ``batch_seeds`` it only changes
        wall-clock (and allocation) behaviour.
    context:
        An :class:`~repro.execution.context.ExecutionContext` supplying every
        field above (plus the executor backend) in one object — the preferred
        construction path.  When given, the legacy kwargs must stay at their
        defaults.
    executor:
        Backend override: ``"auto"`` (serial for one worker, else a process
        pool), ``"serial"``, ``"process"``, or ``"queue"`` — the distributed
        work-queue backend, which submits misses as leased jobs and collects
        records through the shared cache (see :mod:`repro.execution.queue`).
    queue / queue_inline:
        Work queue (or sqlite path) for the ``queue`` executor, and whether
        this engine also leases jobs itself (``True``) or leaves training to
        external ``repro worker`` processes (``False``).
    """

    def __init__(
        self,
        cache: RunCache | InMemoryRunCache | str | Path | None = None,
        max_workers: int = 1,
        retries: int = 1,
        run_fn: RunFn | None = None,
        batch_seeds: bool = False,
        plan: bool | None = None,
        context: ExecutionContext | None = None,
        executor: str = "auto",
        queue: Any = None,
        queue_inline: bool = True,
        poll_interval: float = 0.05,
        retry_policy: Any = None,
    ) -> None:
        if context is not None:
            cache = context.resolve_cache()
            max_workers = context.workers
            retries = context.retries
            batch_seeds = context.batch_seeds
            plan = context.plan
            executor = context.executor
            queue = context.resolve_queue()
            queue_inline = context.queue_inline
            if context.retry_policy is not None:
                retry_policy = context.retry_policy
        if max_workers < 1:
            raise ValueError(f"max_workers must be >= 1, got {max_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        from repro.execution.context import EXECUTORS

        if executor not in EXECUTORS:
            raise ValueError(f"executor must be one of {EXECUTORS}, got {executor!r}")
        from repro.execution.retry import RetryPolicy

        if retry_policy is None:
            # The legacy ``retries`` counter becomes the attempt budget of a
            # full policy: same number of re-executions, now with backoff.
            retry_policy = RetryPolicy.for_attempts(retries + 1)
        elif not isinstance(retry_policy, RetryPolicy):
            raise TypeError(f"retry_policy must be a RetryPolicy, got {retry_policy!r}")
        else:
            # An explicit policy *is* the retry budget; keep the legacy
            # counter (used for queue max_attempts) consistent with it.
            retries = retry_policy.max_attempts - 1
        self.retry_policy = retry_policy
        self.cache = resolve_cache_spec(cache)
        self.max_workers = max_workers
        self.retries = retries
        self.run_fn = run_fn
        self.batch_seeds = batch_seeds
        self.plan = plan
        self.executor = executor
        if isinstance(queue, (str, Path)):
            from repro.execution.queue import WorkQueue

            queue = WorkQueue(queue)
        self.queue = queue
        self.queue_inline = queue_inline
        self.poll_interval = poll_interval
        if self.executor == "queue":
            if self.queue is None:
                raise ValueError("executor='queue' requires a work queue (path or WorkQueue)")
            if self.cache is None:
                raise ValueError("executor='queue' requires a shared cache to collect records")
        self.last_report = EngineReport()

    # -- execution -----------------------------------------------------------
    def run(self, configs: Iterable[Any], store: RunStore | None = None) -> RunStore:
        """Execute every config (or fetch it from the cache) and collect records.

        Returns ``store`` (a fresh :class:`RunStore` unless one is passed in)
        with one record per config, in config order.
        """
        plan: Sequence[Any] = list(configs)
        # Bound immediately (and mutated in place) so the report survives a
        # raised failure, not just a clean run.
        report = self.last_report = EngineReport(total=len(plan))
        results: list[RunRecord | None] = [None] * len(plan)
        tier_before = _tier_stats(self.cache)

        try:
            pending: list[int] = []
            for idx, config in enumerate(plan):
                record = self.cache.get(config) if self.cache is not None else None
                if record is not None:
                    results[idx] = record
                    report.cache_hits += 1
                else:
                    pending.append(idx)

            if pending:
                run_fn = self.run_fn if self.run_fn is not None else _default_run_fn()
                jobs = self._make_jobs(run_fn, plan, pending, report)
                backend = self._resolve_backend(len(jobs))
                report.executor = backend
                with _plan_env(self.plan):
                    if backend == "queue":
                        self._run_queue(plan, jobs, results, report)
                    elif backend == "serial":
                        self._run_serial(plan, jobs, results, report)
                    else:
                        self._run_parallel(plan, jobs, results, report)
        finally:
            report.cache_tiers = _tier_delta(tier_before, _tier_stats(self.cache))

        if store is None:
            store = RunStore()
        for record in results:
            assert record is not None
            store.add(record)
        return store

    def _resolve_backend(self, num_jobs: int) -> str:
        """Pick the executor backend for this run's cache misses.

        ``auto`` keeps the historical behaviour: serial for one worker or a
        single job, a process pool otherwise.  Explicit names pin the backend.
        """
        if self.executor != "auto":
            return self.executor
        return "serial" if self.max_workers == 1 or num_jobs <= 1 else "process"

    def _run_fn_supports_batching(self) -> bool:
        """Whether seed-grouping is numerically equivalent to ``self.run_fn``.

        ``run_batched_cell`` reproduces :func:`repro.experiments.runner.run_single`
        bit for bit, so batching is only valid when that is what ``run_fn``
        would do for a :class:`RunConfig` anyway — the default, or the
        registry's :func:`~repro.reporting.registry.run_cell` dispatcher.  A
        custom or monkeypatched ``run_fn`` falls back to per-cell execution so
        the 'records identical regardless of options' contract holds.
        """
        if self.run_fn is None:
            return True
        from repro.experiments.runner import run_single
        from repro.reporting.registry import run_cell

        return self.run_fn in (run_single, run_cell)

    def _make_jobs(
        self, run_fn: RunFn, plan: Sequence[Any], pending: Sequence[int], report: EngineReport
    ) -> list[_Job]:
        """Turn cache misses into executable jobs, seed-batching when enabled.

        A job maps one payload to the records of one or more plan indices.
        Without ``batch_seeds`` every pending config is its own job; with it,
        batchable configs sharing a seedless fingerprint merge into one
        :class:`~repro.experiments.batched.BatchedRunCell` job.  The queue
        backend always ships plain per-config jobs: queue workers dispatch
        through the registry's cell runner, which speaks configs, not
        seed-batched cells.
        """
        if self.executor == "queue" or not self.batch_seeds or not self._run_fn_supports_batching():
            return [_Job(run_fn, plan[idx], (idx,)) for idx in pending]
        # Imported lazily for the same reason as _default_run_fn: the batched
        # runner sits on top of repro.experiments, which imports this engine.
        from repro.experiments.batched import group_batchable, run_batched_job

        groups, singles = group_batchable([(idx, plan[idx]) for idx in pending])
        jobs: list[_Job] = [_Job(run_fn, plan[idx], (idx,)) for idx in singles]
        for cell, indices in groups:
            jobs.append(_Job(run_batched_job, cell, tuple(indices)))
        # deterministic execution order: by first plan index
        jobs.sort(key=lambda job: job.indices[0])
        return jobs

    def _complete(
        self,
        plan: Sequence[Any],
        job: "_Job",
        outcome: RunRecord | list[RunRecord] | tuple[list[RunRecord], bool],
        results: list[RunRecord | None],
        report: EngineReport,
    ) -> None:
        # Persist immediately, not after the whole batch: a later failure (or
        # Ctrl-C) must not discard training work that already finished — the
        # next invocation should pick up incrementally from the cache.
        if isinstance(outcome, tuple):
            # a seed-batched job reports (records, stacked); the counters only
            # reflect cells whose stacked pass actually ran, so a silent
            # regression to the serial fallback is visible in the report
            records, stacked = outcome
            if stacked:
                report.batched_cells += 1
                report.batched_records += len(records)
        else:
            records = outcome if isinstance(outcome, list) else [outcome]
        if len(records) != len(job.indices):
            raise RuntimeError(
                f"job produced {len(records)} records for {len(job.indices)} configs"
            )
        for idx, record in zip(job.indices, records):
            results[idx] = record
            report.executed += 1
            if self.cache is not None:
                # Seed-batched cells are split back into per-seed records here:
                # each one is cached under its own per-seed config fingerprint,
                # so later runs with any subset of the seeds hit the cache.
                self.cache.put(plan[idx], record)

    def _run_serial(
        self,
        plan: Sequence[Any],
        jobs: Sequence["_Job"],
        results: list[RunRecord | None],
        report: EngineReport,
    ) -> None:
        def _count(retry_index: int, exc: BaseException, delay: float) -> None:
            report.retried += 1

        for job in jobs:
            try:
                outcome = self.retry_policy.call(
                    # bind the loop variable: the lambda runs inside .call()
                    lambda job=job: job.fn(job.payload),
                    key=f"cell:{job.indices[0]}",
                    on_retry=_count,
                )
            except Exception as exc:
                report.failures.extend(f"cell {idx}: {exc!r}" for idx in job.indices)
                raise
            self._complete(plan, job, outcome, results, report)

    def _run_parallel(
        self,
        plan: Sequence[Any],
        jobs: Sequence["_Job"],
        results: list[RunRecord | None],
        report: EngineReport,
    ) -> None:
        attempts: dict[int, int] = {i: 0 for i in range(len(jobs))}
        try:
            with ProcessPoolExecutor(max_workers=min(self.max_workers, len(jobs))) as pool:
                in_flight: dict[Future, int] = {
                    pool.submit(job.fn, job.payload): i for i, job in enumerate(jobs)
                }
                while in_flight:
                    done, _ = wait(list(in_flight), return_when=FIRST_COMPLETED)
                    for future in done:
                        job_idx = in_flight.pop(future)
                        job = jobs[job_idx]
                        exc = future.exception()
                        if exc is None:
                            try:
                                self._complete(plan, job, future.result(), results, report)
                            except Exception:
                                # a malformed outcome is fatal — don't let
                                # queued/in-flight cells train for nothing
                                pool.shutdown(wait=False, cancel_futures=True)
                                raise
                        elif isinstance(exc, BrokenProcessPool):
                            raise exc
                        elif attempts[job_idx] < self.retry_policy.max_attempts - 1:
                            attempts[job_idx] += 1
                            report.retried += 1
                            # The policy's backoff is deliberately skipped here:
                            # sleeping in the dispatcher would stall every other
                            # in-flight completion, and pool-worker restart
                            # latency already spaces the attempts out.
                            in_flight[pool.submit(job.fn, job.payload)] = job_idx
                        else:
                            report.failures.extend(f"cell {idx}: {exc!r}" for idx in job.indices)
                            # Don't let queued/in-flight cells train for minutes
                            # only to throw the results away.
                            pool.shutdown(wait=False, cancel_futures=True)
                            raise exc
        except BrokenProcessPool:
            # A worker died hard enough to take the pool with it (OOM kill,
            # segfault).  Resubmitting to the broken pool cannot work, so the
            # surviving jobs fall back to the serial executor — this *is*
            # their transient-failure retry.
            remaining = [job for job in jobs if results[job.indices[0]] is None]
            report.retried += len(remaining)
            self._run_serial(plan, remaining, results, report)

    def _run_queue(
        self,
        plan: Sequence[Any],
        jobs: Sequence["_Job"],
        results: list[RunRecord | None],
        report: EngineReport,
    ) -> None:
        """Submit misses to the work queue; collect records through the cache.

        Every miss becomes a leased job (single-flight by fingerprint, so
        concurrent engines sharing the queue submit each unique cell once).
        With ``queue_inline`` this engine leases and runs jobs itself — the
        single-process posture; without it, training is left entirely to
        external ``repro worker`` processes and this loop only watches job
        states, pulling finished records out of the shared cache.
        """
        queue = self.queue
        owner = f"engine:{os.getpid()}:{uuid.uuid4().hex[:6]}"
        max_attempts = self.retry_policy.max_attempts
        job_ids = {i: queue.submit(job.payload, max_attempts=max_attempts) for i, job in enumerate(jobs)}
        pending = set(range(len(jobs)))
        while pending:
            queue.requeue_expired()
            progressed = False
            if self.queue_inline:
                leased = queue.lease(owner)
                if leased is not None:
                    progressed = True
                    self._run_leased(plan, jobs, leased, results, report, queue, owner)
            # inline execution fills results directly; settle those first
            for i in list(pending):
                if results[jobs[i].indices[0]] is not None:
                    pending.discard(i)
                    progressed = True
            states = queue.states([job_ids[i] for i in pending])
            for i in sorted(pending):
                state = states.get(job_ids[i])
                if state == "done":
                    record = self.cache.get(jobs[i].payload)
                    if record is None:
                        # Done without a published record should be impossible
                        # (workers publish before completing) — re-enqueue the
                        # lost result rather than hanging forever.
                        job_ids[i] = queue.submit(jobs[i].payload, max_attempts=max_attempts)
                        continue
                    for idx in jobs[i].indices:
                        results[idx] = record
                    report.remote += len(jobs[i].indices)
                    pending.discard(i)
                    progressed = True
                elif state == "dead":
                    letters = {dead["fingerprint"]: dead for dead in queue.dead_letters()}
                    error = letters.get(config_fingerprint(jobs[i].payload), {}).get(
                        "last_error", "unknown error"
                    )
                    message = (
                        f"cell {jobs[i].indices[0]}: dead-lettered after "
                        f"{max_attempts} attempts: {error}"
                    )
                    report.failures.append(message)
                    raise RuntimeError(message)
            if pending and not progressed:
                time.sleep(self.poll_interval)

    def _run_leased(
        self,
        plan: Sequence[Any],
        jobs: Sequence["_Job"],
        leased: Any,
        results: list[RunRecord | None],
        report: EngineReport,
        queue: Any,
        owner: str,
    ) -> None:
        """Run one inline-leased job; publish to the cache and complete the lease.

        The leased job is usually one of this engine's own, matched by
        fingerprint so its ``run_fn`` (possibly custom) applies; a foreign
        job — submitted by another engine sharing the queue — is executed
        through the registry's generic cell runner instead (work stealing).
        """
        mine: "_Job | None" = None
        for job in jobs:
            if config_fingerprint(job.payload) == leased.fingerprint:
                mine = job
                break
        try:
            if mine is not None:
                outcome = mine.fn(mine.payload)
            else:
                from repro.reporting.registry import run_cell

                outcome = run_cell(leased.config)
        except Exception as exc:
            state = queue.fail(leased.id, owner, repr(exc))
            if state == "dead":
                indices = mine.indices if mine is not None else ()
                report.failures.extend(f"cell {idx}: {exc!r}" for idx in indices)
                raise
            report.retried += 1
            return
        if mine is not None:
            self._complete(plan, mine, outcome, results, report)
        else:
            self.cache.put(leased.config, outcome)
        queue.complete(leased.id, owner)


def run_configs(
    configs: Iterable[Any],
    max_workers: int = 1,
    cache_dir: str | Path | None = None,
    run_fn: RunFn | None = None,
    store: RunStore | None = None,
    batch_seeds: bool = False,
) -> RunStore:
    """One-shot convenience wrapper: build an engine, run the configs."""
    engine = ExperimentEngine(
        cache=cache_dir, max_workers=max_workers, run_fn=run_fn, batch_seeds=batch_seeds
    )
    return engine.run(configs, store=store)
