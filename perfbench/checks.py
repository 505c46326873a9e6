"""Output checks of the benchmark.

Every check takes plain data (record dicts as ``RunRecord.to_dict`` gives
them, report JSON, file bytes, step counts) and raises :class:`CheckError`
with a one-line reason when the program's output is wrong.  The expected
values are computed here, apart from the program: the REX formula, the GLUE
means and the step counts do not call into ``repro``.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from typing import Any, Iterable, Mapping, Sequence

#: metrics that are percentages, in [0, 100]
PERCENT_METRICS = frozenset({"error", "accuracy", "f1", "map"})
#: GLUE metrics that are correlations times 100, in [-100, 100]
CORRELATION_METRICS = frozenset({"matthews", "pearson_spearman"})
#: relative tolerance of the REX learning-rate check
REX_RTOL = 1e-12


class CheckError(Exception):
    """The program's output failed one of the benchmark's checks."""


def _label(record: Mapping[str, Any]) -> str:
    extra = record.get("extra", {})
    task = f" task={extra['task']}" if "task" in extra else ""
    return (
        f"{record['setting']}/{record['optimizer']}/{record['schedule']}"
        f"@{record['budget_fraction']:g} seed={record['seed']}{task}"
    )


def check_complete(found: Sequence[tuple[str, Mapping[str, Any] | None]]) -> None:
    """Every planned cell has a record: ``found`` pairs a cell label with its record or None."""
    missing = [label for label, record in found if record is None]
    if missing:
        raise CheckError(f"{len(missing)} planned cells have no record, first: {missing[0]}")


def check_seeds(records: Sequence[Mapping[str, Any]], seeds: Sequence[int]) -> None:
    """Each cell (everything but the seed) has exactly one record per trial seed."""
    groups: dict[tuple, list[int]] = defaultdict(list)
    for record in records:
        extra = record.get("extra", {})
        key = (
            record["setting"], record["optimizer"], record["schedule"],
            record["budget_fraction"], extra.get("task"),
        )
        groups[key].append(record["seed"])
    for key, got in groups.items():
        if sorted(got) != sorted(seeds):
            raise CheckError(f"cell {key} has seeds {sorted(got)}, expected {sorted(seeds)}")


def _check_range(name: str, value: float, where: str) -> None:
    if not math.isfinite(value):
        raise CheckError(f"{where}: {name} = {value} is not finite")
    if name in PERCENT_METRICS and not 0.0 <= value <= 100.0:
        raise CheckError(f"{where}: {name} = {value} outside [0, 100]")
    if name in CORRELATION_METRICS and not -100.0 <= value <= 100.0:
        raise CheckError(f"{where}: {name} = {value} outside [-100, 100]")


def check_values(records: Iterable[Mapping[str, Any]]) -> None:
    """Every metric is finite and in range, and no record diverged."""
    for record in records:
        where = _label(record)
        extra = record.get("extra", {})
        if extra.get("diverged"):
            raise CheckError(f"{where}: diverged")
        _check_range(record["metric_name"], float(record["metric"]), where)
        for score in extra.get("scores", ()):
            _check_range(record["metric_name"], float(score), where)


def check_budget_monotone(records: Iterable[Mapping[str, Any]]) -> None:
    """Within (setting, optimizer, schedule, seed), total_steps never drops as the budget grows."""
    groups: dict[tuple, list[tuple[float, int]]] = defaultdict(list)
    for record in records:
        extra = record.get("extra", {})
        if "total_steps" not in extra:
            continue  # GLUE cells all train the full three epochs
        key = (record["setting"], record["optimizer"], record["schedule"], record["seed"])
        groups[key].append((float(record["budget_fraction"]), int(extra["total_steps"])))
    for key, points in groups.items():
        points.sort()
        for (f0, s0), (f1, s1) in zip(points, points[1:]):
            if s1 < s0:
                raise CheckError(
                    f"{key}: total_steps drops from {s0} at budget {f0:g} to {s1} at {f1:g}"
                )


def glue_means(records: Iterable[Mapping[str, Any]]) -> dict[str, list[float]]:
    """Mean GLUE score per schedule and epoch: per-task scores averaged over seeds, then tasks."""
    per_schedule: dict[str, dict[str, list[list[float]]]] = defaultdict(lambda: defaultdict(list))
    for record in records:
        per_schedule[record["schedule"]][record["extra"]["task"]].append(
            [float(s) for s in record["extra"]["scores"]]
        )
    means: dict[str, list[float]] = {}
    for schedule, tasks in per_schedule.items():
        task_means = [
            [sum(trial[e] for trial in trials) / len(trials) for e in range(len(trials[0]))]
            for trials in tasks.values()
        ]
        epochs = min(len(m) for m in task_means)
        means[schedule] = [math.fsum(m[e] for m in task_means) / len(task_means) for e in range(epochs)]
    return means


def check_glue_report(report: Mapping[str, Any], records: Iterable[Mapping[str, Any]]) -> None:
    """Each mean score in the Table 10 report equals the mean of the records' per-task scores."""
    expected = glue_means(records)
    rows = {row[0]: row[1:] for row in report["tables"][0]["rows"]}
    if sorted(rows) != sorted(expected):
        raise CheckError(f"table10 rows {sorted(rows)} != record schedules {sorted(expected)}")
    for schedule, means in expected.items():
        want = [f"{m:.1f}" for m in means]
        if rows[schedule] != want:
            raise CheckError(f"table10 {schedule}: report {rows[schedule]} != records {want}")
    rex = report["reproduced"].get("rex@3ep")
    if "rex" in expected and not math.isclose(rex, expected["rex"][-1], rel_tol=1e-9):
        raise CheckError(f"table10 rex@3ep: report {rex} != records {expected['rex'][-1]}")


def check_same_files(cold: Mapping[str, bytes], other: Mapping[str, bytes], what: str) -> None:
    """Two report directories hold the same file names with identical bytes."""
    if sorted(cold) != sorted(other):
        raise CheckError(f"{what}: report files {sorted(other)} != {sorted(cold)}")
    for name, data in cold.items():
        if other[name] != data:
            raise CheckError(f"{what}: {name} differs from the cold report")


def check_all_cached(cli_output: str, artifacts: Sequence[str]) -> None:
    """The warm report trained no cell: every artifact line says all cells were cached."""
    for name in artifacts:
        lines = [line for line in cli_output.splitlines() if line.startswith(f"{name}:")]
        if len(lines) != 1 or not lines[0].endswith("(all cells cached)"):
            raise CheckError(f"warm report of {name} trained cells: {lines}")


def expected_steps(record: Mapping[str, Any], steps_per_epoch: int, max_epochs: int | None) -> int:
    """Optimizer steps a record's cell must train.

    Per-setting cells carry their budget (``total_steps + warmup_steps``).
    GLUE cells carry none: they train ``max_epochs`` full epochs and score
    each one.
    """
    extra = record["extra"]
    if "total_steps" in extra:
        return int(extra["total_steps"]) + int(extra["warmup_steps"])
    if max_epochs is None or len(extra["scores"]) != max_epochs:
        raise CheckError(f"{_label(record)}: {len(extra['scores'])} epoch scores, expected {max_epochs}")
    return steps_per_epoch * max_epochs


def check_step_counts(entries: Iterable[Mapping[str, Any]]) -> None:
    """Optimizer steps counted around each cell equal what its record says it trained.

    Each entry holds ``record``, ``counted`` (optimizer steps seen from
    outside), ``steps_per_epoch`` and ``max_epochs``.
    """
    for entry in entries:
        record = entry["record"]
        want = expected_steps(record, entry["steps_per_epoch"], entry.get("max_epochs"))
        if entry["counted"] != want:
            raise CheckError(f"{_label(record)}: counted {entry['counted']} optimizer steps, expected {want}")


def rex_lr(t: int, total: int, eta0: float) -> float:
    """The paper's REX learning rate at step ``t`` of ``total``."""
    remaining = 1.0 - t / total
    return eta0 * remaining / (0.5 + 0.5 * remaining)


def check_rex_lrs(lrs: Sequence[float], eta0: float, total: int, warmup: int, label: str) -> None:
    """After ``warmup`` steps, the rates a REX cell trained with follow the REX formula."""
    if len(lrs) != warmup + total:
        raise CheckError(f"{label}: {len(lrs)} learning rates for {warmup} + {total} steps")
    for t in range(total):
        want = rex_lr(t, total, eta0)
        got = lrs[warmup + t]
        if abs(got - want) > REX_RTOL * abs(want):
            raise CheckError(f"{label}: REX lr at step {t} is {got!r}, formula gives {want!r}")


def check_same_record(batched: Mapping[str, Any], serial: Mapping[str, Any]) -> None:
    """A seed-batched record is bitwise equal to the same cell retrained serially."""
    a = json.dumps(batched, sort_keys=True)
    b = json.dumps(serial, sort_keys=True)
    if a != b:
        raise CheckError(f"{_label(batched)}: seed-batched record differs from the serial retrain")


def check_chrome_trace(text: str, num_spans: int) -> None:
    """The trace file is Chrome trace-event JSON holding one complete event per span."""
    try:
        trace = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CheckError(f"trace is not JSON: {exc}") from None
    events = trace.get("traceEvents") if isinstance(trace, dict) else None
    if not isinstance(events, list) or len(events) != num_spans:
        raise CheckError(f"trace holds {len(events) if isinstance(events, list) else 'no'} events, "
                         f"expected {num_spans}")
    for event in events:
        if event.get("ph") != "X" or not isinstance(event.get("ts"), (int, float)) or event.get("dur", -1) < 0:
            raise CheckError(f"malformed trace event {event}")
