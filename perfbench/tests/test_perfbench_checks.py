"""Each output check of the benchmark accepts good output and rejects damaged output.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
from checks import CheckError  # noqa: E402


def _record(schedule="rex", budget=1.0, seed=0, total=10, warmup=0, metric=50.0, **extra):
    return {
        "setting": "YOLO-VOC",
        "optimizer": "adam",
        "schedule": schedule,
        "budget_fraction": budget,
        "learning_rate": 1e-3,
        "seed": seed,
        "metric": metric,
        "metric_name": "map",
        "higher_is_better": True,
        "extra": {"total_steps": total, "warmup_steps": warmup, "diverged": False, **extra},
    }


def _glue_record(schedule, task, scores, seed=0, metric_name="accuracy"):
    return {
        "setting": "BERT-GLUE",
        "optimizer": "adamw",
        "schedule": schedule,
        "budget_fraction": 1.0,
        "learning_rate": 3e-3,
        "seed": seed,
        "metric": scores[-1],
        "metric_name": metric_name,
        "higher_is_better": True,
        "extra": {"task": task, "scores": list(scores)},
    }


# -- REX learning rates --------------------------------------------------------


def test_rex_check_accepts_the_program_schedule_with_warmup():
    from repro.schedules import REXSchedule, WarmupWrapper

    eta0, total, warmup = 0.01, 37, 4
    schedule = WarmupWrapper(REXSchedule(None, total, base_lr=eta0), warmup_steps=warmup, warmup_start_lr=eta0 * 0.1)
    lrs = [schedule.step() for _ in range(warmup + total)]
    checks.check_rex_lrs(lrs, eta0, total, warmup, "rex")


def test_rex_check_rejects_a_rate_nudged_off_the_formula():
    eta0, total = 0.003, 30
    lrs = [checks.rex_lr(t, total, eta0) for t in range(total)]
    checks.check_rex_lrs(lrs, eta0, total, 0, "rex")
    nudged = list(lrs)
    nudged[17] *= 1 + 1e-9
    with pytest.raises(CheckError, match="step 17"):
        checks.check_rex_lrs(nudged, eta0, total, 0, "rex")


def test_rex_check_rejects_a_linear_schedule_and_a_short_sequence():
    eta0, total = 0.1, 20
    linear = [eta0 * (1 - t / total) for t in range(total)]
    with pytest.raises(CheckError):
        checks.check_rex_lrs(linear, eta0, total, 0, "linear")
    with pytest.raises(CheckError, match="learning rates"):
        checks.check_rex_lrs(linear[:-1], eta0, total, 0, "short")


def test_rex_formula_matches_the_paper_endpoints():
    assert checks.rex_lr(0, 10, 0.5) == 0.5
    # halfway: (1/2) / (3/4) = 2/3 of eta0
    assert checks.rex_lr(5, 10, 0.3) == pytest.approx(0.2, rel=1e-15)


# -- Table 10 means -------------------------------------------------------------


def _glue_records():
    return [
        _glue_record("rex", "CoLA", [10.0, 20.0, 30.0]),
        _glue_record("rex", "SST-2", [60.0, 70.0, 80.25]),
        _glue_record("linear", "CoLA", [11.0, 21.0, 31.0]),
        _glue_record("linear", "SST-2", [61.0, 71.0, 81.0]),
    ]


def _program_table10_report(records):
    from repro.reporting.registry import SCALES, get_artifact
    from repro.reporting.report import render_json
    from repro.utils.records import RunRecord, RunStore

    store = RunStore(RunRecord.from_dict(r) for r in records)
    scale = SCALES["small"]
    return json.loads(render_json(get_artifact("table10").build(store, scale), scale))


def test_glue_check_accepts_the_program_report():
    records = _glue_records()
    report = _program_table10_report(records)
    checks.check_glue_report(report, records)
    assert checks.glue_means(records)["rex"] == [35.0, 45.0, 55.125]


def test_glue_check_rejects_a_mean_off_by_a_tenth():
    records = _glue_records()
    report = _program_table10_report(records)
    damaged = copy.deepcopy(report)
    row = next(r for r in damaged["tables"][0]["rows"] if r[0] == "linear")
    row[2] = f"{float(row[2]) + 0.1:.1f}"
    with pytest.raises(CheckError, match="linear"):
        checks.check_glue_report(damaged, records)

    damaged = copy.deepcopy(report)
    damaged["reproduced"]["rex@3ep"] += 0.1
    with pytest.raises(CheckError, match="rex@3ep"):
        checks.check_glue_report(damaged, records)


def test_glue_check_rejects_records_that_do_not_match_the_report():
    records = _glue_records()
    report = _program_table10_report(records)
    shifted = copy.deepcopy(records)
    shifted[3]["extra"]["scores"][0] += 0.2  # linear epoch-1 mean moves by 0.1
    with pytest.raises(CheckError):
        checks.check_glue_report(report, shifted)


def test_glue_means_average_seeds_before_tasks():
    records = [
        _glue_record("rex", "CoLA", [0.0, 0.0, 0.0], seed=0),
        _glue_record("rex", "CoLA", [10.0, 10.0, 10.0], seed=1),
        _glue_record("rex", "RTE", [40.0, 40.0, 40.0], seed=0),
        _glue_record("rex", "RTE", [40.0, 40.0, 40.0], seed=1),
    ]
    assert checks.glue_means(records)["rex"] == [22.5, 22.5, 22.5]


# -- step counts -------------------------------------------------------------------


def test_step_check_rejects_a_record_with_one_step_dropped():
    entry = {"record": _record(total=10, warmup=2), "counted": 12, "steps_per_epoch": 3, "max_epochs": None}
    checks.check_step_counts([entry])
    with pytest.raises(CheckError, match="counted 11"):
        checks.check_step_counts([{**entry, "counted": 11}])
    dropped = copy.deepcopy(entry)
    dropped["record"]["extra"]["total_steps"] = 9
    with pytest.raises(CheckError, match="expected 11"):
        checks.check_step_counts([dropped])


def test_step_check_for_glue_cells_uses_epochs_times_epoch_length():
    entry = {
        "record": _glue_record("rex", "RTE", [1.0, 2.0, 3.0]),
        "counted": 15,
        "steps_per_epoch": 5,
        "max_epochs": 3,
    }
    checks.check_step_counts([entry])
    with pytest.raises(CheckError):
        checks.check_step_counts([{**entry, "counted": 14}])
    with pytest.raises(CheckError, match="epoch scores"):
        checks.check_step_counts([{**entry, "record": _glue_record("rex", "RTE", [1.0, 2.0])}])


# -- report files -------------------------------------------------------------------


def test_file_check_rejects_a_warm_report_differing_by_one_byte():
    cold = {"table9.md": b"# Table 9\n| a | 1.44 |\n", "table9.json": b'{"x": 1}\n'}
    checks.check_same_files(cold, dict(cold), "warm report")
    damaged = dict(cold)
    data = bytearray(cold["table9.md"])
    data[-3] ^= 0x01
    damaged["table9.md"] = bytes(data)
    with pytest.raises(CheckError, match="table9.md"):
        checks.check_same_files(cold, damaged, "warm report")
    with pytest.raises(CheckError, match="report files"):
        checks.check_same_files(cold, {"table9.md": cold["table9.md"]}, "warm report")


def test_cached_check_rejects_a_warm_report_that_trained():
    out = "table9: wrote reports/table9.md and reports/table9.json (all cells cached)\n"
    checks.check_all_cached(out, ["table9"])
    with pytest.raises(CheckError):
        checks.check_all_cached(out.replace("all cells cached", "3 cells trained"), ["table9"])
    with pytest.raises(CheckError):
        checks.check_all_cached("", ["table9"])


# -- records ---------------------------------------------------------------------------


def test_complete_check_rejects_a_missing_cell():
    found = [("cell-a", _record()), ("cell-b", _record(seed=1))]
    checks.check_complete(found)
    with pytest.raises(CheckError, match="cell-b"):
        checks.check_complete([found[0], ("cell-b", None)])


def test_seed_check_rejects_a_cell_missing_one_seed():
    records = [_record(seed=s) for s in (1, 4, 7)]
    checks.check_seeds(records, (1, 4, 7))
    with pytest.raises(CheckError, match="seeds"):
        checks.check_seeds(records[:2], (1, 4, 7))


def test_value_check_rejects_divergence_and_out_of_range_metrics():
    checks.check_values([_record(metric=3.5), _glue_record("rex", "CoLA", [-1.1, 18.0, 0.3], metric_name="matthews")])
    diverged = _record()
    diverged["extra"]["diverged"] = True
    for bad in (_record(metric=float("inf")), _record(metric=100.5), _record(metric=-0.1), diverged):
        with pytest.raises(CheckError):
            checks.check_values([bad])
    with pytest.raises(CheckError):
        checks.check_values([_glue_record("rex", "RTE", [50.0, 101.0, 50.0])])


def test_budget_check_rejects_fewer_steps_at_a_larger_budget():
    records = [_record(budget=b, total=t) for b, t in ((0.01, 1), (0.1, 3), (0.5, 12), (1.0, 24))]
    checks.check_budget_monotone(records)
    records[2]["extra"]["total_steps"] = 2
    with pytest.raises(CheckError, match="drops"):
        checks.check_budget_monotone(records)


def test_record_check_rejects_a_last_bit_difference():
    batched = _record(metric=2.3456)
    checks.check_same_record(batched, copy.deepcopy(batched))
    serial = copy.deepcopy(batched)
    serial["metric"] = math.nextafter(batched["metric"], math.inf)
    assert serial["metric"] != batched["metric"]
    with pytest.raises(CheckError):
        checks.check_same_record(batched, serial)
