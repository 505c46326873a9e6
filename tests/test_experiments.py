"""Tests for settings, workload assembly, the runner, LR tuning and table formatting."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    PAPER_SETTINGS,
    RunConfig,
    SETTINGS,
    available_settings,
    build_workload,
    format_setting_table,
    format_rank_table,
    format_top_finish_table,
    get_setting,
    lr_grid,
    run_budget_sweep,
    run_setting_table,
    run_single,
    setting_table_rows,
    top_finish_table,
    tune_learning_rate,
)
from repro.utils.records import RunRecord, RunStore

TINY = dict(size_scale=0.12, epoch_scale=0.1)


class TestSettings:
    def test_table3_settings_present(self):
        assert set(PAPER_SETTINGS) == {
            "RN20-CIFAR10",
            "RN50-IMAGENET",
            "VGG16-CIFAR100",
            "WRN-STL10",
            "VAE-MNIST",
            "YOLO-VOC",
            "BERT-GLUE",
        }
        for name in PAPER_SETTINGS:
            assert name in available_settings()

    def test_paper_max_epochs_match_table3(self):
        assert SETTINGS["RN20-CIFAR10"].paper_max_epochs == 300
        assert SETTINGS["RN50-IMAGENET"].paper_max_epochs == 90
        assert SETTINGS["VGG16-CIFAR100"].paper_max_epochs == 300
        assert SETTINGS["WRN-STL10"].paper_max_epochs == 200
        assert SETTINGS["VAE-MNIST"].paper_max_epochs == 200
        assert SETTINGS["YOLO-VOC"].paper_max_epochs == 50
        assert SETTINGS["BERT-GLUE"].paper_max_epochs == 3

    def test_protocol_details(self):
        assert SETTINGS["YOLO-VOC"].warmup_epochs == 2
        assert SETTINGS["YOLO-VOC"].optimizers == ("adam",)
        assert SETTINGS["BERT-GLUE"].optimizers == ("adamw",)
        assert SETTINGS["RN50-IMAGENET"].budget_fractions == (0.01, 0.05)
        assert SETTINGS["VAE-MNIST"].metric_name == "elbo"
        assert SETTINGS["YOLO-VOC"].higher_is_better

    def test_lookup_and_lr(self):
        setting = get_setting("rn20-cifar10")
        assert setting.name == "RN20-CIFAR10"
        assert setting.base_lr("sgdm") > 0
        with pytest.raises(KeyError):
            get_setting("RN101")
        with pytest.raises(KeyError):
            setting.base_lr("lamb")


class TestWorkloads:
    @pytest.mark.parametrize("name", ["RN20-CIFAR10", "VAE-MNIST", "YOLO-VOC"])
    def test_build_workload_shapes(self, name):
        workload = build_workload(get_setting(name), seed=0, size_scale=0.12)
        assert workload.steps_per_epoch >= 1
        batch = next(iter(workload.train_loader))
        loss = workload.task.compute_loss(workload.model, batch)
        assert np.isfinite(float(loss.data))

    def test_glue_workload_rejected(self):
        with pytest.raises(ValueError):
            build_workload(get_setting("BERT-GLUE"))


class TestRunner:
    def test_run_single_produces_record(self):
        record = run_single(
            RunConfig(setting="RN20-CIFAR10", schedule="rex", optimizer="sgdm", budget_fraction=0.25, **TINY)
        )
        assert record.setting == "RN20-CIFAR10"
        assert record.schedule == "rex"
        assert record.metric_name == "error"
        assert 0.0 <= record.metric <= 100.0
        assert record.extra["total_steps"] >= 1

    def test_run_single_respects_custom_lr_and_kwargs(self):
        record = run_single(
            RunConfig(
                setting="RN20-CIFAR10",
                schedule="delayed_linear",
                optimizer="sgdm",
                budget_fraction=0.25,
                learning_rate=0.05,
                schedule_kwargs={"delay_fraction": 0.5},
                **TINY,
            )
        )
        assert record.learning_rate == 0.05

    def test_warmup_steps_excluded_from_budget(self):
        record = run_single(
            RunConfig(setting="YOLO-VOC", schedule="linear", optimizer="adam", budget_fraction=0.25, **TINY)
        )
        assert record.extra["warmup_steps"] > 0

    def test_epoch_aligned_plateau_cell_reuses_last_evaluation(self, monkeypatch):
        # run_single always registers a LossNaNGuard; the guard only stops
        # training, so the final model's metrics come from the last epoch's
        # evaluation instead of a second pass over the eval set
        from repro.training import ClassificationTask

        calls = []
        evaluate = ClassificationTask.evaluate

        def counting(self, model, loader):
            calls.append(1)
            return evaluate(self, model, loader)

        monkeypatch.setattr(ClassificationTask, "evaluate", counting)
        record = run_single(
            RunConfig("RN20-CIFAR10", "plateau", "sgdm", 1.0, size_scale=0.2, epoch_scale=0.12)
        )
        assert record.extra["total_steps"] == 4
        assert len(calls) == 2  # one per epoch; the final metrics reuse the second

    def test_wrong_optimizer_for_setting(self):
        with pytest.raises(ValueError):
            run_single(
                RunConfig(setting="YOLO-VOC", schedule="rex", optimizer="sgdm", budget_fraction=0.25, **TINY)
            )

    def test_glue_setting_rejected_by_run_single(self):
        with pytest.raises(ValueError):
            run_single(
                RunConfig(setting="BERT-GLUE", schedule="rex", optimizer="adamw", budget_fraction=1.0)
            )

    def test_budget_sweep_covers_grid(self):
        store = run_budget_sweep(
            "RN20-CIFAR10", "rex", "sgdm", budgets=(0.05, 0.25), seeds=(0, 1), **TINY
        )
        assert len(store) == 4
        assert sorted(store.unique("budget_fraction")) == [0.05, 0.25]
        assert sorted(store.unique("seed")) != [0, 1] or len(store.unique("seed")) == 2

    def test_setting_table_runs_all_cells(self):
        store = run_setting_table(
            "RN20-CIFAR10", schedules=("rex", "linear"), optimizers=("sgdm",), budgets=(0.25,), **TINY
        )
        assert len(store) == 2
        assert set(store.unique("schedule")) == {"rex", "linear"}


class TestLRTuning:
    def test_lr_grid_multiples_of_three(self):
        grid = lr_grid(0.1, num_steps=1)
        np.testing.assert_allclose(grid, [0.1 / 3, 0.1, 0.3])
        assert lr_grid(0.1, num_steps=0) == [0.1]
        with pytest.raises(ValueError):
            lr_grid(-0.1)
        with pytest.raises(ValueError):
            lr_grid(0.1, factor=1.0)

    def test_tune_learning_rate_picks_best(self):
        config = RunConfig(
            setting="RN20-CIFAR10", schedule="rex", optimizer="sgdm", budget_fraction=0.25, **TINY
        )
        result = tune_learning_rate(config, candidates=[0.03, 0.1])
        assert len(result.all_records) == 2
        assert result.best_lr in (0.03, 0.1)
        metrics = [r.metric for r in result.all_records]
        assert result.best_metric == min(metrics)


class TestTableFormatting:
    @pytest.fixture
    def store(self):
        records = []
        for schedule, metric in [("rex", 10.0), ("linear", 12.0)]:
            for budget in (0.05, 1.0):
                for seed in (0, 1):
                    records.append(
                        RunRecord(
                            setting="RN20-CIFAR10",
                            optimizer="sgdm",
                            schedule=schedule,
                            budget_fraction=budget,
                            learning_rate=0.1,
                            seed=seed,
                            metric=metric + seed,
                        )
                    )
        return RunStore(records)

    def test_setting_table_rows(self, store):
        rows, headers = setting_table_rows(store, "RN20-CIFAR10", "sgdm")
        assert headers == ["SGDM", "5%", "100%"]
        assert rows[0][0] == "+ REX"
        assert "±" in rows[0][1]

    def test_format_setting_table_text(self, store):
        text = format_setting_table(store, "RN20-CIFAR10", optimizers=("sgdm",))
        assert "RN20-CIFAR10" in text
        assert "+ REX" in text and "+ Linear Schedule" in text

    def test_missing_records_raise(self, store):
        with pytest.raises(ValueError):
            setting_table_rows(store, "RN20-CIFAR10", "adam")

    def test_top_finish_and_rank_formatting(self, store):
        table_text = format_top_finish_table(top_finish_table(store))
        assert "Overall Top-1" in table_text
        rank_text = format_rank_table({"rex": {0.05: 1.0}, "linear": {0.05: 2.0}})
        assert "+ REX" in rank_text
