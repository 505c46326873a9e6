"""Workload assembly: turn an :class:`ExperimentSetting` into model/task/loaders."""

from __future__ import annotations

from dataclasses import dataclass

from repro import nn
from repro.data import (
    DataLoader,
    SyntheticCIFAR10,
    SyntheticCIFAR100,
    SyntheticDetection,
    SyntheticImageNet,
    SyntheticMNIST,
    SyntheticSTL10,
)
from repro.models import build_model
from repro.experiments.memo import INPUTS
from repro.experiments.settings import ExperimentSetting
from repro.training.tasks import ClassificationTask, DetectionTask, Task, VAETask

__all__ = ["Workload", "build_workload"]

_DATASET_FACTORIES = {
    "cifar10": SyntheticCIFAR10,
    "cifar100": SyntheticCIFAR100,
    "stl10": SyntheticSTL10,
    "imagenet": SyntheticImageNet,
    "mnist": SyntheticMNIST,
    "detection": SyntheticDetection,
}


@dataclass
class Workload:
    """A fully assembled training workload."""

    setting: ExperimentSetting
    model: nn.Module
    task: Task
    train_loader: DataLoader
    eval_loader: DataLoader

    @property
    def steps_per_epoch(self) -> int:
        return len(self.train_loader)


def build_workload(
    setting: ExperimentSetting,
    seed: int = 0,
    size_scale: float = 1.0,
) -> Workload:
    """Instantiate the proxy dataset, model and task for a setting.

    The dataset splits depend only on (dataset, seed, size_scale) and are
    built once per process (:mod:`repro.experiments.memo`); their arrays are
    read-only.  The model is built fresh for every call.

    The GLUE setting is multi-task and handled by
    :mod:`repro.experiments.glue_runner` instead of this function.
    """
    if setting.task == "glue":
        raise ValueError("the GLUE setting is assembled by repro.experiments.glue_runner")
    if setting.dataset not in _DATASET_FACTORIES:
        raise KeyError(f"unknown dataset {setting.dataset!r} for setting {setting.name!r}")

    dataset_cls = _DATASET_FACTORIES[setting.dataset]
    train_ds, test_ds = INPUTS.get(
        ("dataset", setting.dataset, seed, size_scale),
        lambda: dataset_cls.splits(seed=seed, size_scale=size_scale),
    )
    train_loader = DataLoader(train_ds, batch_size=setting.batch_size, shuffle=True, seed=seed)
    eval_loader = DataLoader(test_ds, batch_size=setting.batch_size, shuffle=False, seed=seed)

    task: Task
    if setting.task == "classification":
        model = build_model(setting.model, num_classes=setting.num_classes, seed=seed)
        task = ClassificationTask()
    elif setting.task == "vae":
        image_size = getattr(train_ds, "image_size", 8)
        channels = getattr(train_ds, "channels", 1)
        model = build_model(setting.model, seed=seed, image_size=image_size, channels=channels)
        task = VAETask()
    elif setting.task == "detection":
        model = build_model(
            setting.model,
            num_classes=setting.num_classes,
            seed=seed,
            image_size=getattr(train_ds, "image_size", 16),
            grid_size=getattr(train_ds, "grid_size", 4),
        )
        task = DetectionTask(num_classes=setting.num_classes)
    else:
        raise ValueError(f"unknown task type {setting.task!r}")

    return Workload(
        setting=setting,
        model=model,
        task=task,
        train_loader=train_loader,
        eval_loader=eval_loader,
    )
