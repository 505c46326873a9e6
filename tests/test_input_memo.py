"""The process memo of cell-independent inputs (:mod:`repro.experiments.memo`).

A hit must hand a cell exactly the bytes a fresh build would, so records are
identical whether a cell runs in a fresh process or after other cells filled
the memo; stored inputs are read-only, bounded and safe to share by threads.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro import nn
from repro.data import GLUE_TASKS
from repro.experiments import build_workload, get_setting
from repro.experiments.batched import BatchedRunCell, run_batched_cell
from repro.experiments.glue_runner import GlueTaskCell, run_glue_cell
from repro.experiments.memo import INPUTS, InputMemo
from repro.experiments.runner import RunConfig
from repro.models import TinyTransformer

REPO_SRC = Path(__file__).resolve().parents[1] / "src"

GLUE_CELL = dict(schedule="rex", size_scale=0.15, pretrain_steps=2)
YOLO_CELL = BatchedRunCell(
    base=RunConfig("YOLO-VOC", "rex", "adam", 0.5, size_scale=0.12, epoch_scale=0.1),
    seeds=(0, 7),
)

# Runs every cell in a fresh interpreter's state: the memo is empty at start
# and cleared before each cell, so nothing one cell built reaches another.
_FRESH_SCRIPT = """
import json
from repro.data import GLUE_TASKS
from repro.experiments.batched import run_batched_cell
from repro.experiments.glue_runner import GlueTaskCell, run_glue_cell
from repro.experiments.memo import INPUTS
from test_input_memo import GLUE_CELL, YOLO_CELL

out = []
for task in GLUE_TASKS:
    INPUTS.clear()
    out.append(run_glue_cell(GlueTaskCell(task=task, **GLUE_CELL)).to_dict())
INPUTS.clear()
out.extend(r.to_dict() for r in run_batched_cell(YOLO_CELL))
print(json.dumps(out, sort_keys=True))
"""


def _blob(records) -> list[str]:
    return [json.dumps(r.to_dict(), sort_keys=True) for r in records]


def test_records_equal_fresh_process_and_warm_memo(monkeypatch):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO_SRC), str(Path(__file__).parent)]))
    proc = subprocess.run(
        [sys.executable, "-c", _FRESH_SCRIPT], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    fresh = [json.dumps(d, sort_keys=True) for d in json.loads(proc.stdout)]

    # fill the memo with other cells first: other schedules and a float32
    # fine-tune share the task splits, the encoders and the YOLO datasets
    INPUTS.clear()
    for task in GLUE_TASKS:
        run_glue_cell(GlueTaskCell(task=task, **dict(GLUE_CELL, schedule="linear")))
    run_glue_cell(GlueTaskCell(task="CoLA", **GLUE_CELL, dtype="float32"))
    run_batched_cell(dataclasses.replace(YOLO_CELL, base=dataclasses.replace(YOLO_CELL.base, budget_fraction=0.25)))

    requested: list = []
    built: list = []
    original_get = INPUTS.get

    def spy(key, build):
        requested.append(key)

        def counted():
            built.append(key)
            return build()

        return original_get(key, counted)

    monkeypatch.setattr(INPUTS, "get", spy)
    warm = [run_glue_cell(GlueTaskCell(task=task, **GLUE_CELL)) for task in GLUE_TASKS]
    warm += run_batched_cell(YOLO_CELL)
    # 8 task splits + 8 encoders + 2 seeds' datasets, all served from the memo
    assert len(requested) == 18 and built == []
    assert _blob(warm) == fresh


def test_glue_encoders_pretrain_once_per_label_count(monkeypatch):
    pretrained: list[int] = []
    original = TinyTransformer.pretrain

    def counted(self, *args, **kwargs):
        pretrained.append(self.num_labels)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(TinyTransformer, "pretrain", counted)
    INPUTS.clear()
    for schedule in ("rex", "linear"):
        for task in GLUE_TASKS:
            run_glue_cell(GlueTaskCell(task=task, **dict(GLUE_CELL, schedule=schedule)))
    assert sorted(pretrained) == [1, 2, 3]  # STS-B, the binary tasks, MNLI


@pytest.mark.parametrize("dtype", ["float32", "bfloat16"])
def test_low_precision_cell_never_receives_float64_weights(dtype, monkeypatch):
    INPUTS.clear()
    run_glue_cell(GlueTaskCell(task="CoLA", **GLUE_CELL))  # a float64 encoder for the same key
    loaded: list[np.dtype] = []
    original = TinyTransformer.load_state_dict

    def spy(self, state, prefix=""):
        loaded.extend(np.asarray(v).dtype for v in state.values())
        return original(self, state, prefix)

    monkeypatch.setattr(TinyTransformer, "load_state_dict", spy)
    warm = run_glue_cell(GlueTaskCell(task="CoLA", **GLUE_CELL, dtype=dtype))
    assert loaded and set(loaded) == {nn.storage_dtype(dtype)}
    INPUTS.clear()
    assert _blob([run_glue_cell(GlueTaskCell(task="CoLA", **GLUE_CELL, dtype=dtype))]) == _blob([warm])


def test_memoized_inputs_are_read_only():
    setting = get_setting("YOLO-VOC")
    first = build_workload(setting, seed=3, size_scale=0.12)
    second = build_workload(setting, seed=3, size_scale=0.12)
    shared = second.train_loader.dataset
    assert shared is not first.train_loader.dataset  # each cell gets its own dataset object
    assert shared.arrays[0] is first.train_loader.dataset.arrays[0]  # over the same arrays
    with pytest.raises(ValueError, match="read-only"):
        shared.arrays[0][0, 0, 0, 0] = 1.0
    with pytest.raises(ValueError, match="read-only"):
        second.eval_loader.dataset.arrays[1][...] = 0.0

    memo = InputMemo()
    weights = memo.get("w", lambda: {"a": np.zeros(3)})
    with pytest.raises(TypeError):
        weights["a"] = np.ones(3)  # the mapping handed out cannot be rebound...
    with pytest.raises(ValueError, match="read-only"):
        weights["a"][0] = 1.0  # ...nor its arrays written


def test_memo_stays_within_its_bound():
    memo = InputMemo()
    memo.max_bytes = 100
    built: list[str] = []

    def array(name: str, nbytes: int):
        def build():
            built.append(name)
            return np.zeros(nbytes, dtype=np.uint8)

        return build

    memo.get("a", array("a", 40))
    memo.get("b", array("b", 40))
    memo.get("a", array("a", 40))  # a is now the most recently used
    memo.get("c", array("c", 40))  # evicts b, the least recently used
    assert memo.nbytes == 80 <= memo.max_bytes and len(memo) == 2
    memo.get("a", array("a", 40))
    memo.get("b", array("b", 40))  # built again after its eviction, counted once
    assert built == ["a", "b", "c", "b"]
    assert memo.nbytes == 80 and len(memo) == 2

    huge = memo.get("huge", array("huge", 101))  # larger than the bound: handed out, not stored
    assert not huge.flags.writeable
    assert len(memo) == 2 and memo.nbytes <= memo.max_bytes

    with pytest.raises(TypeError, match="cannot store"):
        memo.get("bad", lambda: object())
    assert memo.nbytes <= memo.max_bytes


def test_concurrent_requests_build_each_key_once():
    memo = InputMemo()
    counts: dict[int, int] = {}
    lock = threading.Lock()
    results: list[np.ndarray] = []

    def build(key: int):
        def inner():
            with lock:
                counts[key] = counts.get(key, 0) + 1
            return np.full(1000, key, dtype=np.float64)

        return inner

    def worker(seed: int):
        for i in range(200):
            key = (seed + i) % 4
            value = memo.get(key, build(key))
            with lock:
                results.append(value)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert counts == {0: 1, 1: 1, 2: 1, 3: 1}
    assert len(results) == 8 * 200
    assert all(value[0] == value[-1] for value in results)
    assert len(memo) == 4 and memo.nbytes == 4 * 1000 * 8
