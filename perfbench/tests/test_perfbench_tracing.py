"""Span bookkeeping of the benchmark's tracer: self time, nesting, groups, Chrome trace.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import checks  # noqa: E402
import tracing  # noqa: E402
from tracing import Instrumentation, Tracer, self_times  # noqa: E402


class FakeClock:
    """A clock that returns scripted ticks, so span times are exact."""

    def __init__(self) -> None:
        self.now = 0

    def __call__(self) -> int:
        return self.now


def _scripted(events):
    """Replay ``("begin", name, t)`` / ``("end", None, t)`` events on a tracer with a fake clock."""
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    open_spans = []
    for kind, name, t in events:
        clock.now = t
        if kind == "begin":
            open_spans.append(tracer.begin(name))
        else:
            tracer.finish(open_spans.pop())
    return tracer


def test_self_time_subtracts_direct_children_only():
    #   engine 0..100
    #     cell 10..60          (self 60 - 10 - 30 = 20)
    #       fit 20..50         (self 30 - 10 = 20)
    #         backward 30..40  (self 10)
    #     cache 70..80         (self 10)
    starts = [0, 10, 20, 30, 70]
    ends = [100, 60, 50, 40, 80]
    parents = [-1, 0, 1, 2, 0]
    assert self_times(starts, ends, parents) == [40, 20, 20, 10, 10]


def test_self_time_clips_children_and_counts_overlap_once():
    # children overlapping each other and sticking out of the parent
    starts = [10, 5, 30, 40]
    ends = [60, 20, 50, 70]
    parents = [-1, 0, 0, 0]
    # covered: [10,20) + [30,50) + [50,60) = 40 of the parent's 50
    assert self_times(starts, ends, parents)[0] == 10


def test_tracer_totals_counts_and_self_seconds():
    s = 1_000_000_000
    tracer = _scripted([
        ("begin", "execution.engine_run", 0),
        ("begin", "experiments.cell", 1 * s),
        ("begin", "training.fit", 2 * s),
        ("end", None, 5 * s),
        ("end", None, 6 * s),
        ("begin", "execution.cache_put", 6 * s),
        ("end", None, 7 * s),
        ("end", None, 8 * s),
    ])
    assert len(tracer) == 4
    assert tracer.total_s("execution.engine_run") == 8.0
    assert tracer.self_s("execution.engine_run") == 2.0
    assert tracer.self_s("experiments.cell") == 2.0
    assert tracer.count("training.fit") == 1
    assert tracing._covered_by(tracer, "training.fit", "experiments.cell") == 3.0


def test_nested_spans_of_one_name_count_once():
    # a schedule step that delegates to an inner schedule's step
    tracer = _scripted([
        ("begin", "schedules.step", 0),
        ("begin", "schedules.step", 2),
        ("end", None, 5),
        ("end", None, 10),
        ("begin", "schedules.step", 20),
        ("end", None, 24),
    ])
    assert tracer.count("schedules.step") == 2
    assert tracer.total_s("schedules.step") == pytest.approx(14e-9)
    assert len(tracer) == 3


def test_group_total_counts_each_instant_once():
    # attention calls linear inside it; conv2d runs on its own
    tracer = _scripted([
        ("begin", "nn.attention", 0),
        ("begin", "nn.linear", 1),
        ("end", None, 3),
        ("end", None, 10),
        ("begin", "nn.conv2d", 10),
        ("end", None, 14),
        ("begin", "nn.linear", 20),
        ("end", None, 21),
    ])
    assert tracing._group_total_s(tracer, tracing.FORWARD_OP_SPANS) == pytest.approx(15e-9)


def test_finishing_out_of_order_is_an_error():
    tracer = Tracer()
    outer = tracer.begin("a")
    tracer.begin("b")
    with pytest.raises(RuntimeError):
        tracer.finish(outer)


def test_chrome_trace_loads_and_keeps_parents(tmp_path):
    tracer = _scripted([
        ("begin", "reporting.plan", 1000),
        ("end", None, 3000),
        ("begin", "execution.engine_run", 4000),
        ("begin", "execution.cache_get", 4500),
        ("end", None, 5000),
        ("end", None, 9000),
    ])
    path = tmp_path / "trace.json"
    tracer.write_chrome_trace(path)
    text = path.read_text()
    checks.check_chrome_trace(text, 3)
    events = json.loads(text)["traceEvents"]
    assert [e["name"] for e in events] == ["reporting.plan", "execution.engine_run", "execution.cache_get"]
    assert events[2]["args"]["parent"] == 1 and events[2]["cat"] == "execution"
    assert events[1]["ts"] == 3.0 and events[1]["dur"] == 5.0
    with pytest.raises(checks.CheckError):
        checks.check_chrome_trace(text, 4)
    with pytest.raises(checks.CheckError):
        checks.check_chrome_trace(text[:-2], 3)


def test_wrap_keeps_results_and_records_spans_on_exceptions():
    tracer = Tracer()
    double = tracer.wrap(lambda x: 2 * x, "nn.linear")
    assert double(21) == 42

    def boom():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrap(boom, "nn.conv2d")()
    assert tracer.count("nn.linear") == 1 and tracer.count("nn.conv2d") == 1
    assert not tracer.is_open("nn.conv2d")


def test_instrumentation_uninstall_restores_every_attribute():
    from repro.execution.cache import RunCache
    from repro.nn import functional
    from repro.nn.tensor import Tensor
    from repro.reporting import registry
    from repro.training.trainer import Trainer

    before = (RunCache.get, functional.conv2d, Tensor.backward, registry.run_cell, Trainer.fit)
    instrumentation = Instrumentation(Tracer())
    instrumentation.install()
    assert functional.conv2d is not before[1] and Trainer.fit is not before[4]
    instrumentation.uninstall()
    assert (RunCache.get, functional.conv2d, Tensor.backward, registry.run_cell, Trainer.fit) == before
