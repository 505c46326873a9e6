"""Traced run of one workload, for the per-layer metrics.

Usage: ``python3 perfbench/traced_child.py SPEC.json``

Drives the workload's artifacts through the public API the way
``python -m repro report`` does (``execute_artifact``, then ``Artifact.build``,
then ``write_report``), once cold into an empty cache and once warm from it,
with every layer wrapped by :class:`tracing.Instrumentation`.  Writes the
spans as a Chrome trace and, to ``SPEC["result"]``, the per-layer metrics,
the end time of the cold pass and, per trained record, the optimizer steps
and learning rates seen from outside.
"""

from __future__ import annotations

import dataclasses
import json
import sys
import time

from tracing import Instrumentation, Tracer


def main(spec_path: str) -> int:
    with open(spec_path) as handle:
        spec = json.load(handle)
    tracer = Tracer()
    instrumentation = Instrumentation(tracer)

    from repro.execution import ExecutionContext
    from repro.reporting.registry import execute_artifact, resolve_artifacts, resolve_scale
    from repro.reporting.report import write_report

    instrumentation.install()
    write = tracer.wrap(write_report, "reporting.write")
    scale = resolve_scale(spec["scale"], seeds=spec["seeds"])
    context = ExecutionContext(workers=1, cache=spec["cache_dir"], batch_seeds=spec["batch_seeds"])
    context = context.replace(cache=context.resolve_cache())
    ends = {}
    for phase in ("cold", "warm"):
        for artifact in resolve_artifacts(spec["only"]):
            traced = dataclasses.replace(
                artifact,
                plan=tracer.wrap(artifact.plan, "reporting.plan"),
                build=tracer.wrap(artifact.build, "reporting.build"),
            )
            store, _ = execute_artifact(traced, scale, context=context)
            write(traced.build(store, scale), scale, spec[f"{phase}_out"])
        ends[phase] = time.monotonic()
    instrumentation.uninstall()

    tracer.write_chrome_trace(spec["trace"])
    result = {
        "cold_end": ends["cold"],
        "spans": len(tracer),
        "metrics": instrumentation.layer_metrics(),
        "op_seconds": instrumentation.op_seconds(),
        "cells": instrumentation.cells,
    }
    with open(spec["result"], "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
