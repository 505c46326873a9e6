"""Run ``python -m repro <args>`` in this process and note when its first cell starts.

Usage: ``python3 perfbench/cold_child.py RESULT.json <repro arguments>``

The command runs exactly as ``python -m repro`` would.  The only addition is
a pass-through wrapper on the two cell entry points the engine calls
(``run_cell`` and ``run_batched_job``) that stamps the monotonic time of the
first call.  At exit the process writes that stamp, its end time, its CPU
time and its peak resident memory to ``RESULT.json``.
"""

from __future__ import annotations

import functools
import json
import resource
import runpy
import sys
import time


def _stamp_first_call(fn, marks):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if marks["first_cell"] is None:
            marks["first_cell"] = time.monotonic()
        return fn(*args, **kwargs)

    return wrapper


def main(argv: list[str]) -> int:
    result_path, cli_args = argv[0], argv[1:]
    marks = {"first_cell": None}

    from repro.experiments import batched
    from repro.reporting import registry

    registry.run_cell = _stamp_first_call(registry.run_cell, marks)
    batched.run_batched_job = _stamp_first_call(batched.run_batched_job, marks)

    sys.argv = ["python -m repro", *cli_args]
    code = 0
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    with open(result_path, "w") as handle:
        json.dump(
            {
                "exit_code": code,
                "first_cell": marks["first_cell"],
                "end": end,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                # ru_maxrss is in KiB on Linux
                "peak_rss_bytes": usage.ru_maxrss * 1024,
            },
            handle,
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
