"""End-to-end benchmark of ``python -m repro report`` on one workload.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One run:

1. reports the workload cold, through the CLI in a fresh process
   (``perfbench/cold_child.py``), into an empty cache directory;
2. checks the program's outputs (records, report files, Table 10 means, a
   serial retrain of sampled seed-batched records);
3. re-reports warm from that cache in this process, for ``--seconds``
   seconds, checking every pass;
4. with ``--trace 0``, prints the end-to-end metrics;
5. with ``--trace 1``, runs the traced pass (``perfbench/traced_child.py``),
   checks its step counts, REX learning rates, report bytes and Chrome trace,
   and prints the per-layer metrics, with the median warm re-report.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Work files go to ``.perfbench_runs/`` at the repository root; the cache and
report directories are removed at the end, the Chrome trace is kept.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

STARTED = time.monotonic()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"

sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
from workloads import SCALE, WORKLOADS  # noqa: E402

#: seed-batched records retrained serially per run for the bitwise check
SERIAL_SAMPLES = 2
#: minimum number of timed warm re-reports per run
MIN_WARM_REPEATS = 5
#: every child process is stopped this many seconds after the benchmark started
DEADLINE_S = 175
#: the GLUE runner's training batch size (``glue_runner._run_glue_task``)
GLUE_BATCH_SIZE = 16


class BenchError(Exception):
    """The benchmark could not run the program (nothing to report)."""


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=2.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    paths = [str(SRC), str(BENCH_DIR)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _run_child(script: str, args: list[str]) -> float:
    """Run one child script to completion; return its spawn time (monotonic)."""
    spawned = time.monotonic()
    timeout = max(1.0, STARTED + DEADLINE_S - spawned)
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH_DIR / script), *args],
            cwd=ROOT,
            env=_child_env(),
            capture_output=True,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{script} did not finish within {DEADLINE_S} s of the benchmark's start") from None
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    return spawned


def _read_dir(path: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(path.iterdir()) if p.is_file()}


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` (and from nowhere else)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program to benchmark: {SRC / 'repro'} is missing")
    sys.path.insert(0, str(SRC))
    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC.resolve()):
        raise BenchError(f"imported repro from {repro.__file__}, not from {SRC}")


class Run:
    """State of one benchmark run of one workload."""

    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.workload = WORKLOADS[args.workload]
        self.seeds = self.workload.trial_seeds(args.seed)
        self.dir = RUNS_DIR / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
        self.cache_dir = self.dir / "cache"
        self.cold_out = self.dir / "cold"
        self.attempted = 0

    def cli_args(self, cache_dir: Path, out_dir: Path) -> list[str]:
        return self.workload.cli_args(self.args.seed, str(cache_dir), str(out_dir))

    # -- 1. the cold report ------------------------------------------------------
    def cold_report(self) -> dict[str, float]:
        self.dir.mkdir(parents=True, exist_ok=True)
        result_path = self.dir / "cold.json"
        spawned = _run_child("cold_child.py", [str(result_path), *self.cli_args(self.cache_dir, self.cold_out)])
        ended = time.monotonic()
        child = json.loads(result_path.read_text())
        if child["first_cell"] is None:
            raise BenchError("the cold report trained no cell")
        return {
            "setup_s": child["first_cell"] - spawned,
            "report_s": ended - spawned,
            "cpu_s": child["cpu_s"],
            "peak_rss_mb": child["peak_rss_bytes"] / 1e6,
        }

    # -- 2. output checks ----------------------------------------------------------
    def check_outputs(self) -> int:
        """Check records and reports of the cold run; return the optimizer steps trained."""
        from repro.execution.cache import RunCache
        from repro.reporting.registry import resolve_artifacts, resolve_scale

        scale = resolve_scale(SCALE, seeds=self.seeds)
        self.artifacts = resolve_artifacts(self.workload.only)
        cache = RunCache(self.cache_dir)
        self.cells, self.records = [], []
        for artifact in self.artifacts:
            found = []
            for cell in artifact.plan(scale):
                record = cache.get(cell)
                found.append((repr(cell), record.to_dict() if record is not None else None))
                self.cells.append(cell)
                self.records.append(record)
            checks.check_complete(found)
        self.attempted += len(self.records)
        dicts = [r.to_dict() for r in self.records]
        checks.check_seeds(dicts, self.seeds)
        checks.check_values(dicts)
        checks.check_budget_monotone(dicts)
        self.cold_files = _read_dir(self.cold_out)
        if "table10.json" in self.cold_files:
            checks.check_glue_report(json.loads(self.cold_files["table10.json"]), dicts)
        if self.workload.batch_seeds:
            self.check_serial_sample()
        return sum(self._steps(cell, record) for cell, record in zip(self.cells, self.records))

    def _steps(self, cell, record) -> int:
        extra = record.extra
        if "total_steps" in extra:
            return extra["total_steps"] + extra["warmup_steps"]
        from repro.data.glue import glue_task_specs

        spec = {t.name: t.spec for t in glue_task_specs(size_scale=cell.size_scale)}[cell.task]
        return math.ceil(spec.num_train / GLUE_BATCH_SIZE) * cell.max_epochs

    def check_serial_sample(self) -> None:
        from repro.experiments.runner import run_single

        rng = random.Random(f"serial-sample:{self.args.seed}")
        for idx in sorted(rng.sample(range(len(self.cells)), SERIAL_SAMPLES)):
            serial = run_single(self.cells[idx])
            checks.check_same_record(self.records[idx].to_dict(), serial.to_dict())

    # -- 3. warm re-reports ----------------------------------------------------------
    def warm_report(self, out_dir: Path) -> float:
        from repro.cli.main import main as repro_main

        captured = io.StringIO()
        started = time.perf_counter()
        with contextlib.redirect_stdout(captured):
            code = repro_main(self.cli_args(self.cache_dir, out_dir))
        elapsed = time.perf_counter() - started
        if code != 0:
            raise BenchError(f"warm report exited with {code}")
        checks.check_all_cached(captured.getvalue(), [a.name for a in self.artifacts])
        self.attempted += len(self.records)
        return elapsed

    def warm_reports(self) -> float:
        """Re-report warm for ``--seconds`` after one untimed pass; return the median."""
        warm_out = self.dir / "warm"
        entries = len(list(self.cache_dir.glob("*.json")))
        self.warm_report(warm_out)  # first pass: lazy imports of the report path
        checks.check_same_files(self.cold_files, _read_dir(warm_out), "warm report")
        times = []
        deadline = time.monotonic() + self.args.seconds
        while len(times) < MIN_WARM_REPEATS or time.monotonic() < deadline:
            times.append(self.warm_report(warm_out))
        checks.check_same_files(self.cold_files, _read_dir(warm_out), "warm report")
        if len(list(self.cache_dir.glob("*.json"))) != entries:
            raise checks.CheckError("warm reports changed the number of cache entries")
        return statistics.median(times)

    # -- 4. the traced run --------------------------------------------------------------
    def traced_run(self, untraced_report_s: float) -> dict[str, tuple[float, str]]:
        paths = {name: self.dir / f"traced_{name}" for name in ("cache", "cold_out", "warm_out")}
        trace_path = RUNS_DIR / f"{self.args.workload}-seed{self.args.seed}.trace.json"
        spec = {
            "scale": SCALE,
            "only": self.workload.only,
            "seeds": list(self.seeds),
            "batch_seeds": self.workload.batch_seeds,
            "cache_dir": str(paths["cache"]),
            "cold_out": str(paths["cold_out"]),
            "warm_out": str(paths["warm_out"]),
            "trace": str(trace_path),
            "result": str(self.dir / "traced.json"),
        }
        spec_path = self.dir / "traced_spec.json"
        spec_path.write_text(json.dumps(spec))
        spawned = _run_child("traced_child.py", [str(spec_path)])
        result = json.loads(Path(spec["result"]).read_text())
        self.attempted += 2 * len(self.records)

        checks.check_same_files(self.cold_files, _read_dir(paths["cold_out"]), "traced cold report")
        checks.check_same_files(self.cold_files, _read_dir(paths["warm_out"]), "traced warm report")
        checks.check_chrome_trace(trace_path.read_text(), result["spans"])
        traced_cells = result["cells"]
        if len(traced_cells) != len(self.records):
            raise checks.CheckError(f"traced run trained {len(traced_cells)} records, planned {len(self.records)}")
        checks.check_step_counts(traced_cells)
        for entry in traced_cells:
            record = entry["record"]
            if record["schedule"] != "rex":
                continue
            extra = record["extra"]
            total = extra.get("total_steps", entry["steps_per_epoch"] * (entry["max_epochs"] or 0))
            checks.check_rex_lrs(
                entry["lrs"], record["learning_rate"], total, extra.get("warmup_steps", 0),
                f"{record['setting']}/{record['optimizer']}/rex@{record['budget_fraction']:g}"
                f" seed={record['seed']} {extra.get('task', '')}",
            )

        for name, seconds in result["op_seconds"].items():
            print(f"perfbench: traced {name}: {seconds:.3f} s", file=sys.stderr)
        metrics = {name: tuple(value) for name, value in result["metrics"].items()}
        traced_report_s = result["cold_end"] - spawned
        metrics["trace.report_s"] = (traced_report_s, "s")
        metrics["trace.overhead_s"] = (traced_report_s - untraced_report_s, "s")
        metrics["trace.spans"] = (result["spans"], "count")
        return metrics

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def _result(correct: bool, run: Run, metrics: dict[str, tuple[float, str]]) -> str:
    return json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": 0,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    })


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    run = Run(args)
    try:
        _import_program()
        cold = run.cold_report()
        steps = run.check_outputs()
        warm_s = run.warm_reports()
        if args.trace:
            metrics = {"warm.report_s": (warm_s, "s"), **run.traced_run(cold["report_s"])}
        else:
            metrics = {
                "setup_s": (cold["setup_s"], "s"),
                "report_s": (cold["report_s"], "s"),
                "train_steps_per_s": (steps / cold["report_s"], "steps/s"),
                "cpu_s": (cold["cpu_s"], "s"),
                "peak_rss_mb": (cold["peak_rss_mb"], "MB"),
            }
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    except checks.CheckError as exc:
        print(f"perfbench: output check failed: {exc}", file=sys.stderr)
        print(_result(False, run, {}))
        return 1
    finally:
        run.cleanup()
    print(_result(True, run, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
