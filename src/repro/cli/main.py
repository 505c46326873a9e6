"""Implementation of the ``python -m repro`` command-line interface.

Four local subcommands drive the whole reproduction through the artifact
registry:

``list``
    Enumerate every registered table/figure and its cell count at a scale.
``run``
    Execute the selected artifacts' training cells through the cache-aware
    engine.  With ``--cache-dir`` (on by default) runs are resumable and
    incremental: re-running retrains nothing, and artifacts that share cells
    (Table 1 aggregates Tables 4-7/9) reuse each other's work.  With
    ``--batch-seeds`` all seeds of a cell train in one seed-stacked pass;
    records, cache entries and reports stay byte-identical to the serial
    path.
``report``
    Build the selected artifacts from their (cached) records and write one
    markdown + one JSON report per artifact, including the drift column
    against the paper's published numbers.
``clean``
    Drop the run cache (and, with ``--reports``, the rendered reports).

Four more turn the same machinery into a distributed experiment fabric
(see :mod:`repro.cli.serve` and ``ARCHITECTURE.md``):

``serve``
    An HTTP front-end accepting artifact requests from many concurrent
    clients, deduping identical in-flight cells (single-flight), streaming
    NDJSON progress, and finishing each stream with a report byte-identical
    to a local ``report``.
``worker``
    A queue consumer: lease cells from a sqlite work queue, train them,
    publish records to the shared cache, heartbeat and complete the lease.
``request``
    The client half of ``serve``: stream one artifact request and write the
    served report bytes to disk.
``cache-server``
    Serve a local cache directory over HTTP by content hash, so remote
    engines and workers can share it (``--cache-dir http://...`` anywhere).

And one command group turns the reproduction into a *continuous* service
(see :mod:`repro.cli.history` and the drift-history section of
``ARCHITECTURE.md``):

``history record|show|digest``
    Execute config-driven artifact subscriptions on their own cadences,
    append one immutable drift row per artifact to an append-only JSONL
    history, and render per-artifact drift trends plus the perf trajectory
    as markdown or a self-contained HTML digest.

Two more keep the fabric honest about failure (see :mod:`repro.faults` and
the fault-injection section of ``ARCHITECTURE.md``):

``chaos``
    Run one artifact fault-free and again under a named deterministic fault
    scenario (``corrupt-cache`` / ``flaky-remote`` / ``worker-crash``), then
    assert the chaos invariant: the faulted run's report is byte-identical
    to the fault-free one and the injected-fault counters are nonzero.
``queue stats|dead-letters|requeue-dead``
    Inspect a sqlite work queue and return dead-lettered jobs to pending
    (fresh attempt budget, error chain preserved).

``run``/``report``/``serve`` resolve their execution options into one
:class:`repro.execution.ExecutionContext`; ``--cache-dir`` accepts either a
directory or an ``http(s)://`` cache-server URL everywhere it appears.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Sequence

from repro.execution.cache import RunCache
from repro.reporting.paper import PAPER_CITATION
from repro.reporting.registry import SCALES, resolve_artifacts, resolve_scale
from repro.reporting.report import write_report
from repro.utils.textplot import ascii_table

__all__ = ["CLIError", "build_parser", "main"]

DEFAULT_CACHE_DIR = "runs/cache"
DEFAULT_REPORT_DIR = "reports"


class CLIError(Exception):
    """A user-input error that should print as a one-line message, not a traceback."""


def _positive_int(text: str) -> int:
    """Parse a ``--workers`` value, rejecting anything below 1 at the parser."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Parse a ``--seeds`` value like ``"0,1,2"`` into a tuple of ints."""
    try:
        seeds = tuple(int(token) for token in text.split(",") if token.strip())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"invalid seed list {text!r}: {exc}") from None
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed list {text!r}")
    return seeds


def _add_common_arguments(parser: argparse.ArgumentParser, execution: bool) -> None:
    parser.add_argument(
        "--only",
        metavar="NAMES",
        default=None,
        help="comma-separated artifact names (e.g. 'table3' or 'table4,fig1'); default: all",
    )
    parser.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="small",
        help="proxy scale preset (default: small)",
    )
    parser.add_argument(
        "--dtype",
        choices=("float32", "float64", "bfloat16", "float16"),
        default=None,
        help=(
            "train every cell in this dtype (default: each setting's own); "
            "bfloat16/float16 are emulated: float32 storage rounded to the "
            "half-precision grid on every store, with master weights and "
            "dynamic loss scaling in the training loop"
        ),
    )
    parser.add_argument(
        "--seeds",
        type=_parse_seeds,
        default=None,
        metavar="S0,S1,...",
        help="explicit trial seeds, overriding the scale's derived seed sequence",
    )
    if execution:
        parser.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            metavar="N",
            help="train cells on N worker processes (default: 1, serial)",
        )
        parser.add_argument(
            "--cache-dir",
            default=DEFAULT_CACHE_DIR,
            metavar="DIR|URL",
            help=(
                "content-addressed run cache: a directory or an http(s):// "
                f"cache-server URL; '' disables caching (default: {DEFAULT_CACHE_DIR})"
            ),
        )
        parser.add_argument(
            "--batch-seeds",
            action=argparse.BooleanOptionalAction,
            default=False,
            help=(
                "train all seeds of each cell in one seed-stacked pass (vmap-style); "
                "records, cache entries and reports are byte-identical to the serial "
                "path — only wall-clock changes (default: off)"
            ),
        )
        parser.add_argument(
            "--plan",
            action=argparse.BooleanOptionalAction,
            default=None,
            help=(
                "graph planning: capture each cell's step tape once and reuse every "
                "buffer on later steps; trajectories, records and reports are "
                "byte-identical with or without it.  --no-plan is the exact-equality "
                "escape hatch (default: on, or the REPRO_PLAN environment switch)"
            ),
        )


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=(
            "Reproduction orchestrator for every table and figure of "
            f"{PAPER_CITATION}  Runs are content-addressed and resumable: "
            "interrupted or repeated invocations only train cells the cache "
            "has not seen."
        ),
    )
    sub = parser.add_subparsers(
        dest="command",
        required=True,
        metavar="{list,run,report,clean,serve,worker,request,cache-server,history,chaos,queue}",
    )

    p_list = sub.add_parser("list", help="enumerate the registered tables and figures")
    _add_common_arguments(p_list, execution=False)

    p_run = sub.add_parser("run", help="execute artifact training cells (resumable)")
    _add_common_arguments(p_run, execution=True)

    p_report = sub.add_parser("report", help="build artifacts and write markdown/JSON reports")
    _add_common_arguments(p_report, execution=True)
    p_report.add_argument(
        "--out",
        default=DEFAULT_REPORT_DIR,
        metavar="DIR",
        help=f"directory the reports are written to (default: {DEFAULT_REPORT_DIR})",
    )

    p_clean = sub.add_parser("clean", help="drop the run cache (and optionally the reports)")
    p_clean.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR")
    p_clean.add_argument("--out", default=DEFAULT_REPORT_DIR, metavar="DIR")
    p_clean.add_argument(
        "--reports",
        action="store_true",
        help="also delete the rendered markdown/JSON reports under --out",
    )

    p_serve = sub.add_parser(
        "serve", help="serve artifact requests over HTTP with single-flight dedup"
    )
    p_serve.add_argument("--host", default="127.0.0.1", metavar="HOST")
    p_serve.add_argument("--port", type=int, default=8765, metavar="PORT")
    p_serve.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR|URL",
        help=(
            "shared run cache every request reads/writes: a directory or an "
            f"http(s):// cache-server URL (default: {DEFAULT_CACHE_DIR})"
        ),
    )
    p_serve.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="process-pool width for inline training (default: 1, serial)",
    )
    p_serve.add_argument(
        "--queue",
        default=None,
        metavar="PATH",
        help=(
            "sqlite work-queue file: misses become leased jobs that external "
            "'repro worker' processes train (default: train inline)"
        ),
    )
    p_serve.add_argument(
        "--inline",
        action=argparse.BooleanOptionalAction,
        default=True,
        help=(
            "with --queue, also lease and train jobs in the server itself; "
            "--no-inline leaves all training to external workers (default: on)"
        ),
    )
    p_serve.add_argument("--batch-seeds", action=argparse.BooleanOptionalAction, default=False)
    p_serve.add_argument("--plan", action=argparse.BooleanOptionalAction, default=None)

    p_worker = sub.add_parser(
        "worker", help="lease cells from a work queue, train them, publish to the cache"
    )
    p_worker.add_argument("--queue", required=True, metavar="PATH", help="sqlite work-queue file")
    p_worker.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR|URL",
        help=f"shared cache records are published to (default: {DEFAULT_CACHE_DIR})",
    )
    p_worker.add_argument(
        "--visibility-timeout",
        type=float,
        default=60.0,
        metavar="SECONDS",
        help="lease length; an expired lease re-queues the job (default: 60)",
    )
    p_worker.add_argument(
        "--idle-exit",
        type=float,
        default=None,
        metavar="SECONDS",
        help="exit after the queue has been empty this long (default: run forever)",
    )
    p_worker.add_argument(
        "--max-jobs",
        type=_positive_int,
        default=None,
        metavar="N",
        help="exit after processing N jobs (default: unbounded)",
    )

    p_request = sub.add_parser(
        "request", help="request artifacts from a running 'repro serve' instance"
    )
    p_request.add_argument(
        "--url", default="http://127.0.0.1:8765", metavar="URL", help="server base URL"
    )
    _add_common_arguments(p_request, execution=False)
    p_request.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="write the served report bytes as <DIR>/<name>.md and .json (default: print events only)",
    )
    p_request.add_argument(
        "--timeout",
        type=float,
        default=3600.0,
        metavar="SECONDS",
        help="give up on the stream after this long (default: 3600)",
    )

    p_cache = sub.add_parser(
        "cache-server", help="serve a cache directory over HTTP by content hash"
    )
    p_cache.add_argument("--cache-dir", default=DEFAULT_CACHE_DIR, metavar="DIR")
    p_cache.add_argument("--host", default="127.0.0.1", metavar="HOST")
    p_cache.add_argument("--port", type=int, default=8766, metavar="PORT")

    _add_history_parsers(sub)
    _add_chaos_parser(sub)
    _add_queue_parsers(sub)
    return parser


def _add_chaos_parser(sub: "argparse._SubParsersAction") -> None:
    """Attach the ``chaos`` fault-injection verb."""
    from repro.faults.scenarios import SCENARIOS

    p_chaos = sub.add_parser(
        "chaos",
        help="run an artifact under deterministic faults; assert the report bytes don't move",
    )
    p_chaos.add_argument(
        "scenario",
        choices=sorted(SCENARIOS),
        help="named fault scenario (see repro.faults.scenarios)",
    )
    p_chaos.add_argument(
        "--artifact",
        default="table8",
        metavar="NAME",
        help="registry artifact to run under faults (default: table8, the cheapest)",
    )
    p_chaos.add_argument(
        "--scale",
        choices=sorted(SCALES),
        default="micro",
        help="proxy scale preset (default: micro)",
    )
    p_chaos.add_argument(
        "--workdir",
        default=None,
        metavar="DIR",
        help="keep baseline/ and chaos/ trees here for diffing (default: a temp dir)",
    )
    p_chaos.add_argument(
        "--seed",
        type=int,
        default=None,
        metavar="N",
        help="fault-plan seed override (default: the scenario's)",
    )
    p_chaos.add_argument(
        "--rate",
        type=float,
        default=None,
        metavar="P",
        help="override every rule's fault probability, in [0,1] (default: the scenario's)",
    )


def _add_queue_parsers(sub: "argparse._SubParsersAction") -> None:
    """Attach the ``queue stats|dead-letters|requeue-dead`` command group."""
    p_queue = sub.add_parser(
        "queue", help="inspect a sqlite work queue; requeue dead-lettered jobs"
    )
    queue_sub = p_queue.add_subparsers(
        dest="queue_command", required=True, metavar="{stats,dead-letters,requeue-dead}"
    )
    for name, help_text in (
        ("stats", "job counts per state"),
        ("dead-letters", "list dead-lettered jobs with their error chains"),
        ("requeue-dead", "return dead jobs to pending (fresh attempts, errors preserved)"),
    ):
        p_sub = queue_sub.add_parser(name, help=help_text)
        p_sub.add_argument("--queue", required=True, metavar="PATH", help="sqlite work-queue file")


def _add_history_parsers(sub: "argparse._SubParsersAction") -> None:
    """Attach the ``history record|show|digest`` command group."""
    from repro.cli.history import DEFAULT_HISTORY_PATH

    p_history = sub.add_parser(
        "history",
        help="continuous reproduction: record drift rows, render trend digests",
    )
    hist_sub = p_history.add_subparsers(
        dest="history_command", required=True, metavar="{record,show,digest}"
    )

    history_flag = dict(
        default=None,
        metavar="PATH",
        help=(
            "append-only JSONL drift history file (default: the config's "
            f"'history' entry, else {DEFAULT_HISTORY_PATH})"
        ),
    )

    p_rec = hist_sub.add_parser(
        "record", help="execute due subscriptions and append one drift row per artifact"
    )
    p_rec.add_argument(
        "--config",
        required=True,
        metavar="PATH",
        help="subscriptions file (YAML or JSON; see examples/subscriptions.yaml)",
    )
    p_rec.add_argument("--history", **history_flag)
    p_rec.add_argument(
        "--bench",
        default=None,
        metavar="PATH",
        help=(
            "BENCH_hotpath.json whose gated metrics ride along on each row "
            "(default: the config's 'bench' entry, else none)"
        ),
    )
    p_rec.add_argument(
        "--force",
        action="store_true",
        help="record every subscription now, ignoring cadences",
    )
    p_rec.add_argument(
        "--workers",
        type=_positive_int,
        default=1,
        metavar="N",
        help="train cells on N worker processes (default: 1, serial)",
    )
    p_rec.add_argument(
        "--cache-dir",
        default=DEFAULT_CACHE_DIR,
        metavar="DIR|URL",
        help=(
            "content-addressed run cache: a directory or an http(s):// "
            f"cache-server URL; '' disables caching (default: {DEFAULT_CACHE_DIR})"
        ),
    )
    p_rec.add_argument("--batch-seeds", action=argparse.BooleanOptionalAction, default=False)
    p_rec.add_argument("--plan", action=argparse.BooleanOptionalAction, default=None)

    p_show = hist_sub.add_parser("show", help="render the drift history as markdown")
    p_show.add_argument("--history", **{**history_flag, "default": DEFAULT_HISTORY_PATH})
    p_show.add_argument(
        "--only", default=None, metavar="NAME", help="restrict to one artifact name"
    )
    p_show.add_argument(
        "--last",
        type=_positive_int,
        default=None,
        metavar="N",
        help="show only the newest N rows per artifact (default: all)",
    )
    p_show.add_argument(
        "--window",
        type=_positive_int,
        default=5,
        metavar="N",
        help="trailing window for the perf-trajectory median row (default: 5)",
    )

    p_digest = hist_sub.add_parser(
        "digest", help="render the drift history as a self-contained HTML digest"
    )
    p_digest.add_argument("--history", **{**history_flag, "default": DEFAULT_HISTORY_PATH})
    p_digest.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the HTML here as well as printing it (default: stdout only)",
    )
    p_digest.add_argument(
        "--window",
        type=_positive_int,
        default=5,
        metavar="N",
        help="trailing window for the perf-trajectory median row (default: 5)",
    )
    p_digest.add_argument(
        "--title", default="Reproduction drift digest", metavar="TEXT"
    )


def _selection(args: argparse.Namespace):
    # Lookup failures here are user input problems (unknown artifact/scale
    # name); anything raised later is a real bug and must keep its traceback.
    try:
        scale = resolve_scale(args.scale, dtype=args.dtype, seeds=args.seeds)
        return resolve_artifacts(args.only), scale
    except (KeyError, ValueError) as exc:
        message = exc.args[0] if exc.args else str(exc)
        raise CLIError(message) from exc


def _context_from(args: argparse.Namespace) -> "ExecutionContext":
    """Fold the execution flags of one parsed command line into a context."""
    from repro.execution import ExecutionContext

    try:
        return ExecutionContext(
            workers=getattr(args, "workers", 1),
            cache=getattr(args, "cache_dir", "") or None,
            batch_seeds=getattr(args, "batch_seeds", False),
            plan=getattr(args, "plan", None),
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc


def _print_cache_line(cache: object) -> None:
    location = getattr(cache, "cache_dir", None) or getattr(cache, "base_url", cache)
    print(f"cache: {len(cache)} records under {location}")  # type: ignore[arg-type]


def cmd_list(args: argparse.Namespace) -> int:
    """``list``: one row per artifact with its cell count at the chosen scale."""
    artifacts, scale = _selection(args)
    rows = [
        [a.name, a.paper_ref, a.kind, str(len(a.plan(scale))), a.title]
        for a in artifacts
    ]
    print(f"{len(rows)} artifacts at scale '{args.scale}':\n")
    print(ascii_table(rows, headers=["Name", "Paper ref", "Kind", "Cells", "Title"]))
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    """``run``: plan and execute every selected artifact through the engine."""
    from repro.reporting.registry import execute_artifact

    artifacts, scale = _selection(args)
    context = _context_from(args)
    cache = context.resolve_cache()
    # one resolved cache instance across all artifacts, so cross-artifact cell
    # reuse shows up as hits rather than re-resolution
    context = context.replace(cache=cache) if cache is not None else context
    for artifact in artifacts:
        start = time.monotonic()
        _, report = execute_artifact(artifact, scale, context=context)
        elapsed = time.monotonic() - start
        batched = (
            f", {report.batched_records} in {report.batched_cells} seed-batched cells"
            if report.batched_cells
            else ""
        )
        print(
            f"{artifact.name}: {report.total} cells — {report.cache_hits} cache hits, "
            f"{report.executed} executed{batched}, {report.retried} retried ({elapsed:.1f}s)"
        )
    if cache is not None:
        _print_cache_line(cache)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """``report``: execute (cache-hitting), build, and render every artifact."""
    from repro.reporting.registry import execute_artifact

    artifacts, scale = _selection(args)
    context = _context_from(args)
    cache = context.resolve_cache()
    context = context.replace(cache=cache) if cache is not None else context
    for artifact in artifacts:
        store, engine_report = execute_artifact(artifact, scale, context=context)
        result = artifact.build(store, scale)
        paths = write_report(result, scale, args.out)
        cached = (
            "all cells cached"
            if engine_report.executed == 0
            else f"{engine_report.executed} cells trained"
        )
        print(f"{artifact.name}: wrote {' and '.join(str(p) for p in paths)} ({cached})")
    return 0


def cmd_clean(args: argparse.Namespace) -> int:
    """``clean``: drop cached run records, and reports when ``--reports`` is set."""
    if not args.cache_dir:
        # '' means "no cache" on run/report; Path('') would resolve to the
        # current directory and clear() would delete unrelated *.json files.
        raise CLIError("clean requires a non-empty --cache-dir")
    removed = RunCache(args.cache_dir).clear()
    print(f"removed {removed} cached records from {args.cache_dir}")
    if args.reports:
        from repro.reporting.registry import available_artifacts

        out = Path(args.out)
        count = 0
        if out.is_dir():
            # Only rendered artifact reports — never other markdown/JSON that
            # happens to live in --out (e.g. a repo root passed by mistake).
            for name in available_artifacts():
                for suffix in (".md", ".json"):
                    path = out / f"{name}{suffix}"
                    if path.is_file():
                        path.unlink()
                        count += 1
        print(f"removed {count} report files from {args.out}")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the HTTP experiment front-end until interrupted."""
    from repro.cli.serve import serve_forever
    from repro.execution import ExecutionContext

    if not args.cache_dir:
        raise CLIError("serve requires a cache (--cache-dir DIR or http(s):// URL)")
    try:
        context = ExecutionContext(
            workers=args.workers,
            cache=args.cache_dir,
            batch_seeds=args.batch_seeds,
            plan=args.plan,
            executor="queue" if args.queue else "auto",
            queue=args.queue,
            queue_inline=args.inline,
        )
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    serve_forever(context, host=args.host, port=args.port)
    return 0


def cmd_worker(args: argparse.Namespace) -> int:
    """``worker``: consume the work queue until idle-exit/max-jobs (or forever)."""
    from repro.cli.serve import run_worker

    if not args.cache_dir:
        raise CLIError("worker requires a cache (--cache-dir DIR or http(s):// URL)")
    run_worker(
        args.queue,
        args.cache_dir,
        visibility_timeout=args.visibility_timeout,
        idle_exit=args.idle_exit,
        max_jobs=args.max_jobs,
    )
    return 0


def cmd_request(args: argparse.Namespace) -> int:
    """``request``: stream artifact reports from a running server."""
    from repro.cli.serve import request_report
    from repro.reporting.registry import resolve_artifacts

    try:
        artifacts = resolve_artifacts(args.only)
    except (KeyError, ValueError) as exc:
        raise CLIError(exc.args[0] if exc.args else str(exc)) from exc
    seeds = ",".join(str(seed) for seed in args.seeds) if args.seeds else None
    for artifact in artifacts:
        try:
            event = request_report(
                args.url,
                artifact.name,
                scale=args.scale,
                seeds=seeds,
                dtype=args.dtype,
                out_dir=args.out,
                timeout=args.timeout,
                progress=lambda line: print(f"  {line}"),
            )
        except (OSError, RuntimeError) as exc:
            raise CLIError(f"{artifact.name}: {exc}") from exc
        where = f" -> {args.out}/{artifact.name}.md" if args.out else ""
        print(f"{artifact.name}: report received ({len(event['markdown'])} md bytes){where}")
    return 0


def cmd_cache_server(args: argparse.Namespace) -> int:
    """``cache-server``: serve one cache directory by content hash until interrupted."""
    from repro.execution import CacheServer

    if not args.cache_dir:
        raise CLIError("cache-server requires a non-empty --cache-dir")
    server = CacheServer(args.cache_dir, host=args.host, port=args.port)
    print(f"repro cache-server serving {args.cache_dir} on {server.url}")
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        print("repro cache-server: shutting down")
    finally:
        server.server_close()
    return 0


def cmd_history(args: argparse.Namespace) -> int:
    """``history``: dispatch to the record/show/digest continuous-reproduction verbs."""
    from repro.cli.history import run_digest, run_record, run_show

    try:
        if args.history_command == "record":
            run_record(
                args.config,
                history_path=args.history,
                bench_path=args.bench,
                context=_context_from(args),
                force=args.force,
            )
        elif args.history_command == "show":
            print(
                run_show(args.history, only=args.only, last=args.last, window=args.window),
                end="",
            )
        else:
            page = run_digest(
                args.history, out_path=args.out, window=args.window, title=args.title
            )
            if args.out:
                print(f"digest: wrote {len(page)} bytes to {args.out}")
            else:
                print(page, end="")
    except ValueError as exc:
        raise CLIError(str(exc)) from exc
    return 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """``chaos``: run the scenario, print the summary, exit nonzero unless the invariant held."""
    from repro.faults.chaos import run_chaos

    if args.rate is not None and not 0.0 <= args.rate <= 1.0:
        raise CLIError(f"--rate must be in [0, 1], got {args.rate}")
    try:
        result = run_chaos(
            args.scenario,
            artifact=args.artifact,
            scale=args.scale,
            workdir=args.workdir,
            seed=args.seed,
            rate=args.rate,
        )
    except (KeyError, ValueError) as exc:
        raise CLIError(exc.args[0] if exc.args else str(exc)) from exc
    print(result.summary())
    return 0 if result.ok else 1


def cmd_queue(args: argparse.Namespace) -> int:
    """``queue``: dispatch to the stats/dead-letters/requeue-dead verbs."""
    from repro.execution.queue import WorkQueue

    if not Path(args.queue).is_file():
        raise CLIError(f"no work queue at {args.queue}")
    queue = WorkQueue(args.queue)
    if args.queue_command == "stats":
        counts = queue.counts()
        rows = [[state, str(n)] for state, n in counts.items()]
        print(ascii_table(rows, headers=["State", "Jobs"]))
    elif args.queue_command == "dead-letters":
        letters = queue.dead_letters()
        if not letters:
            print("no dead-lettered jobs")
        else:
            rows = [
                [
                    str(job["id"]),
                    job["fingerprint"][:12],
                    f"{job['attempts']}/{job['max_attempts']}",
                    job["last_error"] or "",
                ]
                for job in letters
            ]
            print(ascii_table(rows, headers=["Id", "Fingerprint", "Attempts", "Error chain"]))
    else:
        moved = queue.requeue_dead()
        print(f"requeued {moved} dead job{'s' if moved != 1 else ''} to pending")
    return 0


_COMMANDS = {
    "list": cmd_list,
    "run": cmd_run,
    "report": cmd_report,
    "clean": cmd_clean,
    "serve": cmd_serve,
    "worker": cmd_worker,
    "request": cmd_request,
    "cache-server": cmd_cache_server,
    "history": cmd_history,
    "chaos": cmd_chaos,
    "queue": cmd_queue,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except CLIError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
