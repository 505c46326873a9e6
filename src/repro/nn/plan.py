"""Graph-plan capture and workspace arenas: allocation-free steady-state steps.

A training step executes the *same* op sequence every iteration — same model,
same batch shapes, same loss — yet the autograd engine historically rebuilt
the graph and re-allocated every activation, gradient and im2col workspace on
every one of the ~10^5 steps a full reproduction runs.  This module captures
the step's shape signature once and then recycles every buffer:

* :class:`GraphPlan` — owns a **workspace arena** (a positional pool of
  ``(shape, dtype)`` buffers with a generation counter) plus the captured
  **graph signature** and **topological order** of the step's autograd tape.
* ``plan.step()`` — a context manager the trainers wrap around one training
  step (forward + ``zero_grad`` + backward + optimizer update).  Entering it
  bumps the generation and rewinds the arena cursor; the first step *captures*
  (allocates and logs every checkout), steps 2..N *replay* (each checkout
  position hands back the same buffer it handed out last step).
* :func:`GraphPlan.checkout` — the allocation primitive the ``out=``-rewritten
  kernels in :mod:`repro.nn.tensor` and :mod:`repro.nn.functional` use in
  place of ``np.empty``.  Outside a plan it is never called (the kernels pass
  ``out=None`` and numpy allocates as before), so planned and unplanned runs
  execute the identical ufunc/GEMM calls and produce bitwise-identical
  results.

Why positional reuse is safe
----------------------------
Within one generation every checkout position returns a *distinct* buffer, so
no two live arrays of a step alias each other.  Across generations position
``i`` always returns the *same* buffer, so a buffer's role (activation of
layer 3, gradient of ``fc2.weight``, conv im2col workspace...) is identical
every step — by the time it is overwritten in step N+1, step N's use of it is
dead (its backward and optimizer update have completed).  The one cross-step
tenant is a parameter's ``.grad``: in planned mode ``zero_grad`` keeps the
buffer and merely marks it *stale* (a generation bump), and the first
``_accumulate`` of the next step overwrites it in place.

Divergence and fallback
-----------------------
Every checkout (and every registered graph node) is validated against the
captured signature.  The first mismatch — e.g. a shorter final batch changing
an activation shape — flips the step to *diverged*: all remaining checkouts
fall back to fresh ``np.empty`` allocations (never pooled), the captured
topological order is not replayed, and the step completes with ordinary
allocating semantics.  A later step whose signature matches again resumes
reuse.  Divergence is counted in :attr:`GraphPlan.diverged_steps` so tests
and benchmarks can assert the fallback engaged.

Compiler passes
---------------
The captured tape is an IR, and after the capture step the plan runs a small
compiler over it (see :mod:`repro.nn.plan_passes`): buffer-lifetime analysis
remaps arena positions with disjoint live ranges onto shared storage
(``alias``), single-consumer elementwise chains collapse into fused backward
kernels (``fuse``), closures that provably no-op are dropped from the
backward schedule (``dce``), and — opt-in — independent backward nodes
dispatch across a shared thread pool (``parallel``).  Every pass preserves
the planned-vs-unplanned bitwise-equality contract; the pass list is
configurable per plan (``GraphPlan(passes=...)``), per trainer
(``plan_passes=``) and ambiently (``REPRO_PLAN_PASSES``).

Under the ``alias`` pass an intermediate activation's buffer may be
overwritten *within* a step once its captured last use has passed; only the
backward root's forward buffers (the loss a trainer reads after the step
scope) and leaf gradients (parameter/input ``.grad``, read by optimizers and
tests after backward) are pinned to stable storage.

Planned stepping is **per-thread-sequential**: a plan must not be active on
two threads at once.  The experiment engine parallelises with *processes*, so
every worker owns its plans outright; the step scope save/restores the
previously active plan, making nested or interleaved scopes on one thread
safe.
"""

from __future__ import annotations

import os
import threading
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro.nn import plan_passes as _passes_mod

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (tensor imports plan)
    from repro.nn.tensor import Tensor

__all__ = [
    "DEFAULT_PASSES",
    "GraphPlan",
    "KNOWN_PASSES",
    "get_active",
    "parse_passes",
    "plan_enabled_default",
    "plan_passes_default",
]


#: The plan whose arena the kernels currently draw from (``None`` almost
#: always — only a trainer's step scope activates one).  Module-level rather
#: than thread-local: reading it sits on the hottest path in the repo, and
#: planned stepping is process-parallel (see module docstring).
ACTIVE: "GraphPlan | None" = None

#: process-wide generation source shared by every plan: a tensor's
#: ``_plan_gen`` stamp must never collide between two plans (e.g. two
#: sequential ``fit()``s over the same parameters), so steps draw from one
#: monotonically increasing counter instead of a per-plan one.
_GENERATION = 0

_FALSY = {"0", "false", "off", "no"}


def _next_generation() -> int:
    global _GENERATION
    _GENERATION += 1
    return _GENERATION


def _released_backward() -> None:
    """The closure a finished plan step leaves on each of its interior nodes."""
    raise RuntimeError(
        "backward through the graph of a finished plan step; run forward and "
        "backward inside one plan.step() scope"
    )


def get_active() -> "GraphPlan | None":
    """The plan currently activated by a ``plan.step()`` scope, if any."""
    return ACTIVE


def tag(tensor: "Tensor", kind: str, meta: object = None) -> None:
    """Tag an op's output node for the active plan's compiler (no-op otherwise)."""
    plan = ACTIVE
    if plan is not None:
        plan.tag_op(tensor, kind, meta)


def plan_enabled_default() -> bool:
    """Whether graph planning is on by default (the ``REPRO_PLAN`` switch).

    Planning is **opt-out**: it is enabled unless ``REPRO_PLAN`` is set to a
    falsy spelling (``0``/``false``/``off``/``no``).  Trainers consult this
    when their ``plan=`` argument is ``None``.
    """
    return os.environ.get("REPRO_PLAN", "1").strip().lower() not in _FALSY


#: passes run by default after the capture step — each preserves bitwise
#: equality with unplanned execution, so they are on unless disabled
DEFAULT_PASSES: tuple[str, ...] = ("alias", "fuse", "dce")

#: every pass the compiler knows; ``parallel`` is opt-in (it keeps bitwise
#: determinism but trades single-thread latency for concurrency, which only
#: pays off on wide graphs)
KNOWN_PASSES: tuple[str, ...] = ("alias", "fuse", "dce", "parallel")


def parse_passes(spec: "str | Iterable[str] | None") -> tuple[str, ...]:
    """Normalise a pass specification to a validated tuple of pass names.

    Accepts ``None`` (the defaults), a comma-separated string (``"alias,fuse"``,
    with ``"none"``/``"off"``/``""`` meaning no passes, ``"default"`` the
    default set, and ``"all"`` every known pass), or any iterable of names.
    Unknown names raise ``ValueError`` — a typo must not silently disable an
    optimisation.
    """
    if spec is None:
        return DEFAULT_PASSES
    if isinstance(spec, str):
        text = spec.strip().lower()
        if text in {"", "none", "off"}:
            return ()
        if text == "default":
            return DEFAULT_PASSES
        if text == "all":
            return KNOWN_PASSES
        names = [part.strip() for part in text.split(",") if part.strip()]
    else:
        names = [str(part).strip().lower() for part in spec]
    seen: list[str] = []
    for name in names:
        if name not in KNOWN_PASSES:
            known = ", ".join(KNOWN_PASSES)
            raise ValueError(
                f"unknown plan pass {name!r}; known passes: {known} (or 'none'/'default'/'all')"
            )
        if name not in seen:
            seen.append(name)
    return tuple(seen)


def plan_passes_default() -> tuple[str, ...]:
    """The ambient pass list (the ``REPRO_PLAN_PASSES`` switch).

    Unset means :data:`DEFAULT_PASSES`; any spelling accepted by
    :func:`parse_passes` works, e.g. ``REPRO_PLAN_PASSES=none`` to run plain
    PR-5 style capture/replay or ``REPRO_PLAN_PASSES=all`` to add parallel
    dispatch.  Plans created with ``passes=None`` consult this.
    """
    return parse_passes(os.environ.get("REPRO_PLAN_PASSES"))


class _PlanStep:
    """One generation of a plan: activates it on entry, finalises on exit."""

    __slots__ = ("_plan", "_prev")

    def __init__(self, plan: "GraphPlan") -> None:
        self._plan = plan
        self._prev: GraphPlan | None = None

    def __enter__(self) -> "GraphPlan":
        global ACTIVE
        self._prev = ACTIVE
        ACTIVE = self._plan
        self._plan._begin_step()
        return self._plan

    def __exit__(self, *exc: object) -> None:
        global ACTIVE
        ACTIVE = self._prev
        self._plan._end_step()


class GraphPlan:
    """Captured step signature + workspace arena for one training loop.

    Create one per ``fit()`` and wrap each training step in ``plan.step()``.
    All state is per-instance; discarding the plan frees every buffer.
    """

    __slots__ = (
        "generation",
        "capturing",
        "_captured",
        "_match",
        "_diverged",
        "_keys",
        "_buffers",
        "_pos",
        "_nodes",
        "_sigs",
        "_topo_idx",
        "_topo_root",
        "_passes",
        "_ops",
        "_reqs",
        "_node_pos",
        "_bw_records",
        "_bw_invalid",
        "_bw_seen",
        "_bw_root",
        "_bw_nodes",
        "_bw_start",
        "_bw_seed_end",
        "_bw_end",
        "_tags_seen",
        "_pre_bw_tags",
        "_schedule",
        "_waves",
        "_tls",
        "_parallel_exec",
        "_staging_nbytes",
        "steps",
        "reused_checkouts",
        "fresh_checkouts",
        "diverged_steps",
        "topo_captures",
        "topo_replays",
        "fused_chains",
        "dce_dropped",
        "aliased_positions",
    )

    def __init__(self, passes: "str | Iterable[str] | None" = None) -> None:
        #: the process-globally unique id of the current step (see
        #: ``_next_generation``); stamps node registrations
        self.generation = 0
        #: True only during the first (signature-capturing) step
        self.capturing = False
        self._captured = False
        #: this generation still matches the captured signature
        self._match = False
        self._diverged = False
        # -- arena: position -> (key, buffer), append-only after capture
        self._keys: list[tuple[tuple[int, ...], np.dtype]] = []
        self._buffers: list[np.ndarray] = []
        self._pos = 0
        # -- graph signature / captured topological order
        self._nodes: list[Tensor] = []
        self._sigs: list[tuple] = []
        self._topo_idx: list[int] | None = None
        self._topo_root = -1
        # -- compiler inputs (filled during the capture step)
        self._passes = plan_passes_default() if passes is None else parse_passes(passes)
        self._ops: dict[int, tuple] = {}
        self._reqs: list[bool] = []
        self._node_pos: list[int] = []
        self._bw_records: list[tuple[int, int, int]] | None = None
        self._bw_invalid = False
        self._bw_seen = False
        self._bw_root = -1
        self._bw_nodes = 0
        self._bw_start = 0
        self._bw_seed_end = 0
        self._bw_end = 0
        self._tags_seen = 0
        self._pre_bw_tags = 0
        # -- compiler outputs (None until compiled)
        self._schedule: list | None = None
        self._waves: list[list] | None = None
        self._tls: threading.local | None = None
        self._parallel_exec = False
        self._staging_nbytes = 0
        # -- counters (observability for tests and the microbench)
        self.steps = 0
        self.reused_checkouts = 0
        self.fresh_checkouts = 0
        self.diverged_steps = 0
        self.topo_captures = 0
        self.topo_replays = 0
        self.fused_chains = 0
        self.dce_dropped = 0
        self.aliased_positions = 0

    @property
    def passes(self) -> tuple[str, ...]:
        """The compiler passes this plan runs after its capture step."""
        return self._passes

    # -- lifecycle ----------------------------------------------------------
    def step(self) -> _PlanStep:
        """Context manager scoping one training step to this plan."""
        return _PlanStep(self)

    def _begin_step(self) -> None:
        self.generation = _next_generation()
        self.steps += 1
        self._pos = 0
        self._nodes.clear()
        self._diverged = False
        self._bw_seen = False
        self._tags_seen = 0
        self.capturing = not self._captured
        self._match = self._captured

    def _end_step(self) -> None:
        if self.capturing:
            self._captured = True
            self.capturing = False
            if self._passes and self._bw_records is not None and not self._bw_invalid:
                _passes_mod.compile_step(self)
        if self._diverged:
            self.diverged_steps += 1
        # Each op's closure captures its output, so a finished step's graph
        # is a web of reference cycles only the cyclic collector would free,
        # holding the step's non-arena arrays (batches, masks) until it runs.
        # Releasing the closures lets refcounting free the graph as soon as
        # the next step drops it; backward through it afterwards raises.
        for node in self._nodes:
            if node._prev:
                node._backward = _released_backward

    def _note_divergence(self) -> None:
        self._diverged = True
        self._match = False

    # -- the arena ----------------------------------------------------------
    def checkout(self, shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
        """A work buffer for this step's next allocation site.

        During capture: allocates, logs ``(shape, dtype)`` and pools the
        buffer.  During replay: returns the pooled buffer of this position if
        the key matches the capture, else flags divergence and falls back to
        a fresh (never pooled) allocation for this and all later sites.
        """
        if self.capturing:
            buf = np.empty(shape, dtype)
            self._keys.append((shape, np.dtype(dtype)))
            self._buffers.append(buf)
            self._pos += 1
            self.fresh_checkouts += 1
            return buf
        if self._parallel_exec:
            # Parallel dispatch: each worker carries its item's captured start
            # position in thread-local state (wave scheduling guarantees
            # distinct items touch distinct positions — see plan_passes).
            tls = self._tls
            pos = tls.pos
            if self._match and pos < len(self._keys):
                key = self._keys[pos]
                if key[0] == shape and key[1] == dtype:
                    tls.pos = pos + 1
                    self.reused_checkouts += 1
                    return self._buffers[pos]
            self._note_divergence()
            self.fresh_checkouts += 1
            return np.empty(shape, dtype)
        pos = self._pos
        if self._match and pos < len(self._keys):
            key = self._keys[pos]
            if key[0] == shape and key[1] == dtype:
                self._pos = pos + 1
                self.reused_checkouts += 1
                return self._buffers[pos]
        self._note_divergence()
        self.fresh_checkouts += 1
        return np.empty(shape, dtype)

    # -- graph signature ----------------------------------------------------
    def register(self, tensor: "Tensor", prev: Sequence["Tensor"]) -> None:
        """Record one tape node (called from ``Tensor.__init__`` under a plan).

        Nodes are indexed in creation order; parents created outside the step
        (parameters, input leaves) are lazily indexed on first appearance, so
        the signature — ``(shape, dtype, parent indices)`` per node — fully
        determines the graph's structure, including leaf sharing.  On the
        capture step the signatures are stored; on replay steps they are
        *verified in place* (no tuples are built — this runs once per tape
        node per step).
        """
        gen = self.generation
        nodes = self._nodes
        sigs = self._sigs
        if self.capturing:
            reqs = self._reqs
            node_pos = self._node_pos
            if prev:
                parent_idx = []
                for parent in prev:
                    if parent._plan_gen != gen:
                        parent._plan_gen = gen
                        parent._plan_idx = len(nodes)
                        nodes.append(parent)
                        sigs.append((parent.data.shape, parent.data.dtype.num, None))
                        reqs.append(parent.requires_grad)
                        node_pos.append(self._pos)
                    parent_idx.append(parent._plan_idx)
                sig = (tensor.data.shape, tensor.data.dtype.num, tuple(parent_idx))
            else:
                sig = (tensor.data.shape, tensor.data.dtype.num, None)
            tensor._plan_gen = gen
            tensor._plan_idx = len(nodes)
            nodes.append(tensor)
            sigs.append(sig)
            reqs.append(tensor.requires_grad)
            node_pos.append(self._pos)
            return
        match = self._match
        total = len(sigs)
        reqs = self._reqs
        for parent in prev:
            if parent._plan_gen != gen:
                parent._plan_gen = gen
                idx = len(nodes)
                parent._plan_idx = idx
                nodes.append(parent)
                if match:
                    if idx >= total:
                        match = False
                    else:
                        sig = sigs[idx]
                        data = parent.data
                        if (
                            sig[2] is not None
                            or sig[0] != data.shape
                            or sig[1] != data.dtype.num
                            or reqs[idx] != parent.requires_grad
                        ):
                            match = False
        idx = len(nodes)
        tensor._plan_gen = gen
        tensor._plan_idx = idx
        nodes.append(tensor)
        if match:
            if idx >= total:
                match = False
            else:
                sig = sigs[idx]
                data = tensor.data
                if (
                    sig[0] != data.shape
                    or sig[1] != data.dtype.num
                    or reqs[idx] != tensor.requires_grad
                ):
                    match = False
                else:
                    expected = sig[2]
                    if prev:
                        if expected is None or len(expected) != len(prev):
                            match = False
                        else:
                            for parent, want in zip(prev, expected):
                                if parent._plan_idx != want:
                                    match = False
                                    break
                    elif expected is not None:
                        match = False
        if not match and self._match:
            self._note_divergence()

    def tag_op(self, tensor: "Tensor", kind: str, meta: object = None) -> None:
        """Label a registered node with its op identity (for the compiler).

        The graph signature alone says "node with these parents and this
        shape" — fusion additionally needs to know *which* elementwise op a
        node is.  Capture stores the tag; replay verifies it (a changed op at
        the same tape position means the captured fused kernels are stale, so
        the step diverges to the ordinary fallback).
        """
        if tensor._plan_gen != self.generation:
            return
        idx = tensor._plan_idx
        if self.capturing:
            self._ops[idx] = (kind, meta)
        elif self._match:
            if self._ops.get(idx) != (kind, meta):
                self._note_divergence()
            elif idx < self._bw_nodes:
                self._tags_seen += 1

    # -- captured topological order -----------------------------------------
    def topo_order(self, root: "Tensor") -> "list[Tensor] | None":
        """The captured topo order replayed onto this step's nodes, or ``None``.

        Valid only when this step's registration sequence matched the capture
        end to end and ``root`` sits at the captured root position; any doubt
        returns ``None`` and the caller rebuilds with the ordinary DFS.
        """
        if (
            self._topo_idx is not None
            and self._match
            and not self.capturing
            and root._plan_gen == self.generation
            and root._plan_idx == self._topo_root
            and len(self._nodes) == len(self._sigs)
        ):
            nodes = self._nodes
            self.topo_replays += 1
            return [nodes[i] for i in self._topo_idx]
        return None

    def capture_topo(self, root: "Tensor", topo: "Sequence[Tensor]") -> None:
        """Remember a DFS-built topo order as creation-order indices.

        Only honoured when the current step's signature is trustworthy
        (capturing, or still matching the capture) and every node was
        registered this generation — the indices must line up with
        :meth:`topo_order`'s replay.
        """
        if not (self.capturing or self._match):
            return
        gen = self.generation
        if root._plan_gen != gen or any(n._plan_gen != gen for n in topo):
            return
        self._topo_idx = [n._plan_idx for n in topo]
        self._topo_root = root._plan_idx
        self.topo_captures += 1

    # -- backward tape capture (compiler input) -------------------------------
    # ``Tensor.backward`` instruments the capture step's closure loop with
    # these hooks.  The arena cursor doubles as a clock: a closure's recorded
    # ``[start, end)`` positions are exactly the checkouts it performed, which
    # is what lifetime analysis and schedule replay both key on.
    def wants_backward_capture(self) -> bool:
        """Whether this step's backward should be recorded for compilation."""
        return self.capturing and bool(self._passes) and not self._bw_seen

    def begin_backward(self, root: "Tensor") -> None:
        """Mark the start of the capture step's backward (before the seed)."""
        self._bw_seen = True
        if self._bw_records is not None or root._plan_gen != self.generation:
            # a second backward in one step (or an unregistered root) breaks
            # the one-tape-per-step model; refuse to compile rather than guess
            self._bw_invalid = True
        self._bw_records = []
        self._bw_root = root._plan_idx if root._plan_gen == self.generation else -1
        self._bw_nodes = len(self._nodes)
        self._bw_start = self._pos

    def note_seed_done(self) -> None:
        """Mark the end of the root-gradient seed accumulation."""
        self._bw_seed_end = self._pos

    def note_closure(self, node: "Tensor", start: int) -> None:
        """Record one executed backward closure and its checkout range."""
        self._bw_records.append((node._plan_idx, start, self._pos))

    def end_backward(self) -> None:
        """Mark the end of the capture step's backward loop."""
        self._bw_end = self._pos

    # -- compiled schedule execution ------------------------------------------
    def use_compiled(self, root: "Tensor") -> bool:
        """Whether this step's backward can run the compiled schedule.

        Mirrors :meth:`topo_order`'s validity conditions, plus: every op tag
        recorded during capture was re-verified this step (so the fused
        kernels' op-identity assumptions hold), and this is the step's first
        backward.  On success the caller must seed the root gradient and then
        call :meth:`execute_schedule`.
        """
        if self._schedule is None and self._waves is None:
            return False
        if (
            self._match
            and not self.capturing
            and not self._bw_seen
            and root._plan_gen == self.generation
            and root._plan_idx == self._bw_root
            and len(self._nodes) == len(self._sigs)
            and self._tags_seen == self._pre_bw_tags
        ):
            self._bw_seen = True
            self.topo_replays += 1
            return True
        return False

    def execute_schedule(self) -> None:
        """Run the compiled backward schedule against this step's nodes.

        Each item resets the arena cursor to its captured start position, so
        positions belonging to fused-away or dead-code-eliminated closures are
        simply skipped — live checkouts still land exactly where capture put
        them.
        """
        nodes = self._nodes
        try:
            if self._waves is not None:
                self._execute_waves(nodes)
            else:
                for start, op in self._schedule:
                    self._pos = start
                    if type(op) is int:
                        nodes[op]._backward()
                    else:
                        op.execute(self, nodes)
        finally:
            self._pos = self._bw_end
            self._parallel_exec = False

    def _execute_waves(self, nodes: "list[Tensor]") -> None:
        pool = _passes_mod.shared_pool()
        run = self._run_item
        self._parallel_exec = True
        for wave in self._waves:
            if len(wave) == 1:
                run(wave[0], nodes)
            else:
                futures = [pool.submit(run, item, nodes) for item in wave]
                for future in futures:
                    future.result()

    def _run_item(self, item: tuple, nodes: "list[Tensor]") -> None:
        start, op = item
        self._tls.pos = start
        if type(op) is int:
            nodes[op]._backward()
        else:
            op.execute(self, nodes)

    # -- arena accounting -----------------------------------------------------
    def arena_nbytes(self) -> int:
        """Bytes of unique arena storage (post-aliasing), incl. fused staging."""
        unique: dict[int, int] = {}
        for buf in self._buffers:
            unique[id(buf)] = buf.nbytes
        return sum(unique.values()) + self._staging_nbytes

    def arena_nbytes_raw(self) -> int:
        """Bytes the arena would hold with one buffer per position (no aliasing)."""
        total = sum(int(np.prod(shape, dtype=np.int64)) * dtype.itemsize for shape, dtype in self._keys)
        return total + self._staging_nbytes

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"GraphPlan(steps={self.steps}, buffers={len(self._buffers)}, "
            f"reused={self.reused_checkouts}, fresh={self.fresh_checkouts}, "
            f"diverged_steps={self.diverged_steps})"
        )
