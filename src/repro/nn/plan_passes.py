"""The plan compiler: two passes over a captured :class:`~repro.nn.plan.GraphPlan` tape.

After the capture step a plan holds a complete intermediate representation of
the training step: the arena checkout log (``_keys``), the graph signature
(``_sigs``/``_reqs``), the per-node registration watermarks (``_node_pos``)
and the backward execution records (``_bw_records`` — one
``(node, start, end)`` checkout range per executed closure).  ``compile_step``
runs two fixed passes over that IR and installs a *backward schedule* the
plan replays on every later step:

``dce`` — dead-node elimination
    Drops schedule items that provably no-op: leaf closures (the default
    ``lambda: None``) and interior nodes whose gradient can never flow from
    the root (no live consumer path with ``requires_grad``).  Dropped closures
    made zero checkouts during capture, so the arena walk is unchanged.

``alias`` — buffer lifetime analysis + storage aliasing
    The arena cursor is a clock: every checkout position has a birth time (its
    own index) and a conservative release time derived from ownership.  A
    forward position belongs to the interior node whose op checked it out (the
    first node registered at-or-after it) and dies when that node's backward
    closure finishes — the closure is the node's last captured reader, because
    every consumer's closure runs *earlier* (consumers are topologically later,
    so their closures come first in reverse-topo order).  Positions whose
    contents outlive the step are pinned: the backward root's forward buffers
    (trainers read ``loss.data`` after the step scope), every closure range
    that touches a leaf parent (parameter/input gradients are read by
    optimizers and tests after backward), and anything checked out after
    backward.  A greedy scan then remaps each position onto the oldest
    same-``(shape, dtype)`` storage whose release time has passed.  Values are
    unaffected — positions only share storage when their captured live ranges
    are disjoint — so bitwise equality with unplanned execution is preserved.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.nn.plan import GraphPlan

__all__ = ["compile_step"]


# ---------------------------------------------------------------------------
# liveness (``dce``)
# ---------------------------------------------------------------------------

def _compute_live(
    records: list[tuple[int, int, int]], sigs: list, reqs: list[bool], root_idx: int
) -> set[int]:
    """Nodes whose gradient is reachable from the backward root.

    Records run in execution order (reverse topological), so every consumer
    is processed before its producers and one pass suffices.
    """
    live = {root_idx}
    for idx, _start, _end in records:
        if idx in live and reqs[idx]:
            parents = sigs[idx][2]
            if parents:
                for p in parents:
                    if reqs[p]:
                        live.add(p)
    return live


# ---------------------------------------------------------------------------
# buffer lifetime analysis + aliasing (``alias``)
# ---------------------------------------------------------------------------

def _release_times(plan: "GraphPlan") -> list[float]:
    """Conservative release time (arena position) for every checkout position.

    ``inf`` pins a position to private storage for the whole step.  See the
    module docstring for the ownership model.
    """
    sigs = plan._sigs
    node_pos = plan._node_pos
    records = plan._bw_records
    total = len(plan._keys)
    bw_start, seed_end, bw_end = plan._bw_start, plan._bw_seed_end, plan._bw_end
    root_idx = plan._bw_root
    inf = float("inf")
    closure_end = {idx: end for idx, _start, end in records}
    release: list[float] = [inf] * total
    # forward segment: positions belong to the first interior node registered
    # at-or-after them (ops check buffers out, then register their result)
    ptr = 0
    for i in range(len(sigs)):
        if ptr >= bw_start:
            break
        if sigs[i][2] is None:
            continue
        npos = min(node_pos[i], bw_start)
        if npos > ptr:
            end = inf if i == root_idx else closure_end.get(i, inf)
            for p in range(ptr, npos):
                release[p] = end
            ptr = npos
    # positions between the last registration and backward (no_grad metrics)
    # keep the pinning default, as does everything after backward
    for p in range(bw_start, seed_end):
        release[p] = bw_end  # the root-gradient seed dies with backward
    for idx, start, end in records:
        parents = sigs[idx][2] or ()
        pinned = any(sigs[p][2] is None for p in parents)
        r = inf if pinned else bw_end
        for p in range(start, min(end, total)):
            release[p] = r
    return release


def _alias_storage(plan: "GraphPlan") -> list[int]:
    """Greedy storage remap: position -> position whose buffer it shares."""
    keys = plan._keys
    release = _release_times(plan)
    total = len(keys)
    storage = list(range(total))
    # per-(shape, dtype) storages with their current release time
    free: dict[tuple, list[list]] = {}
    for p in range(total):
        rel = release[p]
        bucket = free.get(keys[p])
        reused = False
        if bucket:
            for entry in bucket:
                if entry[0] <= p:
                    storage[p] = entry[1]
                    entry[0] = rel
                    reused = True
                    break
        if not reused:
            if bucket is None:
                free[keys[p]] = [[rel, p]]
            else:
                bucket.append([rel, p])
    return storage


# ---------------------------------------------------------------------------
# driver
# ---------------------------------------------------------------------------

def compile_step(plan: "GraphPlan") -> None:
    """Run ``dce`` then ``alias`` and install the compiled backward schedule."""
    records = plan._bw_records
    sigs = plan._sigs
    live = _compute_live(records, sigs, plan._reqs, plan._bw_root)
    schedule: list[tuple[int, int]] = []
    dropped = 0
    for idx, start, _end in records:
        if sigs[idx][2] is None or idx not in live:
            dropped += 1  # leaf default closure, or unreachable gradient
            continue
        schedule.append((start, idx))
    plan.dce_dropped = dropped
    plan._pre_bw_tags = sum(1 for i in plan._ops if i < plan._bw_nodes)
    storage = _alias_storage(plan)
    buffers = plan._buffers
    plan._buffers = [buffers[storage[p]] for p in range(len(buffers))]
    plan.aliased_positions = sum(1 for p, sp in enumerate(storage) if sp != p)
    plan._schedule = schedule
