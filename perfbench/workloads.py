"""The benchmark's workloads: which artifacts a run reports, and with which trial seeds.

A workload is one ``python -m repro report`` command line at the ``small``
scale.  The benchmark's ``--seed`` argument only chooses the trial seeds the
command receives (``--seeds``); the program never sees the benchmark seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: trial seeds every workload draws from.  Each one was checked to train
#: without divergence on both workloads at the ``small`` scale, so no
#: benchmark seed can pick a seed that makes a cell fall back or fail.
TRIAL_SEED_POOL = tuple(range(10))

SCALE = "small"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (why each was chosen: ``BENCHMARK.json`` and the README)."""

    name: str
    #: the ``--only`` selection passed to ``repro report``
    only: str
    #: how many trial seeds the run passes with ``--seeds``
    num_seeds: int
    #: whether the run passes ``--batch-seeds``
    batch_seeds: bool

    def trial_seeds(self, seed: int) -> tuple[int, ...]:
        """The trial seeds for benchmark seed ``seed``: sorted, distinct, from the pool."""
        rng = random.Random(f"{self.name}:{seed}")
        return tuple(sorted(rng.sample(TRIAL_SEED_POOL, self.num_seeds)))

    def cli_args(self, seed: int, cache_dir: str, out_dir: str) -> list[str]:
        """The ``repro`` command line (after ``python -m repro``) of one report."""
        args = [
            "report",
            "--only", self.only,
            "--scale", SCALE,
            "--seeds", ",".join(str(s) for s in self.trial_seeds(seed)),
            "--workers", "1",
            "--cache-dir", cache_dir,
            "--out", out_dir,
        ]
        if self.batch_seeds:
            args.append("--batch-seeds")
        return args


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="glue-finetune",
            only="table10",
            num_seeds=1,
            batch_seeds=False,
        ),
        Workload(
            name="seed-batched-detect",
            only="table9",
            num_seeds=5,
            batch_seeds=True,
        ),
    )
}
