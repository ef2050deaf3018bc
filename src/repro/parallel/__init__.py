"""Partition-parallel training across processes.

Section 4.1's output-parallel loop runs inside one process on lanes
(:mod:`repro.lanes`: one contiguous output slice per core).  This package
is the other parallelism: the graph is partitioned and each shard is
trained by its own worker over one shared-memory arena.

* :mod:`repro.parallel.sharded` — the shard runtime, the sharded trainer
  and its ``serial`` / ``process`` backends.
* :mod:`repro.parallel.shm` — the shared-memory array bundle the shard
  workers attach to without copying.

A process-backend shard worker runs one lane: its shards are that run's
parallelism.
"""

from .sharded import (
    SHARD_BACKENDS,
    ShardedConfig,
    ShardedTrainer,
    ShardRuntime,
    ShardWorkerDied,
)
from .shm import ArrayBundle, BundleSpec

__all__ = [
    "SHARD_BACKENDS",
    "ShardedConfig",
    "ShardedTrainer",
    "ShardRuntime",
    "ShardWorkerDied",
    "ArrayBundle",
    "BundleSpec",
]
