"""Multi-worker execution of the paper's output-parallel chunk loop.

Section 4.1 parallelizes aggregation over chunks of ``T`` vertices with
dynamic scheduling and no synchronization.  This package executes that
plan on real workers:

* :mod:`repro.parallel.plan` — chunk decomposition + the deterministic
  dynamic (least-loaded) chunk-to-worker assignment.
* :mod:`repro.parallel.workload` — picklable per-chunk kernel bodies.
* :mod:`repro.parallel.executor` — ``serial`` / ``thread`` / ``process``
  backends with deterministic per-worker stats merging.

Every backend produces bitwise-identical outputs; the differential suite
in ``tests/integration/test_backend_equivalence.py`` enforces it.
"""

from .executor import BACKENDS, ChunkExecutor, ExecutionReport, WorkerReport
from .sharded import (
    SHARD_BACKENDS,
    ShardedConfig,
    ShardedTrainer,
    ShardRuntime,
    ShardWorkerDied,
)
from .shm import ArrayBundle, BundleSpec
from .plan import (
    Chunk,
    ChunkPlan,
    assign_chunks,
    assignment_imbalance,
    build_chunk_plan,
)
from .workload import (
    BasicAggregationWorkload,
    ChunkWorkload,
    FusedLayerWorkload,
)

__all__ = [
    "BACKENDS",
    "SHARD_BACKENDS",
    "ShardedConfig",
    "ShardedTrainer",
    "ShardRuntime",
    "ShardWorkerDied",
    "ArrayBundle",
    "BundleSpec",
    "ChunkExecutor",
    "ExecutionReport",
    "WorkerReport",
    "Chunk",
    "ChunkPlan",
    "assign_chunks",
    "assignment_imbalance",
    "build_chunk_plan",
    "BasicAggregationWorkload",
    "ChunkWorkload",
    "FusedLayerWorkload",
]
