"""Graphite (ISCA 2022) reproduction — GNNs on CPUs via cooperative
software-hardware techniques.

The package is organized as the paper is:

* :mod:`repro.graphs` — CSR graph substrate, generators, Table-3 twins,
  and the Section 4.4 locality reordering.
* :mod:`repro.tensors` — Section 4.3 mask-based feature compression and
  sparsity tooling.
* :mod:`repro.nn` — GCN / GraphSAGE numerics: layers, models, full-batch
  training (Sections 2.1, 6).
* :mod:`repro.kernels` — Algorithm 1's aggregation kernel, forward and
  transposed (the other Figure 11 strategies are priced by
  :mod:`repro.perf`).
* :mod:`repro.lanes` — the Section 4.1 output-parallel loop in one
  process: every kernel pass and dense layer phase cut into one
  contiguous output slice per core.
* :mod:`repro.parallel` — partition-parallel training: one shard per
  worker process over a shared-memory arena.
* :mod:`repro.perf` — the machine performance model that prices the
  software techniques (Figures 11/13/14/15, Tables 3-4).
* :mod:`repro.sim` — trace-driven cache/DRAM simulation (Section 7.3).
* :mod:`repro.dma` — the Section 5 DMA engine: descriptor format,
  Algorithm 4 execution, Algorithm 5 pipelined offload.
* :mod:`repro.gpu` — the Figure 2 sampled-training substrate.
* :mod:`repro.bench` — experiment harness; one function per paper
  artifact.
* :mod:`repro.obs` — run telemetry: hierarchical span tracer, metrics
  registry, and machine-readable run reports (off by default).

Quickstart::

    from repro.graphs import load_dataset, synthetic_features
    from repro.kernels import BasicKernel
    from repro.nn import build_model, Trainer, Adam

    graph = load_dataset("products", scale=0.25)
    features = synthetic_features(graph, 100)
    model = build_model("gcn", 100, 64, num_classes=16)
    trainer = Trainer(model, Adam(model, lr=0.01),
                      aggregation_kernel=BasicKernel())
"""

from . import bench, dma, gpu, graphs, kernels, nn, obs, parallel, perf, sim, tensors

__version__ = "1.0.0"

__all__ = [
    "bench",
    "dma",
    "gpu",
    "graphs",
    "kernels",
    "nn",
    "obs",
    "parallel",
    "perf",
    "sim",
    "tensors",
    "__version__",
]
