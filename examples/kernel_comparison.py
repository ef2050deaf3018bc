#!/usr/bin/env python
"""What the paper's execution strategies are in this reproduction.

The value plane runs one aggregation kernel, ``BasicKernel`` (Alg. 1);
the other Figure-11 variants are priced by the cost model, as the paper
judges them (Section 7).  On one layer of a products twin this demo:

1. runs ``BasicKernel`` on the natural labelling and on Algorithm 3's
   locality relabel (Section 4.4), each checked against the
   ``nn/aggregate`` oracle with the rows mapped back to original ids,
   and offloads the fused layer to the DMA engines (Section 5);
2. round-trips the features through S3's mask-compressed format
   (Section 4.3) and sets its measured bytes against ``traffic_ratio``;
3. prints ``kernel_cost``'s price of one inference pass for every
   variant in ``VARIANTS``.

Run:  python examples/kernel_comparison.py
"""

import numpy as np

from repro.dma import DmaOffloadRunner
from repro.graphs import apply_order, load_dataset, locality_order, synthetic_features
from repro.kernels import BasicKernel, UpdateParams
from repro.nn import aggregate
from repro.perf import VARIANTS, CostModel
from repro.perf.cost_model import kernel_cost
from repro.perf.traffic import LayerShape
from repro.tensors.compression import compress_matrix, decompress_matrix, traffic_ratio


def main() -> None:
    graph = load_dataset("products", scale=0.1, seed=0)
    f_in, f_out = 64, 32
    h = synthetic_features(graph, f_in, seed=0, sparsity=0.5)
    rng = np.random.default_rng(0)
    params = UpdateParams(
        weight=(rng.standard_normal((f_in, f_out)) * 0.2).astype(np.float32),
        bias=np.zeros(f_out, dtype=np.float32),
    )
    reference_a = aggregate(graph, h, "gcn")
    reference_h = params.apply(reference_a)
    print(f"graph |V|={graph.num_vertices} |E|={graph.num_edges}, "
          f"features {f_in}->{f_out}, 50% sparse\n")
    errors = []

    # 1. The value-plane kernel, natural and relabelled, and the DMA path.
    print(f"{'run':<14} {'max err':>9} notes")
    a, stats = BasicKernel().aggregate(graph, h, "gcn")
    errors.append(np.abs(a - reference_a).max())
    print(f"{'basic':<14} {errors[-1]:9.2e} {stats.gathers} gathers, "
          f"{stats.prefetches} prefetch hints")
    order = locality_order(graph)
    a, _ = BasicKernel().aggregate(apply_order(graph, order), h[order], "gcn")
    errors.append(np.abs(a[np.argsort(order)] - reference_a).max())
    print(f"{'c-locality':<14} {errors[-1]:9.2e} Algorithm 3 relabel, "
          "rows mapped back")

    # The DMA offload: the hardware path, fused update included.
    runner = DmaOffloadRunner(cache_scale=0.02)
    h_out, _, report = runner.run_layer(graph, h, params=params)
    errors.append(np.abs(h_out - reference_h).max())
    print(f"{'fusion+DMA':<14} {errors[-1]:9.2e} "
          f"{report.descriptors_issued} descriptors, "
          f"core L1 accesses {report.core_l1_accesses}")

    # 2. S3's format: lossless, and it stores what the model says.
    compressed = compress_matrix(h)
    lossless = np.array_equal(decompress_matrix(compressed), h)
    sparsity = float((h == 0).mean())
    measured = compressed.total_stored_bytes() / compressed.dense_bytes()
    print(f"\nS3 format: lossless={lossless}, stores {measured:.3f} of the "
          f"dense bytes at sparsity {sparsity:.3f} "
          f"(traffic_ratio: {traffic_ratio(sparsity):.3f})")

    # 3. Every variant priced on this layer (fused inference keeps the
    # aggregation in a reusable block buffer, Figure 5c).
    model = CostModel(graph)
    print(f"\n{'variant':<12} {'hit rate':>8} {'DRAM MB':>9} "
          f"{'memory ms':>10} {'compute ms':>11}")
    for name, spec in VARIANTS.items():
        shape = LayerShape(graph.num_vertices, graph.num_edges, f_in,
                           f_out if spec.fused else f_in)
        rate = model.hit_rate(spec.order)
        cost = kernel_cost(model.machine, spec, shape, rate, sparsity,
                           write_a=not spec.fused)
        dram = sum(t.dram_total for t in cost.phases.values())
        print(f"{name:<12} {rate:8.3f} {dram / 1e6:9.2f} "
              f"{cost.memory_s * 1e3:10.3f} {cost.compute_s * 1e3:11.3f}")

    if not lossless or max(errors) > 1e-4:
        raise SystemExit(f"runs disagree: max error {max(errors):.2e}")
    print("\nevery run matches the oracle — Graphite's optimizations are "
          "semantics-preserving")


if __name__ == "__main__":
    main()
