"""Ablation: fused block size B (Section 4.2).

B controls whether the in-flight a-block stays cache resident between
the aggregation and the update of the same j-loop iteration.  Too large
a B spills the block to DRAM and fusion degenerates to the unfused
round trip; too small a B shrinks the update GEMM below efficiency.

The block buffer is priced, not run: fused inference keeps one reusable
``B x F`` fp32 block (Figure 5c), held against the L2 of the paper's
28-core server.
"""

from conftest import run_experiment

from repro.bench.harness import Experiment
from repro.perf import cascade_lake_28

FEATURES = 64


def _sweep(ctx):
    exp = Experiment("ablation-B", "Fused block size: buffer bytes & blocks")
    l2_bytes = cascade_lake_28().l2_bytes
    for block in (8, 32, 128, 1024, 8192):
        buffer_bytes = block * FEATURES * 4
        exp.add(f"B={block} buffer KiB", buffer_bytes / 1024, unit="KiB")
        exp.add(
            f"B={block} fits L2",
            float(buffer_bytes <= l2_bytes),
            unit="bool",
        )
    return exp


def test_block_size_ablation(benchmark, ctx):
    exp = run_experiment(benchmark, _sweep, ctx)
    values = {r.label: r.measured for r in exp.rows}
    # The paper-style choice (B=32, 256-float rows) fits comfortably in
    # L2; a 8192-vertex block of 64-float rows (2MB) does not.
    assert values["B=32 fits L2"] == 1.0
    assert values["B=8192 fits L2"] == 0.0
