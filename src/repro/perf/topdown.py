"""Top-down pipeline-slot breakdown — Figure 3 and Table 4 of the paper.

The paper characterizes executions with Intel VTune's top-down method:
pipeline slots split into *retiring* (useful work), *frontend bound*,
*core bound*, and *memory bound*, plus cycle fractions limited by L2, L3,
DRAM bandwidth, and DRAM latency, and the fraction of cycles the L1 fill
buffers are full.

This module derives those metrics from the cost model's phase timings:

* retiring tracks achieved FLOP throughput relative to the sustained-peak
  envelope;
* memory-bound tracks the share of time the model says execution waits
  on the memory system;
* DRAM-bandwidth-bound cycles are the share of time phases run at the
  bandwidth limit; the latency share covers memory stalls that are not
  bandwidth-limited;
* the fill buffers are pegged full whenever the execution is bandwidth
  bound (Section 3 observes exactly this).
"""

from __future__ import annotations

from dataclasses import dataclass

from .cost_model import CostModel, VARIANTS, WorkloadTimes

#: Retiring envelope: the achieved-FLOP rate that corresponds to all
#: pipeline slots retiring useful micro-ops.  Calibrated against the
#: published Figure 3 baseline breakdown (the top-down "retiring" metric
#: counts issue slots, of which vector FLOPs fill only a part).
SUSTAINED_PEAK_FRACTION = 1.10

#: Frontend-bound share — essentially constant for these loops (Fig. 3).
FRONTEND_BOUND = 0.033


@dataclass(frozen=True)
class TopdownReport:
    """One row of Table 4."""

    variant: str
    retiring: float
    frontend_bound: float
    core_bound: float
    memory_bound: float
    l2_bound: float
    l3_bound: float
    dram_bandwidth_bound: float
    dram_latency_bound: float
    fill_buffer_full: float

    def as_row(self) -> str:
        return (
            f"{self.variant:<12} ret={self.retiring:5.1%} "
            f"mem={self.memory_bound:5.1%} L2={self.l2_bound:4.1%} "
            f"L3={self.l3_bound:4.1%} BW={self.dram_bandwidth_bound:5.1%} "
            f"lat={self.dram_latency_bound:5.1%} "
            f"fb={self.fill_buffer_full:5.1%}"
        )


def topdown_from_times(
    model: CostModel,
    times: WorkloadTimes,
) -> TopdownReport:
    """Derive the top-down breakdown from a workload's phase times (the
    hit rate is the model's for the variant's processing order)."""
    machine = model.machine
    total = times.total
    if total <= 0:
        raise ValueError("workload time must be positive")
    hit_rate = model.hit_rate(VARIANTS[times.variant].order)

    # Retiring: achieved FLOP rate vs the sustained envelope.
    achieved = times.flops / total
    retiring = min(0.95, achieved / (machine.peak_flops * SUSTAINED_PEAK_FRACTION))

    # Share of time each phase is limited by bandwidth vs compute.
    all_phases = list(times.layer_times) + list(times.backward_times)
    bw_bound_time = 0.0
    mem_stall_time = 0.0
    for phase in all_phases:
        if phase.memory_time >= phase.compute_time:
            bw_bound_time += min(phase.total, phase.memory_time)
        mem_stall_time += min(phase.total, phase.memory_time)
    dram_bw = min(0.95, bw_bound_time / total)

    # Stalled-on-memory slots: ~70% of memory-limited time shows up as
    # memory-bound slots; the rest surfaces as core-bound (dependency
    # chains, divider, port pressure) — the Figure 3 split.
    stall_share = min(1.0, mem_stall_time / total)
    memory_bound = max(
        0.0, min(1.0 - retiring - FRONTEND_BOUND, stall_share * 0.70)
    )
    core_bound = max(0.0, 1.0 - retiring - FRONTEND_BOUND - memory_bound)

    # Cache-level stall shares: the hit rate splits the non-DRAM part of
    # the memory stalls between L2 and L3.
    non_dram = max(0.0, memory_bound - dram_bw * memory_bound)
    l2_bound = non_dram * 0.35 * hit_rate + 0.005
    l3_bound = non_dram * 0.65 * hit_rate + 0.01
    dram_latency = max(
        0.02, memory_bound * (1.0 - dram_bw) * 0.45 + 0.03 * (1 - hit_rate)
    )

    # Fill buffers: pegged while bandwidth bound; relieved as the run
    # becomes compute bound (Table 4: c-locality drops to 31-94%).
    if dram_bw > 0.55:
        fill_full = 1.0
    else:
        fill_full = min(1.0, dram_bw / 0.55)

    return TopdownReport(
        variant=times.variant,
        retiring=retiring,
        frontend_bound=FRONTEND_BOUND,
        core_bound=core_bound,
        memory_bound=memory_bound,
        l2_bound=min(0.2, l2_bound),
        l3_bound=min(0.2, l3_bound),
        dram_bandwidth_bound=dram_bw,
        dram_latency_bound=min(0.25, dram_latency),
        fill_buffer_full=fill_full,
    )


def characterize(
    model: CostModel,
    variant_name: str,
    f_input: int,
    f_hidden: int,
    training: bool = True,
    sparsity: float = 0.5,
) -> TopdownReport:
    """Table-4 row: characterize one variant on one graph."""
    runner = model.training_epoch_time if training else model.inference_time
    times = runner(variant_name, f_input, f_hidden, sparsity=sparsity)
    return topdown_from_times(model, times)
