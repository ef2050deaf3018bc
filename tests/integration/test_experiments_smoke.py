"""The qualitative shape of every paper-artifact experiment, claim by claim.

Each test names the rows of ``benchmarks/criteria.py`` that state its
claim and checks that they apply to, and hold on, the session's one run
of the whole plan (``paper_run``, at the suite's scale).  Full-scale
numbers live in EXPERIMENTS.md.
"""

import pytest

pytestmark = pytest.mark.slow  # the whole plan's run; skip via -m "not slow"


@pytest.fixture
def holds(run_all, paper_run):
    """``holds(key, *names)``: each named criterion of ``key`` applies at
    the run's scale and did not fail."""
    applicable = {f"{c.key}: {c.name}"
                  for c in run_all.criteria.applicable(paper_run.scale)}
    failed = {line[len("FAILED "):] for line in paper_run.err.splitlines()}

    def check(key, *names):
        for name in (f"{key}: {name}" for name in names):
            assert name in applicable and name not in failed, name

    return check


class TestMotivation:
    def test_fig2_sampling_dominates(self, holds):
        holds("fig2", "sampling dominates every epoch")

    def test_fig2_epoch_time_decreases_with_batch(self, holds):
        holds("fig2", "epoch time falls as batches grow")

    def test_fig3_memory_bound_dominates(self, holds):
        holds("fig3", "memory bound above 0.5", "retiring below 0.2")

    def test_tab3_mean_degrees_in_band(self, holds):
        holds("tab3", "mean degree within 0.5-1.5x of the paper")


class TestSoftwareEvaluation:
    def test_fig11a_ordering(self, holds):
        holds("fig11a",
              "combined beats every other variant",
              "combined beats DistGNN by more than 1.4x",
              "mkl loses to DistGNN, basic beats it")

    def test_fig11b_locality_wins_training(self, holds):
        holds("fig11b",
              "c-locality is within 2% of combined or above",
              "products gains most from locality")

    def test_fig13_update_share_orders_fusion_benefit(self, holds):
        holds("fig13",
              "wikipedia has a larger update share than products",
              "fused inference is never slower than basic")

    def test_fig14_crossover(self, holds):
        holds("fig14a",
              "compression loses at 10% sparsity",
              "compression wins more than 1.3x at 90% sparsity",
              "speedup grows with sparsity")

    def test_fig15_products_randomized_equals_combined(self, holds):
        holds("fig15",
              "products combined matches randomized within 0.1",
              "products reordering beats randomized by 1.3x",
              "pre-localized wikipedia beats randomized by 2%")

    def test_tab4_optimizations_raise_retiring(self, holds):
        holds("tab4",
              "c-locality retires more than DistGNN on products, papers",
              "c-locality is less memory-bound than DistGNN on products, papers")


class TestHardwareEvaluation:
    def test_fig12_dma_beats_fusion(self, holds):
        holds("fig12a", "DMA adds to fusion")

    def test_fig12b_locality_stacks_with_dma(self, holds):
        holds("fig12b", "DMA adds to fusion+locality")

    def test_fig16_knee_at_32_entries(self, holds):
        holds("fig16",
              "16 entries take under 0.8 of 8 entries' time",
              "32 entries beat 16",
              "64 entries buy under 10% over 32")

    def test_tab5_agg_only_reductions_over_90pct(self, holds):
        holds("tab5",
              "DMA removes over 90% of aggregation's L1 accesses",
              "DMA removes over 90% of aggregation's L2 accesses",
              "the fused update keeps its L1 accesses")

    def test_sec732_l2_miss_rate_collapses(self, holds):
        holds("sec732", "L2 miss rate falls with DMA")
