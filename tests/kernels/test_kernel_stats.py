"""Unit tests for KernelStats merge semantics and the telemetry view."""

from repro.kernels import KernelStats


class TestMerge:
    def test_additive_fields_sum(self):
        a = KernelStats(gathers=3, flops=10.0, prefetches=2, tasks=1, jit_compilations=4)
        b = KernelStats(gathers=7, flops=5.0, prefetches=1, tasks=2, jit_compilations=6)
        a.merge(b)
        assert (a.gathers, a.flops, a.prefetches, a.tasks,
                a.jit_compilations) == (10, 15.0, 3, 3, 10)

    def test_extra_dict_summation(self):
        a = KernelStats(extra={"wall_time_s": 1.0, "only_a": 2.0})
        b = KernelStats(extra={"wall_time_s": 0.5, "only_b": 3.0})
        a.merge(b)
        assert a.extra == {"wall_time_s": 1.5, "only_a": 2.0, "only_b": 3.0}
        # merge must not mutate the right-hand side
        assert b.extra == {"wall_time_s": 0.5, "only_b": 3.0}

    def test_empty_merge_identity(self):
        stats = KernelStats(gathers=5, flops=2.0, prefetches=1, tasks=2,
                            jit_compilations=1, extra={"k": 1.0})
        before = stats.as_dict()
        stats.merge(KernelStats())
        assert stats.as_dict() == before

    def test_merge_into_empty_copies(self):
        src = KernelStats(gathers=5, tasks=9, extra={"k": 2.0})
        dst = KernelStats()
        dst.merge(src)
        assert dst.as_dict() == src.as_dict()


class TestAsDict:
    def test_all_declared_counters_present(self):
        d = KernelStats().as_dict()
        assert set(d) == {"gathers", "flops", "prefetches", "tasks",
                          "jit_compilations"}
        assert all(isinstance(v, float) for v in d.values())

    def test_extra_namespaced(self):
        d = KernelStats(extra={"wall_time_s": 0.5}).as_dict()
        assert d["extra.wall_time_s"] == 0.5

    def test_extra_excluded_on_request(self):
        d = KernelStats(extra={"wall_time_s": 0.5}).as_dict(include_extra=False)
        assert "extra.wall_time_s" not in d
