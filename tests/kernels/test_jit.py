"""Unit tests for the JIT kernel-specialization cache (Section 4.1)."""

import gc
import pickle
import weakref

import numpy as np
import pytest

from repro.graphs import synthetic_features, uniform_graph
from repro.kernels import BasicKernel, JitKernelCache, KernelSpec
from repro.nn import aggregate
from repro.nn.aggregate import (
    aggregate_backward_reference, gather_reduce_reference,
)


def _specialized(graph, width, aggregator, seed):
    """A fresh cache's forward kernel for ``graph`` and features for it."""
    kernel = JitKernelCache().specialize(graph, KernelSpec(width, aggregator))
    return kernel, synthetic_features(graph, width, seed=seed)


class TestCache:
    def test_compile_once_per_spec(self, small_products):
        cache = JitKernelCache()
        spec = KernelSpec(feature_len=16, aggregator="gcn")
        cache.specialize(small_products, spec)
        cache.specialize(small_products, spec)
        assert (cache.compilations, len(cache)) == (1, 1)

    def test_new_spec_compiles_again(self, small_products):
        cache = JitKernelCache()
        cache.specialize(small_products, KernelSpec(16, "gcn"))
        cache.specialize(small_products, KernelSpec(32, "gcn"))
        cache.specialize(small_products, KernelSpec(16, "mean"))
        assert cache.compilations == 3

    def test_per_graph_specialization(self, small_products, small_uniform):
        cache = JitKernelCache()
        cache.specialize(small_products, KernelSpec(16, "gcn"))
        cache.specialize(small_uniform, KernelSpec(16, "gcn"))
        assert cache.compilations == 2

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            KernelSpec(feature_len=0, aggregator="gcn")

    def test_specialized_kernel_correct(self, small_products):
        kernel, h = _specialized(small_products, 12, "mean", 0)
        reference = aggregate(small_products, h, "mean")
        n = small_products.num_vertices
        for lo, hi in ((0, 1), (5, 9), (n - 1, n)):
            np.testing.assert_allclose(kernel.rows(lo, hi)(h), reference[lo:hi],
                                       atol=1e-5)


class TestAmortization:
    def test_repeated_layers_amortize(self, small_products):
        """The training-loop pattern: the second epoch compiles nothing."""
        kernel = BasicKernel()
        h = synthetic_features(small_products, 16, seed=1)
        _, first = kernel.aggregate(small_products, h, "gcn")
        _, second = kernel.aggregate(small_products, h, "gcn")
        assert (first.jit_compilations, second.jit_compilations) == (1, 0)


class TestBatchedSpecialization:
    def test_matches_reference_on_all_vertices(self, small_products):
        kernel, h = _specialized(small_products, 12, "mean", 0)
        reference = aggregate(small_products, h, "mean")
        np.testing.assert_allclose(kernel(h), reference, atol=2e-5)

    def test_matches_reference_per_chunk(self, small_products):
        kernel, h = _specialized(small_products, 8, "gcn", 2)
        reference = gather_reduce_reference(small_products, h, "gcn")
        np.testing.assert_allclose(kernel.rows(17, 49)(h), reference[17:49], atol=2e-5)

    def test_row_slice_is_bitwise_the_whole_pass(self, small_products):
        """A lane's row slice accumulates each row exactly as the whole
        operator does, so the two agree bit for bit."""
        kernel, h = _specialized(small_products, 8, "gcn", 3)
        whole = kernel(h)
        np.testing.assert_array_equal(kernel.rows(10, 42)(h), whole[10:42])

    def test_empty_vertex_array(self, small_products):
        kernel, h = _specialized(small_products, 4, "sum", 0)
        for lo in (0, 5):
            assert kernel.rows(lo, lo)(h).shape == (0, 4)


class TestBackwardSpecialization:
    """The transpose-direction operator behind ``aggregate_backward``."""

    def test_cached_separately_per_direction(self, small_products):
        """Forward and backward share a spec but never a cache entry —
        they close over different (transposed) factor layouts."""
        cache = JitKernelCache()
        spec = KernelSpec(8, "gcn")
        cache.specialize(small_products, spec)
        cache.specialize_backward(small_products, spec)
        assert (cache.compilations, len(cache)) == (2, 2)
        # Second round hits the cache for both directions.
        cache.specialize(small_products, spec)
        cache.specialize_backward(small_products, spec)
        assert cache.compilations == 2

    def test_backward_matches_reference_per_chunk(self, small_products):
        cache = JitKernelCache()
        kernel = cache.specialize_backward(small_products, KernelSpec(8, "gcn"))
        grad_a = synthetic_features(small_products, 8, seed=4)
        reference = aggregate_backward_reference(small_products, grad_a, "gcn")
        np.testing.assert_allclose(kernel.rows(13, 57)(grad_a),
                                   reference[13:57], atol=2e-5)

    def test_backward_is_transpose_of_forward(self, small_uniform):
        """<Â h, g> == <h, Âᵀ g> — the adjointness identity that defines
        the backward kernel, checked against the forward operator."""
        cache = JitKernelCache()
        spec = KernelSpec(6, "gcn")
        fwd = cache.specialize(small_uniform, spec)
        bwd = cache.specialize_backward(small_uniform, spec)
        rng = np.random.default_rng(0)
        h = rng.standard_normal((small_uniform.num_vertices, 6)).astype(np.float32)
        g = rng.standard_normal((small_uniform.num_vertices, 6)).astype(np.float32)
        lhs = float((fwd(h) * g).sum())
        rhs = float((h * bwd(g)).sum())
        assert abs(lhs - rhs) <= 1e-3 * max(abs(lhs), 1.0)

    def test_backward_entries_amortize_in_kernel(self, small_products):
        """Training pattern: the second backward pass compiles nothing."""
        kernel = BasicKernel()
        grad_a = synthetic_features(small_products, 16, seed=5)
        _, first = kernel.aggregate_backward(small_products, grad_a, "gcn")
        _, second = kernel.aggregate_backward(small_products, grad_a, "gcn")
        assert (first.jit_compilations, second.jit_compilations) == (1, 0)


class TestWeakrefKeying:
    """Regression: the cache used to key off ``id(graph)``, so a look-alike
    graph allocated at a dead graph's address silently inherited its
    ψ-factor closures (wrong normalization, no recompilation)."""

    def test_entries_evicted_when_graph_dies(self):
        cache = JitKernelCache()
        graph = uniform_graph(40, avg_degree=4.0, seed=0)
        cache.specialize(graph, KernelSpec(8, "gcn"))
        cache.specialize_backward(graph, KernelSpec(8, "gcn"))
        assert len(cache) == 2
        del graph
        gc.collect()
        assert len(cache) == 0

    def test_dropped_cache_is_freed_without_a_collection(self):
        """The eviction callback reaches the cache through a weakref, so
        a dropped cache (and every operator it compiled) dies by
        refcount while its graph lives on — and the graph's later death
        calls back into nothing."""
        graph = uniform_graph(40, avg_degree=4.0, seed=0)
        cache = JitKernelCache()
        cache.specialize(graph, KernelSpec(8, "gcn"))
        cache_ref = weakref.ref(cache)
        gc.disable()
        try:
            del cache
            assert cache_ref() is None
        finally:
            gc.enable()
        del graph  # fires the orphaned callback

    def test_look_alike_graph_gets_fresh_kernel(self):
        """Drop a graph, allocate same-shaped graphs hunting for address
        reuse: every one must recompile and use its own factors."""
        cache = JitKernelCache()
        spec = KernelSpec(4, "gcn")
        graph = uniform_graph(30, avg_degree=3.0, seed=0)
        cache.specialize(graph, spec)
        del graph
        gc.collect()
        for seed in range(1, 21):
            look_alike = uniform_graph(30, avg_degree=3.0, seed=seed)
            before = cache.compilations
            kernel = cache.specialize(look_alike, spec)
            assert cache.compilations == before + 1
            h = synthetic_features(look_alike, 4, seed=seed)
            np.testing.assert_allclose(kernel.rows(0, 1)(h)[0],
                                       aggregate(look_alike, h, "gcn")[0], atol=1e-5)
            del look_alike, kernel
            gc.collect()
        assert len(cache) == 0

    def test_live_graphs_keyed_independently(self):
        cache = JitKernelCache()
        spec = KernelSpec(4, "sum")
        graphs = [uniform_graph(25, avg_degree=3.0, seed=s) for s in range(4)]
        kernels = [cache.specialize(g, spec) for g in graphs]
        assert cache.compilations == 4
        for g, k in zip(graphs, kernels):
            h = synthetic_features(g, 4, seed=9)
            np.testing.assert_allclose(k.rows(1, 2)(h)[0], aggregate(g, h, "sum")[1],
                                       atol=1e-5)

    def test_token_survives_pickle_roundtrip(self, small_products):
        """Workers unpickle the graph; specialization must still work."""
        clone = pickle.loads(pickle.dumps(small_products))
        cache = JitKernelCache()
        cache.specialize(small_products, KernelSpec(4, "gcn"))
        cache.specialize(clone, KernelSpec(4, "gcn"))
        assert cache.compilations == 2
