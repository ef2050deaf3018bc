"""Unit tests for the DMA engine's Algorithm-4 execution."""

import numpy as np
import pytest

from repro.dma import (
    AggregationDescriptor, BinOp, DmaAddressSpace, DmaEngine, DmaError,
    RedOp, STATUS_ERROR, STATUS_OK,
)
from repro.sim import DramModel, MemoryHierarchy


def _setup_space(values, indices, factors, out_len):
    """Register input/index/factor/output/status arrays at fixed bases."""
    space = DmaAddressSpace()
    arrays = {
        "in": np.asarray(values, dtype=np.float32).reshape(-1),
        "idx": np.asarray(indices, dtype=np.int64),
        "factor": np.asarray(factors, dtype=np.float32),
        "out": np.zeros(out_len, dtype=np.float32),
        "status": np.zeros(8, dtype=np.int64),
    }
    bases = {"in": 0x1000_0000, "idx": 0x2000_0000, "factor": 0x3000_0000,
             "out": 0x4000_0000, "status": 0x5000_0000}
    for key, arr in arrays.items():
        space.register(bases[key], arr)
    return space, arrays, bases


def _descriptor(bases, e, n, stride_bytes, **kw):
    return AggregationDescriptor(
        num_values=e, num_blocks=n, padded_block_bytes=stride_bytes,
        idx_addr=bases["idx"], in_addr=bases["in"], out_addr=bases["out"],
        factor_addr=bases["factor"], status_addr=bases["status"], **kw,
    )


def _execute(values, indices, factors, out_len, e, n, stride_bytes, **kw):
    """One descriptor over fresh arrays: ``(status, arrays)``."""
    space, arrays, bases = _setup_space(values, indices, factors, out_len)
    engine = DmaEngine(0, address_space=space)
    return engine.execute(_descriptor(bases, e, n, stride_bytes, **kw)), arrays


class TestAlgorithm4:
    def test_weighted_sum(self):
        """red_op=SUM, bin_op=MUL performs the ψ-scaled reduction."""
        features = np.arange(12, dtype=np.float32).reshape(3, 4)  # rows 0..2
        status, arrays = _execute(features, [0, 2], [2.0, 0.5], 4, e=4, n=2,
                                  stride_bytes=16, red_op=RedOp.SUM, bin_op=BinOp.MUL)
        assert status == STATUS_OK
        expected = features[0] * 2.0 + features[2] * 0.5
        np.testing.assert_allclose(arrays["out"], expected, rtol=1e-6)
        assert arrays["status"][0] == STATUS_OK

    def test_plain_sum_without_binop(self):
        features = np.ones((4, 2), dtype=np.float32)
        _, arrays = _execute(features, [0, 1, 3], [0, 0, 0], 2, e=2, n=3,
                             stride_bytes=8, red_op=RedOp.SUM, bin_op=BinOp.NONE)
        np.testing.assert_allclose(arrays["out"], 3.0)

    def test_max_reduction(self):
        features = np.array([[1, 9], [5, 2], [3, 3]], dtype=np.float32)
        _, arrays = _execute(features, [0, 1, 2], [0] * 3, 2, e=2, n=3,
                             stride_bytes=8, red_op=RedOp.MAX)
        np.testing.assert_allclose(arrays["out"], [5, 9])

    def test_min_reduction(self):
        features = np.array([[1, 9], [5, 2]], dtype=np.float32)
        _, arrays = _execute(features, [0, 1], [0, 0], 2, e=2, n=2, stride_bytes=8,
                             red_op=RedOp.MIN)
        np.testing.assert_allclose(arrays["out"], [1, 2])

    def test_add_binop(self):
        features = np.zeros((2, 2), dtype=np.float32)
        _, arrays = _execute(features, [0, 1], [1.5, 2.5], 2, e=2, n=2,
                             stride_bytes=8, red_op=RedOp.SUM, bin_op=BinOp.ADD)
        np.testing.assert_allclose(arrays["out"], 4.0)

    def test_partial_row_with_padding(self):
        """E < stride elements: gathers only the leading piece (the
        Section 5.2 splitting primitive)."""
        features = np.arange(8, dtype=np.float32).reshape(2, 4)
        _, arrays = _execute(features, [1], [1.0], 2, e=2, n=1, stride_bytes=16,
                             bin_op=BinOp.MUL)
        np.testing.assert_allclose(arrays["out"][:2], features[1, :2])

    def test_zero_blocks_writes_zeros(self):
        space, arrays, bases = _setup_space(np.zeros(4, np.float32), [], [], 4)
        arrays["out"][:] = 5.0
        engine = DmaEngine(0, address_space=space)
        desc = _descriptor(bases, e=4, n=0, stride_bytes=16)
        assert engine.execute(desc) == STATUS_OK
        np.testing.assert_allclose(arrays["out"], 0.0)


class TestResourceLimits:
    def test_output_buffer_overflow_raises(self):
        with pytest.raises(DmaError):
            _execute(np.zeros(1024, np.float32), [0], [1.0], 600, e=600, n=1,
                     stride_bytes=2400)

    def test_max_e_fits_output_buffer(self):
        status, _ = _execute(np.zeros(512, np.float32), [0], [1.0], 512, e=512, n=1,
                             stride_bytes=2048)
        assert status == STATUS_OK


class TestFailureHandling:
    def test_bad_address_sets_error_status(self):
        space, arrays, bases = _setup_space(np.zeros(4, np.float32), [0], [1.0], 4)
        engine = DmaEngine(0, address_space=space)
        bad = AggregationDescriptor(
            num_values=4, num_blocks=1, padded_block_bytes=16,
            idx_addr=0xDEAD_0000, in_addr=bases["in"], out_addr=bases["out"],
            factor_addr=bases["factor"], status_addr=bases["status"],
        )
        assert engine.execute(bad) == STATUS_ERROR
        assert arrays["status"][0] == STATUS_ERROR
        assert engine.stats.descriptors_failed == 1


class TestAddressSpace:
    def test_overlap_rejected(self):
        space = DmaAddressSpace()
        space.register(0, np.zeros(16, np.float32))
        with pytest.raises(ValueError):
            space.register(32, np.zeros(16, np.float32))

    def test_unmapped_address(self):
        space = DmaAddressSpace()
        with pytest.raises(KeyError):
            space.resolve(0x1234)

    def test_misaligned_address(self):
        space = DmaAddressSpace()
        space.register(0, np.zeros(16, np.float32))
        with pytest.raises(ValueError):
            space.resolve(2)


class TestTimingPlane:
    def test_fetch_lines_bypasses_private(self):
        hierarchy = MemoryHierarchy(cache_scale=0.05)
        engine = DmaEngine(0)
        counts = engine.fetch_lines(hierarchy, [0], [64], [128, 192], [256])
        assert hierarchy.l1[0].stats.accesses == 0
        assert counts["touched_lines"] == 4
        assert engine.stats.output_lines_written == 1

    def test_outputs_installed_in_l2(self):
        hierarchy = MemoryHierarchy(cache_scale=0.05)
        engine = DmaEngine(0)
        engine.fetch_lines(hierarchy, [], [], [], [0x8000])
        assert hierarchy.access(0, 0x8000).level == "L2"

    def test_batch_time_decreases_with_entries(self):
        dram = DramModel()
        engine = DmaEngine(0)
        t8 = engine.batch_time_cycles(dram, 1000, 1200, tracking_entries=8)
        t32 = engine.batch_time_cycles(dram, 1000, 1200, tracking_entries=32)
        assert t32 < t8

    def test_invalid_entries(self):
        engine = DmaEngine(0)
        with pytest.raises(ValueError):
            engine.batch_time_cycles(DramModel(), 10, 10, tracking_entries=0)
