"""Unit + property tests for the 64-byte aggregation descriptor (Fig. 8)."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dma import (
    DESCRIPTOR_BYTES, AggregationDescriptor, BinOp, IdxType, RedOp,
    ValType,
)


def _descriptor(**overrides):
    base = dict(num_values=64, num_blocks=10, padded_block_bytes=256,
                idx_addr=0x1000, in_addr=0x2000, out_addr=0x3000,
                factor_addr=0x4000, status_addr=0x5000)
    base.update(overrides)
    return AggregationDescriptor(**base)


class TestWireFormat:
    def test_packed_size_is_64_bytes(self):
        assert len(_descriptor().pack()) == DESCRIPTOR_BYTES

    def test_round_trip(self):
        desc = _descriptor(red_op=RedOp.MAX, bin_op=BinOp.ADD, idx_type=IdxType.U64)
        assert AggregationDescriptor.unpack(desc.pack()) == desc

    def test_field_offsets_match_figure8(self):
        """E at bytes 0-3; red_op at byte 7; N at 8-11; S at 12-15;
        addresses at 16/24/32/40/48."""
        desc = _descriptor(red_op=RedOp.MAX, bin_op=BinOp.MUL)
        raw = desc.pack()
        assert struct.unpack_from("<I", raw, 0)[0] == 64  # E
        assert raw[7] == RedOp.MAX  # red_op
        assert raw[6] == BinOp.MUL  # bin_op
        assert struct.unpack_from("<I", raw, 8)[0] == 10  # N
        assert struct.unpack_from("<I", raw, 12)[0] == 256  # S
        assert struct.unpack_from("<Q", raw, 16)[0] == 0x1000  # IDX
        assert struct.unpack_from("<Q", raw, 24)[0] == 0x2000  # IN
        assert struct.unpack_from("<Q", raw, 32)[0] == 0x3000  # OUT
        assert struct.unpack_from("<Q", raw, 40)[0] == 0x4000  # FACTOR
        assert struct.unpack_from("<Q", raw, 48)[0] == 0x5000  # STATUS

    def test_reserved_bytes_zero(self):
        raw = _descriptor().pack()
        assert raw[56:64] == b"\x00" * 8

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError):
            AggregationDescriptor.unpack(b"\x00" * 32)


class TestValidation:
    def test_e_positive(self):
        with pytest.raises(ValueError):
            _descriptor(num_values=0)

    def test_padding_covers_payload(self):
        with pytest.raises(ValueError):
            _descriptor(num_values=128, padded_block_bytes=256)  # needs 512

    def test_negative_address(self):
        with pytest.raises(ValueError):
            _descriptor(in_addr=-1)

    def test_zero_blocks_allowed(self):
        assert _descriptor(num_blocks=0).num_blocks == 0


class TestDerived:
    def test_byte_accounting(self):
        assert _descriptor().output_bytes == 64 * 4

    def test_type_sizes(self):
        assert (IdxType.U32.bytes, IdxType.U64.bytes) == (4, 8)
        assert (ValType.F32.bytes, ValType.F64.bytes) == (4, 8)


@settings(max_examples=60, deadline=None)
@given(
    num_values=st.integers(1, 1 << 20),
    num_blocks=st.integers(0, 1 << 20),
    addresses=st.tuples(*[st.integers(0, (1 << 60) - 1)] * 5),
    red_op=st.sampled_from(list(RedOp)),
    bin_op=st.sampled_from(list(BinOp)),
    idx_type=st.sampled_from(list(IdxType)),
    val_type=st.sampled_from(list(ValType)),
)
def test_pack_unpack_property(
    num_values, num_blocks, addresses, red_op, bin_op, idx_type, val_type
):
    desc = AggregationDescriptor(
        num_values=num_values, num_blocks=num_blocks,
        padded_block_bytes=num_values * val_type.bytes,
        **dict(zip(("idx_addr", "in_addr", "out_addr", "factor_addr",
                    "status_addr"), addresses)),
        red_op=red_op, bin_op=bin_op, idx_type=idx_type, val_type=val_type,
    )
    assert AggregationDescriptor.unpack(desc.pack()) == desc
