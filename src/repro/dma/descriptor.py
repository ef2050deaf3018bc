"""The 64-byte aggregation descriptor — Figure 8 of the paper.

One descriptor encodes an entire per-vertex aggregation (vs. the
descriptor-chain-per-block model of conventional scatter-gather DMA,
Section 2.3).  Field layout, by 8-byte rows:

====  =======================================================
bytes  field
====  =======================================================
0-3    E — number of values in each gathered data block
4      val_t — element type of inputs/outputs
5      idx_t — element type of the index array
6      bin_op — optional binary operator (the ψ of Algorithm 1)
7      red_op — reduction operator
8-11   N — number of input data blocks (row length in CSR)
12-15  S — padded size of each data block in bytes
16-23  IDX — virtual address of the index array slice
24-31  IN — base virtual address of the input feature matrix
32-39  OUT — virtual address the results are written to
40-47  FACTOR — virtual address of the factor array slice
48-55  STATUS — virtual address of the completion record
56-63  reserved
====  =======================================================

All addresses are virtual (the engine translates via the STLB).
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

DESCRIPTOR_BYTES = 64

_STRUCT = struct.Struct("<IBBBBII6Q")
assert _STRUCT.size == DESCRIPTOR_BYTES


class RedOp(enum.IntEnum):
    """Reduction operators the vector unit supports."""

    SUM = 0
    MAX = 1
    MIN = 2


class BinOp(enum.IntEnum):
    """Binary operators applied with the factor array (ψ support)."""

    NONE = 0
    MUL = 1
    ADD = 2


class IdxType(enum.IntEnum):
    U32 = 0
    U64 = 1

    @property
    def bytes(self) -> int:
        return 4 if self is IdxType.U32 else 8


class ValType(enum.IntEnum):
    F32 = 0
    F64 = 1

    @property
    def bytes(self) -> int:
        return 4 if self is ValType.F32 else 8


@dataclass(frozen=True)
class AggregationDescriptor:
    """A decoded aggregation descriptor (Figure 8)."""

    num_values: int  # E
    num_blocks: int  # N
    padded_block_bytes: int  # S
    idx_addr: int  # IDX
    in_addr: int  # IN
    out_addr: int  # OUT
    factor_addr: int  # FACTOR
    status_addr: int  # STATUS
    red_op: RedOp = RedOp.SUM
    bin_op: BinOp = BinOp.NONE
    idx_type: IdxType = IdxType.U32
    val_type: ValType = ValType.F32

    def __post_init__(self) -> None:
        if self.num_values <= 0:
            raise ValueError(f"E must be positive, got {self.num_values}")
        if self.num_blocks < 0:
            raise ValueError(f"N must be >= 0, got {self.num_blocks}")
        if self.padded_block_bytes < self.num_values * self.val_type.bytes:
            raise ValueError(
                "padded block size S smaller than E elements of val_t"
            )
        for name in ("idx_addr", "in_addr", "out_addr", "factor_addr", "status_addr"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    # ------------------------------------------------------------------
    def pack(self) -> bytes:
        """Encode to the 64-byte wire format."""
        return _STRUCT.pack(
            self.num_values,
            self.val_type,
            self.idx_type,
            self.bin_op,
            self.red_op,
            self.num_blocks,
            self.padded_block_bytes,
            self.idx_addr,
            self.in_addr,
            self.out_addr,
            self.factor_addr,
            self.status_addr,
            0,  # reserved
        )

    @classmethod
    def unpack(cls, raw: bytes) -> "AggregationDescriptor":
        """Decode the 64-byte wire format."""
        if len(raw) != DESCRIPTOR_BYTES:
            raise ValueError(
                f"descriptor must be {DESCRIPTOR_BYTES} bytes, got {len(raw)}"
            )
        (
            num_values,
            val_type,
            idx_type,
            bin_op,
            red_op,
            num_blocks,
            padded,
            idx_addr,
            in_addr,
            out_addr,
            factor_addr,
            status_addr,
            _reserved,
        ) = _STRUCT.unpack(raw)
        return cls(
            num_values=num_values,
            num_blocks=num_blocks,
            padded_block_bytes=padded,
            idx_addr=idx_addr,
            in_addr=in_addr,
            out_addr=out_addr,
            factor_addr=factor_addr,
            status_addr=status_addr,
            red_op=RedOp(red_op),
            bin_op=BinOp(bin_op),
            idx_type=IdxType(idx_type),
            val_type=ValType(val_type),
        )

    # ------------------------------------------------------------------
    @property
    def output_bytes(self) -> int:
        return self.num_values * self.val_type.bytes
