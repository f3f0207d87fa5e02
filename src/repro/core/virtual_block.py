"""Virtual blocks: the unit of I-CASH metadata.

Section 4.3: "Each virtual block contains the LBA address, the signature,
the pointer to the reference block, the pointer to data block, and the
pointer to delta blocks.  A virtual block can be one of three different
types: reference block, associate block, or independent block."

The pointer to the reference block, and whether the delta still awaits a
flush, live in the controller's delta-map record and flush queue instead:
both outlive the virtual block when it is evicted.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.delta.encoder import Delta


class BlockKind(enum.Enum):
    """The three virtual-block types of Section 4.3."""

    #: No associated reference block; its content lives in its data block
    #: (RAM) and/or on the HDD data region.
    INDEPENDENT = "independent"
    #: Anchored in the SSD; other blocks delta-compress against it.
    REFERENCE = "reference"
    #: Content = reference block content + delta.
    ASSOCIATE = "associate"


@dataclass(slots=True)
class VirtualBlock:
    """Metadata for one logical block under I-CASH management."""

    lba: int
    kind: BlockKind = BlockKind.INDEPENDENT
    #: Sub-signatures of the block's *current* content.  For reference
    #: blocks the signature is frozen at selection time (Section 4.3: "the
    #: signature of the block does not change since its data is being
    #: referred").
    signatures: Tuple[int, ...] = ()
    #: Cached full content, when a RAM data block is allocated to it.
    data: Optional[np.ndarray] = None
    #: In-RAM delta, when one is held in the segment pool.
    delta: Optional[Delta] = None
    #: Segment-pool bytes currently accounted to this block's delta.
    delta_segments_bytes: int = 0
    #: Data block modified since the last write-back to the HDD.
    data_dirty: bool = False

    @property
    def is_reference(self) -> bool:
        return self.kind is BlockKind.REFERENCE

    @property
    def has_data(self) -> bool:
        return self.data is not None

    @property
    def has_delta(self) -> bool:
        return self.delta is not None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flags = "".join((
            "D" if self.has_data else "-",
            "d" if self.has_delta else "-",
            "*" if self.data_dirty else " ",
        ))
        return f"VirtualBlock(lba={self.lba}, {self.kind.value}, {flags})"


def associates(lbas: Sequence[int],
               deltas: Sequence[Delta]) -> List[VirtualBlock]:
    """An associate holding each delta, every field set here rather than
    by an ``__init__`` frame per block."""
    blocks = [object.__new__(VirtualBlock) for _ in deltas]
    for vb, lba, delta in zip(blocks, lbas, deltas):
        vb.lba, vb.kind, vb.signatures, vb.data = \
            lba, BlockKind.ASSOCIATE, (), None
        vb.delta, vb.delta_segments_bytes, vb.data_dirty = \
            delta, delta.size_bytes, False
    return blocks
