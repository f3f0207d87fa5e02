"""Block-level I/O requests.

Every request addresses whole 4 KB blocks (the paper's cache block size).
Write requests carry the full payload of every block they touch because
I-CASH's behaviour is content dependent: the paper stresses that address
traces alone cannot drive an evaluation of delta-based storage.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

#: The fixed logical block size used throughout the repository (bytes).
BLOCK_SIZE = 4096


class OpType(enum.Enum):
    """Kind of block operation a request performs."""

    READ = "read"
    WRITE = "write"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass
class IORequest:
    """One block-level I/O request.

    Attributes:
        op: read or write.
        lba: first logical block address touched (in 4 KB units).
        nblocks: number of consecutive blocks touched.
        payload: for writes, one ``uint8`` array of ``BLOCK_SIZE`` bytes per
            block (``payload[i]`` is the new content of ``lba + i``).  Reads
            carry no payload.
        vm_id: identifier of the virtual machine that issued the request.
            Mirrors the prototype's use of the top address byte to tag the
            originating VM; 0 means the native machine.
        timestamp: issue time in seconds of virtual time (set by workloads
            that model think time; 0.0 for purely closed-loop traces).
    """

    op: OpType
    lba: int
    nblocks: int = 1
    payload: Optional[Sequence[np.ndarray]] = None
    vm_id: int = 0
    timestamp: float = 0.0

    def __post_init__(self) -> None:
        if self.lba < 0:
            raise ValueError(f"lba must be non-negative, got {self.lba}")
        if self.nblocks < 1:
            raise ValueError(f"nblocks must be >= 1, got {self.nblocks}")
        if self.op is OpType.WRITE:
            if self.payload is None:
                raise ValueError("write requests must carry a payload")
            if len(self.payload) != self.nblocks:
                raise ValueError(
                    f"payload holds {len(self.payload)} blocks but request "
                    f"spans {self.nblocks}"
                )
            for i, block in enumerate(self.payload):
                if block.nbytes != BLOCK_SIZE:
                    raise ValueError(
                        f"payload block {i} is {block.nbytes} bytes, "
                        f"expected {BLOCK_SIZE}"
                    )
        elif self.payload is not None:
            raise ValueError("read requests must not carry a payload")

    @property
    def is_read(self) -> bool:
        return self.op is OpType.READ

    @property
    def is_write(self) -> bool:
        return self.op is OpType.WRITE

    @property
    def size_bytes(self) -> int:
        """Total bytes transferred by this request."""
        return self.nblocks * BLOCK_SIZE


def make_read(lba: int, nblocks: int = 1, vm_id: int = 0,
              timestamp: float = 0.0) -> IORequest:
    """Convenience constructor for a read request."""
    return IORequest(OpType.READ, lba, nblocks, vm_id=vm_id,
                     timestamp=timestamp)


def make_write(lba: int, payload: Sequence[np.ndarray], vm_id: int = 0,
               timestamp: float = 0.0) -> IORequest:
    """Convenience constructor for a write request covering ``payload``."""
    return IORequest(OpType.WRITE, lba, len(payload), payload=payload,
                     vm_id=vm_id, timestamp=timestamp)
