"""Logical content backing store.

Every storage architecture in the repository operates over the same
logical block space.  :class:`BackingStore` holds the dataset's content —
the bytes that live durably on the architecture's primary media — as an
immutable base image plus an overlay of the blocks written since.  A
write replaces a block, it never patches one in place, so whatever a
reader was handed keeps its bytes and no two components alias a mutable
buffer.

A frozen (``flags.writeable`` false) initial image is shared: any number
of stores and shadows sit on the one matrix the data-set memo built.  A
writeable one is the caller's to keep mutating and is copied once.
Written blocks follow the same rule: a frozen array that owns its data
is kept as it is, anything else is copied in.

For I-CASH this models the HDD data region: the content a block would
have if every cache layer were discarded.  For the simpler baselines it
doubles as the device's content, with the device models charging latency.
A workload's shadow (its ground truth) is the same type, indexed by lba.
"""

from __future__ import annotations

import numpy as np

from repro.sim.request import BLOCK_SIZE


class BackingStore:
    """Content for ``capacity_blocks`` logical 4 KB blocks."""

    def __init__(self, initial: np.ndarray) -> None:
        if initial.ndim != 2 or initial.shape[1] != BLOCK_SIZE:
            raise ValueError(
                f"backing store expects an (n, {BLOCK_SIZE}) uint8 array, "
                f"got shape {initial.shape}")
        if initial.dtype != np.uint8:
            raise ValueError(f"backing store must be uint8, "
                             f"got {initial.dtype}")
        if initial.flags.writeable:
            # Callers keep their array, and may go on writing to it.
            initial = initial.copy()
            initial.flags.writeable = False
        self._base = initial
        self._written: dict = {}  # lba -> the frozen block last written

    @classmethod
    def zeros(cls, capacity_blocks: int) -> "BackingStore":
        return cls(np.zeros((capacity_blocks, BLOCK_SIZE), dtype=np.uint8))

    def __len__(self) -> int:
        return self._base.shape[0]

    capacity_blocks = property(__len__)

    def _out_of_range(self, lba: int) -> IndexError:
        return IndexError(f"lba {lba} outside backing store of "
                          f"{len(self)} blocks")

    def get(self, lba: int) -> np.ndarray:
        """A private, writeable copy of one block's content."""
        return self.view(lba).copy()

    # ``view`` and ``set`` run once per block read, written and verified,
    # so each is one flat python call, bounds check included.
    def view(self, lba: int) -> np.ndarray:
        """One block, read-only and never changed afterwards."""
        block = self._written.get(lba)
        if block is None:
            if not 0 <= lba < self._base.shape[0]:
                raise self._out_of_range(lba)
            block = self._base[lba]
        return block

    def set(self, lba: int, content: np.ndarray) -> None:
        """Replace one block's content."""
        if not 0 <= lba < self._base.shape[0]:
            raise self._out_of_range(lba)
        if content.nbytes != BLOCK_SIZE:
            raise ValueError(
                f"content must be {BLOCK_SIZE} bytes, got {content.nbytes}")
        if content.flags.writeable or not content.flags.owndata:
            content = content.copy()
            content.flags.writeable = False
        self._written[lba] = content

    __getitem__ = view
    __setitem__ = set

    def view_all(self) -> np.ndarray:
        """The whole content matrix, read-only: the base itself while
        nothing is written (ingest's one signature pass over every
        block), a fresh materialisation afterwards."""
        if not self._written:
            return self._base
        content = self._base.copy()
        content[list(self._written)] = list(self._written.values())
        content.flags.writeable = False
        return content

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # NumPy trusts the result to be the copy ``np.array(store)`` wants.
        return np.array(self.view_all(), dtype=dtype, copy=copy)
