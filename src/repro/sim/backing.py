"""Logical content backing store.

Every storage architecture in the repository operates over the same
logical block space.  :class:`BackingStore` holds the dataset's content —
the bytes that live durably on the architecture's primary media — and
exposes copy-in/copy-out access so no two components alias the same
mutable buffer.

For I-CASH this models the HDD data region: the content a block would
have if every cache layer were discarded.  For the simpler baselines it
doubles as the device's content, with the device models charging latency.
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
        # Own the content: callers keep their array.
        self._content = initial.copy()

    @classmethod
    def zeros(cls, capacity_blocks: int) -> "BackingStore":
        return cls(np.zeros((capacity_blocks, BLOCK_SIZE), dtype=np.uint8))

    @property
    def capacity_blocks(self) -> int:
        return self._content.shape[0]

    def _check(self, lba: int) -> None:
        if not 0 <= lba < self._content.shape[0]:
            raise IndexError(
                f"lba {lba} outside backing store of "
                f"{self.capacity_blocks} blocks")

    def get(self, lba: int) -> np.ndarray:
        """A copy of one block's content."""
        self._check(lba)
        return self._content[lba].copy()

    def set(self, lba: int, content: np.ndarray) -> None:
        """Overwrite one block's content (copied in)."""
        self._check(lba)
        if content.nbytes != BLOCK_SIZE:
            raise ValueError(
                f"content must be {BLOCK_SIZE} bytes, got {content.nbytes}")
        self._content[lba] = content

    def view_all(self) -> np.ndarray:
        """A read-only view of the whole content matrix.

        Feeds the batch kernels (one signature pass over every block at
        ingest); like :meth:`view`, the view must not be retained across
        mutations.
        """
        view = self._content.view()
        view.flags.writeable = False
        return view

    def view(self, lba: int) -> np.ndarray:
        """A read-only view of one block (fast path for hashing/signatures).

        The view must never be stored by callers; use :meth:`get` for that.
        """
        self._check(lba)
        view = self._content[lba]
        view.flags.writeable = False
        return view
