"""The I-CASH virtual-block cache.

An LRU-ordered map of :class:`VirtualBlock` plus the two capacity budgets
that drive the paper's three replacement policies (Section 4.3):

1. **Virtual block replacement** — no free virtual block: replace the
   first *non-reference* block from the LRU tail.
2. **Data block replacement** — RAM data budget exhausted: drop the data
   of the first block from the tail that holds one.  A reference holds
   RAM data only while shadowed, and then the data is its own diverged
   content, never its frozen copy, which the SSD alone holds; dropping
   it writes it back to the HDD data region first when dirty.
3. **Delta replacement** — segment pool exhausted: replace the first
   non-reference block from the tail that holds a delta.

The cache is a pure data structure: it *finds* victims and accounts
capacity, but performing the dirty-state cleanup a victim needs (flushing
deltas, writing data back) requires devices, so that lives in the
controller.  Auxiliary LRU-ordered indexes of data holders and delta
holders keep victim search O(1) instead of O(cache).
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice
from typing import Iterator, List, Optional

import numpy as np

from repro.core.virtual_block import BlockKind, VirtualBlock, associates
from repro.delta.encoder import Delta
from repro.delta.segments import SEGMENT_BYTES, SegmentPool
from repro.sim.request import BLOCK_SIZE


class ICashCache:
    """LRU cache of virtual blocks with data and delta budgets."""

    def __init__(self, max_virtual_blocks: int, data_ram_bytes: int,
                 segment_pool: SegmentPool) -> None:
        if max_virtual_blocks < 8:
            raise ValueError(
                f"cache needs at least 8 virtual blocks, "
                f"got {max_virtual_blocks}")
        self.max_virtual_blocks = max_virtual_blocks
        self.max_data_blocks = max(1, data_ram_bytes // BLOCK_SIZE)
        self.segments = segment_pool
        self._blocks: "OrderedDict[int, VirtualBlock]" = OrderedDict()
        # LRU-ordered views over the holders of each budgeted resource.
        self._data_order: "OrderedDict[int, VirtualBlock]" = OrderedDict()
        self._delta_order: "OrderedDict[int, VirtualBlock]" = OrderedDict()

    # -- basic map operations ------------------------------------------------

    def __len__(self) -> int:
        return len(self._blocks)

    def __contains__(self, lba: int) -> bool:
        return lba in self._blocks

    def get(self, lba: int, touch: bool = True) -> Optional[VirtualBlock]:
        vb = self._blocks.get(lba)
        if vb is not None and touch:
            self._blocks.move_to_end(lba)
            if lba in self._data_order:
                self._data_order.move_to_end(lba)
            if lba in self._delta_order:
                self._delta_order.move_to_end(lba)
        return vb

    def insert(self, vb: VirtualBlock) -> None:
        """Insert at the MRU end.  Capacity must already be ensured."""
        if vb.lba in self._blocks:
            raise ValueError(f"virtual block {vb.lba} already cached")
        if len(self._blocks) >= self.max_virtual_blocks:
            raise MemoryError("virtual block capacity exhausted")
        self._blocks[vb.lba] = vb
        if vb.data is not None:
            if len(self._data_order) >= self.max_data_blocks:
                raise MemoryError("data block capacity exhausted")
            self._data_order[vb.lba] = vb

    def remove(self, lba: int) -> VirtualBlock:
        """Detach a virtual block, releasing its data and delta budgets."""
        vb = self._blocks.pop(lba)
        self._data_order.pop(lba, None)
        self._delta_order.pop(lba, None)
        if vb.delta_segments_bytes:
            self.segments.free(vb.delta_segments_bytes)
            vb.delta_segments_bytes = 0
        vb.delta = None
        vb.data = None
        return vb

    # -- budget-aware attribute updates ------------------------------------------

    def attach_data(self, vb: VirtualBlock, data) -> None:
        """Give ``vb`` a RAM data block.  Capacity must be ensured first."""
        if vb.data is None:
            if len(self._data_order) >= self.max_data_blocks:
                raise MemoryError("data block capacity exhausted")
            self._data_order[vb.lba] = vb
            self._data_order.move_to_end(vb.lba)
        vb.data = data

    def drop_data(self, vb: VirtualBlock) -> None:
        if vb.data is not None:
            vb.data = None
            vb.data_dirty = False
            self._data_order.pop(vb.lba, None)

    def attach_delta(self, vb: VirtualBlock, delta) -> None:
        """Store a delta for ``vb`` in the segment pool (replacing any old
        one).  Segment capacity must be ensured first."""
        if vb.delta_segments_bytes:
            self.segments.free(vb.delta_segments_bytes)
            vb.delta_segments_bytes = 0
        self.segments.allocate(delta.size_bytes)
        vb.delta = delta
        vb.delta_segments_bytes = delta.size_bytes
        self._delta_order[vb.lba] = vb
        self._delta_order.move_to_end(vb.lba)

    def drop_delta(self, vb: VirtualBlock) -> None:
        if vb.delta_segments_bytes:
            self.segments.free(vb.delta_segments_bytes)
            vb.delta_segments_bytes = 0
        vb.delta = None
        self._delta_order.pop(vb.lba, None)

    def fill_delta_buffer(self, lbas: List[int], deltas: List[Delta]) -> int:
        """:meth:`insert` an associate and :meth:`attach_delta` per pair,
        in order, until a delta does not fit the free segments; returns
        how many of them the virtual budget evicted again.  The cache
        must hold references only, so each eviction takes the oldest
        block of this fill: one integer pass finds the outcome, and only
        the blocks that stay are built."""
        sizes = np.array([delta.size_bytes for delta in deltas], np.intp)
        held = np.zeros(sizes.size + 1, np.intp)  # segments of the first i
        np.maximum(-(-sizes // SEGMENT_BYTES), 1).cumsum(out=held[1:])
        # After i inserts, blocks [first[i], i) are cached.
        first = np.maximum(np.arange(held.size) - self.max_virtual_blocks
                           + len(self._blocks), 0)
        cached = held - held[first]
        pool = self.segments
        misfit = (np.diff(held) > pool.free_segments - cached[:-1]).nonzero()[0]
        stop = int(misfit[0]) if misfit.size else sizes.size
        if stop:
            pool.peak_segments = max(pool.peak_segments, pool.used_segments
                                     + int(cached[1:stop + 1].max()))
            pool.used_segments += int(cached[stop])
        evicted = int(first[stop])
        kept = lbas[evicted:stop]
        warm = associates(kept, deltas[evicted:stop])
        self._blocks.update(zip(kept, warm))
        self._delta_order.update(zip(kept, warm))
        return evicted

    # -- victim search (the three policies) ------------------------------------------

    def find_virtual_victim(self) -> Optional[VirtualBlock]:
        """Policy 1: first non-reference block from the LRU tail."""
        for vb in self._blocks.values():
            if vb.kind is not BlockKind.REFERENCE:
                return vb
        return None

    def find_data_victim(self) -> Optional[VirtualBlock]:
        """Policy 2: first data-holding block from the LRU tail."""
        for vb in self._data_order.values():
            return vb
        return None

    def find_delta_victim(self) -> Optional[VirtualBlock]:
        """Policy 3: first non-reference, delta-holding block from tail."""
        for vb in self._delta_order.values():
            if vb.kind is not BlockKind.REFERENCE:
                return vb
        return None

    # -- capacity queries --------------------------------------------------------

    @property
    def virtual_blocks_free(self) -> int:
        return self.max_virtual_blocks - len(self._blocks)

    @property
    def data_blocks_used(self) -> int:
        return len(self._data_order)

    @property
    def data_blocks_free(self) -> int:
        return self.max_data_blocks - len(self._data_order)

    # -- iteration ---------------------------------------------------------------

    def lru_order(self) -> Iterator[VirtualBlock]:
        """Blocks from least- to most-recently used."""
        return iter(list(self._blocks.values()))

    def mru_window(self, count: int) -> List[VirtualBlock]:
        """The ``count`` most recently used blocks, MRU first.

        This is the scan window: Section 4.2 checks "the 4,000 blocks from
        the beginning of an LRU queue" — the hot end, where reference
        candidates live.
        """
        return list(islice(reversed(self._blocks.values()), count))

    def references(self) -> List[VirtualBlock]:
        return [vb for vb in self._blocks.values()
                if vb.kind is BlockKind.REFERENCE]
