"""The LRU baseline: SSD as a plain LRU cache over one disk.

Section 4.4, baseline 4: "using SSD as an LRU cache on top of the SATA
disk drive", with the same SSD budget as I-CASH (about 10 % of the data
set).  The cache is write-back: writes land in the SSD and destage to the
HDD on eviction.  Every miss *fills* the cache with an SSD write, and
every write dirties it — which is why Table 6 shows the LRU cache writing
the SSD more than any other architecture.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.baselines.base import StorageSystem
from repro.devices.hdd import HardDiskDrive
from repro.devices.ssd import FlashSSD
from repro.sim.backing import BackingStore


class LRUCacheStorage(StorageSystem):
    """Write-back LRU SSD cache in front of a single HDD."""

    COUNTERS = ("cache_hits", "cache_misses", "write_hits", "write_misses",
                "evictions", "destages", "flush_destages")

    def __init__(self, initial_content: np.ndarray,
                 cache_blocks: int) -> None:
        capacity_blocks = initial_content.shape[0]
        super().__init__("lru", capacity_blocks)
        if cache_blocks < 1:
            raise ValueError(f"cache needs >= 1 block, got {cache_blocks}")
        self.backing = BackingStore(initial_content)
        self.ssd = FlashSSD(cache_blocks)
        self.hdd = HardDiskDrive(capacity_blocks)
        self.cache_blocks = cache_blocks
        # lba -> SSD slot, in LRU order (MRU at the end).
        self._map: "OrderedDict[int, int]" = OrderedDict()
        self._free: List[int] = list(range(cache_blocks - 1, -1, -1))
        self._dirty: Set[int] = set()

    def devices(self) -> Iterable:
        return (self.ssd, self.hdd)

    # -- cache mechanics ------------------------------------------------------

    def _evict_one(self) -> float:
        """Evict the LRU block; destage to HDD if dirty.

        Destaging is asynchronous (the write-back cache's point): it
        occupies the disk and counts toward energy, but not toward the
        evicting request's latency.
        """
        lba, slot = self._map.popitem(last=False)
        if lba in self._dirty:
            self._dirty.discard(lba)
            self._in_background(self.hdd.write, lba, 1)
            self.destages += 1
        self.ssd.trim(slot, 1)
        self._free.append(slot)
        self.evictions += 1
        return 0.0

    def _insert(self, lba: int, dirty: bool) -> float:
        """Fill ``lba`` into the cache (SSD write), evicting if needed."""
        latency = 0.0
        if not self._free:
            latency += self._evict_one()
        slot = self._free.pop()
        self._map[lba] = slot
        if dirty:
            self._dirty.add(lba)
        latency += self.ssd.write(slot, 1)
        return latency

    # -- StorageSystem interface ------------------------------------------------

    def read(self, lba: int, nblocks: int = 1
             ) -> Tuple[float, List[np.ndarray]]:
        self._check_span(lba, nblocks)
        latency = 0.0
        contents: List[np.ndarray] = []
        for block in range(lba, lba + nblocks):
            slot = self._map.get(block)
            if slot is not None:
                self._map.move_to_end(block)
                latency += self.ssd.read(slot, 1)
                self.cache_hits += 1
            else:
                latency += self.hdd.read(block, 1)
                latency += self._insert(block, dirty=False)
                self.cache_misses += 1
            contents.append(self.backing.view(block))
        return latency, contents

    def write(self, lba: int, blocks: Sequence[np.ndarray]) -> float:
        self._check_span(lba, len(blocks))
        latency = 0.0
        for offset, content in enumerate(blocks):
            block = lba + offset
            self.backing.set(block, content)
            slot = self._map.get(block)
            if slot is not None:
                self._map.move_to_end(block)
                self._dirty.add(block)
                latency += self.ssd.write(slot, 1)
                self.write_hits += 1
            else:
                latency += self._insert(block, dirty=True)
                self.write_misses += 1
        return latency

    def flush(self) -> float:
        """Destage every dirty cached block to the HDD."""
        latency = 0.0
        for block in sorted(self._dirty):
            latency += self.hdd.write(block, 1)
        self.flush_destages += len(self._dirty)
        self._dirty.clear()
        return latency
