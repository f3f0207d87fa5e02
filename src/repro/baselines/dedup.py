"""The Dedup baseline: a content-addressed (deduplicating) SSD cache.

Section 4.4, baseline 3: "data deduplication that saves only one copy of
data in SSD for identical blocks", again with I-CASH's SSD budget.
Identical blocks share one physical SSD copy (reference-counted), so the
cache holds more *logical* blocks than the SSD has slots — the dedup win.
The costs the paper calls out are modelled too:

* every insert and every write pays a content-hash over the full 4 KB
  block (far more expensive than I-CASH's four sampled bytes per
  sub-block);
* "changing a block that is shared by several other identical blocks
  results in a new copy of data so that write performance is slowed
  down" — a write to a shared block breaks the sharing and writes a
  fresh SSD copy.

Dedup only exploits *identity*; similar-but-not-identical blocks gain
nothing, which is exactly the gap I-CASH's delta scheme exploits.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Dict, Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.baselines.base import StorageSystem
from repro.devices.hdd import HardDiskDrive
from repro.devices.ssd import FlashSSD
from repro.sim.backing import BackingStore

#: CPU time to hash one 4 KB block for content addressing.
HASH_COST_S = 20e-6


class _ChunkEntry:
    """One physical SSD copy shared by all lbas with identical content."""

    __slots__ = ("slot", "refcount")

    def __init__(self, slot: int) -> None:
        self.slot = slot
        self.refcount = 0


class DedupCacheStorage(StorageSystem):
    """Write-back, content-addressed SSD cache over a single HDD."""

    COUNTERS = ("cache_hits", "cache_misses", "writes", "unique_inserts",
                "dedup_hits", "shared_block_cow", "evictions", "destages",
                "flush_destages")

    def __init__(self, initial_content: np.ndarray,
                 cache_blocks: int) -> None:
        capacity_blocks = initial_content.shape[0]
        super().__init__("dedup", capacity_blocks)
        if cache_blocks < 1:
            raise ValueError(f"cache needs >= 1 block, got {cache_blocks}")
        self.backing = BackingStore(initial_content)
        self.ssd = FlashSSD(cache_blocks)
        self.hdd = HardDiskDrive(capacity_blocks)
        self.cache_blocks = cache_blocks
        self._free: List[int] = list(range(cache_blocks - 1, -1, -1))
        # Content hash -> shared physical entry.
        self._chunks: Dict[bytes, _ChunkEntry] = {}
        # Cached lba -> its content hash, in LRU order (MRU at the end).
        self._lba_hash: "OrderedDict[int, bytes]" = OrderedDict()
        self._dirty: Set[int] = set()

    def devices(self) -> Iterable:
        return (self.ssd, self.hdd)

    # -- content addressing ------------------------------------------------------

    def _hash(self, content: np.ndarray) -> bytes:
        self.cpu_time += HASH_COST_S
        return hashlib.sha1(content.tobytes()).digest()

    def _release(self, lba: int) -> None:
        """Drop ``lba``'s claim on its shared chunk."""
        digest = self._lba_hash.pop(lba, None)
        if digest is None:
            return
        entry = self._chunks[digest]
        entry.refcount -= 1
        if entry.refcount == 0:
            del self._chunks[digest]
            self.ssd.trim(entry.slot, 1)
            self._free.append(entry.slot)

    def _evict_one(self) -> float:
        """Evict the LRU logical block; destage if dirty.

        Destaging is asynchronous, like the LRU baseline's: it occupies
        the disk (busy time, energy) without stalling the evicting
        request.
        """
        lba = next(iter(self._lba_hash))
        if lba in self._dirty:
            self._dirty.discard(lba)
            self._in_background(self.hdd.write, lba, 1)
            self.destages += 1
        self._release(lba)
        self.evictions += 1
        return 0.0

    def _insert(self, lba: int, content: np.ndarray, dirty: bool) -> float:
        """Map ``lba`` to its content chunk, writing the SSD only for new
        content — the dedup save."""
        latency = 0.0
        digest = self._hash(content)
        latency += HASH_COST_S
        self._release(lba)  # an lba holds at most one chunk claim
        entry = self._chunks.get(digest)
        if entry is None:
            if not self._free:
                latency += self._evict_one()
                if not self._free:
                    # Eviction released a shared chunk claim, not a slot;
                    # keep evicting until a physical slot frees up.
                    while not self._free and self._lba_hash:
                        latency += self._evict_one()
            if not self._free:
                raise RuntimeError("dedup cache has no reclaimable slot")
            entry = _ChunkEntry(self._free.pop())
            self._chunks[digest] = entry
            latency += self.ssd.write(entry.slot, 1)
            self.unique_inserts += 1
        else:
            self.dedup_hits += 1
        entry.refcount += 1
        self._lba_hash[lba] = digest
        self._lba_hash.move_to_end(lba)
        if dirty:
            self._dirty.add(lba)
        return latency

    # -- StorageSystem interface ----------------------------------------------------

    def read(self, lba: int, nblocks: int = 1
             ) -> Tuple[float, List[np.ndarray]]:
        self._check_span(lba, nblocks)
        latency = 0.0
        contents: List[np.ndarray] = []
        for block in range(lba, lba + nblocks):
            content = self.backing.view(block)
            digest = self._lba_hash.get(block)
            if digest is not None:
                self._lba_hash.move_to_end(block)
                latency += self.ssd.read(self._chunks[digest].slot, 1)
                self.cache_hits += 1
            else:
                latency += self.hdd.read(block, 1)
                latency += self._insert(block, content, dirty=False)
                self.cache_misses += 1
            contents.append(content)
        return latency, contents

    def write(self, lba: int, blocks: Sequence[np.ndarray]) -> float:
        self._check_span(lba, len(blocks))
        latency = 0.0
        for offset, content in enumerate(blocks):
            block = lba + offset
            old_digest = self._lba_hash.get(block)
            if (old_digest is not None
                    and self._chunks[old_digest].refcount > 1):
                # Writing a shared block forces a private copy — the
                # copy-on-write penalty the paper attributes to dedup.
                self.shared_block_cow += 1
            self.backing.set(block, content)
            latency += self._insert(block, content, dirty=True)
            self.writes += 1
        return latency

    def flush(self) -> float:
        latency = 0.0
        for block in sorted(self._dirty):
            latency += self.hdd.write(block, 1)
        self.flush_destages += len(self._dirty)
        self._dirty.clear()
        return latency
