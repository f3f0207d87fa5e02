"""Host page-cache model.

The paper's prototype runs under a real OS: the guest and host page
caches absorb a large share of repeated block reads before they ever
reach the storage architecture, and they batch dirty write-back.  That
is a big part of why the paper's baseline response times are flatter
than raw device latencies suggest.

:class:`HostCachedSystem` wraps any :class:`StorageSystem` with a
write-back LRU page cache in host RAM.  It is deliberately *optional*:
the headline experiments run without it (the block-level latencies the
paper reports are measured below the cache), but
``tests/test_extensions.py::TestHostPageCache`` measures how much of the
architecture gap a host cache hides — and the wrapper is useful for
anyone composing I-CASH into a full-system study.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Iterable, List, Sequence, Set, Tuple

import numpy as np

from repro.baselines.base import StorageSystem

#: Latency of serving one 4 KB block from the host page cache.
PAGE_HIT_S = 0.5e-6


class HostCachedSystem(StorageSystem):
    """A write-back LRU host page cache in front of any storage system.

    Its own counters carry a ``page_`` prefix, so none merges with a
    counter of the wrapped system (an LRU cache's ``evictions``, say).
    """

    COUNTERS = ("page_hits", "page_misses", "page_writes", "page_evictions",
                "page_writebacks")

    def __init__(self, inner: StorageSystem, cache_blocks: int) -> None:
        if cache_blocks < 1:
            raise ValueError(
                f"page cache needs >= 1 block, got {cache_blocks}")
        super().__init__(f"{inner.name}+pagecache", inner.capacity_blocks)
        self.inner = inner
        self.cache_blocks = cache_blocks
        # lba -> cached content, LRU order (MRU at the end).
        self._pages: "OrderedDict[int, np.ndarray]" = OrderedDict()
        self._dirty: Set[int] = set()

    # -- pass-through accounting ----------------------------------------------

    def devices(self) -> Iterable:
        return self.inner.devices()

    def inner_systems(self) -> Iterable[StorageSystem]:
        return (self.inner,)

    def ingest(self) -> float:
        return self.inner.ingest()

    def check_invariants(self) -> None:
        self.inner.check_invariants()

    @property
    def background_time(self) -> float:  # type: ignore[override]
        return self.inner.background_time

    @background_time.setter
    def background_time(self, value: float) -> None:
        if value != 0.0:
            raise AttributeError("wrapper background time is the inner's")

    @property
    def cpu_time(self) -> float:  # type: ignore[override]
        return self.inner.cpu_time

    @cpu_time.setter
    def cpu_time(self, value: float) -> None:
        if value != 0.0:
            raise AttributeError("wrapper CPU time is the inner's")

    # -- cache mechanics --------------------------------------------------------

    def _evict_until_fits(self) -> float:
        """Drop LRU pages; dirty ones write back to the inner system.

        Write-back happens off the requesting path in a real OS (pdflush
        and friends), so the cost lands on background time.
        """
        latency = 0.0
        while len(self._pages) >= self.cache_blocks:
            lba, content = self._pages.popitem(last=False)
            if lba in self._dirty:
                self._dirty.discard(lba)
                self.inner._in_background(self.inner.write, lba, [content])
                self.page_writebacks += 1
            self.page_evictions += 1
        return latency

    def _install(self, lba: int, content: np.ndarray, dirty: bool) -> None:
        self._evict_until_fits()
        self._pages[lba] = content.copy()
        self._pages.move_to_end(lba)
        if dirty:
            self._dirty.add(lba)

    # -- StorageSystem interface ------------------------------------------------

    def read(self, lba: int, nblocks: int = 1
             ) -> Tuple[float, List[np.ndarray]]:
        self._check_span(lba, nblocks)
        latency = 0.0
        contents: List[np.ndarray] = []
        miss_start: int = -1
        # Serve hits from RAM; fetch miss runs from the inner system in
        # single spans (read-ahead for free on sequential misses).
        block = lba
        end = lba + nblocks
        while block < end:
            cached = self._pages.get(block)
            if cached is not None:
                self._pages.move_to_end(block)
                latency += PAGE_HIT_S
                contents.append(cached.copy())
                self.page_hits += 1
                block += 1
                continue
            miss_start = block
            while block < end and block not in self._pages:
                block += 1
            span = block - miss_start
            fetch_latency, blocks = self.inner.read(miss_start, span)
            latency += fetch_latency
            for offset, content in enumerate(blocks):
                self._install(miss_start + offset, content, dirty=False)
                contents.append(content)
            self.page_misses += span
        return latency, contents

    def write(self, lba: int, blocks: Sequence[np.ndarray]) -> float:
        self._check_span(lba, len(blocks))
        latency = 0.0
        for offset, content in enumerate(blocks):
            self._install(lba + offset, content, dirty=True)
            latency += PAGE_HIT_S
            self.page_writes += 1
        return latency

    def flush(self) -> float:
        """Sync: write every dirty page through, then flush the inner
        system (fsync semantics)."""
        latency = 0.0
        for lba in sorted(self._dirty):
            latency += self.inner.write(lba, [self._pages[lba]])
        self._dirty.clear()
        latency += self.inner.flush()
        return latency
