"""NAND flash SSD model with a page-mapped FTL.

The paper's arguments about SSDs rest on three physical facts this model
reproduces:

1. **Asymmetric operation costs.**  Page reads are tens of microseconds,
   page programs several times slower, and block erases take milliseconds
   (the paper cites 1.5–3 ms).
2. **Out-of-place writes.**  A page cannot be overwritten; the FTL remaps
   the logical block to a fresh page and the stale page becomes garbage.
   When free blocks run low, garbage collection relocates valid pages and
   erases victim blocks, stalling the triggering write — this is why write
   response times on a busy SSD are far worse than its datasheet program
   time, and why the paper's Fusion-io baseline shows 75 µs+ writes.
3. **Limited endurance.**  Every erase wears the block; the model keeps
   per-block erase counters (with greedy + wear-aware victim selection) so
   the lifetime analysis behind Table 6 can be computed, not asserted.

One empirical effect from the paper is also modelled: the *footprint
penalty*.  Section 5.1 reports that randomly accessing a 10 MB region of
the Fusion-io drive is about 15 µs faster per 4 KB than randomly accessing
a 1 GB region (translation-cache and channel effects).  I-CASH only ever
touches its small reference set, so it rides the fast end of that curve;
a pure-SSD system touching its whole data set pays the penalty.  The model
charges reads a penalty that grows with the distinct footprint touched.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, Optional, Tuple

from repro.devices.base import Device, DeviceSpec


@dataclass(frozen=True)
class SSDSpec(DeviceSpec):
    """Timing, geometry and policy parameters for the flash SSD."""

    name: str = "ssd"
    #: Pages (4 KB) per erase block.  64 pages = 256 KB blocks.
    pages_per_block: int = 64
    #: Base page read latency (s) — the fast small-footprint case.
    read_base_s: float = 8e-6
    #: Additional read latency (s) at the large-footprint end of the curve
    #: (the paper's ~15 µs gap between 10 MB and 1 GB footprints).
    read_footprint_penalty_s: float = 15e-6
    #: Footprint (in distinct blocks) at which the penalty saturates.
    #: Scaled to this repository's 1/30-ish data-set scaling (the paper's
    #: curve saturates around a 1 GB footprint on the real card).
    footprint_knee_blocks: int = 8192
    #: Page program latency (s).
    program_s: float = 70e-6
    #: Extra latency per additional pipelined page in a multi-page *read*
    #: (channel-striped transfers overlap, so it is below the base
    #: latency; ~6 µs/4 KB matches a ~700 MB/s 2010-era card).
    pipelined_page_s: float = 6e-6
    #: Extra latency per additional page in a multi-page *write*.  Program
    #: bandwidth is far below read bandwidth (~200 MB/s), which is why the
    #: paper's Fusion-io baseline takes milliseconds on Hadoop's 99 KB
    #: writes.
    pipelined_program_s: float = 20e-6
    #: Block erase latency (s); the paper cites 1.5–3 ms.
    erase_s: float = 2e-3
    #: Physical over-provisioning as a fraction of logical capacity.
    #: Enterprise SLC cards like the paper's ioDrive carried generous
    #: spare area, which keeps garbage-collection stalls moderate.
    overprovision: float = 0.25
    #: Garbage collection starts when free blocks drop to this fraction of
    #: all physical blocks.
    gc_threshold: float = 0.05
    #: Erase-count spread that triggers wear-leveling victim selection.
    wear_delta: int = 16
    #: Endurance: erases per block before it is worn out (SLC ≈ 100 000,
    #: MLC ≈ 10 000 per the paper).
    endurance_cycles: int = 100_000


class _FlashBlock:
    """One physical erase block: page → lba mapping plus wear state."""

    __slots__ = ("pages", "valid_count", "write_ptr", "erase_count")

    def __init__(self, pages_per_block: int) -> None:
        # pages[i] is the lba stored in page i, or None when invalid/free.
        self.pages: List[Optional[int]] = [None] * pages_per_block
        self.valid_count = 0
        self.write_ptr = 0
        self.erase_count = 0

    @property
    def is_full(self) -> bool:
        return self.write_ptr >= len(self.pages)

    def erase(self) -> None:
        self.pages = [None] * len(self.pages)
        self.valid_count = 0
        self.write_ptr = 0
        self.erase_count += 1


class FlashSSD(Device):
    """Page-mapped NAND SSD with greedy, wear-aware garbage collection."""

    def __init__(self, capacity_blocks: int,
                 spec: Optional[SSDSpec] = None) -> None:
        spec = spec if spec is not None else SSDSpec()
        super().__init__(capacity_blocks, spec.name)
        self.spec = spec
        n_logical_flash_blocks = math.ceil(
            capacity_blocks / spec.pages_per_block)
        n_physical = math.ceil(
            n_logical_flash_blocks * (1.0 + spec.overprovision)) + 2
        self._blocks = [_FlashBlock(spec.pages_per_block)
                        for _ in range(n_physical)]
        self._free: Deque[int] = deque(range(1, n_physical))
        self._active = 0
        # lba -> (physical block index, page index)
        self._map: Dict[int, Tuple[int, int]] = {}
        # Distinct logical blocks ever touched: drives the footprint penalty.
        self._footprint: set = set()
        self._gc_low_water = max(2, int(spec.gc_threshold * n_physical))

    # -- footprint penalty --------------------------------------------------

    def _read_latency(self) -> float:
        frac = min(1.0, len(self._footprint) / self.spec.footprint_knee_blocks)
        return self.spec.read_base_s + frac * self.spec.read_footprint_penalty_s

    # -- reads ---------------------------------------------------------------

    def read(self, lba: int, nblocks: int = 1) -> float:
        self._check_span(lba, nblocks)
        for block in range(lba, lba + nblocks):
            self._footprint.add(block)
        # First page pays the full latency, pipelined pages the reduced one.
        latency = (self._read_latency()
                   + (nblocks - 1) * self.spec.pipelined_page_s)
        return self._account("read", nblocks, latency, lba=lba)

    # -- writes ---------------------------------------------------------------

    def write(self, lba: int, nblocks: int = 1) -> float:
        self._check_span(lba, nblocks)
        latency = 0.0
        for block in range(lba, lba + nblocks):
            self._footprint.add(block)
            latency += self._program_page(block)
        # Pipelining: charge one full program, the rest at the (program-
        # bandwidth-limited) streaming rate.
        if nblocks > 1:
            latency = (latency - (nblocks - 1) * self.spec.program_s
                       + (nblocks - 1) * self.spec.pipelined_program_s)
        return self._account("write", nblocks, latency, lba=lba)

    def read_followup(self, lba: int) -> float:
        """A read issued back-to-back with a preceding read of the same
        host request: pays the pipelined per-page rate only.

        Lets a host-side controller (I-CASH reading several reference
        blocks for one multi-block request) get the same channel overlap
        a native multi-page :meth:`read` enjoys.
        """
        self._check_span(lba, 1)
        self._footprint.add(lba)
        return self._account("read", 1, self.spec.pipelined_page_s,
                             lba=lba, outcome="pipelined")

    def trim(self, lba: int, nblocks: int = 1) -> None:
        """Invalidate logical blocks without writing (cache evictions)."""
        self._check_span(lba, nblocks)
        for block in range(lba, lba + nblocks):
            self._invalidate(block)
            self._footprint.discard(block)
        self.stats.bump("trim_ops")

    # -- FTL internals ---------------------------------------------------------

    def _invalidate(self, lba: int) -> None:
        loc = self._map.pop(lba, None)
        if loc is None:
            return
        block_idx, page_idx = loc
        block = self._blocks[block_idx]
        block.pages[page_idx] = None
        block.valid_count -= 1

    def _place_page(self, lba: int) -> None:
        """Write ``lba``'s mapping into the active block's next free page.

        The caller guarantees the active block has room.
        """
        active = self._blocks[self._active]
        page_idx = active.write_ptr
        active.pages[page_idx] = lba
        active.write_ptr += 1
        active.valid_count += 1
        self._map[lba] = (self._active, page_idx)

    def _program_page(self, lba: int) -> float:
        """Program ``lba`` into the active block; returns latency incl. GC."""
        self._invalidate(lba)
        gc_latency = 0.0
        if self._blocks[self._active].is_full:
            gc_latency = self._advance_active_block()
        self._place_page(lba)
        return self.spec.program_s + gc_latency

    def _advance_active_block(self) -> float:
        """Open a fresh active block, garbage collecting if necessary.

        GC runs *iteratively* here — never from inside a relocation — so a
        collection can never erase a victim another collection is still
        walking.
        """
        gc_latency = 0.0
        while len(self._free) <= self._gc_low_water:
            gained = self._garbage_collect()
            gc_latency += gained
            if gained == 0.0:  # pragma: no cover - defensive
                break
        if not self._free:  # pragma: no cover - GC always frees >= 1 block
            raise RuntimeError("SSD out of free blocks despite GC")
        self._active = self._free.popleft()
        return gc_latency

    def _pick_victim(self) -> int:
        """Greedy victim choice with a wear-leveling override.

        Normally the block with the fewest valid pages is cheapest to
        reclaim.  When wear spread across blocks exceeds ``wear_delta``,
        prefer the least-worn candidate among the emptiest quartile so cold
        blocks get recycled too (static wear leveling).
        """
        candidates = [i for i, b in enumerate(self._blocks)
                      if i != self._active and i not in self._free
                      and b.valid_count < len(b.pages)]
        if not candidates:
            candidates = [i for i in range(len(self._blocks))
                          if i != self._active and i not in self._free]
        erases = [self._blocks[i].erase_count for i in candidates]
        if max(erases) - min(erases) > self.spec.wear_delta:
            candidates.sort(key=lambda i: (self._blocks[i].erase_count,
                                           self._blocks[i].valid_count))
            self.stats.bump("wear_level_picks")
            return candidates[0]
        return min(candidates, key=lambda i: self._blocks[i].valid_count)

    def _garbage_collect(self) -> float:
        """Reclaim one block; returns the time the triggering write stalls.

        Valid pages relocate into the active block, pulling fresh blocks
        straight off the free list when it fills — relocation never
        triggers a nested collection.
        """
        victim_idx = self._pick_victim()
        victim = self._blocks[victim_idx]
        latency = 0.0
        relocated = [lba for lba in victim.pages if lba is not None]
        victim.pages = [None] * len(victim.pages)
        victim.valid_count = 0
        for lba in relocated:
            # Relocation: read the valid page and program it elsewhere.
            latency += self.spec.read_base_s
            if self._blocks[self._active].is_full:
                if not self._free:  # pragma: no cover - needs 0 OP space
                    raise RuntimeError(
                        "SSD wedged: no free block to relocate into")
                self._active = self._free.popleft()
            self._place_page(lba)
            latency += self.spec.program_s
            self.stats.bump("gc_page_moves")
        victim.erase()
        latency += self.spec.erase_s
        self._free.append(victim_idx)
        self.stats.bump("gc_erases")
        tracer = self.tracer
        if tracer is not None:
            # The stall is already inside the triggering write's span, so
            # this is a device-internal mark, not a timeline-advancing
            # span — breakdowns must not double-count it.
            tracer.mark("gc", latency,
                        outcome=f"moved={len(relocated)}")
        return latency

    # -- metrics ------------------------------------------------------------

    def register_metrics(self, registry, label: str = None) -> None:
        """Flash-specific instruments on top of the generic device set:
        programs/erases/GC (the endurance story behind Table 6), wear
        spread and write amplification."""
        super().register_metrics(registry, label=label)
        label = label if label is not None else self.name
        stats = self.stats
        registry.counter("ssd_program_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: stats.count("write_blocks")
                    + stats.count("gc_page_moves"))
        registry.counter("ssd_erase_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.total_erases)
        registry.counter("ssd_gc_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: stats.count("gc_erases"))
        registry.gauge("ssd_wear_spread", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: max(b.erase_count for b in self._blocks)
                    - min(b.erase_count for b in self._blocks))
        registry.gauge("ssd_write_amplification", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.write_amplification)

    # -- wear reporting -----------------------------------------------------

    def erase_counts(self) -> List[int]:
        """Per-physical-block erase counts (for wear/endurance analysis)."""
        return [b.erase_count for b in self._blocks]

    @property
    def total_erases(self) -> int:
        return sum(b.erase_count for b in self._blocks)

    @property
    def write_amplification(self) -> float:
        """(host + GC page programs) / host page programs."""
        host = self.stats.count("write_blocks")
        moves = self.stats.count("gc_page_moves")
        if host == 0:
            return 1.0
        return (host + moves) / host

    @property
    def footprint_blocks(self) -> int:
        """Distinct logical blocks ever accessed."""
        return len(self._footprint)

    # -- failure injection --------------------------------------------------

    def wear_out(self, block_indices) -> int:
        """Force physical blocks to the erase-count endurance limit.

        Fault injection (:mod:`repro.sim.faults` ``ssd_wearout``):
        the blocks are not removed from service — the wear-levelling GC
        already steers away from high-erase victims, and the wear
        report / `ssd_erase_spread` gauge make the damage observable.
        Returns how many blocks were newly driven to the limit.
        """
        limit = self.spec.endurance_cycles
        worn = 0
        for index in block_indices:
            block = self._blocks[index]
            if block.erase_count < limit:
                block.erase_count = limit
                worn += 1
        if worn:
            self.stats.bump("worn_blocks", worn)
        return worn

    @property
    def worn_blocks(self) -> int:
        """Physical blocks at or beyond the endurance limit."""
        limit = self.spec.endurance_cycles
        return sum(1 for b in self._blocks if b.erase_count >= limit)
