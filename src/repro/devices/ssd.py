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
from typing import Deque, List, Optional

from repro.devices.base import Device, DeviceSpec
from repro.sim.request import BLOCK_SIZE


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


class FlashSSD(Device):
    """Page-mapped NAND SSD with greedy, wear-aware garbage collection;
    the FTL is flat lists (``docs/ARCHITECTURE.md``, "Device models")."""

    COUNTERS = Device.COUNTERS + (
        "trim_ops", "gc_erases", "gc_page_moves", "wear_level_picks")

    def __init__(self, capacity_blocks: int,
                 spec: Optional[SSDSpec] = None) -> None:
        spec = spec if spec is not None else SSDSpec()
        super().__init__(capacity_blocks, spec.name)
        self.spec = spec
        ppb = self._ppb = spec.pages_per_block
        n_physical = math.ceil(
            math.ceil(capacity_blocks / ppb) * (1.0 + spec.overprovision)) + 2
        self._l2p = [-1] * capacity_blocks
        self._owner = [-1] * (n_physical * ppb)
        self._valid = [0] * n_physical
        self._erases = [0] * n_physical
        self._free: Deque[int] = deque(range(1, n_physical))
        self._is_free = [False] + [True] * (n_physical - 1)
        self._active = self._wp = 0
        # Distinct logical blocks ever touched: drives the footprint penalty.
        self._footprint: set = set()
        self._gc_low_water = max(2, int(spec.gc_threshold * n_physical))

    # -- reads ---------------------------------------------------------------

    def read(self, lba: int, nblocks: int = 1) -> float:
        if nblocks < 1 or not 0 <= lba <= self.capacity_blocks - nblocks:
            self._check_span(lba, nblocks)
        footprint = self._footprint
        if nblocks == 1:
            footprint.add(lba)
        else:
            footprint.update(range(lba, lba + nblocks))
        spec = self.spec
        # First page pays the full latency, pipelined pages the reduced one.
        latency = (spec.read_base_s
                   + min(1.0, len(footprint) / spec.footprint_knee_blocks)
                   * spec.read_footprint_penalty_s
                   + (nblocks - 1) * spec.pipelined_page_s)
        self.read_ops += 1
        self.read_blocks += nblocks
        self.busy_time += latency
        if self.tracer is not None:
            self.tracer.device_span(self.trace_name, "read", latency,
                                    lba=lba, nbytes=nblocks * BLOCK_SIZE)
        return latency

    def read_followup(self, lba: int) -> float:
        """A read back-to-back with another of the same host request pays
        the pipelined page rate only: I-CASH reading several references
        for one request gets the overlap a multi-page :meth:`read` has."""
        if not 0 <= lba < self.capacity_blocks:
            self._check_span(lba, 1)
        self._footprint.add(lba)
        latency = self.spec.pipelined_page_s
        self.read_ops += 1
        self.read_blocks += 1
        self.busy_time += latency
        if self.tracer is not None:
            self.tracer.device_span(self.trace_name, "read", latency, lba=lba,
                                    nbytes=BLOCK_SIZE, outcome="pipelined")
        return latency

    # -- writes ---------------------------------------------------------------

    def write(self, lba: int, nblocks: int = 1) -> float:
        if nblocks < 1 or not 0 <= lba <= self.capacity_blocks - nblocks:
            self._check_span(lba, nblocks)
        spec, ppb = self.spec, self._ppb
        l2p, owner, valid = self._l2p, self._owner, self._valid
        footprint = self._footprint
        program_s = spec.program_s
        latency = 0.0
        for block in range(lba, lba + nblocks):
            footprint.add(block)
            old = l2p[block]
            if old >= 0:  # out of place: the old page goes stale
                owner[old] = -1
                valid[old // ppb] -= 1
            latency += (program_s + self._advance_active_block()
                        if self._wp == ppb else program_s)
            active = self._active
            ppn = active * ppb + self._wp
            owner[ppn] = block
            l2p[block] = ppn
            valid[active] += 1
            self._wp += 1
        # Pipelining: charge one full program, the rest at the (program-
        # bandwidth-limited) streaming rate.
        if nblocks > 1:
            latency = (latency - (nblocks - 1) * program_s
                       + (nblocks - 1) * spec.pipelined_program_s)
        self.write_ops += 1
        self.write_blocks += nblocks
        self.busy_time += latency
        if self.tracer is not None:
            self.tracer.device_span(self.trace_name, "write", latency,
                                    lba=lba, nbytes=nblocks * BLOCK_SIZE)
        return latency

    def trim(self, lba: int, nblocks: int = 1) -> None:
        """Invalidate logical blocks without writing (cache evictions)."""
        if nblocks < 1 or not 0 <= lba <= self.capacity_blocks - nblocks:
            self._check_span(lba, nblocks)
        l2p = self._l2p
        for block in range(lba, lba + nblocks):
            old = l2p[block]
            if old >= 0:
                l2p[block] = self._owner[old] = -1
                self._valid[old // self._ppb] -= 1
            self._footprint.discard(block)
        self.trim_ops += 1

    # -- garbage collection -------------------------------------------------

    def _advance_active_block(self) -> float:
        """Open a fresh active block, collecting first while free blocks
        are at the low-water mark; returns the stall.  GC runs
        *iteratively* here — never from inside a relocation — so it never
        erases a victim another collection is still walking."""
        gc_latency = 0.0
        while len(self._free) <= self._gc_low_water:
            gained = self._garbage_collect()
            gc_latency += gained
            if gained == 0.0:  # pragma: no cover - defensive
                break
        self._open_free_block()
        return gc_latency

    def _open_free_block(self) -> None:
        if not self._free:  # pragma: no cover - needs 0 OP space
            raise RuntimeError("SSD out of free blocks despite GC")
        self._active = block = self._free.popleft()
        self._is_free[block] = False
        self._wp = 0

    def _pick_victim(self) -> int:
        """Greedy victim choice with a wear-leveling override.

        Of the blocks neither free nor active that are not wholly valid
        (all of them if none is), the one with the fewest valid pages is
        cheapest to reclaim.  When their erase counts spread beyond
        ``wear_delta`` the least worn goes instead (static wear leveling),
        then the emptiest; remaining ties go to the lowest index.
        """
        valid, erases, ppb, active = self._valid, self._erases, self._ppb, \
            self._active
        candidates = ([i for i, free in enumerate(self._is_free)
                       if not free and valid[i] < ppb and i != active]
                      or [i for i, free in enumerate(self._is_free)
                          if not free and i != active])
        wear = list(map(erases.__getitem__, candidates))
        if max(wear) - min(wear) > self.spec.wear_delta:
            self.wear_level_picks += 1
            return min(candidates, key=lambda i: (erases[i], valid[i]))
        return min(candidates, key=valid.__getitem__)

    def _garbage_collect(self) -> float:
        """Reclaim one block; returns the time the triggering write stalls.
        Valid pages relocate into the active block, opening free blocks as
        it fills — relocation never triggers a nested collection."""
        spec, ppb = self.spec, self._ppb
        l2p, owner, valid = self._l2p, self._owner, self._valid
        victim = self._pick_victim()
        first = victim * ppb
        relocated = [lba for lba in owner[first:first + ppb] if lba >= 0]
        owner[first:first + ppb] = [-1] * ppb
        valid[victim] = 0
        latency = 0.0
        for lba in relocated:
            # Relocation: read the valid page and program it elsewhere.
            latency += spec.read_base_s
            if self._wp == ppb:
                self._open_free_block()
            active = self._active
            ppn = active * ppb + self._wp
            owner[ppn] = lba
            l2p[lba] = ppn
            valid[active] += 1
            self._wp += 1
            latency += spec.program_s
        if relocated:  # a snapshot lists only counters that moved
            self.gc_page_moves += len(relocated)
        self._erases[victim] += 1
        latency += spec.erase_s
        self._free.append(victim)
        self._is_free[victim] = True
        self.gc_erases += 1
        if self.tracer is not None:
            # A device-internal mark, not a span: the stall is already
            # inside the triggering write's span and must not count twice.
            self.tracer.mark("gc", latency,
                             outcome=f"moved={len(relocated)}")
        return latency

    def check_invariants(self) -> None:
        """Assert that the FTL columns agree, raising ``AssertionError``
        that names the first broken invariant:

        (a) ``_l2p`` and ``_owner`` are inverses on valid pages;
        (b) ``_valid[b]`` is the census of ``_owner`` within block ``b``;
        (c) the free deque holds exactly the ``_is_free`` blocks, and no
            free block holds a valid page;
        (d) free, active and in-use blocks partition the physical blocks;
        (e) no page past the active block's write pointer has an owner.
        """
        ppb, l2p, owner, valid = self._ppb, self._l2p, self._owner, \
            self._valid
        free, is_free, active, wp = self._free, self._is_free, \
            self._active, self._wp

        def check(ok: bool, what: str) -> None:
            if not ok:
                raise AssertionError(f"{self.name} FTL: {what}")

        check(all(0 <= ppn < len(owner) and owner[ppn] == lba
                  for lba, ppn in enumerate(l2p) if ppn >= 0)
              and all(lba < len(l2p) and l2p[lba] == ppn
                      for ppn, lba in enumerate(owner) if lba >= 0),
              "(a) l2p and owner are not inverses on valid pages")
        check(valid == [ppb - owner[b * ppb:(b + 1) * ppb].count(-1)
                        for b in range(len(valid))],
              "(b) a valid count differs from its block's owners")
        check(sorted(free) == [b for b, f in enumerate(is_free) if f],
              "(c) the free deque differs from the free mask")
        check(not any(valid[b] for b in free),
              "(c) a free block holds a valid page")
        check(0 <= active < len(valid) and not is_free[active],
              "(d) the active block is free or out of range")
        check(0 <= wp <= ppb and owner[active * ppb + wp:
                                       (active + 1) * ppb].count(-1)
              == ppb - wp,
              "(e) a page past the write pointer has an owner")

    # -- metrics ------------------------------------------------------------

    def register_metrics(self, registry, label: str = None) -> None:
        """Flash-specific instruments on top of the generic device set:
        programs/erases/GC (the endurance story behind Table 6), wear
        spread and write amplification."""
        super().register_metrics(registry, label=label)
        label = label if label is not None else self.name
        registry.counter("ssd_program_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.write_blocks + self.gc_page_moves)
        registry.counter("ssd_erase_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.total_erases)
        registry.counter("ssd_gc_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.gc_erases)
        registry.gauge("ssd_wear_spread", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: max(self._erases) - min(self._erases))
        registry.gauge("ssd_write_amplification", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.write_amplification)

    # -- wear reporting -----------------------------------------------------

    def erase_counts(self) -> List[int]:
        """Per-physical-block erase counts (for wear/endurance analysis)."""
        return list(self._erases)

    @property
    def total_erases(self) -> int:
        return sum(self._erases)

    @property
    def write_amplification(self) -> float:
        """(host + GC page programs) / host page programs."""
        host = self.write_blocks
        if host == 0:
            return 1.0
        return (host + self.gc_page_moves) / host

    def mapped_lbas(self) -> List[int]:
        """The logical blocks the FTL maps to a valid page, ascending."""
        return [lba for lba, ppn in enumerate(self._l2p) if ppn >= 0]

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
        limit, erases = self.spec.endurance_cycles, self._erases
        worn = 0
        for index in block_indices:
            if erases[index] < limit:
                erases[index] = limit
                worn += 1
        return worn

    @property
    def worn_blocks(self) -> int:
        """Physical blocks at or beyond the endurance limit."""
        limit = self.spec.endurance_cycles
        return sum(1 for count in self._erases if count >= limit)
