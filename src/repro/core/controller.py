"""The I-CASH storage element: one SSD and one HDD, intelligently coupled.

This is the paper's architecture (Figure 1) end to end:

* The **SSD** stores reference blocks (and the few blocks spilled when a
  delta exceeds the threshold).  It sees almost no random writes during
  online operation — references are written by the background scan.
* The **HDD** stores the logical data region (for independent blocks)
  plus an append-only *delta log*: dirty deltas are packed many-per-block
  and flushed sequentially, so one mechanical operation carries many
  logical writes.
* The **RAM buffer** holds hot data blocks and the delta segment pool.
* The **CPU** pays for delta encodes/decodes and the periodic similarity
  scan; the write-path compression largely overlaps I/O processing
  (Section 5.1), so only a configurable fraction of it lands on the
  request critical path.

Reads return real reconstructed content — reference content patched with
the block's delta — so the test suite can verify the entire pipeline
byte-for-byte against a shadow copy.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from itertools import repeat
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.baselines.base import StorageSystem
from repro.core.cache import ICashCache
from repro.core.config import ICASHConfig
from repro.core.heatmap import Heatmap
from repro.core.ingest import memoised_plan
from repro.core.signatures import block_signatures, block_signatures_many
from repro.core.similarity import SimilarityScanner
from repro.core.virtual_block import BlockKind, VirtualBlock
from repro.delta.encoder import Delta, apply_delta, encode_delta
from repro.delta.packer import DeltaLog, DeltaRecord
from repro.delta.segments import SegmentPool
from repro.devices.dram import DRAMBuffer
from repro.devices.hdd import HardDiskDrive
from repro.devices.ssd import FlashSSD
from repro.sim.backing import BackingStore


def _readonly_view(arr: np.ndarray) -> np.ndarray:
    """A read-only alias of ``arr`` — the zero-copy read-path currency.

    Read results used to be defensive copies; profiling put those copies
    among the top host-time costs of a run.  A locked view is safe here
    because controller-owned buffers are replaced wholesale, never
    mutated in place, and the read contract says results are valid only
    until the next operation.
    """
    view = arr.view()
    view.flags.writeable = False
    return view


class _DeltaMapEntry:
    """The one record of a delta-mapped block (Section 4.3's "pointer to
    the reference block" plus where its delta was last logged).

    ``ref_lba`` is the reference the delta is derived against — the lba
    itself for a reference's own delta.  ``log_slot`` is None exactly
    while the delta waits in the flush queue.  Created or rebound only
    by :meth:`ICASHController._map_delta` and ``ingest``, dropped only by
    ``_unmap_delta``.  Survives virtual-block eviction: a block whose
    delta lives only in the HDD log is still reconstructible through it.
    It has no ``__init__`` (creating one runs no Python frame): the
    creator sets both fields.
    """

    __slots__ = ("ref_lba", "log_slot")


#: The three values of :attr:`_SSDCopy.own`, compared by identity.
_IN_STEP, _AHEAD, _SHADOWED = "in-step", "ahead", "shadowed"


@dataclass(slots=True, eq=False)
class _SSDCopy:
    """Everything the SSD holds for one lba — a reference's frozen copy or
    a spilled block.

    Created only by :meth:`ICASHController._acquire_ssd_slot`, filled by
    ``_ssd_write`` (``data`` is replaced wholesale, never patched) and
    destroyed only by ``_release_ssd_slot``; frozen bytes written to it
    (an image row, a write payload) are shared, not copied.  This is the
    RAM-side mirror the real prototype's metadata makes addressable;
    device latencies are still charged through ``controller.ssd``.
    """

    slot: int
    spilled: bool
    data: Optional[np.ndarray]
    #: Where a reference's *own* content stands against this frozen copy.
    #: In step: the HDD data region holds the same bytes.  Ahead: the copy
    #: holds bytes the HDD never received (a refresh-in-place writes the
    #: SSD only) and must be written back before its slot is released.
    #: Shadowed: the content diverged beyond the spill threshold while
    #: other blocks still depend on the copy, which stays to serve them
    #: while the reference's own content takes the ordinary data path.
    own: str = _IN_STEP


class ICASHController(StorageSystem):
    """One I-CASH storage element over a logical 4 KB block space."""

    #: What the element counts; ``experiments/breakdown.py`` classifies
    #: the read and write paths by these names.
    COUNTERS = (
        # read path
        "ram_data_hits", "ram_delta_hits", "ssd_ref_reads",
        "ssd_ref_direct_reads", "ssd_ref_reads_background",
        "ssd_spill_reads", "shadowed_ref_reads", "hdd_data_reads",
        "log_delta_fetches", "delta_reconstructions", "recon_cache_hits",
        "delta_hydrations",
        # write path
        "delta_writes", "reference_delta_writes", "reference_refreshes",
        "reference_shadowed", "independent_writes", "spilled_write_through",
        "hdd_write_through", "delta_spills", "spill_fallbacks",
        # flushes and the log
        "delta_flushes", "delta_records_flushed", "log_rescued_records",
        "log_compactions", "log_compacted_records", "data_writebacks",
        # the scan, references and eviction
        "scans", "scan_comparisons", "references_created",
        "references_retired", "associates_created",
        "associations_absorbed_dirty_data", "virtual_evictions",
        "data_evictions", "delta_evictions",
        # ingest, and core/recovery.rebuild_controller
        "ingest_references", "ingest_deltas", "rebuilt_references",
        "rebuilt_spills")

    def __init__(self, initial_content: np.ndarray,
                 config: Optional[ICASHConfig] = None) -> None:
        config = config if config is not None else ICASHConfig()
        capacity_blocks = initial_content.shape[0]
        super().__init__("icash", capacity_blocks)
        self.config = config
        self.backing = BackingStore(initial_content)
        self.hdd = HardDiskDrive(capacity_blocks + config.log_blocks)
        self.log = DeltaLog(self.hdd, base_lba=capacity_blocks,
                            size_blocks=config.log_blocks)
        self.ssd = FlashSSD(config.ssd_capacity_blocks)
        self.dram = DRAMBuffer("icash-ram")
        self.segments = SegmentPool(config.delta_ram_bytes)
        self.cache = ICashCache(config.max_virtual_blocks,
                                config.data_ram_bytes, self.segments)
        self.heatmap = Heatmap()
        self.scanner = SimilarityScanner(
            heatmap=self.heatmap,
            min_signature_match=config.min_signature_match,
            delta_accept_bytes=config.delta_accept_bytes,
            scan_compare_s=config.scan_compare_s,
            compress_s=config.compress_s)

        # SSD bookkeeping: the slot free list and one record per
        # SSD-resident lba (references and spilled blocks).
        self._free_slots: List[int] = list(
            range(config.ssd_capacity_blocks - 1, -1, -1))
        self._ssd_copies: Dict[int, _SSDCopy] = {}

        # Durable delta metadata: one record per delta-mapped lba.
        self._delta_map: Dict[int, _DeltaMapEntry] = {}
        # How many *other* lbas' records name each reference.  A
        # reference can only be retired (its SSD copy released) when this
        # count is zero: an evicted associate's logged delta is useless
        # without the exact reference content it was derived against.
        self._ref_dependents: Dict[int, int] = {}
        # The flush queue — a delta is dirty exactly while its lba is in
        # here — in *arrival order*, the order the deltas pack into delta
        # blocks (§3.1 case 1: one burst shares a delta block).
        self._dirty_delta_lbas: "OrderedDict[int, None]" = OrderedDict()
        self._io_count = 0
        # SSD reads issued so far by the host request being served.
        self._request_ssd_reads = 0

        # Host-side memo of delta reconstructions: lba -> (delta object,
        # reference bytes, read-only content).  Purely a host-CPU saving
        # — a read charges the same device latencies and decompress cost
        # whether or not the memo answers.  A hit requires the
        # *same* delta object against the *same* reference array: a
        # rewritten associate gets a new Delta and an SSD copy is
        # replaced wholesale, never patched, so identity is the staleness
        # check for both (the entry keeps its array alive, so an id is
        # never reused under it).
        self._recon_cache: "OrderedDict[int, Tuple[Delta, np.ndarray, np.ndarray]]" = OrderedDict()

    # ------------------------------------------------------------------
    # StorageSystem interface
    # ------------------------------------------------------------------

    def devices(self) -> Iterable:
        return (self.ssd, self.hdd, self.dram)

    def read(self, lba: int, nblocks: int = 1
             ) -> Tuple[float, List[np.ndarray]]:
        """Read ``nblocks`` starting at ``lba``.

        Returned arrays may be *read-only views* into controller-owned
        buffers (the RAM data cache, the SSD frozen copies, the backing
        store): they are valid until the next controller operation, and
        callers that retain content across operations must copy it.
        Controller-internal buffers are only ever replaced wholesale —
        never mutated in place — so a view can never observe a torn
        update; it can only go stale.
        """
        self._check_span(lba, nblocks)
        latency = 0.0
        contents: List[np.ndarray] = []
        # SSD reads after the first within one host request pipeline
        # across the flash channels, like a native multi-page read.
        self._request_ssd_reads = 0
        for block in range(lba, lba + nblocks):
            block_latency, content = self._read_one(block)
            latency += block_latency
            contents.append(content)
            self._after_io()
        return latency, contents

    def write(self, lba: int, blocks: Sequence[np.ndarray]) -> float:
        self._check_span(lba, len(blocks))
        self._request_ssd_reads = 0
        latency = 0.0
        # Multi-block writes compute all signatures in one cache-aware
        # batch pass; signatures are a pure function of content, so
        # hoisting them out of the per-block loop cannot change what any
        # interleaved scan observes (heatmap recording stays in
        # _write_one, in block order).
        signatures = (block_signatures_many(blocks)
                      if len(blocks) > 1 else None)
        for offset, content in enumerate(blocks):
            latency += self._write_one(
                lba + offset, content,
                signatures[offset] if signatures else None)
            self._after_io()
        return latency

    def flush(self) -> float:
        """Foreground drain of all dirty deltas and data blocks."""
        return self._flush_deltas(background=False) \
            + self._flush_dirty_data(background=False)

    def ingest(self) -> float:
        """Offline reference selection and delta packing (§3.1, case 2).

        "At the time when virtual machines are created, I-CASH compares
        each data block ... derives deltas ... and packs the deltas into
        delta blocks to be stored in HDD."  The same organisation applies
        to any pre-loaded data set (a database load, a mail store): sweep
        the backing store sequentially, promote the first block of each
        content cluster to a reference in the SSD, and pack every
        similar block's delta into the sequential HDD log.

        Returns the setup time (sequential sweep + SSD reference writes +
        log append); callers treat it as load-phase cost, outside the
        measured benchmark window.  Runs once, on a fresh controller.

        Every decision is made up front by :func:`plan_ingest` from one
        vectorised signature pass, memoised per image
        (:func:`memoised_plan`).  The replay leaves what a
        block-by-block sweep leaves, side effects in the same order
        (``tests/reference/ingest.py``), without a Python round per
        block: one :meth:`HardDiskDrive.sweep` per run of blocks between
        two promotions; the delta map and the dependants counts are
        written in one loop, ``cpu_time`` is charged in another, and
        :meth:`ICashCache.fill_delta_buffer` warms the delta buffer.
        """
        config = self.config
        blocks = self.backing.view_all()
        sig_matrix, plan = memoised_plan(
            blocks, config.min_signature_match, config.delta_accept_bytes,
            len(self._free_slots))
        self.heatmap.record_batch(sig_matrix)
        total = 0.0
        sweep = self.hdd.sweep  # the sequential sweep
        swept = 0
        for lba in plan.promoted:
            total = sweep(swept, lba + 1, total)
            swept = lba + 1
            self._acquire_ssd_slot(lba)
            total += self._ssd_write(lba, blocks[lba])
            vb = self._install_virtual_block(lba, BlockKind.REFERENCE)
            vb.signatures = tuple(sig_matrix[lba].tolist())
            self.scanner.note_reference(vb)
            self.ingest_references += 1
        total = sweep(swept, self.capacity_blocks, total)
        cpu, compare_s, compress_s = \
            self.cpu_time, config.scan_compare_s, config.compress_s
        for candidates, delta in zip(plan.candidates, plan.deltas):
            cpu += max(1, candidates) * compare_s
            if delta is not None:
                cpu += compress_s
        self.cpu_time = cpu
        logged = plan.logged
        if not logged:
            return total
        refs = [plan.references[lba] for lba in logged]
        deltas = [plan.deltas[lba] for lba in logged]
        delta_map, dependents = self._delta_map, self._ref_dependents
        for lba, ref_lba in zip(logged, refs):
            entry = delta_map[lba] = _DeltaMapEntry()
            entry.ref_lba, entry.log_slot = ref_lba, None
            dependents[ref_lba] = dependents.get(ref_lba, 0) + 1
        # tuple.__new__ builds each record without a Python frame.
        total += self._append_to_log(list(map(
            tuple.__new__, repeat(DeltaRecord), zip(logged, refs, deltas))))
        self.ingest_deltas += len(logged)
        # Leave the delta buffer warm: the prototype "is able to cache all
        # delta blocks within 32 MB RAM" (Section 5.1).  Whatever exceeds
        # the pool stays reachable through the log.
        evicted = self.cache.fill_delta_buffer(logged, deltas)
        if evicted:
            self.virtual_evictions += evicted
        return total

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def _read_one(self, lba: int) -> Tuple[float, np.ndarray]:
        # A hit runs in this one frame: the lookup and LRU touch, and for
        # a delta the reference and delta reads and the memoised patch.
        cache = self.cache
        orders = cache._blocks, cache._data_order, cache._delta_order
        blocks = orders[0]
        vb = blocks.get(lba)
        if vb is not None:
            for order in orders:
                if lba in order:
                    order.move_to_end(lba)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("cache_lookup", lba=lba,
                           outcome="miss" if vb is None else vb.kind.value)
        if vb is None:
            latency, content, vb = self._read_miss(lba)
        elif vb.kind is BlockKind.ASSOCIATE or (
                vb.kind is BlockKind.REFERENCE and vb.delta is not None):
            # An associate (or a written reference): its reference's
            # content patched with its delta.
            entry = self._delta_map[lba]
            ref_lba = entry.ref_lba
            ref_vb = vb if ref_lba == lba else blocks.get(ref_lba)
            if ref_vb is not vb and ref_vb is not None:
                for order in orders:
                    if ref_lba in order:
                        order.move_to_end(ref_lba)
            # The frozen copy is on the SSD alone: a reference's RAM data
            # is its own diverged content (a shadowed reference).
            latency = self._ssd_read_latency(ref_lba)
            self.ssd_ref_reads += 1
            delta = vb.delta
            if delta is not None:
                latency += self.dram.access(vb.delta_segments_bytes)
                self.ram_delta_hits += 1
            else:
                self._ensure_segment_capacity(vb,
                                              self.LOG_FETCH_HEADROOM_BYTES)
                log_latency, delta = self._fetch_delta_from_log(lba, entry)
                latency += log_latency
                if self._ensure_segment_capacity(vb, delta.size_bytes):
                    cache.attach_delta(vb, delta)
                self.log_delta_fetches += 1
            # The memo answers for the same delta on the same reference.
            reference = self._ssd_copies[ref_lba].data
            memo = self._recon_cache.get(lba)
            if memo is not None and memo[0] is delta \
                    and memo[1] is reference:
                self._recon_cache.move_to_end(lba)
                self.recon_cache_hits += 1
                content = memo[2]
            else:
                content = apply_delta(delta, reference)
                content.flags.writeable = False
                self._recon_cache[lba] = (delta, reference, content)
                if len(self._recon_cache) > self.RECON_CACHE_CAPACITY:
                    self._recon_cache.popitem(last=False)
            decompress_s = self.config.decompress_s
            self.cpu_time += decompress_s
            if tracer is not None:
                tracer.span("delta_decode", decompress_s)
            latency += decompress_s
            self.delta_reconstructions += 1
        elif vb.data is not None:
            self.ram_data_hits += 1
            latency = self.dram.access()
            content = _readonly_view(vb.data)
        else:
            copy = self._ssd_copies.get(lba)
            if copy is None or copy.own is _SHADOWED:
                # An independent block whose data block was evicted, or a
                # shadowed reference (its frozen SSD copy only serves
                # dependents): the content lives on the HDD data region.
                latency = self.hdd.read(lba, 1)
                content = self.backing.view(lba)
                self._maybe_cache_data(vb, content, dirty=False)
                if copy is None:
                    self.hdd_data_reads += 1
                else:
                    self.shadowed_ref_reads += 1
            else:
                latency = self._ssd_read_latency(lba)
                content = _readonly_view(copy.data)
                if copy.spilled:
                    self.ssd_spill_reads += 1
                else:
                    self.ssd_ref_reads += 1
                    self.ssd_ref_direct_reads += 1
        signatures = vb.signatures
        if not signatures:
            signatures = vb.signatures = block_signatures(content)
        heatmap = self.heatmap  # its own signatures need no range check
        heatmap.pending.append(signatures)
        heatmap.total_accesses += 1
        return latency, content

    def _read_miss(self, lba: int
                   ) -> Tuple[float, np.ndarray, VirtualBlock]:
        """Resolve a block with no cached virtual block."""
        entry = self._delta_map.get(lba)
        if entry is not None:
            return self._read_miss_delta_mapped(lba, entry)
        copy = self._ssd_copies.get(lba)
        if copy is not None and copy.spilled:
            latency = self._ssd_read_latency(lba)
            content = _readonly_view(copy.data)
            vb = self._install_virtual_block(lba, BlockKind.INDEPENDENT)
            self.ssd_spill_reads += 1
            return latency, content, vb
        latency = self.hdd.read(lba, 1)
        content = self.backing.view(lba)
        vb = self._install_virtual_block(lba, BlockKind.INDEPENDENT)
        self._maybe_cache_data(vb, content, dirty=False)
        self.hdd_data_reads += 1
        return latency, content, vb

    def _read_miss_delta_mapped(self, lba: int, entry: _DeltaMapEntry
                                ) -> Tuple[float, np.ndarray, VirtualBlock]:
        """An evicted associate: reference from SSD, delta from the log."""
        if entry.log_slot is None:
            raise RuntimeError(
                f"block {lba} delta-mapped but never flushed and not "
                f"cached — eviction must flush first")
        vb = self._install_virtual_block(lba, BlockKind.ASSOCIATE)
        # Make room with headroom *before* unpacking the log block, so
        # the siblings the mechanical read drags in can hydrate too.
        self._ensure_segment_capacity(vb, self.LOG_FETCH_HEADROOM_BYTES)
        latency, delta = self._fetch_delta_from_log(lba, entry)
        latency += self._ssd_read_latency(entry.ref_lba)
        content = apply_delta(delta, self._ssd_copies[entry.ref_lba].data)
        decompress_s = self.config.decompress_s
        self.cpu_time += decompress_s
        if self.tracer is not None:
            self.tracer.span("delta_decode", decompress_s)
        latency += decompress_s
        if self._ensure_segment_capacity(vb, delta.size_bytes):
            self.cache.attach_delta(vb, delta)
        self.log_delta_fetches += 1
        return latency, content, vb

    #: Bound on memoised reconstructions (one 4 KB block each).
    RECON_CACHE_CAPACITY = 2048

    #: Segment-pool headroom a log fetch evicts for, as a multiple of a
    #: typical delta block's worth of records — the mechanical read is
    #: only amortised if its co-packed siblings have somewhere to live.
    #: Best effort: when the pool is too small for it, the exact-size
    #: reservation after the fetch still gets its chance.
    LOG_FETCH_HEADROOM_BYTES = 8 * 1024

    def _fetch_delta_from_log(self, lba: int, entry: _DeltaMapEntry
                              ) -> Tuple[float, Delta]:
        """One HDD log read; hydrates every current sibling delta it holds.

        This is the payoff of delta packing (Section 3.1): the mechanical
        read that fetches one delta brings its whole delta block into RAM,
        so immediately-following requests to the co-packed blocks hit RAM.
        """
        slot = entry.log_slot
        latency, records = self.log.read_block(slot)
        wanted: Optional[Delta] = None
        for record in records:
            if not self._is_current(record, slot):
                continue
            if record.lba == lba:
                wanted = record.delta
                continue
            sibling = self.cache.get(record.lba, touch=False)
            if sibling is not None and sibling.has_delta:
                continue
            if not self.segments.can_fit(record.delta.size_bytes):
                continue
            if sibling is None:
                # Revive the co-packed block's metadata so the delta we
                # already paid the mechanical read for stays usable —
                # speculative, so never evict anyone to make room.
                if self.cache.virtual_blocks_free < 1:
                    continue
                sibling = VirtualBlock(lba=record.lba,
                                       kind=BlockKind.ASSOCIATE)
                self.cache.insert(sibling)
            self.cache.attach_delta(sibling, record.delta)
            self.delta_hydrations += 1
        if wanted is None:
            raise RuntimeError(
                f"log slot {slot} does not hold the current delta for "
                f"block {lba}")
        return latency, wanted

    def _is_current(self, record: DeltaRecord, slot: int) -> bool:
        """Whether ``record``, read from log ``slot``, is its block's
        current delta: the block's record names that slot and the same
        reference."""
        entry = self._delta_map.get(record.lba)
        return (entry is not None and entry.log_slot == slot
                and entry.ref_lba == record.ref_lba)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _write_one(self, lba: int, content: np.ndarray,
                   signatures: Optional[Tuple[int, ...]] = None) -> float:
        if signatures is None:
            signatures = block_signatures(content)
        heatmap = self.heatmap  # its own signatures need no range check
        heatmap.pending.append(signatures)
        heatmap.total_accesses += 1
        vb = self.cache.get(lba)
        tracer = self.tracer
        if tracer is not None:
            tracer.instant("cache_lookup", lba=lba,
                           outcome="miss" if vb is None else vb.kind.value)
        if vb is None:
            vb = self._revive_for_write(lba)
        if vb.kind is BlockKind.ASSOCIATE:
            latency = self._write_associate(vb, content, signatures)
        elif vb.kind is BlockKind.REFERENCE:
            latency = self._write_reference(vb, content)
        else:
            latency = self._write_independent(vb, content, signatures)
        return latency

    def _revive_for_write(self, lba: int) -> VirtualBlock:
        """Recreate the virtual block for a write miss."""
        return self._install_virtual_block(
            lba, BlockKind.ASSOCIATE if lba in self._delta_map
            else BlockKind.INDEPENDENT)

    def _write_associate(self, vb: VirtualBlock, content: np.ndarray,
                         signatures: Tuple[int, ...]) -> float:
        """Delta-derive against the reference; spill when the delta is big.

        The reference read and the compression run concurrently with
        request processing (Section 5.1), so the request only pays the RAM
        buffering plus the exposed slice of the compression time; the SSD
        read still occupies the device (background time).
        """
        ref_lba = self._delta_map[vb.lba].ref_lba
        self.cache.get(ref_lba)  # a dependant's write keeps it warm
        tracer = self.tracer
        # The reference read overlaps request processing (§5.1); the
        # frozen copy is on the SSD alone, whatever RAM data a shadowed
        # reference holds.
        self._in_background(self._ssd_read_latency, ref_lba)
        self.ssd_ref_reads_background += 1
        delta = encode_delta(content, self._ssd_copies[ref_lba].data)
        cpu = self.config.compress_s
        self.cpu_time += cpu
        exposed = cpu * self.config.compress_exposed_fraction
        latency = self.dram.access() + exposed
        if tracer is not None:
            tracer.span("delta_encode", exposed, lba=vb.lba,
                        nbytes=delta.size_bytes)
        if delta.size_bytes > self.config.delta_spill_bytes:
            latency += self._spill_to_ssd(vb, content)
            return latency
        if not self._ensure_segment_capacity(vb, delta.size_bytes):
            # Pool cannot hold this delta at all: spill instead.
            latency += self._spill_to_ssd(vb, content)
            return latency
        self.cache.attach_delta(vb, delta)
        vb.signatures = signatures
        self.cache.drop_data(vb)  # content is now represented by the delta
        self._map_delta(vb.lba, ref_lba)
        self.delta_writes += 1
        return latency

    def _write_reference(self, vb: VirtualBlock,
                         content: np.ndarray) -> float:
        """Writes to a reference update its own delta; its SSD copy and
        signature stay frozen while associates depend on it."""
        copy = self._ssd_copies[vb.lba]
        if copy.own is _SHADOWED:
            # Whatever this write turns out to be, the HDD region still
            # holds the shadowed bytes, not the frozen copy's.
            copy.own = _AHEAD
        delta = encode_delta(content, copy.data)
        cpu = self.config.compress_s
        self.cpu_time += cpu
        exposed = cpu * self.config.compress_exposed_fraction
        latency = self.dram.access() + exposed
        tracer = self.tracer
        if tracer is not None:
            tracer.span("delta_encode", exposed, lba=vb.lba,
                        nbytes=delta.size_bytes)
        if delta.is_identity:
            # Content reverted to the frozen copy: drop any standing delta.
            self.cache.drop_delta(vb)
            self.cache.drop_data(vb)
            self._unmap_delta(vb.lba)
            return latency
        if delta.size_bytes > self.config.delta_spill_bytes:
            if self._dependents_of(vb.lba) == 0:
                # Nothing depends on the frozen copy: refresh it in place.
                self._in_background(self._ssd_write, vb.lba, content)
                self.cache.drop_delta(vb)
                self.cache.drop_data(vb)
                self._unmap_delta(vb.lba)
                copy.own = _AHEAD
                vb.signatures = block_signatures(content)
                self.scanner.note_reference(vb)
                self.reference_refreshes += 1
                return latency
            # Dependents pin the frozen copy, and the delta is too big to
            # keep or log: *shadow* the reference — its current content
            # takes the ordinary data path while the SSD copy lives on.
            self.cache.drop_delta(vb)
            self._unmap_delta(vb.lba)
            copy.own = _SHADOWED  # the data path takes over
            if not self._maybe_cache_data(vb, content, dirty=True):
                latency += self._hdd_write(vb.lba, content)
            self.reference_shadowed += 1
            return latency
        if not self._ensure_segment_capacity(vb, delta.size_bytes):
            raise MemoryError(
                "segment pool cannot hold a reference block's own delta")
        self.cache.attach_delta(vb, delta)
        self.cache.drop_data(vb)
        self._map_delta(vb.lba, vb.lba)
        self.reference_delta_writes += 1
        return latency

    def _write_independent(self, vb: VirtualBlock, content: np.ndarray,
                           signatures: Tuple[int, ...]) -> float:
        copy = self._ssd_copies.get(vb.lba)
        if copy is not None and copy.spilled:
            # Spilled blocks stay SSD-resident: the prototype keeps
            # writing their new data "directly to the SSD to release
            # delta buffer" (Section 5.3) — these are exactly the random
            # SSD writes Table 6 still counts against I-CASH.
            vb.signatures = signatures
            self.spilled_write_through += 1
            return self._ssd_write(vb.lba, content)
        latency = self.dram.access()
        if not self._maybe_cache_data(vb, content, dirty=True):
            # RAM data budget is irreducibly full: write through to HDD.
            latency += self._hdd_write(vb.lba, content)
            self.hdd_write_through += 1
        vb.signatures = signatures
        self.independent_writes += 1
        return latency

    def _spill_to_ssd(self, vb: VirtualBlock, content: np.ndarray) -> float:
        """Delta exceeded the threshold: store the whole block in the SSD
        (the prototype's escape hatch, Section 5.3) and dissociate."""
        self.cache.drop_delta(vb)
        self.cache.drop_data(vb)
        self._unmap_delta(vb.lba)
        vb.kind = BlockKind.INDEPENDENT
        if self._acquire_ssd_slot(vb.lba, spilled=True) is None:
            # SSD has no free slot: fall back to the independent path.
            self.spill_fallbacks += 1
            latency = self.dram.access()
            if not self._maybe_cache_data(vb, content, dirty=True):
                latency += self._hdd_write(vb.lba, content)
            return latency
        self.delta_spills += 1
        return self._ssd_write(vb.lba, content)

    # ------------------------------------------------------------------
    # Flushing (Section 3.3's reliability/performance knob)
    # ------------------------------------------------------------------

    def _flush_deltas(self, background: bool) -> float:
        queue = self._dirty_delta_lbas
        if not queue:
            return 0.0
        # Every queued delta is cached in RAM (check_invariants' (c)).
        get, delta_map = self.cache.get, self._delta_map
        records = [DeltaRecord(lba, delta_map[lba].ref_lba,
                               get(lba, touch=False).delta)
                   for lba in queue]
        queue.clear()
        latency = 0.0
        if background:
            self._in_background(self._append_to_log, records,
                                section="flush", outcome="deltas")
        else:
            latency = self._append_to_log(records)
        self.delta_flushes += 1
        self.delta_records_flushed += len(records)
        return latency

    def _append_to_log(self, records: List[DeltaRecord]) -> float:
        """Append records, rescuing any current deltas the wrapping log
        overwrites.

        This is the minimal log cleaning a circular delta log needs:
        displaced records that are still each block's current delta get
        re-appended.  The loop iterates because one rescue can displace
        further current records when the live set sits contiguously in
        the log; each round compacts the live set toward the head, so it
        terminates whenever the live deltas fit in the region at all.  A
        round count beyond the region size means they do not — a
        configuration error worth failing loudly on.
        """
        total_latency = 0.0
        pending = records
        rounds = 0
        while pending:
            rounds += 1
            if rounds > 3:
                # Incremental rescue is chasing a dense live region around
                # the ring (the classic cleaning livelock): fall back to a
                # full compaction, which rewrites the live set once.
                return total_latency + self._compact_log(pending)
            latency, slots, displaced = self.log.append(pending)
            total_latency += latency
            self._update_log_slots(slots)
            pending = self._current_displaced(displaced, pending)
            if pending:
                self.log_rescued_records += len(pending)
        return total_latency

    def _update_log_slots(self, slots: List[int]) -> None:
        """Point each just-flushed lba's delta map at its new log slot."""
        for slot in slots:
            for record in self.log.peek_block(slot):
                entry = self._delta_map.get(record.lba)
                if entry is not None and entry.ref_lba == record.ref_lba:
                    entry.log_slot = slot

    def _current_displaced(self, displaced, appended: List[DeltaRecord]
                           ) -> List[DeltaRecord]:
        """Filter a wrap's displaced records down to the still-current —
        never a block the append itself wrote: its new record may sit in
        the slot the old one left, which the map now names."""
        rescue: List[DeltaRecord] = []
        settled = {record.lba for record in appended}
        for old_slot, record in displaced:
            if record.lba not in settled \
                    and self._is_current(record, old_slot):
                rescue.append(record)
                settled.add(record.lba)
        return rescue

    def _compact_log(self, pending: List[DeltaRecord]) -> float:
        """Rewrite the log to hold exactly the live record set.

        Gathers every block's current logged delta (plus the ``pending``
        records mid-flush), resets the region and appends them in one
        sequential sweep.  Raises when even the compacted live set does
        not fit — the genuine too-small-log misconfiguration.
        """
        live: Dict[int, DeltaRecord] = {}
        # Records still in flight supersede whatever the map points at —
        # a mid-rescue block's slot is legitimately stale until written.
        pending_lbas = {record.lba for record in pending}
        for lba, entry in list(self._delta_map.items()):
            if entry.log_slot is None or lba in pending_lbas:
                continue
            for record in self.log.peek_block(entry.log_slot):
                if record.lba == lba \
                        and self._is_current(record, entry.log_slot):
                    live[lba] = record
                    break
            else:  # pragma: no cover - rescue keeps slots consistent
                raise RuntimeError(
                    f"delta map points block {lba} at log slot "
                    f"{entry.log_slot} which no longer holds its record")
        live.update((record.lba, record) for record in pending)
        records = list(live.values())
        self.log.reset()
        latency, slots, displaced = self.log.append(records)
        if displaced:
            raise RuntimeError(
                "delta log too small: the live delta set does not fit "
                "the log region even fully compacted; raise "
                "config.log_blocks")
        self._update_log_slots(slots)
        self.log_compactions += 1
        self.log_compacted_records += len(records)
        return latency

    def _flush_dirty_data(self, background: bool) -> float:
        dirty = [vb for vb in self.cache.lru_order()
                 if vb.data_dirty and vb.has_data]
        if not dirty:
            return 0.0
        latency = 0.0
        if background:
            self._in_background(self._write_back, dirty,
                                section="flush", outcome="data")
        else:
            latency = self._write_back(dirty)
        self.data_writebacks += len(dirty)
        return latency

    def _write_back(self, dirty: List[VirtualBlock]) -> float:
        """Write ``dirty`` data blocks to the HDD region; returns seconds."""
        latency = 0.0
        # Sort by lba so the write-back sweeps the disk in one direction.
        for vb in sorted(dirty, key=lambda b: b.lba):
            latency += self._hdd_write(vb.lba, vb.data)
            vb.data_dirty = False
        return latency

    # ------------------------------------------------------------------
    # Background scan
    # ------------------------------------------------------------------

    def _after_io(self) -> None:
        self._io_count += 1
        config = self.config
        if self._io_count % config.scan_interval == 0:
            self._run_scan()
        dirty_pressure = (len(self._dirty_delta_lbas)
                          >= config.flush_dirty_count)
        if self._io_count % config.flush_interval == 0 or dirty_pressure:
            self._flush_deltas(background=True)
            if self._io_count % config.flush_interval == 0:
                self._flush_dirty_data(background=True)

    def _scan_content(self, vb: VirtualBlock) -> Optional[np.ndarray]:
        """Cheap (no device I/O) content resolution for the scanner."""
        if vb.kind is BlockKind.REFERENCE:
            copy = self._ssd_copies[vb.lba]
            if vb.delta is not None or copy.own is _SHADOWED:
                return None  # current content diverged; unstable anchor
            return copy.data
        if vb.data is not None:
            return vb.data
        copy = self._ssd_copies.get(vb.lba)
        return copy.data if copy is not None and copy.spilled else None

    def _run_scan(self) -> None:
        config = self.config
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_background("scan")
        needed = max(1, int(config.scan_window * 0.05))
        if len(self._free_slots) < needed:
            self._retire_cold_references(needed - len(self._free_slots))
        result = self.scanner.scan(
            self.cache, config.scan_window,
            max_new_references=len(self._free_slots),
            content_fn=self._scan_content)
        self.cpu_time += result.cpu_time
        self.background_time += result.cpu_time
        for vb in result.new_references:
            self._promote_reference(vb)
        for assoc in result.associations:
            self._apply_association(assoc.vb, assoc.ref_lba, assoc.delta)
        if tracer is not None:
            # The scan's own CPU comparisons have no individual spans;
            # fold them into the enclosing scan span's duration.
            tracer.end_background(extra_s=result.cpu_time)
        self.scans += 1
        self.scan_comparisons += result.comparisons

    def _promote_reference(self, vb: VirtualBlock) -> None:
        content = self._scan_content(vb)
        if content is None:  # pragma: no cover - scanner filtered already
            self.scanner.note_retired(vb.lba)
            return
        copy = self._ssd_copies.get(vb.lba)
        was_spilled = copy is not None  # not yet a reference: a spill
        if was_spilled:
            # The SSD already holds exactly this content: reuse the slot.
            copy.spilled = False
        elif self._acquire_ssd_slot(vb.lba) is None:
            # Promotion fell through: undo the scan's optimistic
            # signature-index insertion.
            self.scanner.note_retired(vb.lba)
            return
        else:
            self._in_background(self._ssd_write, vb.lba, content)
        if vb.data_dirty or was_spilled:
            # Keep the HDD region consistent with the promoted copy so a
            # later demotion (or recovery) never resurrects stale bytes.
            self._in_background(self._hdd_write, vb.lba, content)
            vb.data_dirty = False
        vb.kind = BlockKind.REFERENCE
        self.cache.drop_data(vb)  # SSD now serves it; free the RAM block
        self.scanner.note_reference(vb)
        self.references_created += 1

    def _apply_association(self, vb: VirtualBlock, ref_lba: int,
                           delta: Delta) -> None:
        if vb.is_reference or ref_lba == vb.lba:
            return
        ref_vb = self.cache.get(ref_lba, touch=False)
        if ref_vb is None or not ref_vb.is_reference:
            return  # the reference was retired between scan and apply
        if not self._ensure_segment_capacity(vb, delta.size_bytes):
            return
        # Not a reference, so any SSD copy it holds is a spill.
        self._release_ssd_slot(vb.lba)
        was_dirty = vb.data_dirty
        self.cache.attach_delta(vb, delta)
        if vb.has_data:
            vb.data_dirty = False
            self.cache.drop_data(vb)
        vb.kind = BlockKind.ASSOCIATE
        # A dirty data block's content now lives only in the delta: it must
        # reach the log before the virtual block can ever be evicted.
        self._map_delta(vb.lba, ref_lba)
        if was_dirty:
            self.associations_absorbed_dirty_data += 1
        self.associates_created += 1

    def _retire_cold_references(self, count: int) -> None:
        """Demote references with no live associates, coldest first."""
        retired = 0
        for vb in self.cache.lru_order():
            if retired >= count:
                break
            if vb.kind is not BlockKind.REFERENCE \
                    or self._dependents_of(vb.lba) > 0:
                continue
            if vb.delta is not None:
                continue  # its own delta is derived against the copy
            copy = self._ssd_copies[vb.lba]
            if copy.own is _AHEAD:
                # The only current copy is the one about to be trimmed.
                self._in_background(self._hdd_write, vb.lba, copy.data)
            # A shadowed reference demotes to a plain independent block:
            # its content already lives on the ordinary data path.
            self._release_ssd_slot(vb.lba)
            vb.kind = BlockKind.INDEPENDENT
            self.scanner.note_retired(vb.lba)
            retired += 1
            self.references_retired += 1

    # ------------------------------------------------------------------
    # Capacity management
    # ------------------------------------------------------------------

    def _install_virtual_block(self, lba: int,
                               kind: BlockKind) -> VirtualBlock:
        self._ensure_virtual_capacity()
        vb = VirtualBlock(lba=lba, kind=kind)
        self.cache.insert(vb)
        return vb

    def _ensure_virtual_capacity(self) -> None:
        while self.cache.virtual_blocks_free < 1:
            victim = self.cache.find_virtual_victim()
            if victim is None:
                raise MemoryError(
                    "every cached virtual block is a reference; raise "
                    "max_virtual_blocks or lower the SSD budget")
            self._evict_virtual_block(victim)

    def _evict_virtual_block(self, victim: VirtualBlock) -> None:
        if victim.lba in self._dirty_delta_lbas:
            self._flush_deltas(background=True)
        if victim.data_dirty and victim.has_data:
            self._in_background(self._hdd_write, victim.lba, victim.data)
            victim.data_dirty = False
        self.cache.remove(victim.lba)
        self.virtual_evictions += 1

    def _maybe_cache_data(self, vb: VirtualBlock, content: np.ndarray,
                          dirty: bool) -> bool:
        """Attach a RAM data block if the budget allows (evicting others).

        Returns False when no budget could be made (the caller falls back
        to a write-through or serves straight from the device).
        """
        if not vb.has_data:
            while self.cache.data_blocks_free < 1:
                victim = self.cache.find_data_victim()
                if victim is None or victim is vb:
                    return False
                if victim.data_dirty:
                    self._in_background(self._hdd_write, victim.lba,
                                        victim.data)
                self.cache.drop_data(victim)
                self.data_evictions += 1
        self.cache.attach_data(vb, content.copy())
        vb.data_dirty = dirty
        return True

    def _ensure_segment_capacity(self, vb: VirtualBlock,
                                 nbytes: int) -> bool:
        """Make room in the segment pool for ``vb`` to hold ``nbytes``.

        Accounts for the segments ``vb`` already holds (they are freed on
        re-attach).  Applies the paper's delta-replacement policy: evict
        the first non-reference delta holder from the LRU tail — which
        *removes* that virtual block ("delta replacement leads to virtual
        block replacement"), its delta staying reachable through the log.
        """
        need = self.segments.segments_for(nbytes)
        if need > self.segments.capacity_segments:
            return False
        if vb.delta_segments_bytes:
            # Re-attaching frees the old allocation first.
            need -= self.segments.segments_for(vb.delta_segments_bytes)
        while self.segments.free_segments < need:
            victim = self.cache.find_delta_victim()
            if victim is None or victim is vb:
                return False
            self._evict_virtual_block(victim)
            self.delta_evictions += 1
        return True

    # ------------------------------------------------------------------
    # The two media: SSD residency and the HDD data region
    # ------------------------------------------------------------------

    def _acquire_ssd_slot(self, lba: int, spilled: bool = False,
                          survivor: Optional[np.ndarray] = None
                          ) -> Optional[_SSDCopy]:
        """Give ``lba`` an SSD slot (None when the SSD is full) for
        :meth:`_ssd_write` to fill — or holding ``survivor``, the bytes
        the SSD kept across a crash, which cost no device write."""
        if not self._free_slots:
            return None
        copy = self._ssd_copies[lba] = _SSDCopy(
            self._free_slots.pop(), spilled, survivor)
        return copy

    def _release_ssd_slot(self, lba: int) -> None:
        copy = self._ssd_copies.pop(lba, None)
        if copy is not None:
            self.ssd.trim(copy.slot, 1)
            self._free_slots.append(copy.slot)

    def _ssd_read_latency(self, lba: int) -> float:
        count = self._request_ssd_reads
        self._request_ssd_reads = count + 1
        if count:
            return self.ssd.read_followup(self._ssd_copies[lba].slot)
        return self.ssd.read(self._ssd_copies[lba].slot, 1)

    def _ssd_write(self, lba: int, content: np.ndarray) -> float:
        """The one way bytes reach the SSD.  A read-only array is frozen
        bytes and is kept as it is; writeable input is copied."""
        copy = self._ssd_copies[lba]
        copy.data = content.copy() if content.flags.writeable else content
        return self.ssd.write(copy.slot, 1)

    def _hdd_write(self, lba: int, content: np.ndarray) -> float:
        """The one way bytes reach the HDD data region: the device write
        and the region's content together (callers off the critical path
        go through :meth:`_in_background`)."""
        latency = self.hdd.write(lba, 1)
        self.backing.set(lba, content)
        return latency

    # ------------------------------------------------------------------
    # Delta-map maintenance: the only writers of a record, its place in
    # the flush queue and its reference's dependants count
    # ------------------------------------------------------------------

    def _map_delta(self, lba: int, ref_lba: int, dirty: bool = True) -> None:
        """Record that ``lba``'s content is a new delta against
        ``ref_lba``, queued at the tail of the flush queue — so arrival
        order tracks the *latest* write burst — unless the caller logs it
        itself (``dirty=False``)."""
        self._unmap_delta(lba)
        entry = self._delta_map[lba] = _DeltaMapEntry()
        entry.ref_lba, entry.log_slot = ref_lba, None
        if ref_lba != lba:
            self._ref_dependents[ref_lba] = \
                self._ref_dependents.get(ref_lba, 0) + 1
        if dirty:
            self._dirty_delta_lbas[lba] = None

    def _unmap_delta(self, lba: int) -> None:
        old = self._delta_map.pop(lba, None)
        if old is None:
            return
        self._dirty_delta_lbas.pop(lba, None)
        ref_lba = old.ref_lba
        if ref_lba != lba:
            remaining = self._ref_dependents[ref_lba] - 1
            if remaining:
                self._ref_dependents[ref_lba] = remaining
            else:
                del self._ref_dependents[ref_lba]

    def _dependents_of(self, ref_lba: int) -> int:
        return self._ref_dependents.get(ref_lba, 0)

    # ------------------------------------------------------------------
    # Introspection for reports, tests and recovery
    # ------------------------------------------------------------------

    def block_kind_counts(self) -> Dict[str, int]:
        """Reference / associate / independent population (Section 5.1's
        1 % / 85 % / 14 % breakdown)."""
        counts = {"reference": 0, "associate": 0, "independent": 0}
        for vb in self.cache.lru_order():
            counts[vb.kind.value] += 1
        # Delta-mapped blocks whose virtual block was evicted are still
        # logically associates.
        for lba, entry in self._delta_map.items():
            if lba not in self.cache and entry.ref_lba != lba:
                counts["associate"] += 1
        return counts

    def ssd_content_snapshot(self) -> Dict[int, np.ndarray]:
        """Copy of the SSD's durable content keyed by lba (recovery)."""
        return {lba: copy.data.copy()
                for lba, copy in self._ssd_copies.items()}

    def ssd_block_content(self, lba: int) -> Optional[np.ndarray]:
        """The SSD-resident copy (reference or spill) of ``lba``, or
        None when the block has no SSD copy.

        Returns the live array, not a copy: fault injection corrupts
        it in place and the signature scrub
        (:func:`repro.sim.faults.scrub_references`) must observe that
        damage.  Shared frozen bytes are first swapped for a private
        copy, so the damage never reaches an image or a payload.
        """
        copy = self._ssd_copies.get(lba)
        if copy is not None and not copy.data.flags.writeable:
            copy.data = copy.data.copy()
        return copy.data if copy is not None else None

    def check_invariants(self) -> None:
        """Assert what the records cannot make structural — (a)–(f) in
        ``docs/ARCHITECTURE.md``, true between any two requests — raising
        ``AssertionError`` that names the first block found breaking one.
        The SSD's own FTL invariants are checked first."""
        super().check_invariants()
        cache, copies, queue = self.cache, self._ssd_copies, \
            self._dirty_delta_lbas
        records, dependents = self._delta_map, self._ref_dependents
        REFERENCE, ASSOCIATE = BlockKind.REFERENCE, BlockKind.ASSOCIATE

        def check(ok: bool, lba: int, what: str) -> None:
            if not ok:
                raise AssertionError(f"block {lba}: {what}")

        census: Dict[int, int] = {}
        for lba, entry in records.items():
            ref, slot = entry.ref_lba, entry.log_slot
            vb, copy = cache.get(lba, touch=False), copies.get(ref)
            ref_vb = cache.get(ref, touch=False)
            check(copy is not None and not copy.spilled and ref_vb is not None
                  and ref_vb.kind is REFERENCE, lba,
                  "(a) its reference holds no frozen SSD copy")
            if ref != lba:
                census[ref] = census.get(ref, 0) + 1
            check(ref != lba if vb is None else
                  vb.kind is (REFERENCE if ref == lba else ASSOCIATE), lba,
                  "(d) its record's reference does not fit its kind")
            check((slot is None) == (lba in queue), lba,
                  "(c) the flush queue disagrees with its log slot")
            if slot is None:
                check(vb is not None and vb.delta is not None, lba,
                      "(c) its queued delta is not in RAM")
                continue
            try:
                logged = [r for r in self.log.peek_block(slot) if r.lba == lba]
            except (KeyError, ValueError):  # an empty or torn slot
                logged = []
            check(0 <= slot < self.log.size_blocks and len(logged) == 1
                  and logged[0].ref_lba == ref, lba,
                  "(f) its log slot holds no single record of it")
            check(vb is None or vb.delta is None
                  or vb.delta == logged[0].delta, lba,
                  "(f) its clean RAM delta differs from the logged one")
        for ref in census.keys() | dependents.keys():
            check(census.get(ref) == dependents.get(ref), ref,
                  "(b) its dependants count differs from its records")
        for lba in queue:
            check(lba in records, lba, "(c) queued without a record")
        for vb in cache.lru_order():
            check(vb.lba in records or (vb.delta is None
                                        and vb.kind is not ASSOCIATE),
                  vb.lba, "(d) a RAM delta or an associate without a record")
        free, owners = set(self._free_slots), {}
        for lba, copy in copies.items():
            check(copy.slot not in free
                  and owners.setdefault(copy.slot, lba) == lba, lba,
                  "(e) its SSD slot is not its own")
            vb = cache.get(lba, touch=False)
            check(lba not in records if copy.spilled
                  else vb is not None and vb.kind is REFERENCE, lba,
                  "(e) a spill with a record, or a copy of no reference")
        if len(free) != len(self._free_slots) or len(free) + len(copies) \
                != self.config.ssd_capacity_blocks:
            raise AssertionError("(e) free SSD slots and copies do not "
                                 "add up to the SSD's capacity")

    @property
    def dirty_delta_count(self) -> int:
        """Deltas awaiting a flush — the crash data-loss window of
        Section 3.3 (what an ill-timed power loss would forget)."""
        return len(self._dirty_delta_lbas)

    def delta_map_snapshot(self) -> Dict[int, Tuple[int, Optional[int]]]:
        """Durable delta metadata: lba -> (ref_lba, log_slot).

        Section 3.3 flushes metadata alongside dirty deltas, so recovery
        may consult this map to tell current log records from stale ones.
        """
        return {lba: (entry.ref_lba, entry.log_slot)
                for lba, entry in self._delta_map.items()}

    @property
    def reference_lbas(self) -> Set[int]:
        return {vb.lba for vb in self.cache.references()}

    @property
    def spilled_lbas(self) -> Set[int]:
        return {lba for lba, copy in self._ssd_copies.items()
                if copy.spilled}

    @property
    def shadowed_reference_lbas(self) -> Set[int]:
        """References whose own content bypasses their frozen SSD copy."""
        return {lba for lba, copy in self._ssd_copies.items()
                if copy.own is _SHADOWED}

    def describe(self) -> str:
        """A human-readable status report of this storage element.

        Covers the quantities an operator would ask about: block
        population, RAM budgets, SSD occupancy and wear, log state and
        the dirty (crash-loss) window.
        """
        counts = self.block_kind_counts()
        total = max(1, sum(counts.values()))
        pool = self.segments
        lines = [
            f"I-CASH element: {self.capacity_blocks} logical blocks "
            f"({self.capacity_blocks * 4096 / 2**20:.0f} MiB)",
            "block population:",
        ]
        lines.extend(f"  {kind:<12} {counts[kind]:>7} "
                     f"({counts[kind] / total:6.1%})"
                     for kind in ("reference", "associate", "independent"))
        lines.extend([
            "ram:",
            f"  data blocks   {self.cache.data_blocks_used:>7} / "
            f"{self.cache.max_data_blocks}",
            f"  delta pool    {pool.used_segments:>7} / "
            f"{pool.capacity_segments} segments "
            f"(peak {pool.peak_segments})",
            f"  virtual blocks{len(self.cache):>7} / "
            f"{self.cache.max_virtual_blocks}",
            "ssd:",
            f"  slots used    "
            f"{self.config.ssd_capacity_blocks - len(self._free_slots):>7}"
            f" / {self.config.ssd_capacity_blocks}"
            f" ({len(self.spilled_lbas)} spilled, "
            f"{len(self.shadowed_reference_lbas)} shadowed refs)",
            f"  host writes   {self.ssd.write_blocks:>7} "
            f"pages, write amplification "
            f"{self.ssd.write_amplification:.2f}",
            f"  erases        {self.ssd.total_erases:>7}",
            "log:",
            f"  blocks written{self.log.blocks_written:>7} "
            f"(region {self.config.log_blocks})",
            f"  dirty deltas  {len(self._dirty_delta_lbas):>7} "
            f"(the crash-loss window)",
            f"  mapped blocks {len(self._delta_map):>7}",
        ])
        return "\n".join(lines)
