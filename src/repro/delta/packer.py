"""Delta-block packing and the sequential HDD delta log.

The heart of I-CASH's write path: dirty deltas accumulated in RAM are
packed — many at a time — into 4 KB *delta blocks* and appended
sequentially to a log region on the HDD.  One mechanical HDD operation
thereby carries a potentially large number of logical writes, and on a
later read of any packed delta, fetching its delta block pulls all of its
neighbours into RAM too (Section 3.1's delta packing/unpacking argument).

Wire format of one delta block::

    u32 magic | u32 sequence | u16 record_count |
    record_count x ( u64 lba | u64 ref_lba | u16 delta_len ) |
    concatenated serialized deltas

The sequence number makes the log replayable in order for crash recovery
(Section 3.3): :meth:`DeltaLog.replay` yields every record ever flushed,
oldest first, letting the controller rebuild block contents by applying
each block's most recent delta to its reference.
"""

from __future__ import annotations

import struct
from typing import Dict, Iterator, List, NamedTuple, Sequence, Tuple

from repro.delta.encoder import Delta
from repro.sim.request import BLOCK_SIZE

MAGIC = 0x1CA5_00DD
_BLOCK_HEADER = struct.Struct("<IIH")
_RECORD_HEADER = struct.Struct("<QQH")


class DeltaRecord(NamedTuple):
    """One logical block's delta destined for (or read from) the log."""

    lba: int
    ref_lba: int
    delta: Delta


class DeltaBlockPacker:
    """Packs delta records into 4 KB blocks and unpacks them again."""

    payload_capacity = BLOCK_SIZE - _BLOCK_HEADER.size

    def pack_with_records(self, records: Sequence[DeltaRecord],
                          start_sequence: int = 0
                          ) -> List[Tuple[bytes, List[DeltaRecord]]]:
        """Greedily pack ``records``, in order (the flush order preserves
        the write order, which recovery relies on), into as few 4 KB
        blocks as possible, each zero padded and paired with the records
        it holds — the log caches these so a ``peek_block`` right after
        an append never re-unpacks bytes it just sealed."""
        blocks: List[Tuple[bytes, List[DeltaRecord]]] = []
        current: List[DeltaRecord] = []
        used = 0
        for record in records:
            need = _RECORD_HEADER.size + record.delta.size_bytes
            if need > self.payload_capacity:
                raise ValueError(
                    f"delta for lba {record.lba} ({need} B) cannot fit in "
                    f"one delta block; spill it to the SSD instead")
            if used + need > self.payload_capacity:
                blocks.append((self._seal(
                    current, start_sequence + len(blocks)), current))
                current = []
                used = 0
            current.append(record)
            used += need
        if current:
            blocks.append((self._seal(
                current, start_sequence + len(blocks)), current))
        return blocks

    @staticmethod
    def _seal(records: List[DeltaRecord], sequence: int) -> bytes:
        packed = b"".join(
            [_BLOCK_HEADER.pack(MAGIC, sequence, len(records))]
            + [_RECORD_HEADER.pack(lba, ref_lba, delta.size_bytes)
               for lba, ref_lba, delta in records]
            + [delta.serialize() for _lba, _ref, delta in records])
        return packed + b"\x00" * (BLOCK_SIZE - len(packed))

    @staticmethod
    def unpack(block: bytes) -> List[DeltaRecord]:
        """Decode one delta block; raises ``ValueError`` on corruption."""
        if len(block) != BLOCK_SIZE:
            raise ValueError(
                f"delta blocks are {BLOCK_SIZE} B, got {len(block)}")
        magic, _sequence, count = _BLOCK_HEADER.unpack_from(block, 0)
        if magic != MAGIC:
            raise ValueError(f"bad delta block magic 0x{magic:08x}")
        pos = _BLOCK_HEADER.size
        headers: List[Tuple[int, int, int]] = []
        for _ in range(count):
            lba, ref_lba, length = _RECORD_HEADER.unpack_from(block, pos)
            headers.append((lba, ref_lba, length))
            pos += _RECORD_HEADER.size
        records: List[DeltaRecord] = []
        for lba, ref_lba, length in headers:
            delta = Delta.deserialize(block[pos:pos + length])
            records.append(DeltaRecord(lba, ref_lba, delta))
            pos += length
        return records

    @staticmethod
    def sequence_of(block: bytes) -> int:
        """The sequence number stamped into a packed block."""
        magic, sequence, _ = _BLOCK_HEADER.unpack_from(block, 0)
        if magic != MAGIC:
            raise ValueError(f"bad delta block magic 0x{magic:08x}")
        return sequence


class DeltaLog:
    """Append-only delta log occupying a region of an HDD.

    The log wraps a :class:`HardDiskDrive` region ``[base, base + size)``
    and keeps the packed block contents so that reads and crash recovery
    can actually unpack real bytes — the simulator stores genuine packed
    data, not placeholders.

    When the region fills, the log wraps around (old delta blocks are
    superseded by newer deltas for the same lbas; the controller's flush
    path always appends the *current* delta, so replay order resolves
    conflicts by last-writer-wins).
    """

    def __init__(self, hdd, base_lba: int, size_blocks: int) -> None:
        if size_blocks < 1:
            raise ValueError("delta log needs at least one block")
        self.hdd = hdd
        self.base_lba = base_lba
        self.size_blocks = size_blocks
        self._next = 0
        self._sequence = 0
        self._contents: Dict[int, bytes] = {}
        #: Per-slot unpacked-record cache, invalidated whenever a slot's
        #: bytes change (overwrite, reset, corruption injection).  The
        #: controller peeks freshly appended blocks and re-reads hot log
        #: slots often enough that re-unpacking dominated host time.
        #: Callers must treat the cached lists as immutable.
        self._unpacked: Dict[int, List[DeltaRecord]] = {}
        self._packer = DeltaBlockPacker()
        #: Corrupted blocks the last replay skipped (set by replay()).
        self.corrupt_blocks_skipped = 0
        #: Monotone total of every torn block ever detected — append
        #: overwrites *and* replay skips.  ``corrupt_blocks_skipped``
        #: resets per replay, so the metrics layer (which requires
        #: monotone counters) reads this one instead.
        self.corrupt_blocks_total = 0
        #: Monotone replay-outcome counters: passes started and intact
        #: records yielded, surfaced as ``recovery_*`` instruments.
        self.replay_count = 0
        self.replayed_records_total = 0
        #: Times the circular log wrapped back to slot 0.  Monotone over
        #: the log's life — compaction :meth:`reset` rewinds the write
        #: pointer but not this counter (a wrap happened; the metrics
        #: layer needs monotone counters).
        self.wrap_count = 0

    def append(self, records: Sequence[DeltaRecord]
               ) -> Tuple[float, List[int], List[Tuple[int, DeltaRecord]]]:
        """Pack and append ``records``.

        Returns ``(latency, slots written, displaced records)``.  The
        append is sequential on the HDD whenever the head is already at the
        log tail, which is the common case for periodic flushes.

        When the circular log wraps, the delta blocks it overwrites are
        returned as ``(old slot, record)`` pairs so the controller can
        re-log any records that are still the current delta for their
        block — the minimal log-cleaning a circular delta log needs.
        """
        if not records:
            return 0.0, [], []
        blocks = self._packer.pack_with_records(
            records, start_sequence=self._sequence)
        self._sequence += len(blocks)
        lbas: List[int] = []
        displaced: List[Tuple[int, DeltaRecord]] = []
        for block, packed_records in blocks:
            slot = self._next
            self._next = (self._next + 1) % self.size_blocks
            if self._next == 0:
                self.wrap_count += 1
            old = self._contents.get(slot)
            if old is not None:
                try:
                    displaced.extend(
                        (slot, record)
                        for record in self._cached_unpack(slot))
                except ValueError:
                    # Overwriting a torn block loses nothing recoverable.
                    self.corrupt_blocks_skipped += 1
                    self.corrupt_blocks_total += 1
            self._contents[slot] = block
            self._unpacked[slot] = packed_records
            lbas.append(slot)
        # One physical write covers the whole run of appended blocks when
        # they are contiguous; a wrap splits it in two.
        latency = self._write_extent(lbas)
        return latency, lbas, displaced

    def reset(self) -> None:
        """Drop every stored block and rewind the write pointer.

        Used by log compaction: the controller rewrites the live record
        set from scratch, reclaiming all stale space in one sweep.
        """
        self._contents.clear()
        self._unpacked.clear()
        self._next = 0

    def _cached_unpack(self, slot: int) -> List[DeltaRecord]:
        """The slot's records, unpacking at most once per stored bytes.

        The returned list is shared with the cache — callers iterate it,
        never mutate it.  ``ValueError`` (corruption) propagates exactly
        as an uncached unpack would: corruption injection invalidates
        the slot's cache entry first.
        """
        records = self._unpacked.get(slot)
        if records is None:
            records = self._packer.unpack(self._contents[slot])
            self._unpacked[slot] = records
        return records

    def peek_block(self, slot: int) -> List[DeltaRecord]:
        """Unpack a delta block without charging device latency.

        Used by the controller immediately after an append, when it needs
        the record → slot mapping of blocks it just wrote (metadata it
        holds anyway); genuine data-path reads use :meth:`read_block`.
        """
        if slot not in self._contents:
            raise KeyError(f"log slot {slot} holds no delta block")
        return self._cached_unpack(slot)

    def _write_extent(self, slots: List[int]) -> float:
        # Log appends are semantically distinct from ordinary data-region
        # I/O; re-label the raw device spans for the trace (the event's
        # outcome still carries the device's own access classification).
        tracer = getattr(self.hdd, "tracer", None)
        if tracer is not None:
            tracer.push_name_scope("hdd_log_append")
        try:
            latency = 0.0
            run_start = slots[0]
            run_len = 1
            for slot in slots[1:]:
                if slot == run_start + run_len:
                    run_len += 1
                else:
                    latency += self.hdd.write(self.base_lba + run_start,
                                              run_len)
                    run_start, run_len = slot, 1
            latency += self.hdd.write(self.base_lba + run_start, run_len)
            return latency
        finally:
            if tracer is not None:
                tracer.pop_name_scope()

    def read_block(self, slot: int) -> Tuple[float, List[DeltaRecord]]:
        """Fetch one delta block; returns (latency, all packed records)."""
        if slot not in self._contents:
            raise KeyError(f"log slot {slot} holds no delta block")
        tracer = getattr(self.hdd, "tracer", None)
        if tracer is not None:
            tracer.push_name_scope("hdd_log_read")
        try:
            latency = self.hdd.read(self.base_lba + slot, 1)
        finally:
            if tracer is not None:
                tracer.pop_name_scope()
        return latency, self._cached_unpack(slot)

    def replay(self) -> Iterator[DeltaRecord]:
        """Yield every intact logged record in flush order.

        Crash recovery must survive torn or corrupted log blocks (a
        power cut mid-append): blocks that fail to unpack are skipped —
        and counted in :attr:`corrupt_blocks_skipped` — rather than
        aborting the whole replay.  The deltas they carried fall back to
        older durable state, which is the correct loss semantics.
        """
        self.corrupt_blocks_skipped = 0
        self.replay_count += 1
        ordered = []
        for slot, blob in self._contents.items():
            try:
                sequence = self._packer.sequence_of(blob)
            except ValueError:
                self.corrupt_blocks_skipped += 1
                self.corrupt_blocks_total += 1
                continue
            ordered.append((sequence, slot))
        for _sequence, slot in sorted(ordered):
            try:
                records = self._packer.unpack(self._contents[slot])
            except ValueError:
                self.corrupt_blocks_skipped += 1
                self.corrupt_blocks_total += 1
                continue
            self.replayed_records_total += len(records)
            yield from records

    def corrupt_block(self, slot: int) -> None:
        """Failure injection: tear the first 64 bytes of a log block.

        Models a power cut mid-write; used by the reliability tests.
        """
        if slot not in self._contents:
            raise KeyError(f"log slot {slot} holds no delta block")
        blob = bytearray(self._contents[slot])
        for i in range(min(64, len(blob))):
            blob[i] ^= 0xFF
        self._contents[slot] = bytes(blob)
        # The cached records no longer match the (torn) bytes; drop them
        # so reads observe the corruption.
        self._unpacked.pop(slot, None)

    @property
    def blocks_written(self) -> int:
        return self._sequence

    @property
    def occupancy(self) -> float:
        """Fraction of log slots currently holding a delta block."""
        return len(self._contents) / self.size_blocks
