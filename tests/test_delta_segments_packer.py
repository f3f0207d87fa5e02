"""Unit tests for the segment pool, the delta-block packer and the log."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.encoder import Delta, encode_delta
from repro.delta.packer import DeltaBlockPacker, DeltaLog, DeltaRecord
from repro.delta.segments import SEGMENT_BYTES, SegmentPool
from repro.devices.hdd import HardDiskDrive
from repro.sim.request import BLOCK_SIZE

#: Warnings are errors here: the codec writes python ints into its `<u2`
#: wire header, and NumPy deprecates, then wraps, an out-of-range one.
pytestmark = pytest.mark.filterwarnings("error")


def delta_of_size(payload_len: int, offset: int = 0) -> Delta:
    return Delta(runs=((offset, bytes(payload_len)),))


class TestSegmentPool:
    def test_segments_for_rounds_up(self):
        assert SegmentPool.segments_for(1) == 1
        assert SegmentPool.segments_for(64) == 1
        assert SegmentPool.segments_for(65) == 2
        assert SegmentPool.segments_for(0) == 1  # a delta costs >= 1

    def test_allocate_free_roundtrip(self):
        pool = SegmentPool(1024)
        used = pool.allocate(130)  # 3 segments
        assert used == 3
        assert pool.used_segments == 3
        pool.free(130)
        assert pool.used_segments == 0

    def test_exhaustion_raises(self):
        pool = SegmentPool(SEGMENT_BYTES * 2)
        pool.allocate(120)
        with pytest.raises(MemoryError):
            pool.allocate(1)

    def test_over_free_raises(self):
        pool = SegmentPool(1024)
        pool.allocate(64)
        with pytest.raises(ValueError):
            pool.free(65)

    def test_peak_tracking(self):
        pool = SegmentPool(1024)
        pool.allocate(300)
        pool.free(300)
        assert pool.peak_segments == SegmentPool.segments_for(300)

    def test_tiny_pool_rejected(self):
        with pytest.raises(ValueError):
            SegmentPool(SEGMENT_BYTES - 1)

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(0, 500), max_size=30))
    def test_alloc_free_never_leaks(self, sizes):
        pool = SegmentPool(1 << 20)
        for size in sizes:
            pool.allocate(size)
        for size in sizes:
            pool.free(size)
        assert pool.used_segments == 0


def _pack(packer, records, start_sequence=0):
    return [block for block, _ in packer.pack_with_records(
        records, start_sequence=start_sequence)]


class TestPacker:
    def records(self, count: int, payload_len: int = 100):
        return [DeltaRecord(lba=i, ref_lba=1000 + i,
                            delta=delta_of_size(payload_len))
                for i in range(count)]

    def test_pack_unpack_roundtrip(self):
        packer = DeltaBlockPacker()
        records = self.records(10)
        blocks = _pack(packer, records)
        unpacked = [r for block in blocks for r in packer.unpack(block)]
        assert [(r.lba, r.ref_lba, r.delta) for r in unpacked] == \
            [(r.lba, r.ref_lba, r.delta) for r in records]

    def test_many_deltas_per_block(self):
        """The core packing claim: one 4 KB block carries many deltas."""
        packer = DeltaBlockPacker()
        records = self.records(20, payload_len=100)
        blocks = _pack(packer, records)
        assert len(blocks) == 1

    def test_blocks_are_exactly_block_size(self):
        packer = DeltaBlockPacker()
        for block in _pack(packer, self.records(40, payload_len=200)):
            assert len(block) == BLOCK_SIZE

    def test_sequence_numbers_stamped(self):
        packer = DeltaBlockPacker()
        blocks = _pack(packer, self.records(60, payload_len=300),
                             start_sequence=5)
        sequences = [packer.sequence_of(b) for b in blocks]
        assert sequences == list(range(5, 5 + len(blocks)))

    def test_oversized_record_rejected(self):
        packer = DeltaBlockPacker()
        huge = DeltaRecord(0, 0, delta_of_size(BLOCK_SIZE))
        with pytest.raises(ValueError, match="spill"):
            _pack(packer, [huge])

    def test_bad_magic_rejected(self):
        packer = DeltaBlockPacker()
        with pytest.raises(ValueError, match="magic"):
            packer.unpack(b"\x00" * BLOCK_SIZE)

    def test_out_of_block_run_is_corruption_at_unpack(self):
        """A record whose lengths all add up but whose run leaves the
        block fails at unpack — where DeltaLog counts it — not later
        inside a foreground read's apply_delta."""
        packer = DeltaBlockPacker()
        good = DeltaRecord(1, 0, Delta(runs=((BLOCK_SIZE - 2, b"ab"),)))
        (block,) = _pack(packer, [good, DeltaRecord(2, 0, delta_of_size(9))])
        offset_at = block.index((BLOCK_SIZE - 2).to_bytes(2, "little"))
        crafted = (block[:offset_at] + (BLOCK_SIZE - 1).to_bytes(2, "little")
                   + block[offset_at + 2:])
        with pytest.raises(ValueError, match="exceeds"):
            packer.unpack(crafted)
        log = DeltaLog(HardDiskDrive(100_000), base_lba=50_000,
                       size_blocks=8)
        _, (slot,), _ = log.append([good])
        log._contents[slot] = crafted
        log._unpacked.pop(slot)
        assert list(log.replay()) == []
        assert log.corrupt_blocks_skipped == 1

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            DeltaBlockPacker.unpack(b"\x00" * 100)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2**40),
                              st.integers(0, 2**40),
                              st.integers(0, 1500)),
                    min_size=1, max_size=50))
    def test_roundtrip_property(self, specs):
        packer = DeltaBlockPacker()
        records = [DeltaRecord(lba, ref, delta_of_size(size))
                   for lba, ref, size in specs]
        blocks = _pack(packer, records)
        unpacked = [r for block in blocks for r in packer.unpack(block)]
        assert [(r.lba, r.ref_lba, r.delta.size_bytes) for r in unpacked] \
            == [(r.lba, r.ref_lba, r.delta.size_bytes) for r in records]


class TestDeltaLog:
    def make_log(self, size_blocks: int = 64):
        hdd = HardDiskDrive(100_000)
        return DeltaLog(hdd, base_lba=50_000, size_blocks=size_blocks), hdd

    def test_append_returns_slots_and_latency(self):
        log, hdd = self.make_log()
        records = [DeltaRecord(i, 0, delta_of_size(100)) for i in range(5)]
        latency, slots, displaced = log.append(records)
        assert latency > 0
        assert slots == [0]
        assert displaced == []
        assert hdd.write_ops == 1

    def test_append_is_sequential_on_hdd(self):
        log, hdd = self.make_log()
        log.append([DeltaRecord(0, 0, delta_of_size(3000))])
        before = hdd.busy_time
        log.append([DeltaRecord(1, 0, delta_of_size(3000))])
        # The second append continues where the first ended: pure transfer.
        assert hdd.busy_time - before == pytest.approx(
            hdd.spec.transfer_time(1))

    def test_read_block_returns_all_packed_records(self):
        log, _ = self.make_log()
        records = [DeltaRecord(i, 9, delta_of_size(80)) for i in range(12)]
        _, slots, _ = log.append(records)
        latency, out = log.read_block(slots[0])
        assert latency > 0
        assert {r.lba for r in out} == set(range(12))

    def test_read_missing_slot_raises(self):
        log, _ = self.make_log()
        with pytest.raises(KeyError):
            log.read_block(3)

    def test_peek_charges_no_latency(self):
        log, hdd = self.make_log()
        _, slots, _ = log.append([DeltaRecord(0, 0, delta_of_size(10))])
        busy = hdd.busy_time
        records = log.peek_block(slots[0])
        assert hdd.busy_time == busy
        assert records[0].lba == 0

    def test_replay_in_flush_order(self):
        log, _ = self.make_log()
        log.append([DeltaRecord(1, 0, delta_of_size(3000))])
        log.append([DeltaRecord(1, 0, delta_of_size(2900))])
        replayed = list(log.replay())
        assert len(replayed) == 2
        # Last record wins for recovery: order must be flush order.
        assert replayed[-1].delta.size_bytes \
            == delta_of_size(2900).size_bytes

    def test_wrap_reports_displaced_records(self):
        log, _ = self.make_log(size_blocks=2)
        log.append([DeltaRecord(0, 0, delta_of_size(3000))])
        log.append([DeltaRecord(1, 0, delta_of_size(3000))])
        _, _, displaced = log.append([DeltaRecord(2, 0, delta_of_size(3000))])
        assert [(slot, r.lba) for slot, r in displaced] == [(0, 0)]

    def test_empty_append_is_free(self):
        log, hdd = self.make_log()
        latency, slots, displaced = log.append([])
        assert (latency, slots, displaced) == (0.0, [], [])
        assert hdd.write_ops == 0

    def test_real_deltas_survive_log_roundtrip(self, rng):
        log, _ = self.make_log()
        ref = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        target = ref.copy()
        target[10:60] = 0
        delta = encode_delta(target, ref)
        _, slots, _ = log.append([DeltaRecord(42, 7, delta)])
        _, out = log.read_block(slots[0])
        from repro.delta.encoder import apply_delta
        assert np.array_equal(apply_delta(out[0].delta, ref), target)
