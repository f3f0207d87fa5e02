"""Unit tests for the RAID0 array and DRAM buffer models."""

import pytest

from repro.devices.dram import DRAMBuffer
from repro.devices.hdd import HardDiskDrive
from repro.devices.raid import RAID0Array
from repro.sim.request import BLOCK_SIZE


class TestRAID0Layout:
    def test_split_round_robins_chunks(self):
        raid = RAID0Array(1024, ndisks=4, chunk_blocks=16)
        per_disk = raid._split(0, 64)
        assert set(per_disk) == {0, 1, 2, 3}
        for extents in per_disk.values():
            assert extents == [(0, 16)]

    def test_split_handles_offsets_inside_chunk(self):
        raid = RAID0Array(1024, ndisks=2, chunk_blocks=16)
        per_disk = raid._split(8, 16)
        # 8 blocks finish chunk 0 (disk 0); 8 start chunk 1, which is
        # disk 1's chunk 0, i.e. physical offset 0 on that disk.
        assert per_disk[0] == [(8, 8)]
        assert per_disk[1] == [(0, 8)]

    def test_all_blocks_covered_exactly_once(self):
        raid = RAID0Array(512, ndisks=3, chunk_blocks=8)
        per_disk = raid._split(5, 100)
        covered = sum(take for extents in per_disk.values()
                      for _, take in extents)
        assert covered == 100


class TestRAID0Timing:
    def test_large_request_parallel_beats_single_disk(self):
        raid = RAID0Array(4096, ndisks=4, chunk_blocks=16)
        single = HardDiskDrive(4096)
        parallel = raid.read(0, 64)
        serial = single.read(0, 64)
        # Four disks transfer in parallel: the stripe reads faster than
        # one disk reading the same span.
        assert parallel < serial

    def test_small_request_hits_one_disk(self):
        raid = RAID0Array(4096, ndisks=4, chunk_blocks=16)
        raid.read(0, 4)
        active = [d for d in raid.disks if d.read_ops > 0]
        assert len(active) == 1

    def test_parallel_requests_counter(self):
        raid = RAID0Array(4096, ndisks=4, chunk_blocks=4)
        raid.read(0, 16)
        assert raid.parallel_requests == 1

    def test_member_busy_time_sums(self):
        raid = RAID0Array(4096, ndisks=2, chunk_blocks=8)
        raid.write(0, 16)
        assert raid.member_busy_time == pytest.approx(
            sum(d.busy_time for d in raid.disks))

    def test_validation(self):
        with pytest.raises(ValueError):
            RAID0Array(100, ndisks=0)
        with pytest.raises(ValueError):
            RAID0Array(100, chunk_blocks=0)
        raid = RAID0Array(100)
        with pytest.raises(ValueError):
            raid.read(99, 2)


class TestDRAMBuffer:
    def test_reserve_release_accounting(self):
        ram = DRAMBuffer(1024)
        ram.reserve(512)
        assert ram.used_bytes == 512
        assert ram.free_bytes == 512
        ram.release(512)
        assert ram.used_bytes == 0

    def test_over_reserve_raises(self):
        ram = DRAMBuffer(100)
        with pytest.raises(MemoryError):
            ram.reserve(101)

    def test_over_release_raises(self):
        ram = DRAMBuffer(100)
        ram.reserve(10)
        with pytest.raises(ValueError):
            ram.release(11)

    def test_negative_amounts_rejected(self):
        ram = DRAMBuffer(100)
        with pytest.raises(ValueError):
            ram.reserve(-1)
        with pytest.raises(ValueError):
            ram.release(-1)

    def test_can_fit(self):
        ram = DRAMBuffer(100)
        assert ram.can_fit(100)
        ram.reserve(50)
        assert not ram.can_fit(51)

    def test_access_latency_scales_with_blocks(self):
        ram = DRAMBuffer(1 << 20)
        one = ram.access(BLOCK_SIZE)
        four = ram.access(4 * BLOCK_SIZE)
        assert four == pytest.approx(4 * one)
        assert ram.busy_time == pytest.approx(one + four)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            DRAMBuffer(0)
