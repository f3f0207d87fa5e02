"""Unit tests for the RAID0 array and DRAM buffer models."""

import pytest

from repro.devices.dram import DRAMBuffer
from repro.devices.hdd import HardDiskDrive
from repro.devices.raid import CHUNK_BLOCKS, NDISKS, RAID0Array
from repro.sim.request import BLOCK_SIZE


class TestRAID0Layout:
    def test_geometry_is_the_papers_array(self):
        """Section 4.4: four SATA disks; 16-block (64 KB) chunks."""
        assert (NDISKS, CHUNK_BLOCKS) == (4, 16)
        assert len(RAID0Array(1024).disks) == 4

    def test_split_round_robins_chunks(self):
        raid = RAID0Array(1024)
        per_disk = raid._split(0, 64)
        assert set(per_disk) == {0, 1, 2, 3}
        for extents in per_disk.values():
            assert extents == [(0, 16)]

    def test_split_handles_offsets_inside_chunk(self):
        raid = RAID0Array(1024)
        per_disk = raid._split(8, 16)
        # 8 blocks finish chunk 0 (disk 0); 8 start chunk 1, which is
        # disk 1's chunk 0, i.e. physical offset 0 on that disk.
        assert per_disk[0] == [(8, 8)]
        assert per_disk[1] == [(0, 8)]

    def test_all_blocks_covered_exactly_once(self):
        raid = RAID0Array(512)
        per_disk = raid._split(5, 100)
        covered = sum(take for extents in per_disk.values()
                      for _, take in extents)
        assert covered == 100
        # Blocks 5..104 start inside chunk 0 and end inside chunk 6, so
        # chunk 4 wraps back to disk 0 at its second chunk offset.
        assert per_disk[0] == [(5, 11), (16, 16)]


class TestRAID0Timing:
    def test_large_request_parallel_beats_single_disk(self):
        raid = RAID0Array(4096)
        single = HardDiskDrive(4096)
        parallel = raid.read(0, 64)
        serial = single.read(0, 64)
        # Four disks transfer in parallel: the stripe reads faster than
        # one disk reading the same span.
        assert parallel < serial

    def test_small_request_hits_one_disk(self):
        raid = RAID0Array(4096)
        raid.read(0, 4)
        active = [d for d in raid.disks if d.read_ops > 0]
        assert len(active) == 1

    def test_parallel_requests_counter(self):
        raid = RAID0Array(4096)
        raid.read(0, 16)
        assert raid.parallel_requests == 0
        raid.read(8, 16)
        assert raid.parallel_requests == 1

    def test_member_busy_time_sums(self):
        raid = RAID0Array(4096)
        raid.write(0, 64)
        # The members work in parallel: each is busy for its own chunk,
        # and the array only for the slowest of them.
        member_busy = [d.busy_time for d in raid.disks]
        assert all(busy > 0.0 for busy in member_busy)
        assert raid.busy_time == max(member_busy)
        assert sum(member_busy) > raid.busy_time

    def test_validation(self):
        raid = RAID0Array(100)
        with pytest.raises(ValueError):
            raid.read(99, 2)


class TestDRAMBuffer:
    def test_access_latency_scales_with_blocks(self):
        ram = DRAMBuffer()
        one = ram.access(BLOCK_SIZE)
        four = ram.access(4 * BLOCK_SIZE)
        assert four == pytest.approx(4 * one)
        assert ram.busy_time == pytest.approx(one + four)
