"""Unit tests for the mechanical HDD model.

The property the whole paper rests on: sequential access is orders of
magnitude cheaper than random access.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.devices.hdd import HardDiskDrive, HDDSpec
from repro.sim.request import BLOCK_SIZE


@pytest.fixture
def hdd() -> HardDiskDrive:
    return HardDiskDrive(capacity_blocks=100_000)


class TestSpec:
    def test_avg_rotation_half_revolution(self):
        spec = HDDSpec(rpm=7200)
        assert spec.avg_rotation_s == pytest.approx(60.0 / 7200 / 2)

    def test_seek_curve_monotone(self):
        """A random access pays a seek that grows with the distance and
        reaches ``max_seek_s`` at full stroke."""
        spec = HDDSpec()
        capacity = 100_000

        def seek(distance):
            hdd = HardDiskDrive(capacity)
            hdd.read(0, 1)                      # the head now sits at 1
            return (hdd.read(1 + distance, 1) - spec.avg_rotation_s
                    - spec.transfer_time(1))

        seeks = [seek(d) for d in (spec.near_span_blocks + 1, 1_000,
                                   10_000, capacity - 2)]
        assert seeks[0] > spec.min_seek_s
        assert all(a < b for a, b in zip(seeks, seeks[1:]))
        assert seeks[-1] == pytest.approx(spec.max_seek_s, rel=1e-4)

    def test_mean_seek_of_uniform_reads_matches_the_curve(self):
        """For independent uniform addresses on [0, 1], E√|X−Y| = 8/15,
        so the seek part of a long uniform stream of reads on a large
        disk averages ``min_seek_s + (max_seek_s − min_seek_s) × 8/15``
        (7.793 ms).  The tolerance is four standard errors of the
        sample's mean; a distance normalised by twice the capacity
        reads 5.7 ms."""
        spec = HDDSpec()
        capacity = 1_000_000
        hdd = HardDiskDrive(capacity)
        positioned = spec.avg_rotation_s + spec.transfer_time(1)
        seeks = np.array([
            hdd.read(lba, 1) - positioned for lba in
            np.random.default_rng(2011).integers(
                0, capacity, size=200_000).tolist()])
        assert hdd.sequential_accesses == 0
        expected = spec.min_seek_s + (spec.max_seek_s - spec.min_seek_s) \
            * 8 / 15
        standard_error = seeks.std(ddof=1) / np.sqrt(seeks.size)
        assert abs(seeks.mean() - expected) < 4 * standard_error

    def test_transfer_time_scales_with_size(self):
        spec = HDDSpec(transfer_bytes_per_s=100e6)
        assert spec.transfer_time(1) == pytest.approx(BLOCK_SIZE / 100e6)
        assert spec.transfer_time(10) == pytest.approx(10 * spec.transfer_time(1))


class TestAccessPatterns:
    def test_sequential_after_positioning_is_transfer_only(self, hdd):
        hdd.read(1000, 1)  # position the head
        sequential = hdd.read(1001, 1)
        assert sequential == pytest.approx(hdd.spec.transfer_time(1))
        assert hdd.sequential_accesses == 1

    def test_random_access_is_milliseconds(self, hdd):
        hdd.read(0, 1)
        far = hdd.read(90_000, 1)
        assert far > 5e-3
        assert hdd.random_accesses >= 1

    def test_near_access_pays_track_to_track(self, hdd):
        hdd.read(1000, 1)
        near = hdd.read(1100, 1)  # within near_span_blocks
        expected = hdd.spec.min_seek_s + hdd.spec.avg_rotation_s \
            + hdd.spec.transfer_time(1)
        assert near == pytest.approx(expected)
        assert hdd.near_accesses == 1

    def test_sequential_run_much_cheaper_than_random(self, hdd):
        hdd.read(0, 1)
        seq_total = sum(hdd.read(i, 1) for i in range(1, 65))
        hdd2 = HardDiskDrive(100_000)
        positions = [(i * 7919) % 100_000 for i in range(64)]
        rand_total = sum(hdd2.read(p, 1) for p in positions)
        assert rand_total > 20 * seq_total

    def test_head_tracks_position(self, hdd):
        hdd.write(500, 4)
        assert hdd._head == 504

    def test_write_and_read_same_latency_model(self, hdd):
        read = hdd.read(5000, 2)
        hdd2 = HardDiskDrive(100_000)
        write = hdd2.write(5000, 2)
        assert read == pytest.approx(write)


class TestAccounting:
    def test_busy_time_accumulates(self, hdd):
        a = hdd.read(10, 1)
        b = hdd.write(99_000, 1)
        assert hdd.busy_time == pytest.approx(a + b)

    def test_op_counters(self, hdd):
        hdd.read(0, 3)
        hdd.write(10, 2)
        assert hdd.read_ops == 1
        assert hdd.write_ops == 1
        assert hdd.read_blocks == 3
        assert hdd.write_blocks == 2

    def test_bounds_checked(self, hdd):
        with pytest.raises(ValueError):
            hdd.read(99_999, 2)
        with pytest.raises(ValueError):
            hdd.write(-1, 1)
        with pytest.raises(ValueError):
            hdd.read(0, 0)

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            HardDiskDrive(0)


class TestSweep:
    """``sweep`` leaves what one-block reads of the same blocks leave:
    the returned total and the busy time to the bit, the counters in the
    same order, the head, and one span per block when traced."""

    @staticmethod
    def _state(hdd):
        return (list(hdd.counters().items()), hdd.busy_time.hex(),
                hdd._head)

    @pytest.mark.parametrize("head, lba, end", [
        (0, 0, 1), (0, 0, 500), (40, 40, 41), (3, 40, 300),
        (90_000, 17, 4_000), (5, 5, 5), (0, 99_000, 100_000)])
    def test_equals_one_block_reads(self, head, lba, end):
        bulk, single = HardDiskDrive(100_000), HardDiskDrive(100_000)
        for hdd in (bulk, single):
            if head:
                hdd.write(head - 1, 1)
        total = single.busy_time
        for block in range(lba, end):
            total += single.read(block, 1)
        assert bulk.sweep(lba, end, bulk.busy_time).hex() == total.hex()
        assert self._state(bulk) == self._state(single)

    def test_one_span_per_block_when_traced(self):
        spans = ([], [])
        for sweep, emitted in zip((True, False), spans):
            hdd = HardDiskDrive(100_000)
            hdd.tracer = SimpleNamespace(
                device_span=lambda *args, emitted=emitted, **fields:
                emitted.append((args, fields)))
            hdd.read(7, 1)
            if sweep:
                hdd.sweep(10, 20, 0.0)
            else:
                for block in range(10, 20):
                    hdd.read(block, 1)
        assert len(spans[0]) == 11
        assert spans[0] == spans[1]

    def test_span_outside_the_disk_is_refused(self, hdd):
        with pytest.raises(ValueError):
            hdd.sweep(99_990, 100_001, 0.0)
        with pytest.raises(ValueError):
            hdd.sweep(-1, 3, 0.0)
        assert hdd.read_ops == 0
