"""Unit tests for the mechanical HDD model.

The property the whole paper rests on: sequential access is orders of
magnitude cheaper than random access.
"""

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
        spec = HDDSpec()
        capacity = 100_000
        seeks = [spec.seek_time(d, capacity)
                 for d in (0, 1, 100, 10_000, 100_000)]
        assert seeks[0] == 0.0
        assert all(a <= b for a, b in zip(seeks, seeks[1:]))
        assert seeks[-1] == pytest.approx(spec.max_seek_s)

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
        assert hdd.head_position == 504

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
