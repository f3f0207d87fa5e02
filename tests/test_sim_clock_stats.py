"""Unit tests for the latency statistics."""

import pytest

from repro.sim.stats import LatencyStats


class TestLatencyStats:
    def test_empty_stats_are_zero(self):
        stats = LatencyStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.percentile(99) == 0.0
        assert stats.max == 0.0

    def test_mean_and_total(self):
        stats = LatencyStats()
        for value in (1.0, 2.0, 3.0):
            stats.record(value)
        assert stats.mean == pytest.approx(2.0)
        assert stats.total == pytest.approx(6.0)
        assert stats.mean_us == pytest.approx(2.0e6)

    def test_percentile_nearest_rank(self):
        stats = LatencyStats()
        for value in range(1, 101):
            stats.record(float(value))
        assert stats.percentile(50) == 50.0
        assert stats.percentile(99) == 99.0
        assert stats.percentile(100) == 100.0
        assert stats.percentile(0) == 1.0

    def test_percentile_range_checked(self):
        with pytest.raises(ValueError):
            LatencyStats().percentile(101)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyStats().record(-1e-9)

    def test_min_max(self):
        stats = LatencyStats()
        for value in (5.0, 1.0, 3.0):
            stats.record(value)
        assert stats.max == 5.0

    def test_min_max_streaming_no_rescan(self):
        # max is maintained on record(), not recomputed: mutating the
        # sample list behind the object's back must not change it.
        stats = LatencyStats()
        stats.record(2.0)
        stats.record(8.0)
        stats._samples.append(99.0)  # bypasses record() on purpose
        assert stats.max == 8.0

    def test_record_after_percentile_keeps_percentiles_exact(self):
        # record() on a warm sorted cache patches it (insort) rather
        # than leaving it stale.
        stats = LatencyStats()
        for value in (3.0, 1.0, 2.0):
            stats.record(value)
        assert stats.percentile(50) == 2.0
        stats.record(0.5)
        assert stats.percentile(50) == 1.0
        assert stats.percentile(100) == 3.0
        assert stats.percentile(0) == 0.5
