"""Unit tests for the virtual clock and the statistics collectors."""

import pytest

from repro.sim.clock import VirtualClock
from repro.sim.stats import LatencyStats, StatsCollector


class TestVirtualClock:
    def test_starts_at_zero(self):
        assert VirtualClock().now == 0.0

    def test_advance_accumulates(self):
        clock = VirtualClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now == pytest.approx(2.0)

    def test_negative_advance_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock().advance(-0.1)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            VirtualClock(start=-1.0)

    def test_reset(self):
        clock = VirtualClock()
        clock.advance(10)
        clock.reset()
        assert clock.now == 0.0
        clock.reset(3.0)
        assert clock.now == 3.0


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

    def test_merge_pools_samples(self):
        a, b = LatencyStats(), LatencyStats()
        a.record(1.0)
        b.record(3.0)
        a.merge(b)
        assert a.count == 2
        assert a.mean == pytest.approx(2.0)

    def test_min_max(self):
        stats = LatencyStats()
        for value in (5.0, 1.0, 3.0):
            stats.record(value)
        assert stats.min == 1.0
        assert stats.max == 5.0

    def test_min_max_streaming_no_rescan(self):
        # min/max are maintained on record(), not recomputed: mutating
        # the sample list behind the object's back must not change them.
        stats = LatencyStats()
        stats.record(2.0)
        stats.record(8.0)
        stats._samples.append(99.0)  # bypasses record() on purpose
        assert stats.max == 8.0
        assert stats.min == 2.0

    def test_min_max_survive_merge(self):
        a, b = LatencyStats(), LatencyStats()
        for value in (4.0, 6.0):
            a.record(value)
        for value in (1.0, 9.0):
            b.record(value)
        a.merge(b)
        assert a.min == 1.0
        assert a.max == 9.0
        # Merging an empty side changes nothing.
        a.merge(LatencyStats())
        assert (a.min, a.max) == (1.0, 9.0)

    def test_merge_into_empty_adopts_extrema(self):
        a, b = LatencyStats(), LatencyStats()
        b.record(0.5)
        a.merge(b)
        assert a.min == 0.5
        assert a.max == 0.5
        assert LatencyStats().min == 0.0  # empty stays at the 0.0 default


class TestStatsCollector:
    def test_counters_start_at_zero(self):
        assert StatsCollector().count("anything") == 0

    def test_bump_and_read(self):
        stats = StatsCollector()
        stats.bump("reads")
        stats.bump("reads", 4)
        assert stats.count("reads") == 5
        assert stats.counters() == {"reads": 5}

    def test_latency_classes_are_independent(self):
        stats = StatsCollector()
        stats.record_latency("read", 1.0)
        stats.record_latency("write", 3.0)
        assert stats.latency("read").mean == 1.0
        assert stats.latency("write").mean == 3.0
        assert set(stats.latency_classes()) == {"read", "write"}

    def test_existing_class_constructs_no_stats_object(self, monkeypatch):
        # A LatencyStats is built once per class, on first use — not
        # built and thrown away on every call.
        built = []
        original = LatencyStats.__init__

        def counting_init(self):
            built.append(self)
            original(self)

        monkeypatch.setattr(LatencyStats, "__init__", counting_init)
        stats = StatsCollector()
        stats.record_latency("read", 1.0)
        assert len(built) == 1
        for _ in range(5):
            stats.record_latency("read", 2.0)
            stats.latency("read")
        assert len(built) == 1
        assert stats.latency("read").count == 6
        assert stats.latency("write") is stats.latency("write")
        assert len(built) == 2

    def test_merge(self):
        a, b = StatsCollector(), StatsCollector()
        a.bump("ops", 2)
        b.bump("ops", 3)
        b.record_latency("read", 1.0)
        a.merge(b)
        assert a.count("ops") == 5
        assert a.latency("read").count == 1

    def test_merge_preserves_percentile_correctness(self):
        # The merged collector must report the same percentiles as one
        # collector that saw every sample directly — including when the
        # sorted-order cache was already warm on both sides.
        a, b, pooled = StatsCollector(), StatsCollector(), StatsCollector()
        a_samples = [float(v) for v in (9, 1, 7, 3, 5)]
        b_samples = [float(v) for v in (2, 8, 4, 6, 10, 12)]
        for value in a_samples:
            a.record_latency("read", value)
            pooled.record_latency("read", value)
        for value in b_samples:
            b.record_latency("read", value)
            pooled.record_latency("read", value)
        # Warm both sort caches so merge must invalidate, not reuse.
        a.latency("read").percentile(50)
        b.latency("read").percentile(50)
        a.merge(b)
        merged = a.latency("read")
        reference = pooled.latency("read")
        for p in (0, 10, 25, 50, 75, 90, 99, 100):
            assert merged.percentile(p) == reference.percentile(p), p
        assert merged.min == reference.min == 1.0
        assert merged.max == reference.max == 12.0
        assert merged.mean == pytest.approx(reference.mean)

    def test_merge_then_record_keeps_percentiles_exact(self):
        # record() after merge() must rebuild/patch the sorted cache
        # correctly (merge invalidates it; insort keeps it warm after).
        a, b = StatsCollector(), StatsCollector()
        for value in (3.0, 1.0):
            a.record_latency("read", value)
        b.record_latency("read", 2.0)
        a.merge(b)
        assert a.latency("read").percentile(50) == 2.0
        a.record_latency("read", 0.5)
        assert a.latency("read").percentile(50) == 1.0
        assert a.latency("read").percentile(100) == 3.0
        assert a.latency("read").min == 0.5

    def test_summary_flattens(self):
        stats = StatsCollector()
        stats.bump("ops")
        stats.record_latency("read", 2e-6)
        summary = stats.summary()
        assert summary["ops"] == 1.0
        assert summary["read_mean_us"] == pytest.approx(2.0)
        assert summary["read_count"] == 1.0

    def test_format_table_mentions_counters(self):
        stats = StatsCollector()
        stats.bump("hits", 7)
        stats.record_latency("read", 1e-3)
        text = stats.format_table("title")
        assert "title" in text
        assert "hits" in text
        assert "read latency" in text
