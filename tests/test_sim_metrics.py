"""Tests for the windowed metrics layer (`repro.sim.metrics`).

Covers the instruments and registry (catalogue checking, labels,
callback-backed counters), the bounded series store (window deltas,
downsampling), the periodic sampler, the three exporters, the SLO health
monitor, the full-stack consistency invariant (summed window deltas
reproduce the run-end counter attributes), the `repro monitor`
CLI, and the catalogue/documentation parity check.
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path

import pytest

from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim.metrics import (DEFAULT_LATENCY_BUCKETS_US,
                               INSTRUMENT_CATALOGUE,
                               HealthMonitor, MetricsRegistry, Monitor,
                               PeriodicSampler, SeriesStore,
                               SLORule, WindowSnapshot, default_slo_rules,
                               export_prometheus, export_series_csv,
                               export_series_jsonl, series_key)
from repro.workloads import SysBenchWorkload

DOCS = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


def monitored_benchmark(n_requests: int = 800, interval_s: float = 0.01,
                        **monitor_kwargs):
    """One small SysBench run on I-CASH under a sampling monitor."""
    workload = SysBenchWorkload(n_requests=n_requests)
    system = make_system("icash", workload)
    monitor = Monitor(interval_s=interval_s, **monitor_kwargs)
    result = run_benchmark(workload, system, monitor=monitor)
    return monitor, system, result


class TestNullRegistry:
    """No monitor, no registry: nothing registers and nothing samples."""

    def test_default_system_registry_is_null(self):
        workload = SysBenchWorkload(n_requests=10)
        system = make_system("icash", workload)
        result = run_benchmark(workload, system)
        assert result.series is None
        assert result.slo_breaches == []


class TestInstruments:
    def test_counter_inc_and_collect(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_read_total")
        counter.inc()
        counter.inc(4)
        values, kinds = registry.collect()
        assert values["requests_read_total"] == 5.0
        assert kinds["requests_read_total"] == "counter"

    def test_counter_rejects_negative(self):
        counter = MetricsRegistry().counter("requests_read_total")
        with pytest.raises(ValueError, match="monotone"):
            counter.inc(-1)

    def test_callback_backed_counter(self):
        registry = MetricsRegistry()
        state = {"n": 0}
        registry.counter("delta_hits_total").set_fn(lambda: state["n"])
        state["n"] = 7
        values, _ = registry.collect()
        assert values["delta_hits_total"] == 7.0

    def test_callback_counter_rejects_inc(self):
        counter = MetricsRegistry().counter("delta_hits_total")
        counter.set_fn(lambda: 1)
        with pytest.raises(RuntimeError, match="callback"):
            counter.inc()

    def test_labels_produce_distinct_series(self):
        registry = MetricsRegistry()
        ops = registry.counter("device_read_ops_total", ("device",))
        ops.labels(device="ssd").inc(3)
        ops.labels(device="hdd").inc(5)
        values, _ = registry.collect()
        assert values[series_key("device_read_ops_total",
                                 device="ssd")] == 3.0
        assert values[series_key("device_read_ops_total",
                                 device="hdd")] == 5.0

    def test_wrong_labelnames_rejected(self):
        registry = MetricsRegistry()
        ops = registry.counter("device_read_ops_total", ("device",))
        with pytest.raises(ValueError, match="labels"):
            ops.labels(disk="ssd")

    def test_unknown_instrument_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="INSTRUMENT_CATALOGUE"):
            registry.counter("made_up_metric_total")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError, match="counter"):
            registry.gauge("requests_read_total")

    def test_relabeling_rejected(self):
        registry = MetricsRegistry()
        registry.counter("device_read_ops_total", ("device",))
        with pytest.raises(ValueError, match="labels"):
            registry.counter("device_read_ops_total")

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("requests_read_total")
        b = registry.counter("requests_read_total")
        assert a is b

    def test_histogram_buckets_cumulative_and_ordered(self):
        registry = MetricsRegistry()
        hist = registry.histogram("read_latency_us")
        for value in (1.0, 15.0, 15.0, 40_000.0, 5e6):
            hist.observe(value)
        values, kinds = registry.collect()
        le_1 = values[series_key("read_latency_us_bucket", le="1")]
        le_20 = values[series_key("read_latency_us_bucket", le="20")]
        le_inf = values[series_key("read_latency_us_bucket", le="+Inf")]
        assert le_1 == 1.0        # the 1.0 sample (le is inclusive)
        assert le_20 == 3.0       # plus both 15s
        assert le_inf == 5.0      # everything, incl. the 5e6 outlier
        assert values["read_latency_us_count"] == 5.0
        assert values["read_latency_us_sum"] == pytest.approx(5040031.0)
        assert kinds["read_latency_us_count"] == "counter"
        # Bounds cover five orders of magnitude.
        assert DEFAULT_LATENCY_BUCKETS_US[0] == 1.0
        assert DEFAULT_LATENCY_BUCKETS_US[-1] == 1e5


class TestSeriesStore:
    @staticmethod
    def _store_with(values_per_window, kinds):
        store = SeriesStore(max_windows=64)
        store.set_baseline({k: 0.0 for k in kinds}, kinds)
        t = 0.0
        for values in values_per_window:
            store.append(WindowSnapshot(t, t + 1.0, values))
            t += 1.0
        return store

    def test_window_deltas_and_gauge_passthrough(self):
        kinds = {"c": "counter", "g": "gauge"}
        store = self._store_with(
            [{"c": 3.0, "g": 0.5}, {"c": 10.0, "g": 0.2}], kinds)
        assert store.window_delta(0, "c") == 3.0
        assert store.window_delta(1, "c") == 7.0
        assert store.window_row(1) == {"c": 7.0, "g": 0.2}
        assert store.counter_total("c") == 10.0

    def test_nonzero_baseline_subtracted(self):
        store = SeriesStore(max_windows=8)
        store.set_baseline({"c": 100.0}, {"c": "counter"})
        store.append(WindowSnapshot(0.0, 1.0, {"c": 130.0}))
        assert store.window_delta(0, "c") == 30.0
        assert store.counter_total("c") == 30.0

    def test_downsampling_merges_pairs_and_preserves_totals(self):
        store = SeriesStore(max_windows=4)
        store.set_baseline({"c": 0.0}, {"c": "counter"})
        merged_flags = [
            store.append(WindowSnapshot(float(i), float(i + 1),
                                        {"c": float((i + 1) * 10)}))
            for i in range(9)]
        # Two overflows: at the 5th and (after re-filling) later appends.
        assert any(merged_flags)
        assert len(store) <= 4 + 1
        assert store.downsample_factor >= 2
        # Coverage is continuous and totals are exact after merging.
        assert store.windows[0].t_start == 0.0
        assert store.windows[-1].t_end == 9.0
        for earlier, later in zip(store.windows, store.windows[1:]):
            assert earlier.t_end == later.t_start
        assert store.counter_total("c") == 90.0
        assert sum(store.window_delta(i, "c")
                   for i in range(len(store))) == 90.0

    def test_resolve_key_unique_label_match(self):
        kinds = {series_key("x", device="ssd"): "counter"}
        store = SeriesStore(max_windows=4)
        store.kinds.update(kinds)
        assert store.resolve_key("x") == 'x{device="ssd"}'
        assert store.resolve_key("missing") is None

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError, match="two windows"):
            SeriesStore(max_windows=1)


class TestPeriodicSampler:
    def test_windows_close_on_boundaries(self):
        registry = MetricsRegistry()
        counter = registry.counter("requests_read_total")
        sampler = PeriodicSampler(registry, interval_s=1.0)
        sampler.start(0.0)
        counter.inc(2)
        sampler.observe(0.5)        # inside window 0 - nothing closes
        assert len(sampler.store) == 0
        counter.inc(3)
        sampler.observe(2.5)        # crosses t=1 and t=2
        assert len(sampler.store) == 2
        sampler.finish(2.5)         # trailing partial window
        assert len(sampler.store) == 3
        assert sampler.store.counter_total("requests_read_total") == 5.0

    def test_interval_doubles_on_store_merge(self):
        registry = MetricsRegistry()
        sampler = PeriodicSampler(registry, interval_s=1.0,
                                  store=SeriesStore(max_windows=4))
        sampler.start(0.0)
        sampler.observe(6.0)
        assert sampler.store.downsample_factor == 2
        assert sampler.interval_s == 2.0

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError, match="interval"):
            PeriodicSampler(MetricsRegistry(), interval_s=0.0)

    def test_double_start_rejected(self):
        sampler = PeriodicSampler(MetricsRegistry(), interval_s=1.0)
        sampler.start(0.0)
        with pytest.raises(RuntimeError, match="started"):
            sampler.start(0.0)


class TestExporters:
    @staticmethod
    def _sampled_registry():
        registry = MetricsRegistry()
        counter = registry.counter("requests_read_total")
        gauge = registry.gauge("delta_hit_ratio")
        hist = registry.histogram("read_latency_us")
        sampler = PeriodicSampler(registry, interval_s=1.0)
        sampler.start(0.0)
        counter.inc(3)
        gauge.set(0.25)
        hist.observe(50.0)
        sampler.observe(1.0)
        counter.inc(4)
        gauge.set(0.75)
        hist.observe(150.0)
        sampler.finish(1.5)
        return registry, sampler.store

    def test_csv_columns_sum_to_totals(self):
        _, store = self._sampled_registry()
        buf = io.StringIO()
        rows = export_series_csv(store, buf)
        assert rows == 2
        lines = buf.getvalue().splitlines()
        header = lines[0].split(",")
        idx = header.index("requests_read_total")
        deltas = [float(line.split(",")[idx]) for line in lines[1:]]
        assert deltas == [3.0, 4.0]
        assert sum(deltas) == store.counter_total("requests_read_total")

    def test_csv_quotes_labelled_headers(self):
        registry = MetricsRegistry()
        registry.counter("device_read_ops_total", ("device",)) \
            .labels(device="ssd").inc()
        sampler = PeriodicSampler(registry, interval_s=1.0)
        sampler.start(0.0)
        sampler.finish(1.0)
        buf = io.StringIO()
        export_series_csv(sampler.store, buf)
        header = buf.getvalue().splitlines()[0]
        assert '"device_read_ops_total{device=""ssd""}"' in header

    def test_jsonl_rows_parse_and_carry_deltas(self):
        _, store = self._sampled_registry()
        buf = io.StringIO()
        rows = export_series_jsonl(store, buf)
        assert rows == 2
        records = [json.loads(line)
                   for line in buf.getvalue().splitlines()]
        assert records[0]["window"] == 0
        assert records[1]["series"]["requests_read_total"] == 4.0
        assert records[1]["series"]["delta_hit_ratio"] == 0.75
        assert records[0]["t_end_s"] == 1.0

    def test_prometheus_format(self):
        registry, _ = self._sampled_registry()
        buf = io.StringIO()
        samples = export_prometheus(registry, buf)
        text = buf.getvalue()
        assert samples > 0
        assert "# HELP requests_read_total" in text
        assert "# TYPE requests_read_total counter" in text
        assert "requests_read_total 7" in text
        assert "# TYPE read_latency_us histogram" in text
        # Buckets ascend with +Inf last, per the exposition format.
        bucket_lines = [line for line in text.splitlines()
                        if line.startswith("read_latency_us_bucket")]
        les = [re.search(r'le="([^"]+)"', line).group(1)
               for line in bucket_lines]
        assert les[-1] == "+Inf"
        finite = [float(le) for le in les[:-1]]
        assert finite == sorted(finite)

    def test_file_path_destinations(self, tmp_path):
        registry, store = self._sampled_registry()
        csv_path = tmp_path / "series.csv"
        jsonl_path = tmp_path / "series.jsonl"
        prom_path = tmp_path / "metrics.prom"
        assert export_series_csv(store, str(csv_path)) == 2
        assert export_series_jsonl(store, str(jsonl_path)) == 2
        assert export_prometheus(registry, str(prom_path)) > 0
        assert csv_path.read_text().startswith("window,")


class TestHealthMonitor:
    @staticmethod
    def _store(kinds, windows):
        store = SeriesStore(max_windows=16)
        store.set_baseline({k: 0.0 for k in kinds}, kinds)
        t = 0.0
        for values in windows:
            store.append(WindowSnapshot(t, t + 1.0, values))
            t += 1.0
        return store

    def test_gauge_value_rule(self):
        store = self._store({"delta_log_occupancy": "gauge"},
                            [{"delta_log_occupancy": 0.5},
                             {"delta_log_occupancy": 0.95}])
        monitor = HealthMonitor([SLORule(
            "high_water", "delta_log_occupancy", "value", "max", 0.9)])
        breaches = monitor.evaluate(store)
        assert len(breaches) == 1
        assert breaches[0].window == 1
        assert breaches[0].value == 0.95
        assert "high_water" in monitor.render()

    def test_rate_rule_with_scale(self):
        key = series_key("ssd_program_total", device="ssd")
        store = self._store({key: "counter"},
                            [{key: 10.0}, {key: 12.0}])
        # 10 pages in window 0 -> scaled x86400 = 864000/day; window 1
        # writes only 2 pages -> 172800/day, under the bar.
        monitor = HealthMonitor([SLORule(
            "budget", "ssd_program_total", "rate", "max", 500_000.0,
            scale=86400.0)])
        breaches = monitor.evaluate(store)
        assert [b.window for b in breaches] == [0]
        assert breaches[0].value == pytest.approx(864000.0)

    def test_min_bound_rule(self):
        store = self._store({"delta_hit_ratio": "gauge"},
                            [{"delta_hit_ratio": 0.9},
                             {"delta_hit_ratio": 0.1}])
        monitor = HealthMonitor([SLORule(
            "hit_floor", "delta_hit_ratio", "value", "min", 0.5)])
        assert [b.window for b in monitor.evaluate(store)] == [1]

    def test_p99_rule_uses_window_deltas(self):
        registry = MetricsRegistry()
        hist = registry.histogram("read_latency_us")
        sampler = PeriodicSampler(registry, interval_s=1.0)
        sampler.start(0.0)
        for _ in range(100):
            hist.observe(10.0)      # window 0: all fast
        sampler.observe(1.0)
        for _ in range(100):
            hist.observe(90_000.0)  # window 1: all slow
        sampler.finish(2.0)
        monitor = HealthMonitor([SLORule(
            "read_p99", "read_latency_us", "p99", "max", 30_000.0)])
        breaches = monitor.evaluate(sampler.store)
        # Only window 1 breaches: its p99 reflects that window alone,
        # not the cumulative distribution.
        assert [b.window for b in breaches] == [1]
        assert sampler.store.window_quantile(0, "read_latency_us",
                                             0.99) == 10.0

    def test_missing_metric_is_skipped(self):
        store = self._store({"delta_hit_ratio": "gauge"},
                            [{"delta_hit_ratio": 0.5}])
        monitor = HealthMonitor([SLORule(
            "ghost", "no_such_metric", "value", "max", 1.0)])
        assert monitor.evaluate(store) == []

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="bound"):
            SLORule("r", "m", "value", "between", 1.0)
        with pytest.raises(ValueError, match="stat"):
            SLORule("r", "m", "median", "max", 1.0)

    def test_default_rules_cover_the_issue_set(self):
        rules = {rule.name: rule for rule in default_slo_rules(1000)}
        assert "read_p99" in rules
        assert "ssd_daily_write_budget" in rules
        assert "delta_log_high_water" in rules
        assert rules["ssd_daily_write_budget"].scale == 86400.0
        assert rules["ssd_daily_write_budget"].threshold == 20_000.0


class TestFullStackConsistency:
    """The acceptance invariant: summed per-window counter deltas
    reproduce the end-of-run counters and latency counts exactly."""

    def test_request_counters_match_stats(self):
        monitor, system, result = monitored_benchmark()
        store = monitor.store
        assert len(store) > 1
        assert store.counter_total("requests_read_total") \
            == system.read_latency.count
        assert store.counter_total("requests_write_total") \
            == system.write_latency.count
        assert result.series is store

    def test_controller_counters_match_stats(self):
        monitor, system, _ = monitored_benchmark()
        store = monitor.store
        assert store.counter_total("delta_hits_total") \
            == system.ram_delta_hits
        assert store.counter_total("delta_log_fetches_total") \
            == system.log_delta_fetches
        assert store.counter_total("delta_writes_total") \
            == system.delta_writes

    def test_device_counters_match_stats(self):
        monitor, system, _ = monitored_benchmark()
        store = monitor.store
        ssd_key = store.resolve_key("ssd_program_total")
        assert ssd_key is not None
        # The monitor attaches after ingest, so the baseline subtracts
        # the load phase: totals match the *post-attach* delta.
        expected = (system.ssd.write_blocks
                    + system.ssd.gc_page_moves
                    - store.baseline.get(ssd_key, 0.0))
        assert store.counter_total(ssd_key) == expected
        hdd_key = store.resolve_key("hdd_seek_total")
        assert store.windows[-1].values[hdd_key] == \
            (system.hdd.near_accesses
             + system.hdd.random_accesses)

    def test_sum_of_window_deltas_telescopes(self):
        monitor, _, _ = monitored_benchmark()
        store = monitor.store
        for key, kind in store.kinds.items():
            if kind != "counter":
                continue
            summed = sum(store.window_delta(i, key)
                         for i in range(len(store)))
            assert summed == pytest.approx(store.counter_total(key)), key

    def test_gauges_report_plausible_ranges(self):
        monitor, system, _ = monitored_benchmark()
        store = monitor.store
        last = store.windows[-1].values
        assert 0.0 <= last["delta_log_occupancy"] <= 1.0
        assert 0.0 <= last["ram_delta_fill"] <= 1.0
        assert 0.0 <= last["delta_hit_ratio"] <= 1.0
        assert last["offered_load_streams"] == 16  # SysBench's streams

    def test_report_renders(self):
        monitor, _, _ = monitored_benchmark()
        report = monitor.render_report()
        assert "per-window report" in report
        assert "read_p99_us" in report
        assert "health:" in report

    def test_delta_log_wrap_counter(self):
        from repro.delta.encoder import encode_delta
        from repro.delta.packer import DeltaLog, DeltaRecord
        from repro.devices.hdd import HardDiskDrive
        import numpy as np

        hdd = HardDiskDrive(64)
        log = DeltaLog(hdd, base_lba=0, size_blocks=2)
        base = np.zeros(4096, dtype=np.uint8)
        changed = base.copy()
        changed[:8] = 1
        delta = encode_delta(changed, base)
        assert log.wrap_count == 0
        for _ in range(3):
            log.append([DeltaRecord(0, 1, delta)])
        assert log.wrap_count >= 1
        assert 0.0 <= log.occupancy <= 1.0
        log.reset()
        assert log.occupancy == 0.0
        # Monotone across compaction: reset() does not rewind it.
        assert log.wrap_count >= 1


class TestRunnerIntegration:
    def test_plain_runs_have_no_series(self):
        workload = SysBenchWorkload(n_requests=60)
        system = make_system("icash", workload)
        result = run_benchmark(workload, system)
        assert result.series is None
        assert result.slo_breaches == []

    def test_monitor_on_baseline_systems(self):
        # Device + request instruments work on every architecture, not
        # just I-CASH (controller gauges are I-CASH-specific).
        for name in ("fusion-io", "raid0", "lru"):
            workload = SysBenchWorkload(n_requests=150)
            system = make_system(name, workload)
            monitor = Monitor(interval_s=0.01)
            run_benchmark(workload, system, monitor=monitor)
            store = monitor.store
            assert store.counter_total("requests_read_total") \
                == system.read_latency.count, name


class TestCLI:
    def test_monitor_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["monitor", "--workload", "sysbench",
                     "--requests", "400", "--interval", "0.005",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "per-window report" in printed
        assert "consistency:" in printed
        for name in ("series.csv", "series.jsonl", "metrics.prom"):
            assert (tmp_path / name).stat().st_size > 0, name
        prom = (tmp_path / "metrics.prom").read_text()
        assert "# TYPE requests_read_total counter" in prom
        assert re.search(r"^requests_read_total ", prom, re.MULTILINE)

    def test_monitor_json_output(self, tmp_path, capsys):
        import json

        from repro.cli import main

        code = main(["monitor", "--workload", "sysbench",
                     "--requests", "400", "--interval", "0.005",
                     "--out-dir", str(tmp_path), "--json",
                     "--no-ledger"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)  # pure JSON on stdout, nothing else
        assert doc["consistency"]["ok"] is True
        assert doc["windows"], "at least one sampled window"
        first = doc["windows"][0]
        assert {"window", "t_start_s", "t_end_s", "series"} <= set(first)
        # exports are still written in JSON mode
        assert (tmp_path / "series.csv").exists()
        assert sorted(doc["exports"]) == ["csv", "jsonl", "prometheus"]

    def test_trace_subcommand_reports_drop_counts(self, tmp_path,
                                                  capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["trace", "--workload", "sysbench",
                     "--requests", "300", "--out", str(out),
                     "--buffer", "64"])
        assert code == 0
        captured = capsys.readouterr()
        assert re.search(r"events recorded: \d+, dropped: [1-9]",
                         captured.out)
        assert "oldest events were dropped" in captured.err

    def test_trace_subcommand_reports_zero_drops(self, tmp_path,
                                                 capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["trace", "--workload", "sysbench",
                     "--requests", "200", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert "dropped: 0" in captured.out
        assert "dropped" not in captured.err


class TestDocumentationParity:
    def test_every_instrument_documented(self):
        text = DOCS.read_text(encoding="utf-8")
        documented = set(re.findall(
            r"^\| `(\w+)` \| (?:counter|gauge|histogram) \|", text,
            re.MULTILINE))
        catalogue = set(INSTRUMENT_CATALOGUE)
        assert documented == catalogue, (
            f"docs/OBSERVABILITY.md drifted from INSTRUMENT_CATALOGUE: "
            f"undocumented={sorted(catalogue - documented)}, "
            f"stale={sorted(documented - catalogue)}")

    def test_documented_kinds_match_catalogue(self):
        text = DOCS.read_text(encoding="utf-8")
        for name, kind in re.findall(
                r"^\| `(\w+)` \| (counter|gauge|histogram) \|", text,
                re.MULTILINE):
            assert INSTRUMENT_CATALOGUE[name].kind == kind, name


class TestLabelEscaping:
    HOSTILE = 'quote" back\\slash\nnewline'

    def test_series_key_round_trips_hostile_values(self):
        from repro.sim.metrics import parse_series_key

        labels = {"device": self.HOSTILE, "kind": "plain"}
        key = series_key("ops_total", **labels)
        assert "\n" not in key, "raw newline would split the line"
        assert parse_series_key(key) == ("ops_total", labels)
        assert parse_series_key("bare_name") == ("bare_name", {})

    def test_escape_unescape_inverse(self):
        from repro.sim.metrics import (escape_label_value,
                                       unescape_label_value)

        for value in ("", "plain", '"', "\\", "\n", self.HOSTILE,
                      "\\n literal", 'a"b\\c\nd'):
            escaped = escape_label_value(value)
            assert "\n" not in escaped
            assert unescape_label_value(escaped) == value

    def test_malformed_keys_rejected(self):
        from repro.sim.metrics import parse_series_key

        for bad in ("x{", 'x{a=b}', 'x{a="v" b="w"}', 'x{a="v}',
                    'x{="v"}'):
            with pytest.raises(ValueError, match="malformed"):
                parse_series_key(bad)

    def test_prometheus_exposition_stays_line_oriented(self):
        from repro.sim.metrics import parse_series_key

        registry = MetricsRegistry()
        registry.counter("faults_injected_total", ("kind",)) \
            .labels(kind=self.HOSTILE).inc(3)
        buf = io.StringIO()
        samples = export_prometheus(registry, buf)
        lines = [line for line in buf.getvalue().splitlines()
                 if line and not line.startswith("#")]
        assert len(lines) == samples == 1
        key, value = lines[0].rsplit(" ", 1)
        assert float(value) == 3.0
        name, labels = parse_series_key(key)
        assert name == "faults_injected_total"
        assert labels == {"kind": self.HOSTILE}

    def test_bucket_deltas_survive_hostile_sibling_label(self):
        # A label value containing a fake `le="..."` used to confuse
        # the histogram bucket parser; the real parser reads labels.
        trap = 'trap le="9999" trap'
        k_lo = series_key("lat_bucket", le="1.0", device=trap)
        k_inf = series_key("lat_bucket", le="+Inf", device=trap)
        kinds = {k_lo: "counter", k_inf: "counter",
                 "lat_count": "counter", "lat_sum": "counter"}
        store = SeriesStore(max_windows=4)
        store.set_baseline(dict.fromkeys(kinds, 0.0), kinds)
        store.append(WindowSnapshot(0.0, 1.0, {
            k_lo: 3.0, k_inf: 4.0, "lat_count": 4.0, "lat_sum": 10.0}))
        deltas = store._bucket_deltas(0, "lat")
        assert [bound for bound, _ in deltas] == [1.0, float("inf")]
        assert store.window_quantile(0, "lat", 0.5) == 1.0


class TestSeriesStorePairMergeEdges:
    @staticmethod
    def _fill(store, n, start=0.0):
        for i in range(n):
            t = start + float(i)
            store.append(WindowSnapshot(t, t + 1.0,
                                        {"c": (start + i + 1) * 10.0}))

    def test_single_point_series_never_merges(self):
        store = SeriesStore(max_windows=2)
        store.set_baseline({"c": 0.0}, {"c": "counter"})
        assert store.append(WindowSnapshot(0.0, 1.0, {"c": 5.0})) \
            is False
        assert len(store) == 1
        assert store.downsample_factor == 1
        assert store.window_delta(0, "c") == 5.0
        assert store.counter_total("c") == 5.0

    def test_odd_point_count_keeps_trailing_window(self):
        store = SeriesStore(max_windows=4)
        store.set_baseline({"c": 0.0}, {"c": "counter"})
        self._fill(store, 5)  # fifth append overflows: 5 -> 3 windows
        assert len(store) == 3
        assert store.downsample_factor == 2
        # Pairs merged, odd tail survives unmerged; coverage continuous.
        spans = [(w.t_start, w.t_end) for w in store.windows]
        assert spans == [(0.0, 2.0), (2.0, 4.0), (4.0, 5.0)]
        assert store.counter_total("c") == 50.0
        assert sum(store.window_delta(i, "c")
                   for i in range(len(store))) == 50.0

    def test_merge_then_sample_deterministic(self):
        def build():
            store = SeriesStore(max_windows=4)
            store.set_baseline({"c": 0.0}, {"c": "counter"})
            self._fill(store, 11)
            return store

        one, two = build(), build()
        assert [(w.t_start, w.t_end, w.values) for w in one.windows] \
            == [(w.t_start, w.t_end, w.values) for w in two.windows]
        assert one.downsample_factor == two.downsample_factor
        # Windows re-merge deterministically, and deltas still sum to
        # the exact total after repeated downsampling.
        assert one.counter_total("c") == 110.0
        assert sum(one.window_delta(i, "c")
                   for i in range(len(one))) == 110.0
