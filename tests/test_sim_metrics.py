"""Tests for the windowed metrics layer (`repro.sim.metrics`).

Covers the instrument catalogue, the monitor's window columns (window
deltas, baselines, downsampling), the three exporters, the SLO rules,
the full-stack consistency invariant (summed window deltas reproduce
the run-end counter attributes), the `repro monitor` CLI, and the
catalogue/documentation parity check.
"""

from __future__ import annotations

import ast
import json
import math
import re
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim import metrics
from repro.sim.faults import FaultOutcome
from repro.sim.metrics import (DEFAULT_LATENCY_BUCKETS_US,
                               INSTRUMENT_CATALOGUE, Monitor, SLORule,
                               default_slo_rules, export_prometheus,
                               export_series_csv, export_series_jsonl,
                               series_key)
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


def stream_counts(workload):
    """The read and write counts of ``workload``'s request stream."""
    reads = [request.is_read for request in workload.requests()]
    return sum(reads), len(reads) - sum(reads)


def attached(devices=(), kinds=(), **monitor_kwargs):
    """A monitor on 1 s windows attached to a bare system of ``devices``
    (each read only for its ``name`` and ``busy_time``), a one-stream
    workload and, given fault ``kinds``, an injector that fired them."""
    workload = SimpleNamespace(io_concurrency=1)
    faults = SimpleNamespace(outcomes=[
        FaultOutcome(kind, at_request=0, t_injected_s=0.0) for kind in kinds])
    monitor = Monitor(**{"interval_s": 1.0, **monitor_kwargs})
    monitor.attach(SimpleNamespace(devices=lambda: list(devices)), workload,
                   faults=faults if kinds else None)
    return monitor, workload


def fold_reads(monitor, n, now_s, latency_us=10.0):
    for _ in range(n):
        monitor.fold(True, latency_us * 1e-6, 0.0, now_s)


def tick(monitor, now_s):
    """A zero-latency write at ``now_s``: it closes every window boundary
    it crosses without touching the read series."""
    monitor.fold(False, 0.0, 0.0, now_s)


class TestNullRegistry:
    """No monitor, no registry: nothing registers and nothing samples."""

    def test_default_system_registry_is_null(self):
        workload = SysBenchWorkload(n_requests=10)
        system = make_system("icash", workload)
        result = run_benchmark(workload, system)
        assert result.slo_breaches == []


class TestInstruments:
    def test_counter_inc_and_collect(self):
        monitor, _ = attached()
        fold_reads(monitor, 5, 0.5)
        monitor.finish(0.5)
        assert monitor.columns["requests_read_total"] == [5.0]
        assert monitor.kinds["requests_read_total"] == "counter"

    def test_callback_backed_counter(self):
        device = SimpleNamespace(name="ssd", busy_time=0.0)
        monitor, _ = attached([device])
        device.busy_time = 7.0
        monitor.finish(0.5)
        assert monitor.columns['device_busy_seconds{device="ssd"}'] == [7.0]

    def test_labels_produce_distinct_series(self):
        monitor, _ = attached([SimpleNamespace(name="ssd", busy_time=3),
                               SimpleNamespace(name="hdd", busy_time=5)],
                              kinds=["x"])
        monitor.finish(0.5)
        for key, value in ((series_key("device_busy_seconds", device="ssd"),
                            3.0),
                           (series_key("device_busy_seconds", device="hdd"),
                            5.0),
                           ('faults_injected_total{kind="x"}', 1.0)):
            assert monitor.columns[key] == [value]
            assert monitor.kinds[key] == "counter"
        assert monitor.kinds["offered_load_streams"] == "gauge"

    def test_catalogue_decides_kind_and_label(self):
        # Monitor.attach reads nothing but this table: a row without a
        # read is one Monitor.fold updates.
        for name, spec in INSTRUMENT_CATALOGUE.items():
            assert spec.kind in ("counter", "gauge", "histogram"), name
            assert (spec.read is None) == (name in metrics._FED), name
        monitor, _ = attached(kinds=["x"])
        monitor.finish(0.5)
        assert monitor.kinds["offered_load_streams"] == "gauge"
        assert monitor.kinds['faults_injected_total{kind="x"}'] == "counter"

    def test_kind_mismatch_rejected(self):
        # A gauge has nothing to be fed from, so it needs a read; a
        # histogram is only ever fed, so a read would go unused.
        for name, spec in INSTRUMENT_CATALOGUE.items():
            if spec.kind == "gauge":
                assert spec.read is not None, name
            if spec.kind == "histogram":
                assert spec.read is None, name
        assert INSTRUMENT_CATALOGUE["delta_hit_ratio"].read is not None
        assert INSTRUMENT_CATALOGUE["read_latency_us"].read is None

    def test_relabeling_rejected(self):
        # A repeated key in the dict literal would drop a row silently.
        tree = ast.parse(Path(metrics.__file__).read_text())
        (table,) = [node.value for node in ast.walk(tree)
                    if isinstance(node, ast.AnnAssign)
                    and getattr(node.target, "id", "")
                    == "INSTRUMENT_CATALOGUE"]
        names = [key.value for key in table.keys]
        assert len(names) == len(set(names)) == len(INSTRUMENT_CATALOGUE)

    def test_wrong_labelnames_rejected(self):
        # Only a read can name the label values of a labelled row.
        for name, spec in INSTRUMENT_CATALOGUE.items():
            if spec.label is not None:
                assert spec.read is not None, name
        assert INSTRUMENT_CATALOGUE["device_read_ops_total"].label \
            == "device"

    def test_histogram_buckets_cumulative_and_ordered(self):
        monitor, _ = attached()
        for value in (1.0, 15.0, 15.0, 40_000.0, 5e6):
            fold_reads(monitor, 1, 0.5, latency_us=value)
        monitor.finish(0.5)
        last = {key: column[-1] for key, column in monitor.columns.items()}
        le_1 = last[series_key("read_latency_us_bucket", le="1")]
        le_20 = last[series_key("read_latency_us_bucket", le="20")]
        le_inf = last[series_key("read_latency_us_bucket", le="+Inf")]
        assert le_1 == 1.0        # the 1.0 sample (le is inclusive)
        assert le_20 == 3.0       # plus both 15s
        assert le_inf == 5.0      # everything, incl. the 5e6 outlier
        assert last["read_latency_us_count"] == 5.0
        assert last["read_latency_us_sum"] == pytest.approx(5040031.0)
        assert monitor.kinds["read_latency_us_count"] == "counter"
        # Bounds cover five orders of magnitude.
        assert DEFAULT_LATENCY_BUCKETS_US[0] == 1.0
        assert DEFAULT_LATENCY_BUCKETS_US[-1] == 1e5


class TestSeriesStore:
    def test_window_deltas_and_gauge_passthrough(self):
        monitor, workload = attached()
        fold_reads(monitor, 3, 0.5)
        workload.io_concurrency = 5
        tick(monitor, 1.0)
        fold_reads(monitor, 7, 1.5)
        workload.io_concurrency = 2
        monitor.finish(2.0)
        assert monitor.window_delta(0, "requests_read_total") == 3.0
        assert monitor.window_delta(1, "requests_read_total") == 7.0
        row = monitor.window_record(1)["series"]
        assert (row["requests_read_total"], row["offered_load_streams"]) \
            == (7.0, 2.0)
        assert monitor.counter_total("requests_read_total") == 10.0

    def test_nonzero_baseline_subtracted(self):
        device = SimpleNamespace(name="ssd", busy_time=100.0)
        monitor, _ = attached([device])
        device.busy_time = 130.0
        monitor.finish(1.0)
        key = 'device_busy_seconds{device="ssd"}'
        assert monitor.window_delta(0, key) == 30.0
        assert monitor.counter_total(key) == 30.0

    def test_downsampling_merges_pairs_and_preserves_totals(self):
        monitor, _ = attached(max_windows=4)
        for i in range(9):
            fold_reads(monitor, 10, i + 0.5)
        monitor.finish(9.0)
        # Two overflows, at the fifth window closed and at the seventh,
        # whose width had doubled.
        assert list(zip(monitor.t_start, monitor.t_end)) \
            == [(0.0, 4.0), (4.0, 7.0), (7.0, 9.0)]
        assert monitor.downsample_factor == 4
        # Coverage is continuous and totals are exact after merging.
        assert monitor.counter_total("requests_read_total") == 90.0
        assert sum(monitor.window_delta(i, "requests_read_total")
                   for i in range(len(monitor.t_end))) == 90.0

    def test_resolve_key_unique_label_match(self):
        monitor, _ = attached([SimpleNamespace(name="ssd", busy_time=0)])
        assert monitor.resolve_key("device_busy_seconds") \
            == 'device_busy_seconds{device="ssd"}'
        assert monitor.resolve_key("missing") is None

    def test_rejects_tiny_capacity(self):
        with pytest.raises(ValueError, match="two windows"):
            Monitor(max_windows=1)


class TestPeriodicSampler:
    def test_windows_close_on_boundaries(self):
        monitor, _ = attached()
        fold_reads(monitor, 2, 0.5)     # inside window 0 - nothing closes
        assert monitor.t_end == []
        fold_reads(monitor, 3, 2.5)     # crosses t=1 and t=2
        assert monitor.t_end == [1.0, 2.0]
        monitor.finish(2.5)             # trailing partial window
        assert monitor.t_end == [1.0, 2.0, 2.5]
        assert monitor.counter_total("requests_read_total") == 5.0

    def test_interval_doubles_on_store_merge(self):
        monitor, _ = attached(max_windows=4)
        tick(monitor, 6.0)
        assert monitor.downsample_factor == 2
        assert monitor.interval_s == 2.0

    def test_rejects_bad_interval(self):
        for interval_s in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="interval"):
                Monitor(interval_s=interval_s)

    def test_double_start_rejected(self):
        monitor, workload = attached()
        with pytest.raises(RuntimeError, match="attached"):
            monitor.attach(SimpleNamespace(devices=list), workload)


class TestExporters:
    @staticmethod
    def _sampled():
        monitor, workload = attached()
        fold_reads(monitor, 3, 0.5, latency_us=50.0)
        workload.io_concurrency = 4
        tick(monitor, 1.0)
        fold_reads(monitor, 4, 1.2, latency_us=150.0)
        workload.io_concurrency = 8
        monitor.finish(1.5)
        return monitor

    def test_csv_columns_sum_to_totals(self, tmp_path):
        monitor = self._sampled()
        path = tmp_path / "series.csv"
        rows = export_series_csv(monitor, str(path))
        assert rows == 2
        lines = path.read_text().splitlines()
        header = lines[0].split(",")
        idx = header.index("requests_read_total")
        deltas = [float(line.split(",")[idx]) for line in lines[1:]]
        assert deltas == [3.0, 4.0]
        assert sum(deltas) == monitor.counter_total("requests_read_total")

    def test_csv_quotes_labelled_headers(self, tmp_path):
        hostile = TestLabelEscaping.HOSTILE
        monitor, _ = attached([SimpleNamespace(name="ssd", busy_time=1),
                               SimpleNamespace(name=hostile, busy_time=2)])
        monitor.finish(1.0)
        path = tmp_path / "series.csv"
        export_series_csv(monitor, str(path))
        header, row = path.read_text().splitlines()
        assert '"device_busy_seconds{device=""ssd""}"' in header
        # The hostile key's quote doubles inside one quoted cell, and its
        # newline stays escaped: the header is still one line.
        assert '"device_busy_seconds{device=""quote\\"" back' in header
        assert row.startswith("0,0.0,1.0,")

    def test_jsonl_rows_parse_and_carry_deltas(self, tmp_path):
        monitor = self._sampled()
        path = tmp_path / "series.jsonl"
        rows = export_series_jsonl(monitor, str(path))
        assert rows == 2
        records = [json.loads(line)
                   for line in path.read_text().splitlines()]
        assert records[0]["window"] == 0
        assert records[1]["series"]["requests_read_total"] == 4.0
        assert records[1]["series"]["offered_load_streams"] == 8.0
        assert records[0]["t_end_s"] == 1.0

    def test_prometheus_format(self, tmp_path):
        monitor = self._sampled()
        path = tmp_path / "metrics.prom"
        samples = export_prometheus(monitor, str(path))
        text = path.read_text()
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
        monitor = self._sampled()
        csv_path = tmp_path / "series.csv"
        jsonl_path = tmp_path / "series.jsonl"
        prom_path = tmp_path / "metrics.prom"
        assert export_series_csv(monitor, str(csv_path)) == 2
        assert export_series_jsonl(monitor, str(jsonl_path)) == 2
        assert export_prometheus(monitor, str(prom_path)) > 0
        assert csv_path.read_text().startswith("window,")


class TestHealthMonitor:
    @staticmethod
    def _judged(rule, metric, readings):
        """A monitor judging ``rule`` over one 1 s window per reading of
        the one-stream workload's streams (``metric="streams"``) or of a
        device's busy seconds (``metric="busy"``)."""
        device = SimpleNamespace(name="ssd", busy_time=0.0)
        monitor, workload = attached([device], rules=[rule])
        for t, reading in enumerate(readings, start=1):
            if metric == "streams":
                workload.io_concurrency = reading
            else:
                device.busy_time = reading
            tick(monitor, float(t))
        monitor.finish(float(len(readings)))
        return monitor

    def test_gauge_value_rule(self):
        monitor = self._judged(SLORule(
            "high_water", "offered_load_streams", "value", 9.0),
            "streams", [5, 12])
        assert len(monitor.breaches) == 1
        assert monitor.breaches[0].window == 1
        assert monitor.breaches[0].value == 12.0
        assert "high_water" in monitor.render_report()

    def test_rate_rule_with_scale(self):
        # 10 busy seconds in window 0 -> scaled x86400 = 864000/day;
        # window 1 adds only 2 -> 172800/day, under the bar.
        monitor = self._judged(SLORule(
            "budget", "device_busy_seconds", "rate", 500_000.0,
            scale=86400.0), "busy", [10.0, 12.0])
        assert [b.window for b in monitor.breaches] == [0]
        assert monitor.breaches[0].value == pytest.approx(864000.0)

    def test_p99_rule_uses_window_deltas(self):
        monitor, _ = attached(rules=[SLORule(
            "read_p99", "read_latency_us", "p99", 30_000.0)])
        fold_reads(monitor, 100, 0.5, latency_us=10.0)  # window 0: fast
        tick(monitor, 1.0)
        fold_reads(monitor, 100, 1.5, latency_us=90_000.0)  # 1: slow
        monitor.finish(2.0)
        # Only window 1 breaches: its p99 reflects that window alone,
        # not the cumulative distribution.
        assert [b.window for b in monitor.breaches] == [1]
        assert monitor.window_quantile(0, "read_latency_us", 0.99) == 10.0

    def test_missing_metric_is_skipped(self):
        monitor = self._judged(SLORule(
            "ghost", "no_such_metric", "value", 1.0),
            "streams", [5])
        assert monitor.breaches == []

    def test_rule_validation(self):
        with pytest.raises(ValueError, match="stat"):
            SLORule("r", "m", "median", 1.0)

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
        monitor, _, _ = monitored_benchmark()
        assert len(monitor.t_end) > 1
        reads, writes = stream_counts(SysBenchWorkload(n_requests=800))
        assert monitor.counter_total("requests_read_total") == reads
        assert monitor.counter_total("requests_write_total") == writes

    def test_controller_counters_match_stats(self):
        monitor, system, _ = monitored_benchmark()
        assert monitor.counter_total("delta_hits_total") \
            == system.ram_delta_hits
        assert monitor.counter_total("delta_log_fetches_total") \
            == system.log_delta_fetches
        assert monitor.counter_total("delta_writes_total") \
            == system.delta_writes

    def test_device_counters_match_stats(self):
        monitor, system, _ = monitored_benchmark()
        ssd_key = monitor.resolve_key("ssd_program_total")
        assert ssd_key is not None
        # The monitor attaches after ingest, so the baseline subtracts
        # the load phase: totals match the *post-attach* delta.
        expected = (system.ssd.write_blocks
                    + system.ssd.gc_page_moves
                    - monitor.baseline.get(ssd_key, 0.0))
        assert monitor.counter_total(ssd_key) == expected
        hdd_key = monitor.resolve_key("hdd_seek_total")
        assert monitor.columns[hdd_key][-1] == \
            (system.hdd.near_accesses
             + system.hdd.random_accesses)

    def test_sum_of_window_deltas_telescopes(self):
        monitor, _, _ = monitored_benchmark()
        for key, kind in monitor.kinds.items():
            if kind != "counter":
                continue
            summed = sum(monitor.window_delta(i, key)
                         for i in range(len(monitor.t_end)))
            assert summed == pytest.approx(monitor.counter_total(key)), key

    def test_gauges_report_plausible_ranges(self):
        monitor, system, _ = monitored_benchmark()
        last = {key: column[-1] for key, column in monitor.columns.items()}
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
    def test_monitor_on_baseline_systems(self):
        # Device + request instruments work on every architecture, not
        # just I-CASH (controller gauges are I-CASH-specific).
        for name in ("fusion-io", "raid0", "lru"):
            workload = SysBenchWorkload(n_requests=150)
            system = make_system(name, workload)
            monitor = Monitor(interval_s=0.01)
            run_benchmark(workload, system, monitor=monitor)
            assert monitor.counter_total("requests_read_total") \
                == stream_counts(workload)[0], name


class TestCLI:
    def test_monitor_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["run", "sysbench",
                     "--requests", "400", "--interval", "0.005",
                     "--monitor", str(tmp_path)])
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

        code = main(["run", "sysbench",
                     "--requests", "400", "--interval", "0.005",
                     "--monitor", str(tmp_path), "--json",
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

    @pytest.mark.parametrize("bad", [["--interval", "nan"],
                                     ["--interval", "inf"],
                                     ["--interval", "0"],
                                     ["--interval", "-1"],
                                     ["--max-windows", "1"]])
    def test_monitor_rejects_a_bad_window_before_running(self, bad, tmp_path,
                                                         capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["run", "sysbench", "--requests", "200", "--no-ledger",
                  "--monitor", str(tmp_path)] + bad)
        assert exit_info.value.code == 2
        assert f"argument {bad[0]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_trace_subcommand_reports_drop_counts(self, tmp_path,
                                                  capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["run", "sysbench",
                     "--requests", "300", "--trace", str(out),
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
        code = main(["run", "sysbench",
                     "--requests", "200", "--trace", str(out)])
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

    def test_prometheus_exposition_stays_line_oriented(self, tmp_path):
        monitor, _ = attached(kinds=[self.HOSTILE] * 3)
        monitor.finish(1.0)
        path = tmp_path / "metrics.prom"
        samples = export_prometheus(monitor, str(path))
        lines = [line for line in path.read_text().splitlines()
                 if line and not line.startswith("#")]
        assert len(lines) == samples
        (line,) = [line for line in lines
                   if line.startswith("faults_injected_total")]
        key, value = line.rsplit(" ", 1)
        assert float(value) == 3.0
        assert key == series_key("faults_injected_total", kind=self.HOSTILE)
        assert key == ('faults_injected_total{kind="quote\\" '
                       'back\\\\slash\\nnewline"}')

    def test_bucket_deltas_survive_hostile_sibling_label(self):
        # A label value containing a fake `le="..."` once confused the
        # bucket parser; quantiles now read each histogram's own bucket
        # columns, whatever the sibling series are called.
        trap = 'trap le="9999" read_latency_us_bucket{le="0.5"}'
        monitor, _ = attached(kinds=[trap])
        fold_reads(monitor, 3, 0.5, latency_us=1.0)
        fold_reads(monitor, 1, 0.5, latency_us=3.0)
        monitor.finish(1.0)
        assert series_key("faults_injected_total", kind=trap) \
            in monitor.columns
        assert monitor.window_quantile(0, "read_latency_us", 0.5) == 1.0
        assert monitor.window_quantile(0, "read_latency_us", 1.0) == 5.0


class TestSeriesStorePairMergeEdges:
    @staticmethod
    def _filled(max_windows, n):
        """``n`` windows of 10 reads each, the last one closed by
        ``finish``."""
        monitor, _ = attached(max_windows=max_windows)
        for i in range(n):
            fold_reads(monitor, 10, monitor._next_boundary - 0.5)
            if i < n - 1:
                tick(monitor, monitor._next_boundary)
        monitor.finish(monitor._next_boundary)
        return monitor

    def test_single_point_series_never_merges(self):
        monitor = self._filled(2, 1)
        assert monitor.t_end == [1.0]
        assert monitor.downsample_factor == 1
        assert monitor.window_delta(0, "requests_read_total") == 10.0
        assert monitor.counter_total("requests_read_total") == 10.0

    def test_odd_point_count_keeps_trailing_window(self):
        monitor = self._filled(4, 5)  # the fifth window overflows: 5 -> 3
        assert monitor.downsample_factor == 2
        # Pairs merged, odd tail survives unmerged; coverage continuous.
        spans = list(zip(monitor.t_start, monitor.t_end))
        assert spans == [(0.0, 2.0), (2.0, 4.0), (4.0, 5.0)]
        assert monitor.counter_total("requests_read_total") == 50.0
        assert [monitor.window_delta(i, "requests_read_total")
                for i in range(3)] == [20.0, 20.0, 10.0]

    def test_merge_then_sample_deterministic(self):
        one, two = self._filled(4, 11), self._filled(4, 11)
        assert (one.t_start, one.t_end, one.columns) \
            == (two.t_start, two.t_end, two.columns)
        assert one.downsample_factor == two.downsample_factor == 16
        # Windows re-merge deterministically, and deltas still sum to
        # the exact total after repeated downsampling.
        assert one.counter_total("requests_read_total") == 110.0
        assert sum(one.window_delta(i, "requests_read_total")
                   for i in range(len(one.t_end))) == 110.0
