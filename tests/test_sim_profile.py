"""Tests for the simulated-time profiler (`repro.sim.profile`).

The acceptance invariant everything rests on: per-request ``(device,
phase)`` attributions sum to the request's end-to-end latency, so the
attribution table's per-class totals and means reconcile *exactly* with
the run's independent LatencyStats — on both engines.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim.load import OpenLoopLoad
from repro.sim.profile import (AttributionTable, Profiler, classify_phase,
                               export_folded, fold_stacks)
from repro.sim.trace import TRACK_BACKGROUND, Recorder, RingBufferTracer
from repro.workloads import SysBenchWorkload, TPCCWorkload


def profiled_run(engine: str, n_requests: int = 500, seed: int = 11,
                 **kwargs):
    workload = SysBenchWorkload(scale=0.05, n_requests=n_requests,
                                seed=seed)
    system = make_system("icash", workload)
    profiler = Profiler()
    result = run_benchmark(workload, system, engine=engine,
                           profiler=profiler, **kwargs)
    return profiler.table, result


class TestClassifyPhase:
    def test_device_prefixed_names_split(self):
        assert classify_phase("ssd_read") == ("ssd", "read")
        assert classify_phase("hdd_log_append") == ("hdd", "log_append")
        assert classify_phase("raid0_write") == ("raid0", "write")

    def test_cpu_phases_unprefixed(self):
        assert classify_phase("delta_decode") == ("cpu", "delta_decode")
        assert classify_phase("flush") == ("cpu", "flush")

    def test_known_device_pins_attribution(self):
        # The capture tracer knows which device emitted a re-labelled
        # span; the name's prefix is stripped only when it matches.
        assert classify_phase("hdd_log_append", device="hdd") == \
            ("hdd", "log_append")
        assert classify_phase("hdd_log_append", device="ssd") == \
            ("ssd", "hdd_log_append")


class TestAttributionTable:
    def test_items_merge_and_residual_covers_gap(self):
        table = AttributionTable()
        table.record_request(
            "read",
            [("ssd", "read", 10e-6), ("ssd", "read", 5e-6),
             ("cpu", "delta_decode", 3e-6)],
            20e-6)
        (request,) = table.requests
        assert sum(dur for _d, _p, dur in request.items) == \
            pytest.approx(20e-6)
        rows = {(r.device, r.phase): r for r in table.rows("read")}
        assert rows[("ssd", "read")].total_s == pytest.approx(15e-6)
        assert rows[("host", "other")].total_s == pytest.approx(2e-6)
        # Row means spread over every request, so they sum to the mean.
        assert sum(table.row_mean_us(r) for r in table.rows("read")) \
            == pytest.approx(table.mean_us("read"))

    def test_zero_duration_items_dropped(self):
        table = AttributionTable()
        table.record_request("read", [("ssd", "read", 0.0),
                                      ("ssd", "read", 4e-6)], 4e-6)
        (row,) = table.rows("read")
        assert row.n_touched == 1

    def test_blame_names_dominant_tail_pair(self):
        table = AttributionTable()
        for i in range(1, 100):
            table.record_request("read", [("ssd", "read", i * 1e-6)],
                                 i * 1e-6)
        table.record_request(
            "read", [("ssd", "read", 10e-6),
                     ("hdd", "queue_wait", 9990e-6)], 1e-2)
        blame = table.blame("read")
        # Nearest-rank p99 of the 100 samples is 99 us, so the tail set
        # is {99 us bulk request, 10 ms outlier} and the outlier's HDD
        # wait dominates the pooled tail time.
        assert (blame.device, blame.phase) == ("hdd", "queue_wait")
        assert blame.tail_n == 2
        assert blame.share == pytest.approx(9990e-6 / (1e-2 + 99e-6))
        assert "hdd queue_wait" in blame.render()

    def test_render_and_to_rows(self):
        table = AttributionTable()
        table.record_request("write", [("ssd", "write", 70e-6)], 75e-6)
        text = table.render()
        assert "write critical path" in text
        assert "ssd" in text and "blame:" in text
        (ssd_row, host_row) = table.to_rows()
        assert ssd_row["device"] == "ssd"
        assert ssd_row["share"] == pytest.approx(70 / 75)
        assert host_row["phase"] == "other"

    def test_queries_leave_an_absent_class_absent(self):
        """Asking after a class that recorded nothing answers empty
        stats and does not add it: a write-only table renders, and
        ``critpath --json`` lists, no empty ``read`` section."""
        table = AttributionTable()
        table.record_request("write", [("ssd", "write", 70e-6)], 75e-6)
        assert table.n_requests("read") == 0
        assert table.total_s("read") == 0.0
        assert table.mean_us("read") == 0.0
        assert table.latency("read").count == 0
        assert table.ops == ["write"]
        assert "read critical path" not in table.render()

    def test_empty_table(self):
        table = AttributionTable()
        assert table.render() == "(no requests profiled)"
        assert table.blame("read") is None
        assert table.to_rows() == []


class TestNullProfiler:
    """No profiler is ``None``, on either engine."""

    def test_default_run_has_no_attribution(self):
        for engine in ("legacy", "event"):
            workload = SysBenchWorkload(scale=0.05, n_requests=200)
            result = run_benchmark(workload,
                                   make_system("icash", workload),
                                   engine=engine)
            assert result.attribution is None


class TestEngineReconciliation:
    """The acceptance criterion: attribution reconciles with the
    end-to-end latency statistics, on both engines."""

    @pytest.mark.parametrize("engine", ["legacy", "event"])
    def test_per_request_sums_equal_latency(self, engine):
        table, _ = profiled_run(engine)
        assert table.requests
        for request in table.requests:
            assert sum(dur for _d, _p, dur in request.items) == \
                pytest.approx(request.latency_s, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("engine", ["legacy", "event"])
    def test_table_means_match_run_stats(self, engine):
        table, result = profiled_run(engine)
        assert result.attribution is table
        assert table.mean_us("read") == \
            pytest.approx(result.read_mean_us, rel=1e-9)
        assert table.mean_us("write") == \
            pytest.approx(result.write_mean_us, rel=1e-9)
        assert table.n_requests("read") + table.n_requests("write") \
            == result.n_measured

    def test_event_engine_attributes_queue_waits_per_station(self):
        # Drive hard enough that requests actually queue: the pooled
        # wait the queueing summary measured must reappear in the
        # table, attributed to real device stations.
        workload = SysBenchWorkload(scale=0.05, n_requests=500, seed=3)
        system = make_system("icash", workload)
        profiler = Profiler()
        result = run_benchmark(
            workload, system, engine="event", profiler=profiler,
            warmup_fraction=0.0,
            load=OpenLoopLoad(2e6, distribution="constant", seed=5))
        waits = [
            (device, phase, dur)
            for request in profiler.table.requests
            for device, phase, dur in request.items
            if phase == "queue_wait"]
        assert waits, "saturating load produced no queue waits"
        assert all(device in ("dram", "ssd", "hdd", "raid0")
                   for device, _p, _d in waits)
        total_wait_us = sum(dur for _d, _p, dur in waits) * 1e6
        summary_wait_us = result.queueing.wait_mean_us \
            * result.n_measured
        assert total_wait_us == pytest.approx(summary_wait_us, rel=1e-6)

    def test_legacy_profiler_keeps_downstream_tracer_intact(self):
        # One observer never changes another's output: the ring and
        # the profiler are both folds over what the recorder keeps, so
        # a legacy trace is the same event for event — order, ts and
        # req included — with or without a profiler beside it.
        for make_workload, system in (
                (lambda: SysBenchWorkload(scale=0.05, n_requests=300,
                                          seed=9), "icash"),
                (lambda: TPCCWorkload(scale=0.1, n_requests=800,
                                      seed=2011), "lru")):
            traces = []
            for profiler in (None, Profiler()):
                workload = make_workload()
                tracer = RingBufferTracer()
                run_benchmark(workload, make_system(system, workload),
                              tracer=tracer, profiler=profiler)
                traces.append([e.to_dict() for e in tracer.events])
            assert any(e["track"] == "background" for e in traces[0])
            assert traces[1] == traces[0], system

    def test_profiler_excludes_warmup(self):
        table, result = profiled_run("event", warmup_fraction=0.5)
        assert table.latency("read").count + \
            table.latency("write").count == result.n_measured
        assert result.n_measured < result.n_requests


def fold_taken(recorder: Recorder, tracer: RingBufferTracer,
               profiler: Profiler, latency_s: float = 0.0,
               waits=()) -> None:
    """Hand what ``recorder`` kept since its last take to both folds;
    only a request (``latency_s`` given) reaches the profiler."""
    emitted = recorder.take_request()[1]
    tracer.fold(emitted, latency_s,
                wait_s=sum(dur for _device, dur in waits))
    if latency_s:
        profiler.fold(emitted, latency_s, waits)


class TestFoldedStacks:
    def make_run(self):
        recorder, tracer = Recorder(keep=True), RingBufferTracer()
        profiler = Profiler()
        recorder.begin_request("read", 1, 1)
        recorder.span("ssd_read", 10e-6)
        recorder.span("delta_decode", 4e-6)
        # 2us uninstrumented residual
        fold_taken(recorder, tracer, profiler, 16e-6)
        recorder.begin_background("flush")
        recorder.span("hdd_log_append", 30e-6)
        recorder.end_background(extra_s=5e-6)
        fold_taken(recorder, tracer, profiler)
        return profiler.table, list(tracer.events)

    def test_request_stacks_and_residual(self):
        table, events = self.make_run()
        stacks = fold_stacks(table, events)
        assert stacks["read;ssd;read"] == pytest.approx(10e-6)
        assert stacks["read;cpu;delta_decode"] == pytest.approx(4e-6)
        assert stacks["read;host;other"] == pytest.approx(2e-6)
        # The request stacks are the table's rows, nothing else.
        assert {key: value for key, value in stacks.items()
                if key.startswith("read;")} == \
            {f"read;{row.device};{row.phase}": row.total_s
             for row in table.rows("read")}

    def test_background_nesting_preserved_with_self_time(self):
        stacks = fold_stacks(*self.make_run())
        assert stacks["background;flush;hdd;log_append"] == \
            pytest.approx(30e-6)
        # The enclosing flush span keeps only its self time (extra_s).
        assert stacks["background;flush"] == pytest.approx(5e-6)

    def test_fold_conserves_total_time(self):
        table, events = self.make_run()
        stacks = fold_stacks(table, events)
        background = sum(e.dur for e in events
                         if e.track == TRACK_BACKGROUND)
        # The named flush section overlaps its children, so self-time
        # folding must count its extra_s exactly once.
        assert sum(stacks.values()) == pytest.approx(
            table.total_s("read") + background - 30e-6)

    def test_queue_spans_pool_under_queue_wait(self):
        # The ring pools a request's station waits into one queue span;
        # the folded stacks keep the table's per-station rows.
        recorder, tracer = Recorder(keep=True), RingBufferTracer()
        profiler = Profiler()
        recorder.begin_request("read", 1, 1)
        recorder.span("ssd_read", 10e-6)
        fold_taken(recorder, tracer, profiler, 17e-6,
                   waits=(("ssd", 5e-6), ("hdd", 2e-6)))
        assert [e.name for e in tracer.events] == \
            ["queue", "ssd_read", "request_start"]
        stacks = fold_stacks(profiler.table, tracer.events)
        assert stacks == pytest.approx({"read;ssd;queue_wait": 5e-6,
                                        "read;hdd;queue_wait": 2e-6,
                                        "read;ssd;read": 10e-6})

    def test_export_folded_format(self, tmp_path):
        path = tmp_path / "flame.folded"
        lines = export_folded(*self.make_run(), str(path))
        text = path.read_text()
        assert lines == len(text.strip().splitlines())
        for line in text.strip().splitlines():
            key, _, value = line.rpartition(" ")
            assert key and int(value) >= 1

    def test_submicrosecond_stacks_dropped(self, tmp_path):
        recorder, tracer = Recorder(keep=True), RingBufferTracer()
        profiler = Profiler()
        recorder.begin_request("read", 1, 1)
        recorder.span("ssd_read", 4e-7)
        fold_taken(recorder, tracer, profiler, 4e-7)
        path = tmp_path / "flame.folded"
        assert export_folded(profiler.table, tracer.events, str(path)) == 0
        assert path.read_text() == ""


class TestCLI:
    def test_critpath_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        folded = tmp_path / "flame.folded"
        code = main(["run", "sysbench", "--critpath",
                     "--requests", "400", "--engine", "event",
                     "--folded", str(folded)])
        assert code == 0
        out = capsys.readouterr().out
        assert "read critical path" in out
        assert "blame:" in out
        assert "[ok]" in out and "MISMATCH" not in out
        assert folded.stat().st_size > 0
        assert any(line.startswith("read;")
                   for line in folded.read_text().splitlines())

    @pytest.mark.parametrize("engine", ["legacy", "event"])
    def test_critpath_folded_request_lines_are_the_table(
            self, engine, tmp_path, capsys):
        # One run, one attribution: the folded file's request stacks
        # are the table's rows, so each class's lines add up to the
        # class's total latency, within a microsecond of rounding per
        # row (a row under half a microsecond has no line at all).
        from repro.cli import main

        folded = tmp_path / "flame.folded"
        code = main(["run", "sysbench", "--critpath",
                     "--requests", "600", "--engine", engine,
                     "--folded", str(folded), "--json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        lines = [line.rpartition(" ")
                 for line in folded.read_text().splitlines()]
        for op, summary in doc["classes"].items():
            rows = [row for row in doc["attribution"] if row["op"] == op]
            folded_us = sum(int(value) for key, _, value in lines
                            if key.startswith(op + ";"))
            assert rows and folded_us == pytest.approx(
                summary["n"] * summary["mean_us"], abs=len(rows)), op

    def test_critpath_legacy_engine(self, capsys):
        from repro.cli import main

        code = main(["run", "sysbench", "--critpath",
                     "--requests", "300", "--engine", "legacy"])
        assert code == 0
        assert "legacy engine" in capsys.readouterr().out

    def test_critpath_cache_baseline_destages_off_the_critical_path(
            self, capsys):
        # The write-back LRU cache destages dirty blocks off the
        # critical path (3 000 TPC-C requests fill it, so it does); a
        # destage that reached the engine as a request phase would
        # over-cover the rows and fail both consistency checks.
        from repro.cli import main

        code = main(["run", "tpcc", "--critpath", "--system", "lru",
                     "--engine", "event", "--requests", "3000"])
        out = capsys.readouterr().out
        assert code == 0
        assert out.count("[ok]") == 2

    def test_critpath_flags_rows_no_latency_contains(self, monkeypatch,
                                                     capsys):
        # A system that leaks off-critical-path work into its requests'
        # phases over-covers them: the rows no longer add up to the run
        # mean, and the consistency check has to say so.
        from repro.cli import main

        record_request = AttributionTable.record_request

        def over_cover(self, op, items, latency_s):
            record_request(self, op,
                           [*items, ("hdd", "write", 1e-3)], latency_s)

        monkeypatch.setattr(AttributionTable, "record_request", over_cover)
        code = main(["run", "sysbench", "--critpath",
                     "--requests", "300", "--engine", "event"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("[MISMATCH]") == 2 and "[ok]" not in out

    def test_critpath_json_output(self, capsys):
        import json

        from repro.cli import main

        code = main(["run", "sysbench", "--critpath",
                     "--requests", "400", "--engine", "event",
                     "--json"])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)  # pure JSON on stdout, nothing else
        assert doc["consistent"] is True
        assert doc["queueing"] is not None
        assert {"op", "device", "phase"} <= set(doc["attribution"][0])
        for check in doc["consistency"]:
            assert check["ok"]

    def test_bench_is_an_unknown_verb(self, capsys):
        """``repro bench`` is not a verb: tests/test_grid_digest.py
        pins simulated behaviour exactly."""
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["bench", "--quick"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err


class TestLatencyStatsVariance:
    def test_variance_and_std(self):
        from repro.sim.stats import LatencyStats

        stats = LatencyStats()
        assert stats.variance == 0.0 and stats.std == 0.0
        for value in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            stats.record(value)
        assert stats.variance == pytest.approx(4.0)
        assert stats.std == pytest.approx(2.0)
        assert stats.std_us == pytest.approx(2e6)

    def test_identical_samples_never_negative(self):
        from repro.sim.stats import LatencyStats

        stats = LatencyStats()
        for _ in range(100):
            stats.record(0.123456789)
        assert stats.variance >= 0.0
