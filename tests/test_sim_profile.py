"""Tests for the simulated-time profiler (`repro.sim.profile`) and the
benchmark regression harness (`repro.experiments.bench`).

The acceptance invariant everything rests on: per-request ``(device,
phase)`` attributions sum to the request's end-to-end latency, so the
attribution table's per-class totals and means reconcile *exactly* with
the run's independent LatencyStats — on both engines.
"""

from __future__ import annotations

import io
import os
import json

import pytest

from repro.experiments import bench
from repro.experiments.parallel import RunSpec, run_spec
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim.load import ClosedLoopLoad, OpenLoopLoad
from repro.sim.profile import (AttributionTable, Profiler, classify_phase,
                               export_folded, fold_stacks, profile_trace)
from repro.sim.trace import RingBufferTracer
from repro.workloads import SysBenchWorkload


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

    def test_queue_span_pools(self):
        assert classify_phase("queue") == ("queue", "wait")

    def test_known_device_pins_attribution(self):
        # The capture tracer knows which device emitted a re-labelled
        # span; the name's prefix is stripped only when it matches.
        assert classify_phase("hdd_log_append", device="hdd") == \
            ("hdd", "log_append")
        assert classify_phase("hdd_log_append", device="nvram") == \
            ("nvram", "hdd_log_append")


class TestAttributionTable:
    def test_items_merge_and_residual_covers_gap(self):
        table = AttributionTable()
        table.record_request(
            "read",
            [("ssd", "read", 10e-6), ("ssd", "read", 5e-6),
             ("cpu", "delta_decode", 3e-6)],
            20e-6)
        (request,) = table.requests
        assert request.covered_s == pytest.approx(20e-6)
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
        assert table.render("read").endswith("(no requests profiled)")

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
            assert request.covered_s == \
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
        assert all(device in ("dram", "ssd", "hdd", "nvram", "raid0")
                   for device, _p, _d in waits)
        total_wait_us = sum(dur for _d, _p, dur in waits) * 1e6
        summary_wait_us = result.queueing.wait_mean_us \
            * result.n_measured
        assert total_wait_us == pytest.approx(summary_wait_us, rel=1e-6)

    def test_legacy_profiler_keeps_downstream_tracer_intact(self):
        # The legacy runner interposes the engine's capture tracer,
        # which forwards background spans immediately but replays a
        # request's foreground spans at completion — so event *order*
        # may differ from a directly-attached tracer, while the event
        # multiset and every per-request breakdown must not.
        from repro.sim.trace import phase_breakdown

        workload = SysBenchWorkload(scale=0.05, n_requests=300, seed=9)
        plain_tracer = RingBufferTracer()
        run_benchmark(workload, make_system("icash", workload),
                      tracer=plain_tracer)
        workload = SysBenchWorkload(scale=0.05, n_requests=300, seed=9)
        both_tracer = RingBufferTracer()
        run_benchmark(workload, make_system("icash", workload),
                      tracer=both_tracer, profiler=Profiler())
        assert sorted((e.name, e.dur) for e in both_tracer.events) == \
            sorted((e.name, e.dur) for e in plain_tracer.events)
        for op in ("read", "write"):
            with_prof = phase_breakdown(both_tracer.events, op=op)
            without = phase_breakdown(plain_tracer.events, op=op)
            assert with_prof.phases == pytest.approx(without.phases)
            assert with_prof.total_s == pytest.approx(without.total_s)

    def test_profiler_excludes_warmup(self):
        table, result = profiled_run("event", warmup_fraction=0.5)
        assert table.latency("read").count + \
            table.latency("write").count == result.n_measured
        assert result.n_measured < result.n_requests


class TestProfileTrace:
    def test_trace_attribution_matches_breakdown(self):
        workload = SysBenchWorkload(scale=0.05, n_requests=400)
        system = make_system("icash", workload)
        tracer = RingBufferTracer()
        result = run_benchmark(workload, system, tracer=tracer)
        table = profile_trace(tracer.events)
        # The tracer covers the whole stream (no warmup cut), so
        # reconcile against the system's full stats instead.
        assert table.mean_us("read") == \
            pytest.approx(system.read_latency.mean_us,
                          rel=1e-9)
        assert result.n_requests == \
            table.n_requests("read") + table.n_requests("write")

    def test_queue_spans_pool_under_queue_wait(self):
        tracer = RingBufferTracer()
        tracer.begin_request("read", 1, 1)
        tracer.span("queue", 5e-6)
        tracer.span("ssd_read", 10e-6)
        tracer.end_request(15e-6)
        table = profile_trace(tracer.events)
        rows = {(r.device, r.phase) for r in table.rows("read")}
        assert ("queue", "wait") in rows
        assert ("ssd", "read") in rows


class TestFoldedStacks:
    def make_tracer(self):
        tracer = RingBufferTracer()
        tracer.begin_request("read", 1, 1)
        tracer.span("ssd_read", 10e-6)
        tracer.span("delta_decode", 4e-6)
        tracer.end_request(16e-6)  # 2us uninstrumented residual
        tracer.begin_background("flush")
        tracer.span("hdd_log_append", 30e-6)
        tracer.end_background(extra_s=5e-6)
        return tracer

    def test_request_stacks_and_residual(self):
        stacks = fold_stacks(self.make_tracer().events)
        assert stacks["read;ssd;read"] == pytest.approx(10e-6)
        assert stacks["read;cpu;delta_decode"] == pytest.approx(4e-6)
        assert stacks["read;host;other"] == pytest.approx(2e-6)

    def test_background_nesting_preserved_with_self_time(self):
        stacks = fold_stacks(self.make_tracer().events)
        assert stacks["background;flush;hdd;log_append"] == \
            pytest.approx(30e-6)
        # The enclosing flush span keeps only its self time (extra_s).
        assert stacks["background;flush"] == pytest.approx(5e-6)

    def test_fold_conserves_total_time(self):
        tracer = self.make_tracer()
        stacks = fold_stacks(tracer.events)
        spans = sum(e.dur for e in tracer.events
                    if e.name != "request_start" and e.dur > 0.0)
        residual = 2e-6  # request latency not covered by child spans
        # The named flush section overlaps its children, so self-time
        # folding must count its extra_s exactly once.
        assert sum(stacks.values()) == pytest.approx(spans + residual
                                                     - 30e-6)

    def test_export_folded_format(self, tmp_path):
        path = tmp_path / "flame.folded"
        lines = export_folded(self.make_tracer().events, str(path))
        text = path.read_text()
        assert lines == len(text.strip().splitlines())
        for line in text.strip().splitlines():
            key, _, value = line.rpartition(" ")
            assert key and int(value) >= 1

    def test_submicrosecond_stacks_dropped(self):
        tracer = RingBufferTracer()
        tracer.begin_request("read", 1, 1)
        tracer.span("ssd_read", 4e-7)
        tracer.end_request(4e-7)
        handle = io.StringIO()
        assert export_folded(tracer.events, handle) == 0


class TestBenchHarness:
    def small_document(self, seed=2011):
        case = RunSpec(workload="sysbench", seed=seed, n_requests=300,
                       scale=0.05, profile=True)
        return {
            "schema_version": bench.BENCH_SCHEMA_VERSION,
            "suite": "quick",
            "cases": [bench.case_record(case, run_spec(case))],
        }

    def test_case_record_shape(self):
        document = self.small_document()
        (record,) = document["cases"]
        assert set(bench.METRIC_POLICY) <= set(record["metrics"])
        assert record["noise"]["read"]["n"] > 0
        assert record["attribution"], "attribution rows missing"
        json.dumps(document)  # JSON-serialisable end to end

    def test_self_compare_reports_zero_regressions(self):
        document = self.small_document()
        deltas = bench.compare(document, document)
        assert deltas
        assert bench.regressions(deltas) == []
        assert "0 regression(s)" in bench.render_compare(deltas)

    def test_determinism_across_runs(self):
        first = self.small_document()
        second = self.small_document()
        assert first["cases"][0]["metrics"] == \
            second["cases"][0]["metrics"]

    def test_compare_flags_out_of_tolerance_regression(self):
        document = self.small_document()
        worse = json.loads(json.dumps(document))
        worse["cases"][0]["metrics"]["read_mean_us"] *= 2.0
        worse["cases"][0]["metrics"]["transactions_per_s"] *= 0.5
        deltas = bench.compare(document, worse)
        bad = {d.metric for d in bench.regressions(deltas)}
        assert bad == {"read_mean_us", "transactions_per_s"}
        assert "REGRESSION" in bench.render_compare(deltas)
        # The reverse direction is an improvement, not a regression.
        assert bench.regressions(bench.compare(worse, document)) == []

    def test_tolerance_uses_baseline_noise(self):
        sem = bench.noise_sem({"std_us": 100.0, "n": 4})
        assert sem == pytest.approx(50.0)
        assert bench.noise_sem({}) is None
        assert bench.noise_sem(None) is None
        rel_only = bench.tolerance("read_mean_us", 10.0)
        with_noise = bench.tolerance("read_mean_us", 10.0, sem)
        assert rel_only == pytest.approx(0.5)
        assert with_noise == pytest.approx(bench.NOISE_Z * 50.0)
        # Outside METRIC_POLICY the default relative tolerance applies.
        assert bench.tolerance("counters.reads", -200.0) \
            == pytest.approx(bench.DEFAULT_REL_TOL * 200.0)

    def test_write_and_load_bench_naming(self, tmp_path):
        document = {"schema_version": bench.BENCH_SCHEMA_VERSION,
                    "suite": "quick", "cases": []}
        first = bench.write_bench(document, str(tmp_path))
        second = bench.write_bench(document, str(tmp_path))
        assert first.endswith("BENCH_1.json")
        assert second.endswith("BENCH_2.json")
        assert bench.load_bench(first)["suite"] == "quick"

    def test_load_bench_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "BENCH_1.json"
        path.write_text(json.dumps({"schema_version": 999,
                                    "cases": []}))
        with pytest.raises(ValueError, match="schema"):
            bench.load_bench(str(path))

    def test_unmatched_cases_skipped(self):
        document = self.small_document()
        other = {"schema_version": bench.BENCH_SCHEMA_VERSION,
                 "suite": "quick", "cases": []}
        assert bench.compare(document, other) == []


class TestCLI:
    def test_critpath_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        folded = tmp_path / "flame.folded"
        code = main(["critpath", "--workload", "sysbench",
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

    def test_critpath_legacy_engine(self, capsys):
        from repro.cli import main

        code = main(["critpath", "--workload", "sysbench",
                     "--requests", "300", "--engine", "legacy"])
        assert code == 0
        assert "legacy engine" in capsys.readouterr().out

    def test_critpath_flags_rows_no_latency_contains(self, monkeypatch,
                                                     capsys):
        # A system that leaks off-critical-path work into its requests'
        # phases over-covers them: the rows no longer add up to the run
        # mean, and the consistency check has to say so.
        from repro.cli import main

        record_request = Profiler.record_request

        def over_cover(self, op, items, latency_s):
            record_request(self, op,
                           [*items, ("hdd", "write", 1e-3)], latency_s)

        monkeypatch.setattr(Profiler, "record_request", over_cover)
        code = main(["critpath", "--workload", "sysbench",
                     "--requests", "300", "--engine", "event"])
        out = capsys.readouterr().out
        assert code == 1
        assert out.count("[MISMATCH]") == 2 and "[ok]" not in out

    def test_critpath_json_output(self, capsys):
        import json

        from repro.cli import main

        code = main(["critpath", "--workload", "sysbench",
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

    def test_bench_subcommand_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["bench", "--quick", "--out-dir", str(tmp_path)])
        assert code == 0
        produced = tmp_path / "BENCH_1.json"
        assert produced.exists()
        # --against skips re-running: a self-compare must be clean.
        code = main(["bench", "--compare", str(produced),
                     "--against", str(produced)])
        assert code == 0
        out = capsys.readouterr().out
        assert "0 regression(s)" in out

    def test_bench_compare_exits_nonzero_on_regression(self, tmp_path,
                                                       capsys):
        from repro.cli import main

        code = main(["bench", "--quick", "--out-dir", str(tmp_path)])
        assert code == 0
        baseline_path = tmp_path / "BENCH_1.json"
        worse = json.loads(baseline_path.read_text())
        for record in worse["cases"]:
            record["metrics"]["read_mean_us"] *= 3.0
        worse_path = tmp_path / "WORSE.json"
        worse_path.write_text(json.dumps(worse))
        # --out-dir: the gate writes one EXPLAIN_* report per regressed
        # case, and the default directory is the working one.
        code = main(["bench", "--compare", str(baseline_path),
                     "--against", str(worse_path),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_bench_against_requires_compare(self, capsys):
        from repro.cli import main

        assert main(["bench", "--against", "X.json"]) == 2

    @pytest.mark.parametrize("content, flag, message", [
        (None, "--compare", "No such file"),
        ('{"schema_version": 3, "cas', "--compare", "not JSON"),
        ('{"schema_version": 2, "cases": []}', "--compare",
         "bench schema 2 unsupported"),
        ('{"schema_version": 3}', "--compare", "no 'cases' list"),
        ('[]', "--against", "bench schema None unsupported"),
    ], ids=["missing", "truncated", "wrong-schema", "case-less",
            "not-a-document"])
    def test_bad_bench_file_fails_before_the_suite(
            self, tmp_path, capsys, monkeypatch, content, flag, message):
        from repro.cli import main

        def no_suite(**kwargs):
            raise AssertionError("the suite ran before the inputs loaded")

        monkeypatch.setattr(bench, "run_suite", no_suite)
        bad = tmp_path / "bad.json"
        if content is not None:
            bad.write_text(content)
        good = tmp_path / "BENCH_1.json"
        good.write_text(json.dumps(
            {"schema_version": bench.BENCH_SCHEMA_VERSION, "cases": []}))
        argv = ["bench", "--quick", "--out-dir", str(tmp_path),
                "--compare", str(bad)]
        if flag == "--against":
            argv[-1] = str(good)
            argv += ["--against", str(bad)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"{bad}: ")
        assert message in captured.err
        assert captured.err.count("\n") == 1
        assert sorted(os.listdir(tmp_path)) \
            == sorted(["BENCH_1.json"] + (["bad.json"] if content else []))


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

    def test_variance_survives_merge(self):
        from repro.sim.stats import LatencyStats

        left, right, pooled = (LatencyStats() for _ in range(3))
        for value in (1.0, 2.0, 3.0):
            left.record(value)
            pooled.record(value)
        for value in (10.0, 20.0):
            right.record(value)
            pooled.record(value)
        left.merge(right)
        assert left.variance == pytest.approx(pooled.variance)

    def test_identical_samples_never_negative(self):
        from repro.sim.stats import LatencyStats

        stats = LatencyStats()
        for _ in range(100):
            stats.record(0.123456789)
        assert stats.variance >= 0.0


class TestDocumentationParity:
    def test_bench_metric_table_matches_policy(self):
        import re
        from pathlib import Path

        docs = (Path(__file__).resolve().parents[1]
                / "docs" / "OBSERVABILITY.md")
        text = docs.read_text(encoding="utf-8")
        documented = {
            name: direction
            for name, direction in re.findall(
                r"^\| `(\w+)` \| (higher|lower) \|", text, re.MULTILINE)}
        policy = {name: direction
                  for name, (direction, _, _) in
                  bench.METRIC_POLICY.items()}
        assert documented == policy, (
            f"docs/OBSERVABILITY.md drifted from METRIC_POLICY: "
            f"undocumented={sorted(set(policy) - set(documented))}, "
            f"stale={sorted(set(documented) - set(policy))}")

    def test_bench_tolerances_documented(self):
        import re
        from pathlib import Path

        docs = (Path(__file__).resolve().parents[1]
                / "docs" / "OBSERVABILITY.md")
        text = docs.read_text(encoding="utf-8")
        rows = dict(re.findall(
            r"^\| `(\w+)` \| (?:higher|lower) \| ([0-9.]+) \|",
            text, re.MULTILINE))
        for name, (_, rel_tol, _) in bench.METRIC_POLICY.items():
            assert float(rows[name]) == rel_tol, (
                f"documented rel_tol for {name} drifted")
