"""Tests for the per-request tracing layer (`repro.sim.trace`).

Covers the ring buffer, timeline ordering, both exporters' wire forms,
the controller integration (a delta-mapped read emits the paper's
SSD-read + delta-decode pair), the exactness invariant (a request's
child spans sum to its latency, so the ring and the profiler's table
reproduce the run's means), and the schema/documentation parity check.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import ICASHConfig, ICASHController
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim.profile import Profiler
from repro.sim.request import BLOCK_SIZE, IORequest, OpType
from repro.sim.trace import (_CHROME_TIDS, EVENT_TYPES, TRACK_BACKGROUND,
                             TRACK_REQUEST, TRACK_RUN, Recorder,
                             RingBufferTracer, export_chrome_trace,
                             export_jsonl)
from repro.workloads import SysBenchWorkload, TPCCWorkload

from conftest import make_dataset

DOCS = Path(__file__).resolve().parents[1] / "docs" / "OBSERVABILITY.md"


def small_config(**overrides) -> ICASHConfig:
    defaults = dict(
        ssd_capacity_blocks=64,
        data_ram_bytes=32 * BLOCK_SIZE,
        delta_ram_bytes=64 * 1024,
        max_virtual_blocks=512,
        log_blocks=512,
        scan_interval=100,
        scan_window=256,
        flush_interval=128,
    )
    defaults.update(overrides)
    return ICASHConfig(**defaults)


def family_dataset(n_blocks: int = 256, n_families: int = 8,
                   seed: int = 3) -> np.ndarray:
    gen = np.random.default_rng(seed)
    bases = gen.integers(0, 256, (n_families, BLOCK_SIZE), dtype=np.uint8)
    dataset = bases[gen.integers(0, n_families, n_blocks)].copy()
    for lba in range(n_blocks):
        idx = gen.integers(0, BLOCK_SIZE, 16)
        dataset[lba, idx] = gen.integers(0, 256, 16)
    return dataset


def jsonl_lines(path) -> list:
    """Every line of an exported JSONL trace, parsed."""
    return [json.loads(line)
            for line in Path(path).read_text().splitlines()]


def chrome_events(path) -> list:
    """The span and instant records of an exported Chrome trace."""
    payload = json.loads(Path(path).read_text())
    return [r for r in payload["traceEvents"] if r["ph"] in ("X", "i")]


def fold_taken(recorder: Recorder, tracer: RingBufferTracer,
               latency_s: float = 0.0) -> None:
    """Lay what ``recorder`` kept since its last take on ``tracer``,
    closing the request (if one began) at ``latency_s``."""
    tracer.fold(recorder.take_request()[1], latency_s)


def traced_controller(controller):
    """``controller`` recording into a fresh recorder, and a ring."""
    recorder = Recorder(keep=True)
    controller.set_tracer(recorder)
    return recorder, RingBufferTracer()


def traced_benchmark(n_requests: int = 600):
    """One small SysBench run on I-CASH under a recording tracer."""
    workload = SysBenchWorkload(n_requests=n_requests)
    system = make_system("icash", workload)
    tracer = RingBufferTracer()
    result = run_benchmark(workload, system, tracer=tracer)
    return tracer, system, result


def profiled_trace(workload, system_name: str = "icash"):
    """A run under a ring and a profiler, with no warm-up cut: the
    table and the run's means cover every request the ring holds."""
    system = make_system(system_name, workload)
    tracer, profiler = RingBufferTracer(), Profiler()
    result = run_benchmark(workload, system, tracer=tracer,
                           profiler=profiler, warmup_fraction=0.0)
    return tracer, profiler.table, system, result


def ring_latencies(events, op: str) -> list:
    """The ``request_start`` durations of the ring's ``op`` requests."""
    return [e.dur for e in events
            if e.name == "request_start" and e.outcome == op]


class TestNullTracer:
    """No tracer is ``None``: nothing to emit into, nothing emitted."""

    def test_default_emits_nothing(self):
        controller = ICASHController(make_dataset(64), small_config())
        assert controller.tracer is None
        assert all(device.tracer is None for device in controller.devices())
        controller.write(3, [np.full(BLOCK_SIZE, 0xAB, dtype=np.uint8)])
        controller.read(3)

    def test_set_tracer_none_detaches_mid_run(self):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        recorder = Recorder(keep=True)
        controller.set_tracer(recorder)
        controller.process_read(IORequest(op=OpType.READ, lba=5))
        assert recorder.take_request()[1]
        controller.set_tracer(None)
        assert controller.tracer is None
        assert all(device.tracer is None for device in controller.devices())
        # Far enough to cross scan and flush intervals: the background
        # helper runs untraced too.
        block = np.full(BLOCK_SIZE, 0x5A, dtype=np.uint8)
        for lba in range(200):
            controller.process_write(
                IORequest(op=OpType.WRITE, lba=lba, payload=[block]))
        assert controller.background_time > 0.0
        assert recorder.take_request()[1] == []


class TestRingBuffer:
    def test_eviction_keeps_newest_and_counts_dropped(self):
        recorder = Recorder(keep=True)
        tracer = RingBufferTracer(capacity_events=4)
        for i in range(10):
            recorder.span("ssd_read", 1e-6, lba=i)
        fold_taken(recorder, tracer)
        assert len(tracer.events) == 4
        assert tracer.dropped == 6
        assert [e.lba for e in tracer.events] == [6, 7, 8, 9]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferTracer(capacity_events=0)

    def test_unbounded_keeps_everything(self):
        recorder = Recorder(keep=True)
        tracer = RingBufferTracer(capacity_events=None)
        for _i in range(1000):
            recorder.span("ssd_read", 1e-6)
        fold_taken(recorder, tracer)
        assert len(tracer.events) == 1000
        assert tracer.dropped == 0

    def test_unknown_event_names_rejected(self):
        recorder = Recorder(keep=True)
        for emit in (lambda: recorder.span("made_up_event", 1e-6),
                     lambda: recorder.mark("made_up_event", 1e-6),
                     lambda: (recorder.push_name_scope("made_up_event"),
                              recorder.device_span("hdd", "write", 1e-6),
                              recorder.pop_name_scope())):
            emit()
            with pytest.raises(ValueError):
                fold_taken(recorder, RingBufferTracer())

    def test_request_nesting_guarded(self):
        recorder = Recorder()
        recorder.begin_request("read", 0, 1)
        with pytest.raises(RuntimeError):
            recorder.begin_request("read", 1, 1)
        recorder.take_request()           # a take closes the request
        recorder.begin_request("read", 1, 1)
        with pytest.raises(RuntimeError):
            recorder.end_background()


class TestTimeline:
    def test_timeline_starts_at_zero(self):
        recorder, tracer = Recorder(keep=True), RingBufferTracer()
        recorder.begin_request("read", 0, 1)
        recorder.span("ssd_read", 1.5)
        fold_taken(recorder, tracer, 1.5)
        assert [(e.name, e.ts) for e in tracer.events] == \
            [("ssd_read", 0.0), ("request_start", 0.0)]

    def test_spans_advance_the_cursor(self):
        # Spans lay end to end; a request's uncovered latency still
        # moves the cursor, so the next request starts after it ends.
        recorder, tracer = Recorder(keep=True), RingBufferTracer()
        recorder.begin_request("read", 0, 1)
        recorder.span("ssd_read", 1.5)
        recorder.span("delta_decode", 0.5)
        fold_taken(recorder, tracer, 3.0)
        recorder.begin_request("write", 1, 1)
        recorder.span("ssd_write", 1.0)
        fold_taken(recorder, tracer, 1.0)
        assert [(e.name, e.ts) for e in tracer.events] == [
            ("ssd_read", 0.0), ("delta_decode", 1.5),
            ("request_start", 0.0), ("ssd_write", 3.0),
            ("request_start", 3.0)]

    def test_request_spans_tile_monotonically(self):
        tracer, _, _ = traced_benchmark()
        requests = [e for e in tracer.events
                    if e.name == "request_start"]
        assert len(requests) > 100
        requests.sort(key=lambda e: e.ts)
        for prev, nxt in zip(requests, requests[1:]):
            # Monotonic, non-overlapping: each request starts at or
            # after the previous one ended on the busy-time timeline.
            assert nxt.ts >= prev.ts + prev.dur - 1e-12

    def test_children_stay_inside_their_request(self):
        tracer, _, _ = traced_benchmark()
        bounds = {e.req: (e.ts, e.ts + e.dur) for e in tracer.events
                  if e.name == "request_start"}
        for event in tracer.events:
            if event.track != TRACK_REQUEST \
                    or event.name == "request_start":
                continue
            start, end = bounds[event.req]
            assert event.ts >= start - 1e-12
            assert event.ts + event.dur <= end + 1e-12

    def test_background_track_stays_off_request_timeline(self):
        tracer, _, _ = traced_benchmark()
        bg = [e for e in tracer.events if e.track == TRACK_BACKGROUND]
        assert bg, "an I-CASH run flushes and scans in the background"
        names = {e.name for e in bg}
        assert names & {"flush", "scan"}


class TestExactness:
    """Every second of request latency is covered by a child span."""

    def test_child_spans_sum_to_request_latency(self):
        tracer, _, _ = traced_benchmark()
        totals: dict = {}
        for event in tracer.events:
            if event.track != TRACK_REQUEST \
                    or event.name == "request_start":
                continue
            totals[event.req] = totals.get(event.req, 0.0) + event.dur
        checked = 0
        for event in tracer.events:
            if event.name != "request_start":
                continue
            covered = totals.get(event.req, 0.0)
            assert covered == pytest.approx(event.dur, rel=1e-9, abs=1e-12)
            checked += 1
        assert checked > 100

    def test_breakdown_means_match_stats(self):
        # The ring, the profiler's table and the run's measurement
        # count the same requests and agree on their mean; the table's
        # rows partition it, with no uninstrumented residual on I-CASH.
        tracer, table, _, result = profiled_trace(
            SysBenchWorkload(n_requests=600))
        assert tracer.dropped == 0
        for op, run_mean_us in (("read", result.read_mean_us),
                                ("write", result.write_mean_us)):
            latencies = ring_latencies(tracer.events, op)
            assert len(latencies) == table.n_requests(op) > 0
            assert sum(latencies) / len(latencies) * 1e6 == \
                pytest.approx(run_mean_us, rel=1e-9)
            assert table.mean_us(op) == pytest.approx(run_mean_us,
                                                      rel=1e-9)
            rows = table.rows(op)
            assert sum(row.total_s for row in rows) == \
                pytest.approx(table.total_s(op), rel=1e-9)
            assert ("host", "other") not in \
                {(row.device, row.phase) for row in rows}
            assert f"{op} critical path" in table.render()


class TestCacheBaselineDestages:
    """The write-back caches destage off the critical path, on the trace
    as on the legacy clock: the attribution still partitions."""

    @pytest.mark.parametrize("system_name", ["lru", "dedup"])
    def test_breakdown_partitions_and_destages_are_background(
            self, system_name):
        tracer, table, system, _ = profiled_trace(
            TPCCWorkload(scale=0.1, n_requests=1000), system_name)
        destages = system.destages
        assert destages > 0 and tracer.dropped == 0
        for op in ("read", "write"):
            assert table.n_requests(op) == \
                len(ring_latencies(tracer.events, op)) > 0
            # A destage leaking into a request would over-cover it.
            assert sum(row.total_s for row in table.rows(op)) == \
                pytest.approx(table.total_s(op), rel=1e-9)
        # The only HDD writes outside the final flush are the destages.
        tracks = [e.track for e in tracer.events
                  if e.name == "hdd_write" and e.track != TRACK_RUN]
        assert tracks == [TRACK_BACKGROUND] * destages


class TestControllerIntegration:
    def test_delta_mapped_read_emits_ssd_read_and_decode(self):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        snapshot = controller.delta_map_snapshot()
        assert snapshot, "family dataset must produce delta mappings"
        lba = min(lba for lba, (ref, _slot) in snapshot.items()
                  if ref != lba)
        recorder, tracer = traced_controller(controller)
        latency, (content,) = controller.process_read(
            IORequest(op=OpType.READ, lba=lba))
        fold_taken(recorder, tracer, latency)
        assert np.array_equal(content, controller.backing.get(lba))
        names = [e.name for e in tracer.events]
        assert "request_start" in names
        assert "ssd_read" in names
        assert "delta_decode" in names
        lookups = [e for e in tracer.events if e.name == "cache_lookup"]
        assert lookups and lookups[0].lba == lba
        children = sum(e.dur for e in tracer.events
                       if e.track == TRACK_REQUEST
                       and e.name != "request_start")
        assert children == pytest.approx(latency, rel=1e-9)

    def test_log_resident_delta_read_emits_hdd_log_read(self):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        snapshot = controller.delta_map_snapshot()
        lba, slot = next((lba, slot) for lba, (ref, slot)
                         in snapshot.items()
                         if slot is not None and ref != lba)
        # Force the delta out of RAM so the read must fetch the packed
        # delta block from the HDD log (the evicted-associate path).
        vb = controller.cache.get(lba, touch=False)
        if vb is not None and vb.has_delta:
            controller.cache.drop_delta(vb)
        recorder, tracer = traced_controller(controller)
        latency, (content,) = controller.process_read(
            IORequest(op=OpType.READ, lba=lba))
        fold_taken(recorder, tracer, latency)
        assert np.array_equal(content, controller.backing.get(lba))
        names = {e.name for e in tracer.events}
        assert "hdd_log_read" in names
        assert "ssd_read" in names
        assert "delta_decode" in names

    def test_flush_appends_are_relabelled(self):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        recorder, tracer = traced_controller(controller)
        rng = np.random.default_rng(11)
        snapshot = controller.delta_map_snapshot()
        lba = next(lba for lba, (ref, _s) in snapshot.items()
                   if ref != lba)
        base = controller.backing.get(lba).copy()
        base[:8] = rng.integers(0, 256, 8, dtype=np.uint8)
        controller.write(lba, [base])
        controller.flush()
        fold_taken(recorder, tracer)
        names = {e.name for e in tracer.events}
        assert "hdd_log_append" in names
        assert "hdd_write" not in \
            {e.name for e in tracer.events
             if e.outcome == "deltas"}, \
            "log appends must not appear as plain data-region writes"


class TestExporters:
    def make_tracer(self):
        recorder, tracer = Recorder(keep=True), RingBufferTracer()
        recorder.begin_request("read", 7, 2)
        recorder.instant("cache_lookup", lba=7, outcome="associate")
        recorder.span("ssd_read", 150e-6, lba=7, nbytes=4096,
                      outcome="pipelined")
        recorder.span("delta_decode", 10e-6)
        fold_taken(recorder, tracer, 160e-6)
        recorder.begin_background("flush", outcome="deltas")
        recorder.span("hdd_log_append", 2e-3, lba=0, nbytes=8192)
        recorder.end_background()
        fold_taken(recorder, tracer)
        return tracer

    def test_jsonl_round_trip(self, tmp_path):
        tracer = self.make_tracer()
        events = list(tracer.events)
        path = str(tmp_path / "trace.jsonl")
        written = export_jsonl(tracer, path)
        assert written == len(events)
        _header, *loaded = jsonl_lines(path)
        assert len(loaded) == len(events)
        for event, data in zip(events, loaded):
            assert data["name"] == event.name
            assert data["ts_us"] == pytest.approx(event.ts * 1e6,
                                                  abs=1e-6)
            assert data["dur_us"] == pytest.approx(event.dur * 1e6,
                                                   abs=1e-6)
            assert data["track"] == event.track
            assert data.get("req") == event.req
            assert data.get("lba") == event.lba
            assert data.get("bytes") == event.nbytes
            assert data.get("outcome") == event.outcome

    def test_chrome_round_trip(self, tmp_path):
        tracer = self.make_tracer()
        events = list(tracer.events)
        path = str(tmp_path / "trace.json")
        written = export_chrome_trace(tracer, path)
        assert written == len(events)
        loaded = chrome_events(path)
        assert len(loaded) == len(events)
        for event, record in zip(events, loaded):
            assert record["name"] == event.name
            assert record["ts"] == pytest.approx(event.ts * 1e6, abs=1e-6)
            assert record.get("dur", 0.0) == pytest.approx(
                event.dur * 1e6, abs=1e-6)
            assert record["ph"] == ("i" if event.is_instant else "X")
            assert record["tid"] == _CHROME_TIDS[event.track]
            args = record["args"]
            assert args.get("req") == event.req
            assert args.get("lba") == event.lba
            assert args.get("bytes") == event.nbytes
            assert args.get("outcome") == event.outcome

    def test_chrome_format_shape(self, tmp_path):
        path = tmp_path / "trace.json"
        export_chrome_trace(self.make_tracer(), str(path))
        payload = json.loads(path.read_text())
        records = payload["traceEvents"]
        phases = {r["ph"] for r in records}
        assert phases == {"M", "X", "i"}
        thread_names = {r["args"]["name"] for r in records
                        if r.get("name") == "thread_name"}
        assert "requests" in thread_names
        spans = [r for r in records if r["ph"] == "X"]
        assert all(r["dur"] > 0 for r in spans)
        assert all(isinstance(r["ts"], float) for r in spans)


class TestDocumentationParity:
    def test_every_event_type_documented(self):
        text = DOCS.read_text(encoding="utf-8")
        documented = set(re.findall(r"^### `(\w+)`", text, re.MULTILINE))
        assert documented == EVENT_TYPES, (
            f"docs/OBSERVABILITY.md drifted from EVENT_TYPES: "
            f"undocumented={sorted(EVENT_TYPES - documented)}, "
            f"stale={sorted(documented - EVENT_TYPES)}")


class TestCLI:
    def test_trace_subcommand_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        code = main(["run", "sysbench",
                     "--requests", "400", "--trace", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "consistency:" in printed
        assert "read critical path" in printed
        assert out.stat().st_size > 0
        events = chrome_events(out)
        assert any(e["name"] == "request_start" for e in events)

    def test_trace_subcommand_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["run", "sysbench",
                     "--requests", "300", "--trace", str(out)])
        assert code == 0
        events = jsonl_lines(out)
        assert any(e.get("name") == "request_start" for e in events)

    def test_trace_mismatch_exits_nonzero(self, tmp_path, monkeypatch,
                                          capsys):
        # A complete trace whose read spans disagree with the run's
        # measurement fails the consistency check, and says so.
        from repro.cli import main

        fold = RingBufferTracer.fold

        def skewed(self, emitted, latency_s=0.0, wait_s=0.0):
            fold(self, emitted, latency_s * 1.001, wait_s)

        monkeypatch.setattr(RingBufferTracer, "fold", skewed)
        code = main(["run", "sysbench", "--requests",
                     "300", "--trace", str(tmp_path / "trace.json")])
        captured = capsys.readouterr()
        assert code == 1
        assert "consistency:" in captured.out
        assert "disagrees" in captured.err

    def test_trace_dropped_events_skip_the_judgement(self, tmp_path,
                                                     capsys):
        # An overflowed ring covers only the tail: its mean differs
        # from the run's, and the warning names the drop instead.
        from repro.cli import main

        code = main(["run", "specsfs", "--requests",
                     "600", "--buffer", "500",
                     "--trace", str(tmp_path / "trace.json")])
        captured = capsys.readouterr()
        assert code == 0
        assert "ring buffer overflowed" in captured.err
        assert "disagrees" not in captured.err


class TestPhaseBreakdownEdgeCases:
    """The per-phase breakdown ``repro trace`` prints is the profiler's
    attribution table; its edge cases, fed by a recorder the way a run
    feeds it."""

    @staticmethod
    def attribute(*requests):
        """Fold ``(op, emit, latency_s)`` requests into a table; ``emit``
        records the request's emissions once it has begun."""
        recorder, profiler = Recorder(keep=True), Profiler()
        for op, emit, latency_s in requests:
            recorder.begin_request(op, 0, 1)
            emit(recorder)
            profiler.fold(recorder.take_request()[1], latency_s)
        return profiler.table

    @staticmethod
    def rows(table, op="read"):
        return {(row.device, row.phase): row.total_s
                for row in table.rows(op)}

    def test_nested_children_all_count(self):
        # A codec phase inside a device visit: both contribute their
        # full duration (attribution sums durations, not wall
        # intervals), and nothing is left for the residual.
        def emit(recorder):
            recorder.device_span("ssd", "read", 80e-6)
            recorder.span("delta_decode", 20e-6)

        table = self.attribute(("read", emit, 100e-6))
        assert self.rows(table) == pytest.approx(
            {("ssd", "read"): 80e-6, ("cpu", "delta_decode"): 20e-6})

    def test_overlapping_children_never_negative_other(self):
        # Overlap can push covered time past the request latency (e.g.
        # parallel device phases); the residual row is left out instead
        # of going negative.
        def emit(recorder):
            recorder.device_span("ssd", "read", 40e-6)
            recorder.device_span("hdd", "read", 40e-6)

        table = self.attribute(("read", emit, 50e-6))
        assert ("host", "other") not in self.rows(table)
        assert table.total_s("read") == pytest.approx(50e-6)

    def test_instants_and_marks_excluded(self):
        def emit(recorder):
            recorder.instant("cache_lookup", lba=0, outcome="hit")
            recorder.mark("gc", 10e-6)
            recorder.device_span("ssd", "read", 30e-6)

        table = self.attribute(("read", emit, 30e-6))
        assert set(self.rows(table)) == {("ssd", "read")}

    def test_children_without_matching_request_ignored(self):
        # A write's phases stay in the write class.
        def read(recorder):
            recorder.device_span("ssd", "read", 10e-6)

        def write(recorder):
            recorder.device_span("hdd", "read", 99e-6)

        table = self.attribute(("read", read, 10e-6),
                               ("write", write, 99e-6))
        assert table.n_requests("read") == 1
        assert set(self.rows(table)) == {("ssd", "read")}

    def test_children_may_arrive_before_their_request_event(self):
        # Background work emitted before the request opened is taken
        # with it, off its critical path: the request still classes by
        # its own begin and the background spans count for nothing.
        recorder, profiler = Recorder(keep=True), Profiler()
        recorder.begin_background("flush")
        recorder.device_span("hdd", "write", 2e-3)
        recorder.end_background()
        recorder.begin_request("read", 0, 1)
        recorder.device_span("ssd", "read", 10e-6)
        profiler.fold(recorder.take_request()[1], 10e-6)
        assert self.rows(profiler.table) == \
            pytest.approx({("ssd", "read"): 10e-6})


class TestExporterCompleteness:
    """Satellite: exported traces carry their own drop accounting."""

    def overflowed_tracer(self):
        recorder = Recorder(keep=True)
        tracer = RingBufferTracer(capacity_events=4)
        for lba in range(6):
            recorder.begin_request("read", lba, 1)
            recorder.span("ssd_read", 10e-6)
            fold_taken(recorder, tracer, 10e-6)
        return tracer

    def test_jsonl_header_round_trip(self, tmp_path):
        tracer = self.overflowed_tracer()
        path = str(tmp_path / "trace.jsonl")
        export_jsonl(tracer, path)
        first, *events = jsonl_lines(path)
        assert first == {"trace_header": {"recorded": len(tracer.events),
                                          "dropped": tracer.dropped,
                                          "complete": False}}
        # The header is the one line without a name.
        assert len(events) == len(tracer.events)
        assert all("name" in event for event in events)

    def test_chrome_metadata_round_trip(self, tmp_path):
        tracer = self.overflowed_tracer()
        path = str(tmp_path / "trace.json")
        export_chrome_trace(tracer, path)
        payload = json.loads(Path(path).read_text())
        header = payload["metadata"]["trace_completeness"]
        assert header["dropped"] == tracer.dropped
        assert header["complete"] is False
        # Drop accounting also rides inside traceEvents as an "M"
        # record, surviving viewers that strip top-level keys.
        m_records = [r for r in payload["traceEvents"]
                     if r.get("name") == "trace_completeness"]
        assert len(m_records) == 1 and m_records[0]["ph"] == "M"
        assert m_records[0]["args"] == header
        assert len(chrome_events(path)) == len(tracer.events)

    def test_complete_trace_flagged_complete(self, tmp_path):
        recorder, tracer = Recorder(keep=True), RingBufferTracer()
        recorder.begin_request("read", 1, 1)
        recorder.span("ssd_read", 10e-6)
        fold_taken(recorder, tracer, 10e-6)
        path = str(tmp_path / "trace.json")
        export_chrome_trace(tracer, path)
        payload = json.loads(Path(path).read_text())
        assert payload["metadata"]["trace_completeness"]["complete"] \
            is True

    def test_cli_trace_exports_carry_header(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["run", "sysbench",
                     "--requests", "200", "--trace", str(out)])
        assert code == 0
        header = jsonl_lines(out)[0]["trace_header"]
        assert header["complete"] is True

