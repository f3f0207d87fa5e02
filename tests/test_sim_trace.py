"""Tests for the per-request tracing layer (`repro.sim.trace`).

Covers the ring buffer, timeline ordering, both exporters' round-trips,
the controller integration (a delta-mapped read emits the paper's
SSD-read + delta-decode pair), the exactness invariant (a request's
child spans sum to its latency, so breakdowns reproduce the stats
means), and the schema/documentation parity check.
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path

import numpy as np
import pytest

from repro.core import BlockKind, ICASHConfig, ICASHController
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim.request import BLOCK_SIZE, IORequest, OpType
from repro.sim.trace import (EVENT_TYPES, TRACK_BACKGROUND, TRACK_REQUEST,
                             TRACK_RUN, RingBufferTracer, TraceEvent,
                             export_chrome_trace, export_jsonl,
                             load_chrome_trace, phase_breakdown, read_jsonl)
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


def traced_benchmark(n_requests: int = 600):
    """One small SysBench run on I-CASH under a recording tracer."""
    workload = SysBenchWorkload(n_requests=n_requests)
    system = make_system("icash", workload)
    tracer = RingBufferTracer()
    result = run_benchmark(workload, system, tracer=tracer)
    return tracer, system, result


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
        tracer = RingBufferTracer()
        controller.set_tracer(tracer)
        controller.process_read(IORequest(op=OpType.READ, lba=5))
        recorded = len(tracer.events)
        assert recorded > 0
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
        assert len(tracer.events) == recorded


class TestRingBuffer:
    def test_eviction_keeps_newest_and_counts_dropped(self):
        tracer = RingBufferTracer(capacity_events=4)
        for i in range(10):
            tracer.span("ssd_read", 1e-6, lba=i)
        assert len(tracer.events) == 4
        assert tracer.dropped == 6
        assert [e.lba for e in tracer.events] == [6, 7, 8, 9]

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            RingBufferTracer(capacity_events=0)

    def test_unbounded_keeps_everything(self):
        tracer = RingBufferTracer(capacity_events=None)
        for _i in range(1000):
            tracer.span("ssd_read", 1e-6)
        assert len(tracer.events) == 1000
        assert tracer.dropped == 0

    def test_unknown_event_names_rejected(self):
        tracer = RingBufferTracer()
        with pytest.raises(ValueError):
            tracer.span("made_up_event", 1e-6)
        with pytest.raises(ValueError):
            tracer.mark("made_up_event", 1e-6)
        with pytest.raises(ValueError):
            tracer.push_name_scope("made_up_event")

    def test_request_nesting_guarded(self):
        tracer = RingBufferTracer()
        with pytest.raises(RuntimeError):
            tracer.end_request(1e-6)
        tracer.begin_request("read", 0, 1)
        with pytest.raises(RuntimeError):
            tracer.begin_request("read", 1, 1)
        tracer.end_request(1e-6)
        with pytest.raises(RuntimeError):
            tracer.end_background()


class TestTimeline:
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
        tracer, system, _ = traced_benchmark()
        assert tracer.dropped == 0
        for op in ("read", "write"):
            breakdown = phase_breakdown(tracer.events, op=op)
            stats = getattr(system, f"{op}_latency")
            assert breakdown.n_requests == stats.count
            assert breakdown.mean_us == pytest.approx(stats.mean_us,
                                                      rel=1e-9)
            phase_sum = sum(breakdown.phases.values()) + breakdown.other_s
            assert phase_sum == pytest.approx(breakdown.total_s, rel=1e-9)
            assert breakdown.other_s == pytest.approx(0.0, abs=1e-12)
            assert op in breakdown.render()


class TestCacheBaselineDestages:
    """The write-back caches destage off the critical path, on the trace
    as on the legacy clock: the request breakdown still partitions."""

    @pytest.mark.parametrize("system_name", ["lru", "dedup"])
    def test_breakdown_partitions_and_destages_are_background(
            self, system_name):
        workload = TPCCWorkload(scale=0.1, n_requests=1000)
        system = make_system(system_name, workload)
        tracer = RingBufferTracer()
        run_benchmark(workload, system, tracer=tracer)
        destages = system.destages
        assert destages > 0 and tracer.dropped == 0
        for op in ("read", "write"):
            breakdown = phase_breakdown(tracer.events, op=op)
            assert breakdown.n_requests > 0
            phase_sum = sum(breakdown.phases.values()) + breakdown.other_s
            assert phase_sum == pytest.approx(breakdown.total_s, rel=1e-9)
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
        tracer = RingBufferTracer()
        controller.set_tracer(tracer)
        latency, (content,) = controller.process_read(
            IORequest(op=OpType.READ, lba=lba))
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
        tracer = RingBufferTracer()
        controller.set_tracer(tracer)
        latency, (content,) = controller.process_read(
            IORequest(op=OpType.READ, lba=lba))
        assert np.array_equal(content, controller.backing.get(lba))
        names = {e.name for e in tracer.events}
        assert "hdd_log_read" in names
        assert "ssd_read" in names
        assert "delta_decode" in names

    def test_flush_appends_are_relabelled(self):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        tracer = RingBufferTracer()
        controller.set_tracer(tracer)
        rng = np.random.default_rng(11)
        snapshot = controller.delta_map_snapshot()
        lba = next(lba for lba, (ref, _s) in snapshot.items()
                   if ref != lba)
        base = controller.backing.get(lba).copy()
        base[:8] = rng.integers(0, 256, 8, dtype=np.uint8)
        controller.write(lba, [base])
        controller.flush()
        names = {e.name for e in tracer.events}
        assert "hdd_log_append" in names
        assert "hdd_write" not in \
            {e.name for e in tracer.events
             if e.outcome == "deltas"}, \
            "log appends must not appear as plain data-region writes"


class TestExporters:
    def make_events(self):
        tracer = RingBufferTracer()
        tracer.begin_request("read", 7, 2)
        tracer.instant("cache_lookup", lba=7, outcome="associate")
        tracer.span("ssd_read", 150e-6, lba=7, nbytes=4096,
                    outcome="pipelined")
        tracer.span("delta_decode", 10e-6)
        tracer.end_request(160e-6)
        tracer.begin_background("flush", outcome="deltas")
        tracer.span("hdd_log_append", 2e-3, lba=0, nbytes=8192)
        tracer.end_background()
        return list(tracer.events)

    @staticmethod
    def assert_same(a: TraceEvent, b: TraceEvent) -> None:
        assert a.name == b.name
        assert a.ts == pytest.approx(b.ts, abs=1e-12)
        assert a.dur == pytest.approx(b.dur, abs=1e-12)
        assert a.track == b.track
        assert a.req == b.req
        assert a.lba == b.lba
        assert a.nbytes == b.nbytes
        assert a.outcome == b.outcome

    def test_jsonl_round_trip(self, tmp_path):
        events = self.make_events()
        path = str(tmp_path / "trace.jsonl")
        written = export_jsonl(events, path)
        assert written == len(events)
        loaded = read_jsonl(path)
        assert len(loaded) == len(events)
        for a, b in zip(events, loaded):
            self.assert_same(a, b)

    def test_chrome_round_trip(self, tmp_path):
        events = self.make_events()
        path = str(tmp_path / "trace.json")
        written = export_chrome_trace(events, path)
        assert written == len(events)
        loaded = load_chrome_trace(path)
        assert len(loaded) == len(events)
        for a, b in zip(events, loaded):
            self.assert_same(a, b)

    def test_chrome_format_shape(self):
        import json

        buffer = io.StringIO()
        export_chrome_trace(self.make_events(), buffer)
        payload = json.loads(buffer.getvalue())
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
        code = main(["trace", "--workload", "sysbench",
                     "--requests", "400", "--out", str(out)])
        assert code == 0
        printed = capsys.readouterr().out
        assert "consistency:" in printed
        assert "read phase breakdown" in printed
        assert out.stat().st_size > 0
        events = load_chrome_trace(str(out))
        assert any(e.name == "request_start" for e in events)

    def test_trace_subcommand_jsonl(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.jsonl"
        code = main(["trace", "--workload", "sysbench",
                     "--requests", "300", "--out", str(out)])
        assert code == 0
        events = read_jsonl(str(out))
        assert any(e.name == "request_start" for e in events)


class TestPhaseBreakdownEdgeCases:
    """Satellite of the profiler PR: the attribution math depends on
    phase_breakdown being exact under nesting and overlap."""

    @staticmethod
    def request(req, op, ts, dur):
        return TraceEvent("request_start", ts, dur, TRACK_REQUEST,
                          req=req, outcome=op)

    @staticmethod
    def child(req, name, ts, dur):
        return TraceEvent(name, ts, dur, TRACK_REQUEST, req=req)

    def test_nested_children_all_count(self):
        # Two phases laid inside the request interval, one strictly
        # inside the other's timestamps: both contribute their full
        # duration (breakdowns sum durations, not wall intervals).
        events = [
            self.request(1, "read", 0.0, 100e-6),
            self.child(1, "ssd_read", 0.0, 80e-6),
            self.child(1, "delta_decode", 10e-6, 20e-6),
        ]
        breakdown = phase_breakdown(events, op="read")
        assert breakdown.phases["ssd_read"] == pytest.approx(80e-6)
        assert breakdown.phases["delta_decode"] == pytest.approx(20e-6)
        assert breakdown.other_s == pytest.approx(0.0)

    def test_overlapping_children_never_negative_other(self):
        # Overlap can push covered time past the request latency (e.g.
        # parallel device phases); `other` clamps at zero instead of
        # going negative.
        events = [
            self.request(1, "read", 0.0, 50e-6),
            self.child(1, "ssd_read", 0.0, 40e-6),
            self.child(1, "hdd_read", 0.0, 40e-6),
        ]
        breakdown = phase_breakdown(events, op="read")
        assert breakdown.other_s == 0.0
        assert breakdown.total_s == pytest.approx(50e-6)

    def test_instants_and_marks_excluded(self):
        events = [
            self.request(1, "read", 0.0, 30e-6),
            TraceEvent("cache_lookup", 0.0, 0.0, TRACK_REQUEST, req=1),
            TraceEvent("gc", 5e-6, 10e-6, "device", req=1),
            self.child(1, "ssd_read", 0.0, 30e-6),
        ]
        breakdown = phase_breakdown(events, op="read")
        assert set(breakdown.phases) == {"ssd_read"}

    def test_children_without_matching_request_ignored(self):
        events = [
            self.request(1, "read", 0.0, 10e-6),
            self.child(1, "ssd_read", 0.0, 10e-6),
            self.child(2, "hdd_read", 0.0, 99e-6),  # req 2 is a write
            self.request(2, "write", 10e-6, 5e-6),
        ]
        breakdown = phase_breakdown(events, op="read")
        assert breakdown.n_requests == 1
        assert "hdd_read" not in breakdown.phases

    def test_children_may_arrive_before_their_request_event(self):
        # The capture tracer replays child spans before emitting the
        # enclosing request_start; order in the buffer must not matter.
        events = [
            self.child(1, "ssd_read", 0.0, 10e-6),
            self.request(1, "read", 0.0, 10e-6),
        ]
        breakdown = phase_breakdown(events, op="read")
        assert breakdown.phases["ssd_read"] == pytest.approx(10e-6)


class TestExporterCompleteness:
    """Satellite: exported traces carry their own drop accounting."""

    def overflowed_tracer(self):
        tracer = RingBufferTracer(capacity_events=4)
        for lba in range(6):
            tracer.begin_request("read", lba, 1)
            tracer.span("ssd_read", 10e-6)
            tracer.end_request(10e-6)
        return tracer

    def test_jsonl_header_round_trip(self, tmp_path):
        from repro.sim.trace import read_jsonl_header

        tracer = self.overflowed_tracer()
        path = str(tmp_path / "trace.jsonl")
        export_jsonl(tracer.events, path, tracer=tracer)
        header = read_jsonl_header(path)
        assert header == {"recorded": len(tracer.events),
                          "dropped": tracer.dropped,
                          "complete": False}
        # The header line must not leak into the event stream.
        assert len(read_jsonl(path)) == len(tracer.events)

    def test_jsonl_without_tracer_has_no_header(self, tmp_path):
        from repro.sim.trace import read_jsonl_header

        tracer = self.overflowed_tracer()
        path = str(tmp_path / "trace.jsonl")
        export_jsonl(tracer.events, path)
        assert read_jsonl_header(path) is None

    def test_chrome_metadata_round_trip(self, tmp_path):
        from repro.sim.trace import load_chrome_metadata

        tracer = self.overflowed_tracer()
        path = str(tmp_path / "trace.json")
        export_chrome_trace(tracer.events, path, tracer=tracer)
        header = load_chrome_metadata(path)
        assert header is not None
        assert header["dropped"] == tracer.dropped
        assert header["complete"] is False
        # Drop accounting also rides inside traceEvents as an "M"
        # record, surviving viewers that strip top-level keys.
        payload = json.loads(Path(path).read_text())
        m_records = [r for r in payload["traceEvents"]
                     if r.get("name") == "trace_completeness"]
        assert len(m_records) == 1 and m_records[0]["ph"] == "M"
        assert len(load_chrome_trace(path)) == len(tracer.events)

    def test_complete_trace_flagged_complete(self, tmp_path):
        from repro.sim.trace import load_chrome_metadata

        tracer = RingBufferTracer()
        tracer.begin_request("read", 1, 1)
        tracer.span("ssd_read", 10e-6)
        tracer.end_request(10e-6)
        path = str(tmp_path / "trace.json")
        export_chrome_trace(tracer.events, path, tracer=tracer)
        assert load_chrome_metadata(path)["complete"] is True

    def test_cli_trace_exports_carry_header(self, tmp_path, capsys):
        from repro.cli import main
        from repro.sim.trace import read_jsonl_header

        out = tmp_path / "trace.jsonl"
        code = main(["trace", "--workload", "sysbench",
                     "--requests", "200", "--out", str(out)])
        assert code == 0
        header = read_jsonl_header(str(out))
        assert header is not None and header["complete"] is True


class TestHostileInput:
    """A truncated or foreign file is a ``ValueError`` naming the file
    and the line, from every reader."""

    def exported(self):
        tracer = RingBufferTracer()
        for lba in range(2):
            tracer.begin_request("read", lba, 1)
            tracer.span("ssd_read", 10e-6)
            tracer.end_request(10e-6)
        out = io.StringIO()
        export_jsonl(tracer.events, out, tracer=tracer)
        return out.getvalue()

    def test_jsonl_cut_mid_line(self):
        text = self.exported()
        cut = text[:text.index("\n", text.index("\n") + 1) + 20]
        with pytest.raises(ValueError, match=r"^<stream>:3: not a trace "
                                             r"event$"):
            read_jsonl(io.StringIO(cut))

    def test_jsonl_event_without_timestamp(self):
        line = json.dumps({"name": "ssd_read", "dur_us": 1.0,
                           "track": TRACK_REQUEST})
        with pytest.raises(ValueError, match=r"^<stream>:2: not a trace "
                                             r"event$"):
            read_jsonl(io.StringIO("\n" + line + "\n"))

    def test_jsonl_array_line(self):
        with pytest.raises(ValueError, match=r"^<stream>:1: not a trace "
                                             r"event$"):
            read_jsonl(io.StringIO("[1, 2]\n"))

    def test_jsonl_header_on_a_string_line(self):
        from repro.sim.trace import read_jsonl_header

        with pytest.raises(ValueError, match=r"^<stream>:1: not a trace "
                                             r"event$"):
            read_jsonl_header(io.StringIO('"trace_header"\n'))

    def test_file_path_named(self, tmp_path):
        path = tmp_path / "cut.jsonl"
        path.write_text(self.exported()[:-5])
        with pytest.raises(ValueError, match=rf"^{path}:\d+: not a trace "
                                             r"event$"):
            read_jsonl(str(path))

    @pytest.mark.parametrize("text", ["{}", "[]", "{\n\"traceEvents\": ",
                                      '{"traceEvents": [[]]}',
                                      '{"traceEvents": [{"ph": "X"}]}'])
    def test_chrome_trace_not_a_trace(self, text):
        with pytest.raises(ValueError, match=r"^<stream>:\d: not a Chrome "
                                             r"trace$"):
            load_chrome_trace(io.StringIO(text))

    @pytest.mark.parametrize("text", ["[]", '{"traceEvents": {}}'])
    def test_chrome_metadata_not_a_trace(self, text):
        from repro.sim.trace import load_chrome_metadata

        with pytest.raises(ValueError, match=r"^<stream>:1: not a Chrome "
                                             r"trace$"):
            load_chrome_metadata(io.StringIO(text))
