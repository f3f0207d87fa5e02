"""The recorder's fold-at-emission against the after-the-fact
reference, and the host-cost properties of a bare event run.

``tests/reference/engine.py`` derives a request's station phases from
its kept emissions, the way the engine did before the recorder folded
them on the way in.  With a ring trace attached the emissions are kept,
so both derivations run on the same request and must agree exactly.
"""

from __future__ import annotations

import functools
import sys
import tracemalloc
from typing import Tuple

import pytest

from reference.engine import _phases_of, residual_of
from repro.experiments.parallel import RunSpec, run_spec
from repro.experiments.runner import run_benchmark
from repro.sim.engine import EventEngine
from repro.sim.load import default_closed_loop
from repro.sim.metrics import Monitor
from repro.sim.profile import Profiler
from repro.sim.trace import BEGIN_REQUEST, Recorder, RingBufferTracer

SYSTEMS = ("icash", "fusion-io", "raid0", "lru", "dedup")
WORKLOADS = (("sysbench", 0.25, 600), ("tpcc", 0.25, 600),
             ("specsfs", 0.1, 500))


class TestFoldAtEmissionMatchesReference:
    @pytest.mark.parametrize("system", SYSTEMS)
    @pytest.mark.parametrize("workload,scale,n_requests", WORKLOADS)
    def test_phases_and_residuals(self, taken, workload, scale,
                                  n_requests, system):
        spec = RunSpec(workload=workload, system=system, engine="event",
                       n_requests=n_requests, scale=scale)
        wl = spec.build_workload()
        storage = spec.build_system(wl)
        storage.ingest()
        sim = EventEngine(storage, tracer=RingBufferTracer(None))
        records = sim.run(wl, default_closed_loop(wl))
        assert len(records) == len(taken) == n_requests
        for record, (phases, emitted, _bg) in zip(records, taken):
            assert emitted is not None
            # Tuples of (str, float): == is exact on both.
            assert phases == _phases_of(emitted)
            assert record.residual == residual_of(emitted,
                                                  record.service_s)

    def test_zero_length_and_non_device_emissions(self):
        # No device model emits a zero-length span today, so the skip
        # rule gets emissions made by hand: a skipped span must not
        # split the phase around it, and spans, instants, marks and
        # background work stay out of the phases.
        recorder = Recorder(keep=True)
        recorder.begin_request("read", 0, 3)
        recorder.device_span("ssd", "read", 1e-5)
        recorder.device_span("hdd", "read", 0.0)
        recorder.device_span("ssd", "read", 2e-5)
        recorder.span("delta_decode", 3e-6)
        recorder.instant("cache_lookup")
        recorder.mark("gc", 1e-6)
        recorder.begin_background("flush")
        recorder.device_span("hdd", "write", 4e-3)
        recorder.end_background()
        recorder.device_span("hdd", "read", 5e-3)
        recorder.device_span("hdd", "read", -1.0)
        phases, emitted, bg = recorder.take_request()
        assert phases == _phases_of(emitted) \
            == [("ssd", 1e-5 + 2e-5), ("hdd", 5e-3)]
        assert [e[2] for e in emitted if e[0]] == [
            "request_start", "ssd_read", "hdd_read", "ssd_read",
            "delta_decode", "cache_lookup", "gc", "hdd_read", "hdd_read"]
        assert [e[2] for e in emitted if not e[0]] == \
            ["flush", "hdd_write", None]
        assert bg == [("hdd", 4e-3)]

    def test_runs_cover_coalescing_multi_phase_and_background(self, taken):
        # What the equality above is worth: the sampled runs include
        # requests whose spans coalesce, requests visiting several
        # stations, multi-block requests and background jobs.
        for workload, scale, n_requests in WORKLOADS:
            spec = RunSpec(workload=workload, system="icash",
                           engine="event", n_requests=n_requests,
                           scale=scale)
            wl = spec.build_workload()
            run_benchmark(wl, spec.build_system(wl), engine="event",
                          tracer=RingBufferTracer(None))
        device_spans = [[e for e in emitted if e[0] and e[7] is not None]
                        for _phases, emitted, _bg in taken]
        assert any(len([e for e in spans if e[3] > 0.0]) > len(phases)
                   for spans, (phases, _e, _b)
                   in zip(device_spans, taken))
        assert any(len(phases) > 1 for phases, _e, _b in taken)
        # A multi-block request: its BEGIN_REQUEST carries > 4 KB.
        assert any(e[1] == BEGIN_REQUEST and e[5] > 4096
                   for _p, emitted, _b in taken for e in emitted)
        assert any(bg for _p, _e, bg in taken)


class TestBareRunBuildsNothingToThrowAway:
    def test_no_spans_and_no_event_labels(self, monkeypatch, taken):
        labels = []
        monkeypatch.setattr(EventEngine, "_log_event",
                            lambda self, action, label:
                            labels.append(label))
        spec = RunSpec(workload="sysbench", system="icash",
                       engine="event", n_requests=400, scale=0.25)
        assert run_spec(spec).n_requests == 400
        assert labels == []
        assert len(taken) == 400
        assert all(emitted is None for _p, emitted, _b in taken)
        # The same run with a fold attached does keep them.
        del taken[:]
        wl = spec.build_workload()
        run_benchmark(wl, spec.build_system(wl), engine="event",
                      tracer=RingBufferTracer(None))
        assert all(emitted for _p, emitted, _b in taken[:400])


#: The files of the engine's own bookkeeping: the event loop, the
#: recorder and the ring fold, the latency statistics and the runner's
#: folds.
ENGINE_FILES = ("sim/engine.py", "sim/stats.py", "experiments/runner.py",
                "sim/trace.py")

#: What an observed budget row attaches; the monitor samples at
#: perfbench's overhead-rig interval.
OBSERVERS = {"tracer": RingBufferTracer, "profiler": Profiler,
             "monitor": functools.partial(Monitor, interval_s=0.01)}


def _run(spec: RunSpec, observer=None):
    """``run_spec(spec)``, with a fresh ``observer`` attached."""
    if observer is None:
        return run_spec(spec)
    workload = spec.build_workload()
    return run_benchmark(workload, spec.build_system(workload),
                         engine=spec.engine, load=spec.build_load(),
                         **{observer: OBSERVERS[observer]()})


def _python_calls(fn) -> Tuple[int, int, int]:
    """Python-level function calls made while ``fn`` runs: all of them,
    those into ``repro/delta/encoder.py`` and those into
    :data:`ENGINE_FILES`."""
    calls = codec_calls = engine_calls = 0

    def count(frame, event, _arg):
        nonlocal calls, codec_calls, engine_calls
        if event == "call":
            calls += 1
            filename = frame.f_code.co_filename
            if filename.endswith("delta/encoder.py"):
                codec_calls += 1
            elif filename.endswith(ENGINE_FILES):
                engine_calls += 1

    sys.setprofile(count)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return calls, codec_calls, engine_calls


def _peak_allocated_bytes(fn) -> int:
    """tracemalloc peak of the memory ``fn`` allocates while it runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestHostCostBudget:
    #: Python function calls per request on the event engine — all of
    #: them, those into the engine's own bookkeeping
    #: (:data:`ENGINE_FILES`) and those into the delta codec — over a
    #: whole ``run_spec`` (set-up and ingest included, request stream
    #: memoised).  The counts do not depend on the host, so this pins
    #: host cost where a wall-clock gate cannot.  Each budget is 10 %
    #: above what CPython 3.11 measured when it was set:
    #:
    #: * tpcc / raid0 — 17.9, of which 3.0 in the engine files (18.9 and 4.0
    #:   while the system recorded every request's latency a second time,
    #:   beside the run's measurement; 19.9 and 5.0 while a request was
    #:   closed by a tracer call of its own; 39.6 and 23.8 while the engine
    #:   ran a handler frame per event and a helper frame per heap push,
    #:   route and depth step, and the runner and the queue-wait stats folded
    #:   request by request; 40.6 while a system recorded latencies through a
    #:   named-class collector; 56.2 while a device operation walked several
    #:   helper frames and bumped string-keyed counters; 60.5 while it also
    #:   kept a latency sample nobody read; 90.9 before the capture tracer
    #:   folded phases at emission);
    #: * sysbench / icash — 47.8, of which 11.2 in the engine files and 5.0
    #:   in the codec (50.0 and 5.1 while every run planned its ingest
    #:   afresh and swept the image block by block; 83.6, and 6.1 in the
    #:   codec, while ingest replayed its plan block by block and a read
    #:   hit walked four helper frames; 84.6
    #:   and 12.2 with that second latency record; 87.3 and 14.9 with that
    #:   closing call; 121.2 and 47.9 with those engine frames; 121.6 while signatures were memoised behind a content-keyed
    #:   LRU; 127.7 while the controller bumped string-keyed counters; 144.0
    #:   with those device frames; 145.1 while a virtual block kept its own
    #:   copy of its reference and dirtiness; 147.7 and 7.6 while ingest
    #:   tallied and encoded block by block);
    #: * specsfs / icash — 190.4, of which 34.9 in the engine files and 22.5
    #:   in the codec (196.6 and 22.6 while every run planned its ingest
    #:   afresh and swept block by block; 196.2 and 34.7 while an associate
    #:   of a shadowed reference skipped the SSD reads of its reference's
    #:   frozen copy;
    #:   275.0 and 25.2 with that replay and those frames;
    #:   276.0 and 35.7 with that second record; 281.0 and 40.8 with that
    #:   closing call; 316.6 and 75.4 with those engine frames;
    #:   341.0 with that signature LRU; 349.1 with string-keyed counters;
    #:   390.3 with those device frames; 401.2 with those copies; 401.9 and
    #:   26.2 block by block; 487.3, and 175.6 on sysbench, while the scan,
    #:   retirement and reference loops read ``is_*`` / ``has_*`` properties
    #:   per window block);
    #: * sysbench / icash with a ring trace — 59.6, of which 20.8 in the
    #:   engine files (93.2 with that replay and those frames; 94.2 and
    #:   21.8 with that second record; 143.7 and 56.6 while the trace was a
    #:   second tracer that the engine's capture tracer forwarded to and
    #:   replayed into, span object by span object);
    #: * sysbench / icash with a profiler — 60.5, of which 14.8 in the engine
    #:   files (61.3 while the profiler classified a request's spans in a
    #:   helper frame of its own; 94.9 with that replay and those frames;
    #:   95.9 and 15.8 with that second record; 107.8 and 29.9 with those
    #:   span objects);
    #: * sysbench / icash with a monitor sampling every 0.01 s — 51.4, of
    #:   which 11.2 in the engine files and 5.1 in the codec (53.4 and 13.3
    #:   while the runner folded each completion through a closure that
    #:   read the record's ``latency_s`` property; 58.6 while a request
    #:   walked five frames through the monitor's instruments and sampler,
    #:   and every window rebuilt and parsed back its label keys).
    #:
    #: The icash pair is perfbench's ``oltp_read`` and ``nfs_write`` at
    #: a size tier-1 can afford; they read 257.1 (62.9) and 604.3 (55.8)
    #: while a delta was a tuple of ``(offset, bytes)`` runs instead of
    #: its wire bytes.
    #:
    #: The last column is memory: the tracemalloc peak of what one more
    #: warm ``run_spec`` allocates, as a multiple of the data set's
    #: size — 15 % above the measured 0.048 on raid0, 10 % above the
    #: measured 0.466 / 0.766 on icash (0.544 / 0.849, budgets 0.61 /
    #: 0.95, while every run planned its ingest afresh; 0.556 / 0.860
    #: before that; 0.066 / 0.592 / 1.122, budgets 0.085 / 0.65 / 1.23,
    #: while every warm run drew its family table
    #: and every SSD copy copied bytes that were already frozen; 0.62 /
    #: 2.17, budgets 0.72 / 2.5, while every signature lookup copied its
    #: block into an LRU key).  The data set itself is built once and
    #: shared (a frozen image plus the blocks written since), so every
    #: whole-image copy a run makes adds 1.0 — the five it used to make
    #: read 4.02 / 4.34 / 5.09.  What is left on icash is the
    #: controller's own caches, log and SSD records.  The observed rows
    #: keep what they record, so they have no memory budget.
    SYSBENCH = RunSpec(workload="sysbench", system="icash", engine="event",
                       n_requests=2000, scale=0.25)
    BUDGETS = (
        (RunSpec(workload="tpcc", system="raid0", engine="event",
                 n_requests=2000, scale=0.5), None, 19.7, 3.3, 0.0, 0.056),
        (SYSBENCH, None, 52.5, 12.3, 5.5, 0.51),
        (RunSpec(workload="specsfs", system="icash", engine="event",
                 n_requests=1500, scale=0.25,
                 config_overrides=(("ssd_capacity_blocks", 2048),)),
         None, 209.4, 38.2, 24.7, 0.84),
        (SYSBENCH, "tracer", 65.6, 22.9, 5.6, None),
        (SYSBENCH, "profiler", 66.6, 16.3, 5.6, None),
        (SYSBENCH, "monitor", 56.6, 12.4, 5.6, None),
    )

    def test_calls_per_request_within_budget(self):
        over = []
        for spec, observer, budget, engine_budget, codec_budget, \
                bytes_budget in self.BUDGETS:
            # The first run fills the dataset and request-stream memos.
            _run(spec, observer)
            calls, codec_calls, engine_calls = _python_calls(
                lambda spec=spec, observer=observer: _run(spec, observer))
            for what, count, limit in (
                    ("python", calls, budget),
                    ("engine", engine_calls, engine_budget),
                    ("codec", codec_calls, codec_budget)):
                if count / spec.n_requests > limit:
                    over.append(
                        f"{spec.workload}/{spec.system}/{observer}: "
                        f"{count / spec.n_requests:.1f} {what} calls per "
                        f"request, budget {limit}")
            if bytes_budget is None:
                continue
            data_sets = _peak_allocated_bytes(
                lambda spec=spec: run_spec(spec)) \
                / spec.build_workload().data_size_bytes
            if data_sets > bytes_budget:
                over.append(
                    f"{spec.workload}/{spec.system}: a warm run allocates "
                    f"{data_sets:.2f} x the data set, budget {bytes_budget}")
        assert not over, "; ".join(over)
