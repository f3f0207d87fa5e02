"""Discrete-event queueing engine for concurrent-load simulation.

The legacy experiment runner approximates wall-clock as *aggregate
device busy time / io_concurrency* — queueing delay, device contention
and saturation do not exist in that model.  Here requests *arrive* on a
timeline (a :mod:`repro.sim.load` generator), wait in per-device FIFO
queues and overlap their service across devices, so latency becomes
``queue_wait + service`` and throughput saturates with the bottleneck.

* **The capture tracer** (:class:`_CaptureTracer`) folds each
  foreground device span a system emits, as it is emitted, into the
  request's *phase list* — its ordered per-device visits — and
  collects the background work (flushes, scans, destages) it
  triggered.  Span objects are buffered only for a consumer that reads
  them back (a downstream tracer, the profiler).  Requests are
  processed in stream order, so contents, counters and service times
  equal a legacy run's; the engine only re-times them.
* **Stations.**  One :class:`DeviceStation` per device with its service
  slots (NCQ depth) and a FIFO.  Background work is *deferrable
  backlog*, run in bounded quanta on slots no foreground request
  wants: background yields to foreground.
* **One loop.**  :meth:`EventEngine.run` handles all four event kinds
  — arrival, phase done, background quantum done, completion — itself;
  heap entries are ``(time, seq, kind, payload)`` with a small-int
  kind.  A request in flight is a flat list (its measurements, then its
  routing state), routed and started inline; a helper frame runs only
  when backlog forms or drains.  Observers (event log, faults,
  profiler, downstream tracer, ``on_complete``) are branches of the
  same loop.  A completed request becomes a :class:`RequestRecord`.
* **Exact order.**  Entries are keyed on ``(time, seq)`` with ``seq``
  drawn when an event is created.  The last event a step creates is
  not pushed: ``heappushpop`` hands it straight back when it is the
  earliest, else swaps it for the heap head — the pop order of a push
  then a pop, so every run is the event order it always was.  All
  randomness lives in the load generator's seeded RNG.

The front end is ``run_benchmark(..., engine="event", load=...)``;
``repro loadtest`` sweeps arrival rates over it to find a system's
knee.  See "Event engine & load generation" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush, heappushpop
from operator import attrgetter, itemgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.sim.profile import classify_phase
from repro.sim.request import OpType
from repro.sim.stats import LatencyStats

#: Default service-slot counts (NCQ depth) per device trace name.
#: Flash exposes channel parallelism, a mechanical disk has one head,
#: the RAID stripe has one slot per member by default.
DEFAULT_DEVICE_SLOTS: Dict[str, int] = {
    "ssd": 8,
    "raid0": 4,
    "nvram": 4,
    "dram": 64,
}


@dataclass
class EngineConfig:
    """Tunables of the event engine.

    ``device_slots`` maps a device trace name to its number of parallel
    service slots (the queue depth the device accepts — NCQ for an
    AHCI disk, channel parallelism for flash); unlisted devices get
    ``default_slots``.  ``background_quantum_s`` bounds how long one
    deferrable background chunk may hold a slot, i.e. the worst-case
    time a foreground arrival waits behind background work.
    """

    device_slots: Dict[str, int] = field(
        default_factory=lambda: dict(DEFAULT_DEVICE_SLOTS))
    default_slots: int = 1
    background_quantum_s: float = 2e-3

    def slots_for(self, device: str) -> int:
        slots = self.device_slots.get(device, self.default_slots)
        if slots < 1:
            raise ValueError(
                f"station {device!r} needs at least one slot, got {slots}")
        return slots


# ---------------------------------------------------------------------------
# Capture tracer: per-request phase decomposition via the trace hooks
# ---------------------------------------------------------------------------


class _Span:
    """One buffered foreground emission of the current request."""

    __slots__ = ("kind", "name", "device", "dur", "lba", "nbytes",
                 "outcome")

    def __init__(self, kind: str, name: str, device: Optional[str],
                 dur: float, lba, nbytes, outcome) -> None:
        self.kind = kind  # "device" | "span" | "instant" | "mark"
        self.name = name
        self.device = device
        self.dur = dur
        self.lba = lba
        self.nbytes = nbytes
        self.outcome = outcome


class _CaptureTracer:
    """Implements the tracer protocol to harvest per-request phases.

    Attached by the engine via ``system.set_tracer``; every device
    operation, codec span and background section the system emits lands
    here.  Foreground (in-request) device spans fold into the request's
    station phases as they arrive: zero-length spans are skipped and
    consecutive spans on one device coalesce into one phase (one queue
    entry per device visit, not per 4 KB block); CPU spans and instants
    stay out — they become the non-contended residual tail.  The spans
    themselves are buffered as :class:`_Span` objects only when
    something reads them back — a ``downstream`` recording tracer, so
    ``engine="event"`` runs still produce full traces (with an added
    ``queue`` span per delayed request), or the profiler
    (``keep_spans``).  Background device spans accumulate as
    ``(device, seconds)`` backlog jobs.
    """

    def __init__(self, downstream=None, keep_spans: bool = False) -> None:
        self.downstream = downstream
        self._keep_spans = keep_spans or downstream is not None
        self._name_scopes: List[str] = []
        self._bg_depth = 0
        self._in_request = False
        self._req: Optional[Tuple[str, int, int]] = None
        self._phases: List[Tuple[str, float]] = []
        self._entries: Optional[List[_Span]] = None
        self._bg_jobs: List[Tuple[str, float]] = []

    # -- request lifecycle ------------------------------------------------

    def begin_request(self, op: str, lba: int, nblocks: int) -> None:
        if self._in_request:
            raise RuntimeError("begin_request while a request is open")
        self._in_request = True
        self._req = (op, lba, nblocks)
        self._phases = []
        self._entries = [] if self._keep_spans else None

    def end_request(self, latency_s: float) -> None:
        if not self._in_request:
            raise RuntimeError("end_request without begin_request")
        self._in_request = False

    def take_request(self) -> Tuple[Tuple[str, int, int],
                                    List[Tuple[str, float]],
                                    Optional[List[_Span]],
                                    List[Tuple[str, float]]]:
        """The last request's (op info, station phases, foreground
        spans — None unless spans are kept — and background jobs);
        clears the buffers."""
        taken = (self._req, self._phases, self._entries, self._bg_jobs)
        self._req, self._phases, self._entries = None, [], None
        self._bg_jobs = []
        return taken

    # -- emission hooks ---------------------------------------------------

    def _resolved(self, device: str, kind: str) -> str:
        if self._name_scopes:
            return self._name_scopes[-1]
        return f"{device}_{kind}"

    def device_span(self, device: str, kind: str, dur_s: float,
                    lba=None, nbytes=None, outcome=None) -> None:
        if self._bg_depth:
            self._bg_jobs.append((device, dur_s))
            if self.downstream is not None:
                self.downstream.device_span(device, kind, dur_s, lba=lba,
                                            nbytes=nbytes, outcome=outcome)
            return
        if self._in_request:
            if dur_s > 0.0:
                phases = self._phases
                if phases and phases[-1][0] == device:
                    phases[-1] = (device, phases[-1][1] + dur_s)
                else:
                    phases.append((device, dur_s))
            if self._entries is not None:
                self._entries.append(
                    _Span("device", self._resolved(device, kind), device,
                          dur_s, lba, nbytes, outcome))
        elif self.downstream is not None:  # run track (final flush)
            self.downstream.span(self._resolved(device, kind), dur_s,
                                 lba=lba, nbytes=nbytes, outcome=outcome)

    def span(self, name: str, dur_s: float, lba=None, nbytes=None,
             outcome=None) -> None:
        if self._bg_depth:
            if self.downstream is not None:
                self.downstream.span(name, dur_s, lba=lba, nbytes=nbytes,
                                     outcome=outcome)
            return
        if self._in_request:
            if self._entries is not None:
                kind = "instant" if dur_s == 0.0 else "span"
                self._entries.append(_Span(kind, name, None, dur_s,
                                           lba, nbytes, outcome))
        elif self.downstream is not None:
            self.downstream.span(name, dur_s, lba=lba, nbytes=nbytes,
                                 outcome=outcome)

    def instant(self, name: str, lba=None, outcome=None) -> None:
        self.span(name, 0.0, lba=lba, outcome=outcome)

    def mark(self, name: str, dur_s: float, lba=None, nbytes=None,
             outcome=None) -> None:
        # Device-internal time already inside another span's duration.
        if self._in_request and not self._bg_depth:
            if self._entries is not None:
                self._entries.append(_Span("mark", name, None, dur_s,
                                           lba, nbytes, outcome))
        elif self.downstream is not None:
            self.downstream.mark(name, dur_s, lba=lba, nbytes=nbytes,
                                 outcome=outcome)

    # -- background sections ----------------------------------------------

    def begin_background(self, name=None, outcome=None) -> None:
        self._bg_depth += 1
        if self.downstream is not None:
            self.downstream.begin_background(name, outcome=outcome)

    def end_background(self, extra_s: float = 0.0) -> None:
        if self._bg_depth <= 0:
            raise RuntimeError("end_background without begin_background")
        self._bg_depth -= 1
        if self.downstream is not None:
            self.downstream.end_background(extra_s)

    # -- device-span renaming scopes ---------------------------------------

    def push_name_scope(self, name: str) -> None:
        self._name_scopes.append(name)
        if self.downstream is not None:
            self.downstream.push_name_scope(name)

    def pop_name_scope(self) -> None:
        self._name_scopes.pop()
        if self.downstream is not None:
            self.downstream.pop_name_scope()

    # -- downstream replay -------------------------------------------------

    def replay(self, req: Tuple[str, int, int], entries: List[_Span],
               wait_s: float, latency_s: float) -> None:
        """Emit one completed request to the downstream tracer.

        The request span tiles exactly: an explicit ``queue`` span for
        the time spent waiting in device queues, followed by the
        captured service phases.
        """
        ds = self.downstream
        if ds is None:
            return
        op, lba, nblocks = req
        ds.begin_request(op, lba, nblocks)
        if wait_s > 0.0:
            ds.span("queue", wait_s)
        for entry in entries:
            if entry.kind == "mark":
                ds.mark(entry.name, entry.dur, lba=entry.lba,
                        nbytes=entry.nbytes, outcome=entry.outcome)
            else:
                ds.span(entry.name, entry.dur, lba=entry.lba,
                        nbytes=entry.nbytes, outcome=entry.outcome)
        ds.end_request(latency_s)


# ---------------------------------------------------------------------------
# Stations
# ---------------------------------------------------------------------------


class DeviceStation:
    """One device's FIFO queue plus its parallel service slots.

    Foreground phases occupy slots in arrival order; deferrable
    background backlog runs in bounded quanta only on slots no
    foreground work wants.  The depth (requests waiting plus operations
    in service, background quanta included: they hold slots) is
    integrated over time, so the summary reports its mean exactly.
    """

    __slots__ = ("name", "slots", "waiting", "active", "bg_active",
                 "busy_s", "bg_busy_s", "backlog_s", "served",
                 "bg_chunks", "max_depth", "_depth_integral",
                 "_depth_since")

    def __init__(self, name: str, slots: int) -> None:
        self.name = name
        self.slots = slots
        self.waiting: deque = deque()  # requests in flight, FIFO
        self.active = 0
        self.bg_active = 0
        self.busy_s = 0.0
        self.bg_busy_s = 0.0
        self.backlog_s = 0.0
        self.served = 0
        self.bg_chunks = 0
        self.max_depth = 0
        self._depth_integral = 0.0
        self._depth_since = 0.0

    def note_depth(self, now: float) -> None:
        """Advance the time-weighted depth integral to ``now`` (before
        every change to the depth; a zero-width step is skipped).  The
        run loop inlines this on its common path."""
        depth = len(self.waiting) + self.active + self.bg_active
        if now != self._depth_since:
            self._depth_integral += depth * (now - self._depth_since)
            self._depth_since = now
        if depth > self.max_depth:
            self.max_depth = depth

    def utilization(self, elapsed: float) -> float:
        """Busy fraction of the station's total slot capacity."""
        if elapsed <= 0:
            return 0.0
        return self.busy_s / (elapsed * self.slots)


@dataclass(frozen=True)
class StationSummary:
    """End-of-run accounting for one device station."""

    name: str
    slots: int
    busy_s: float
    background_s: float
    utilization: float
    served: int
    mean_depth: float
    max_depth: int


@dataclass(frozen=True)
class QueueingSummary:
    """End-of-run queueing behaviour of one event-engine run."""

    duration_s: float
    wait_mean_us: float
    wait_p99_us: float
    wait_max_us: float
    stations: Dict[str, StationSummary]

    @property
    def bottleneck(self) -> Optional[str]:
        """The station with the highest utilisation (None when idle)."""
        best = max(self.stations.values(), default=None,
                   key=attrgetter("utilization"))
        return best.name if best and best.utilization > 0.0 else None

    def to_doc(self) -> Dict[str, object]:
        """JSON-ready form (``repro critpath --json``)."""
        doc = asdict(self)
        for station in doc["stations"].values():
            del station["name"]
        doc["bottleneck"] = self.bottleneck
        return doc


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class RequestRecord(NamedTuple):
    """What was measured for one request of an event run."""

    index: int
    is_read: bool
    arrival_s: float
    #: Service time of the request's own work (the system's latency).
    service_s: float
    #: Time spent waiting in station queues.
    wait_s: float
    completion_s: float
    #: Blocks compared with the workload's shadow.
    verified: int
    #: Service time outside every station (CPU spans): the
    #: non-contended tail between the last phase and completion.
    residual: float

    @property
    def latency_s(self) -> float:
        """Response time: queue wait plus service."""
        return self.wait_s + self.service_s


#: A request in flight is a flat list: its :class:`RequestRecord`
#: fields, then its routing state, cut off at completion.  The phase
#: index runs from ``-len(phases)`` up to 0, where the request is done.
_INDEX, _IS_READ, _ARRIVAL_S, _SERVICE_S, _WAIT_S, _COMPLETION_S, \
    _VERIFIED, _RESIDUAL, _PHASES, _PHASE_IDX, _STATION, _ENQUEUED_S, \
    _ENTRIES, _WAITS, _REQ = range(15)
_new_record = tuple.__new__   # a record from its fields, with no frame


def service_items(entries: List[_Span]) -> List[Tuple[str, str, float]]:
    """A captured request's service spans as ``(device, phase, dur)``
    attribution items (marks and instants excluded — their time is
    zero or already inside another span's duration)."""
    items = []
    for entry in entries:
        if entry.dur <= 0.0 or entry.kind == "mark":
            continue
        if entry.kind == "device":
            items.append(classify_phase(entry.name, device=entry.device)
                         + (entry.dur,))
        else:
            items.append(classify_phase(entry.name) + (entry.dur,))
    return items


def read_verified(system, shadow, request, index: int) -> Tuple[float, int]:
    """Serve read ``request`` (admission ``index``) and compare every
    block it returns with ``shadow``; returns the latency and the
    number of blocks checked."""
    latency, contents = system.process_read(request)
    for offset, content in enumerate(contents):
        if not np.array_equal(content, shadow[request.lba + offset]):
            raise AssertionError(
                f"{system.name} returned wrong content for block "
                f"{request.lba + offset} on request {index}")
    return latency, len(contents)


# Event kinds: the third field of a heap entry.
_ARRIVE, _PHASE_DONE, _BG_DONE, _COMPLETE = range(4)
_phase_dur = itemgetter(1)
_READ = OpType.READ


class EventEngine:
    """Deterministic discrete-event simulation over one storage system.

    Totals — service times, device counters, SSD writes, block contents
    — equal a legacy closed-loop replay's by construction (the collapse
    property test asserts it); only the timeline is the engine's.
    """

    def __init__(self, system, config: Optional[EngineConfig] = None,
                 downstream_tracer=None,
                 keep_event_log: bool = False,
                 profiler=None) -> None:
        self.system = system
        self.config = config if config is not None else EngineConfig()
        #: Critical-path profiler (:mod:`repro.sim.profile`), or None.
        self.profiler = profiler
        self.capture = _CaptureTracer(downstream_tracer,
                                      keep_spans=profiler is not None)
        self.stations: Dict[str, DeviceStation] = {}
        self.now = 0.0
        self.records: List[RequestRecord] = []
        self.queue_waits = LatencyStats()
        #: This run's queue waits, in completion order, until the run
        #: ends and hands them to ``queue_waits``.
        self._completed_waits: List[float] = []
        #: Event time of the last request completion.  ``now`` keeps
        #: running past it while deferred background backlog drains, so
        #: throughput windows close here, not at heap exhaustion.
        self.last_completion_s = 0.0
        #: (time, action, label) triples when ``keep_event_log`` — the
        #: determinism test diffs two runs' logs exactly.
        self.event_log: Optional[List[Tuple[float, str, str]]] = \
            [] if keep_event_log else None
        #: (time, sequence number, event kind, payload); the sequence
        #: number is unique, so kinds and payloads are never compared.
        self._heap: List[Tuple[float, int, int, object]] = []
        self._next_seq = itertools.count(1).__next__
        self._registry = None
        self._wait_hist = None
        #: Optional :class:`repro.sim.faults.FaultInjector` — fires
        #: scheduled faults at admission boundaries and closes
        #: degraded-mode windows as repair backlog drains.
        self.faults = None
        for device in system.devices():
            self._station(getattr(device, "trace_name",
                                  getattr(device, "name", "device")))

    # -- stations and metrics ---------------------------------------------

    def attach_faults(self, injector) -> None:
        """Arm a :class:`repro.sim.faults.FaultInjector` for the next
        :meth:`run`.  The injector sees every admission index (before
        the request is processed) and every completion/background
        event, so injected repair backlog competes with foreground I/O
        through the same station queues."""
        self.faults = injector

    def _station(self, name: str) -> DeviceStation:
        station = self.stations.get(name)
        if station is None:
            station = DeviceStation(name, self.config.slots_for(name))
            self.stations[name] = station
            if self._registry is not None:
                self._register_station(station)
        return station

    def register_metrics(self, registry) -> None:
        """Expose queue depth, wait times and utilisation as instruments.

        Gauges are callback-backed (sampled by the monitor on window
        boundaries); the wait histogram is observed once per completed
        request.  Also repoints ``outstanding_requests`` at the
        engine's true in-flight count — the workload-level default
        reports the closed-loop stream count, which an open-loop run
        makes meaningless.
        """
        if registry is None:
            return
        self._registry = registry
        self._wait_hist = registry.histogram("queue_wait_us")
        registry.gauge("outstanding_requests") \
            .set_fn(lambda: self.in_flight)
        for station in self.stations.values():
            self._register_station(station)

    def _register_station(self, station: DeviceStation) -> None:
        registry = self._registry
        registry.gauge("queue_depth", ("device",)) \
            .labels(device=station.name) \
            .set_fn(lambda s=station: len(s.waiting) + s.active
                    + s.bg_active)
        registry.gauge("device_utilization", ("device",)) \
            .labels(device=station.name) \
            .set_fn(lambda s=station: s.utilization(self.now)
                    if self.now > 0 else 0.0)

    @property
    def in_flight(self) -> int:
        """Requests admitted and not yet complete."""
        return len(self.records) - self.queue_waits.count \
            - len(self._completed_waits)

    def _log_event(self, action: str, label: str) -> None:
        """Append to the event log.  The run loop calls this only when a
        log is kept, so a bare run formats no label."""
        if self.event_log is not None:
            self.event_log.append((self.now, action, label))

    # -- the run -----------------------------------------------------------

    def run(self, workload, load, verify_reads: bool = False,
            on_measure=None, on_complete=None,
            measure_from: int = 0) -> List[RequestRecord]:
        """Drive ``workload``'s stream through the system under ``load``.

        The measurement window opens at admission index ``measure_from``
        (0-based): ``on_measure()`` fires once, just before that request
        is processed — the runner snapshots warmup state there — and
        the attached profiler's attribution table leaves out the
        requests before it, so it covers the same window the latency
        statistics do.  ``on_complete(record)`` fires at each
        completion event in event time.  Returns the completed records
        in admission order.  The loop and its next-event register
        (``created``) are described in the module docstring.
        """
        system = self.system
        system.set_tracer(self.capture)
        take_request = self.capture.take_request
        process = system.process
        stream = workload.requests()
        stations = self.stations
        records = self.records
        log = self.event_log
        faults = self.faults
        profiling = self.profiler is not None
        wait_hist = self._wait_hist
        open_loop = load.open_loop
        heap = self._heap
        next_seq = self._next_seq
        last_completion = self.last_completion_s
        completed_waits = self._completed_waits
        load.reset()
        starts = [load.next_arrival(0.0)] if open_loop else \
            [load.initial_think() for _ in range(load.clients)]
        for start in starts:
            heappush(heap, (start, next_seq(), _ARRIVE, None))
        created = None
        index = len(records) - 1                    # last admission
        while created is not None or heap:
            if created is None:
                now, _seq, kind, payload = heappop(heap)
            else:
                now, _seq, kind, payload = heappushpop(heap, created)
                created = None
            self.now = now
            job = freed = None
            if kind == _PHASE_DONE:
                job = payload
                freed = job[_STATION]
                if log is not None:
                    self._log_event("phase_done",
                                    f"{freed.name}:req{job[_INDEX]}")
                active = freed.active
                depth = len(freed.waiting) + active + freed.bg_active
                if now != freed._depth_since:
                    freed._depth_integral += depth * (now - freed._depth_since)
                    freed._depth_since = now
                if depth > freed.max_depth:
                    freed.max_depth = depth
                freed.active = active - 1
                freed.served += 1
                phases = job[_PHASES]
                phase_idx = job[_PHASE_IDX] + 1
                job[_PHASE_IDX] = phase_idx
            elif kind == _ARRIVE:
                request = next(stream, None)
                if request is None:
                    if log is not None:
                        self._log_event("arrival", "drained")
                else:
                    index += 1
                    if log is not None:
                        self._log_event("arrival", f"req{index}")
                    if faults is not None:
                        faults.on_admit(index)
                    if index == measure_from and on_measure is not None:
                        on_measure()
                    is_read = request.op is _READ
                    if verify_reads and is_read:
                        latency, verified = read_verified(
                            system, workload.shadow, request, index)
                    else:
                        latency, verified = process(request), 0
                    req, phases, entries, bg_jobs = take_request()
                    phase_idx = -len(phases)
                    # The built-in ``sum`` (compensated on Python >= 3.12,
                    # so a hand-written loop would yield other bits).
                    covered = phases[0][1] if phase_idx == -1 \
                        else sum(map(_phase_dur, phases))
                    residual = latency - covered
                    job = [
                        index, is_read, now, latency, 0.0, 0.0, verified,
                        residual if residual > 0.0 else 0.0, phases,
                        phase_idx, None, 0.0, entries,
                        [] if profiling and index >= measure_from else None,
                        req]
                    records.append(job)
                    # Background work the request triggered becomes
                    # deferrable backlog on the stations it targets.
                    for device, dur in bg_jobs:
                        self.add_backlog(device, dur)
                    if open_loop:
                        heappush(heap, (load.next_arrival(now), next_seq(),
                                        _ARRIVE, None))
            elif kind == _COMPLETE:
                record = payload
                if log is not None:
                    self._log_event("complete", f"req{record[_INDEX]}")
                record[_COMPLETION_S] = now
                last_completion = now
                wait = record[_WAIT_S]
                completed_waits.append(wait)
                if wait_hist is not None:
                    wait_hist.observe(wait * 1e6)
                entries = record[_ENTRIES]
                if entries is not None:
                    # Kept spans go to the downstream tracer and, in the
                    # measured window, to the profiler with the waits.
                    latency = wait + record[_SERVICE_S]
                    req = record[_REQ]
                    self.capture.replay(req, entries, wait, latency)
                    station_waits = record[_WAITS]
                    if station_waits is not None:
                        items = [(device, "queue_wait", dur)
                                 for device, dur in station_waits]
                        items.extend(service_items(entries))
                        self.profiler.record_request(req[0], items,
                                                     latency)
                done = _new_record(RequestRecord, record[:_PHASES])
                records[record[_INDEX]] = done
                if on_complete is not None:
                    on_complete(done)
                if faults is not None:
                    faults.on_event(now)
                if not open_loop:
                    created = (now + load.next_think(), next_seq(), _ARRIVE,
                               None)
            else:                                   # _BG_DONE
                freed = payload
                if log is not None:
                    self._log_event("background_done", freed.name)
                freed.note_depth(now)
                freed.bg_active -= 1
            if job is not None:
                # Route ``job`` to its next phase's station — into service
                # if a slot is free and nobody waits, else to the back of
                # the FIFO — or, past its last phase, to completion.
                if phase_idx == 0:
                    created = (now + job[_RESIDUAL], next_seq(), _COMPLETE,
                               job)
                else:
                    device, dur = phases[phase_idx]
                    station = stations[device] if device in stations \
                        else self._station(device)
                    waiting = station.waiting
                    busy = station.active + station.bg_active
                    depth = len(waiting) + busy
                    if now != station._depth_since:
                        station._depth_integral += depth * (
                            now - station._depth_since)
                        station._depth_since = now
                    if depth > station.max_depth:
                        station.max_depth = depth
                    job[_STATION] = station
                    if waiting or busy >= station.slots:
                        job[_ENQUEUED_S] = now
                        waiting.append(job)
                    else:
                        station.active += 1
                        station.busy_s += dur
                        created = (now + dur, next_seq(), _PHASE_DONE, job)
            if freed is not None:
                # A queue only forms while every slot is held: the slot
                # just freed goes to its head, else idle slots drain
                # background backlog.
                waiting = freed.waiting
                if waiting:
                    job = waiting.popleft()
                    wait = now - job[_ENQUEUED_S]
                    job[_WAIT_S] += wait
                    if job[_WAITS] is not None and wait > 0.0:
                        job[_WAITS].append((freed.name, wait))
                    dur = job[_PHASES][job[_PHASE_IDX]][1]
                    freed.active += 1
                    freed.busy_s += dur
                    if created is not None:
                        heappush(heap, created)
                    created = (now + dur, next_seq(), _PHASE_DONE, job)
                elif freed.backlog_s > 0.0:
                    self._drain(freed)
                if kind == _BG_DONE and faults is not None:
                    faults.on_event(now)
        self.last_completion_s = last_completion
        self.queue_waits.extend(completed_waits)
        completed_waits.clear()
        if faults is not None:
            faults.finish(self.now)
        return records

    def add_backlog(self, device: str, seconds: float) -> None:
        """Queue deferrable background work on ``device``'s station."""
        station = self.stations.get(device) or self._station(device)
        station.note_depth(self.now)
        station.backlog_s += seconds
        if station.active + station.bg_active < station.slots:
            self._drain(station)      # a free slot: nobody waits there

    def _drain(self, station: DeviceStation) -> None:
        """Start a background quantum on each idle slot, while backlog
        lasts (nobody waits at a station with an idle slot)."""
        free = station.slots - station.active - station.bg_active
        while free > 0 and station.backlog_s > 0.0:
            chunk = min(self.config.background_quantum_s,
                        station.backlog_s)
            station.backlog_s -= chunk
            station.bg_active += 1
            station.busy_s += chunk
            station.bg_busy_s += chunk
            station.bg_chunks += 1
            heappush(self._heap, (self.now + chunk, self._next_seq(),
                                  _BG_DONE, station))
            free -= 1

    def summary(self) -> QueueingSummary:
        elapsed = self.now
        stations = {}
        for name, station in self.stations.items():
            station.note_depth(self.now)
            stations[name] = StationSummary(
                name=name, slots=station.slots, busy_s=station.busy_s,
                background_s=station.bg_busy_s,
                utilization=station.utilization(elapsed),
                served=station.served,
                mean_depth=station._depth_integral / elapsed
                if elapsed > 0 else 0.0,
                max_depth=station.max_depth)
        waits = self.queue_waits
        return QueueingSummary(
            duration_s=elapsed,
            wait_mean_us=waits.mean_us,
            wait_p99_us=waits.percentile(99) * 1e6,
            wait_max_us=waits.max * 1e6,
            stations=stations)

