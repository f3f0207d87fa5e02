"""Discrete-event queueing engine for concurrent-load simulation.

The legacy experiment runner approximates wall-clock as *aggregate
device busy time / io_concurrency* — queueing delay, device contention
and saturation behaviour simply do not exist in that model.  This
module supplies the missing substrate: a deterministic discrete-event
simulation in which requests *arrive* on a timeline (driven by a
:mod:`repro.sim.load` generator), wait in per-device FIFO queues, and
overlap their service across devices, so per-request latency becomes
``queue_wait + service`` and throughput saturates when the bottleneck
device does.

Three pieces:

* **The capture tracer.**  Storage systems already emit one trace span
  per device operation (see :mod:`repro.sim.trace`).  The engine
  attaches a :class:`_CaptureTracer` that folds each foreground device
  span, as it is emitted, into the request's *phase list* — the
  ordered per-device visits of its service — and collects any
  background work (flushes, scans) the request triggered.  Span
  objects are buffered only for a consumer that reads them back (a
  downstream tracer, the profiler); a bare run builds none.  Requests
  are still processed in stream order, so block contents, device
  counters and service latencies are identical to a legacy run; the
  event simulation only re-times them.
* **Stations and the event heap.**  One :class:`DeviceStation` per
  device (keyed by trace name) with a configurable number of service
  slots (NCQ depth) and a FIFO queue.  A request's phases route
  through the stations in emission order, so request A's HDD phase
  overlaps request B's SSD phase.  Background work becomes *deferrable
  backlog*: it runs in bounded quanta only when a station has an idle
  slot and no waiting foreground request, and a foreground arrival
  waits at most one quantum — background yields to foreground.
* **Determinism.**  The event heap is keyed on ``(virtual time,
  sequence number)``; all randomness lives in the load generator's
  seeded RNG.  Two runs with the same seed produce identical event
  orders, latencies and queue waits — asserted by the test suite.

The experiment runner front end is
``run_benchmark(..., engine="event", load=...)``; the ``repro
loadtest`` CLI sweeps arrival rates over this engine to locate a
system's saturation knee.  Architecture notes: the "Event engine &
load generation" section of ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.sim.profile import classify_phase
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
    foreground work wants.  Depth accounting is time-weighted so the
    run summary can report the mean queue depth exactly.
    """

    __slots__ = ("name", "slots", "waiting", "active", "bg_active",
                 "busy_s", "bg_busy_s", "backlog_s", "served",
                 "bg_chunks", "max_depth", "_depth_integral",
                 "_depth_since")

    def __init__(self, name: str, slots: int) -> None:
        self.name = name
        self.slots = slots
        self.waiting: deque = deque()  # (job, enqueue time)
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

    @property
    def depth(self) -> int:
        """Requests waiting plus operations in service (incl. background
        quanta — they hold slots a foreground arrival must wait for)."""
        return len(self.waiting) + self.active + self.bg_active

    def note_depth(self, now: float) -> None:
        """Advance the time-weighted depth integral to ``now``.

        Called before every change to the station's depth, often
        several times within one event; a zero-width step adds nothing
        to the integral and is skipped.
        """
        depth = len(self.waiting) + self.active + self.bg_active
        if now != self._depth_since:
            self._depth_integral += depth * (now - self._depth_since)
            self._depth_since = now
        if depth > self.max_depth:
            self.max_depth = depth

    def mean_depth(self, elapsed: float) -> float:
        return self._depth_integral / elapsed if elapsed > 0 else 0.0

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
        best, best_util = None, 0.0
        for summary in self.stations.values():
            if summary.utilization > best_util:
                best, best_util = summary.name, summary.utilization
        return best

    def to_doc(self) -> Dict[str, object]:
        """JSON-ready form (``repro critpath --json``)."""
        return {
            "duration_s": self.duration_s,
            "wait_mean_us": self.wait_mean_us,
            "wait_p99_us": self.wait_p99_us,
            "wait_max_us": self.wait_max_us,
            "bottleneck": self.bottleneck,
            "stations": {
                name: {"slots": s.slots, "busy_s": s.busy_s,
                       "background_s": s.background_s,
                       "utilization": s.utilization,
                       "served": s.served,
                       "mean_depth": s.mean_depth,
                       "max_depth": s.max_depth}
                for name, s in sorted(self.stations.items())},
        }


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class RequestRecord:
    """One request in the engine: what was measured for it (``index``
    through ``verified``) and, while it is in flight, the station
    phases it is routing through.

    The routing state is dropped at completion, so a finished run's
    records hold the measurements only.
    """

    __slots__ = ("index", "is_read", "arrival_s", "service_s", "wait_s",
                 "completion_s", "verified",
                 "req", "phases", "phase_idx", "residual", "entries",
                 "waits")

    def __init__(self, index: int, is_read: bool, arrival_s: float,
                 service_s: float, verified: int = 0,
                 req: Optional[Tuple[str, int, int]] = None,
                 phases: Optional[List[Tuple[str, float]]] = None,
                 residual: float = 0.0,
                 entries: Optional[List[_Span]] = None,
                 waits: Optional[List[Tuple[str, float]]] = None) -> None:
        self.index = index
        self.is_read = is_read
        self.arrival_s = arrival_s
        self.service_s = service_s
        self.wait_s = 0.0
        self.completion_s = 0.0
        self.verified = verified
        self.req = req
        self.phases = phases
        self.phase_idx = 0
        #: Service time outside every station (CPU spans): the
        #: non-contended tail between the last phase and completion.
        self.residual = residual
        #: Buffered spans, when the capture tracer keeps them.
        self.entries = entries
        #: Per-station queue waits ``(device, seconds)`` — collected
        #: only when a profiler is attached (None otherwise).
        self.waits = waits

    @property
    def latency_s(self) -> float:
        """Response time: queue wait plus service."""
        return self.wait_s + self.service_s

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"RequestRecord(index={self.index}, "
                f"is_read={self.is_read}, arrival_s={self.arrival_s}, "
                f"service_s={self.service_s}, wait_s={self.wait_s}, "
                f"completion_s={self.completion_s}, "
                f"verified={self.verified})")


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


# Action names in ``EventEngine.event_log``.
_ARRIVAL = "arrival"
_PHASE_DONE = "phase_done"
_BG_DONE = "background_done"
_COMPLETE = "complete"

_phase_dur = itemgetter(1)


class EventEngine:
    """Deterministic discrete-event simulation over one storage system.

    Requests are *admitted* (processed through the system, in stream
    order, capturing their per-device phase decomposition) at their
    arrival events, then routed through the device stations; their
    latency is what the event timeline says it is.  Totals — service
    times, device counters, SSD writes, block contents — are identical
    to a legacy closed-loop replay by construction, which the collapse
    property test asserts.
    """

    def __init__(self, system, config: Optional[EngineConfig] = None,
                 downstream_tracer=None,
                 keep_event_log: bool = False,
                 profiler=None) -> None:
        self.system = system
        self.config = config if config is not None else EngineConfig()
        #: Critical-path profiler (:mod:`repro.sim.profile`), or None.
        self.profiler = profiler
        self._profile = profiler is not None
        self.capture = _CaptureTracer(downstream_tracer,
                                      keep_spans=self._profile)
        self._profile_from = 0
        self.stations: Dict[str, DeviceStation] = {}
        self.now = 0.0
        self.records: List[RequestRecord] = []
        self.queue_waits = LatencyStats()
        self.in_flight = 0
        #: Event time of the last request completion.  ``t_end`` keeps
        #: running past it while deferred background backlog drains, so
        #: throughput windows close here, not at heap exhaustion.
        self.last_completion_s = 0.0
        #: (time, action, label) triples when ``keep_event_log`` — the
        #: determinism test diffs two runs' logs exactly.
        self.event_log: Optional[List[Tuple[float, str, str]]] = \
            [] if keep_event_log else None
        #: (time, sequence number, handler, payload); the sequence
        #: number is unique, so handlers are never compared.
        self._heap: List[Tuple[float, int, object, object]] = []
        self._seq = 0
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
            .set_fn(lambda s=station: s.depth)
        registry.gauge("device_utilization", ("device",)) \
            .labels(device=station.name) \
            .set_fn(lambda s=station: s.utilization(self.now)
                    if self.now > 0 else 0.0)

    # -- event heap --------------------------------------------------------

    def _push(self, time_s: float, handler, payload) -> None:
        self._seq += 1
        heapq.heappush(self._heap, (time_s, self._seq, handler, payload))

    def _log_event(self, action: str, label: str) -> None:
        """Append to the event log.  The per-event handlers call this
        only when a log is kept, so a bare run formats no label."""
        if self.event_log is not None:
            self.event_log.append((self.now, action, label))

    # -- the run -----------------------------------------------------------

    def run(self, workload, load, verify_reads: bool = False,
            on_admit=None, on_complete=None,
            profile_from: int = 0) -> List[RequestRecord]:
        """Drive ``workload``'s stream through the system under ``load``.

        ``on_admit(index)`` fires before request ``index`` (0-based) is
        processed — the runner snapshots warmup state there;
        ``on_complete(record)`` fires at each completion event in event
        time.  ``profile_from`` keeps warmup requests (admission index
        below it) out of the attached profiler's attribution table so
        it covers the same window the latency statistics do.  Returns
        the completed records in admission order.
        """
        self._profile_from = profile_from
        self.system.set_tracer(self.capture)
        self._stream = workload.requests()
        self._workload = workload
        self._load = load
        self._verify = verify_reads
        self._on_admit = on_admit
        self._on_complete = on_complete
        load.reset()
        if load.open_loop:
            self._push(load.next_arrival(0.0), self._handle_arrival, None)
        else:
            for _ in range(load.clients):
                self._push(load.initial_think(), self._handle_arrival,
                           None)
        heap = self._heap
        heappop = heapq.heappop
        while heap:
            self.now, _seq, handler, payload = heappop(heap)
            handler(payload)
        if self.faults is not None:
            self.faults.finish(self.now)
        return self.records

    @property
    def t_end(self) -> float:
        return self.now

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
                mean_depth=station.mean_depth(elapsed),
                max_depth=station.max_depth)
        waits = self.queue_waits
        return QueueingSummary(
            duration_s=elapsed,
            wait_mean_us=waits.mean_us,
            wait_p99_us=waits.percentile(99) * 1e6,
            wait_max_us=waits.max * 1e6,
            stations=stations)

    # -- event handlers ----------------------------------------------------

    def _handle_arrival(self, _payload=None) -> None:
        request = next(self._stream, None)
        if request is None:
            if self.event_log is not None:
                self._log_event(_ARRIVAL, "drained")
            return
        index = len(self.records)
        if self.event_log is not None:
            self._log_event(_ARRIVAL, f"req{index}")
        if self.faults is not None:
            self.faults.on_admit(index)
        if self._on_admit is not None:
            self._on_admit(index)
        verified = 0
        if self._verify and request.is_read:
            latency, contents = self.system.process_read(request)
            shadow = self._workload.shadow
            for offset, content in enumerate(contents):
                if not np.array_equal(content,
                                      shadow[request.lba + offset]):
                    raise AssertionError(
                        f"{self.system.name} returned wrong content for "
                        f"block {request.lba + offset} on request {index}")
                verified += 1
        else:
            latency = self.system.process(request)
        req, phases, entries, bg_jobs = self.capture.take_request()
        # The built-in ``sum``: it is compensated on Python >= 3.12, so
        # a hand-written loop would yield different bits there.
        covered = sum(map(_phase_dur, phases))
        job = RequestRecord(
            index, request.is_read, self.now, latency, verified,
            req, phases, max(0.0, latency - covered), entries,
            [] if self._profile and index >= self._profile_from else None)
        self.records.append(job)
        self.in_flight += 1
        # Background work the request triggered becomes deferrable
        # backlog on the stations it targets.
        for device, dur in bg_jobs:
            self.add_backlog(device, dur)
        if self._load.open_loop:
            self._push(self._load.next_arrival(self.now),
                       self._handle_arrival, None)
        self._route(job)

    def add_backlog(self, device: str, seconds: float) -> None:
        """Queue deferrable background work on ``device``'s station."""
        station = self._station(device)
        station.note_depth(self.now)
        station.backlog_s += seconds
        self._kick(station)

    def _route(self, job: RequestRecord) -> None:
        """Send ``job`` to the station of its next phase — into service
        when a slot is free and nobody waits, else to the back of the
        FIFO — or, past its last phase, schedule its completion after
        the residual."""
        if job.phase_idx == len(job.phases):
            self._push(self.now + job.residual, self._handle_complete, job)
            return
        device, dur = job.phases[job.phase_idx]
        station = self._station(device)
        station.note_depth(self.now)
        if station.waiting or \
                station.active + station.bg_active >= station.slots:
            station.waiting.append((job, self.now))
        else:
            self._start_service(station, job, dur)

    def _start_service(self, station: DeviceStation, job: RequestRecord,
                       dur: float) -> None:
        station.active += 1
        station.busy_s += dur
        self._push(self.now + dur, self._handle_phase_done, (station, job))

    def _handle_phase_done(self, payload) -> None:
        station, job = payload
        if self.event_log is not None:
            self._log_event(_PHASE_DONE, f"{station.name}:req{job.index}")
        station.note_depth(self.now)
        station.active -= 1
        station.served += 1
        job.phase_idx += 1
        self._route(job)
        self._kick(station)

    def _kick(self, station: DeviceStation) -> None:
        """Fill free slots: waiting foreground first, then one
        background quantum per remaining idle slot.  The caller has
        advanced the station's depth integral to ``now``."""
        free = station.slots - station.active - station.bg_active
        waiting = station.waiting
        while free > 0 and waiting:
            job, enqueued = waiting.popleft()
            wait = self.now - enqueued
            job.wait_s += wait
            if job.waits is not None and wait > 0.0:
                job.waits.append((station.name, wait))
            self._start_service(station, job,
                                job.phases[job.phase_idx][1])
            free -= 1
        # A slot still free here means nobody is waiting.
        while free > 0 and station.backlog_s > 0.0:
            chunk = min(self.config.background_quantum_s,
                        station.backlog_s)
            station.backlog_s -= chunk
            station.bg_active += 1
            station.busy_s += chunk
            station.bg_busy_s += chunk
            station.bg_chunks += 1
            self._push(self.now + chunk, self._handle_bg_done, station)
            free -= 1

    def _handle_bg_done(self, station: DeviceStation) -> None:
        if self.event_log is not None:
            self._log_event(_BG_DONE, station.name)
        station.note_depth(self.now)
        station.bg_active -= 1
        self._kick(station)
        if self.faults is not None:
            self.faults.on_event(self.now)

    def _handle_complete(self, record: RequestRecord) -> None:
        if self.event_log is not None:
            self._log_event(_COMPLETE, f"req{record.index}")
        record.completion_s = self.now
        self.last_completion_s = self.now
        self.in_flight -= 1
        self.queue_waits.record(record.wait_s)
        if self._wait_hist is not None:
            self._wait_hist.observe(record.wait_s * 1e6)
        if record.entries is not None:
            self.capture.replay(record.req, record.entries, record.wait_s,
                                record.latency_s)
            if record.waits is not None:
                items = [(device, "queue_wait", dur)
                         for device, dur in record.waits]
                items.extend(service_items(record.entries))
                self.profiler.record_request(record.req[0], items,
                                             record.latency_s)
        record.req = record.phases = record.entries = record.waits = None
        if self._on_complete is not None:
            self._on_complete(record)
        if self.faults is not None:
            self.faults.on_event(self.now)
        if not self._load.open_loop:
            self._push(self.now + self._load.next_think(),
                       self._handle_arrival, None)
