"""Discrete-event queueing engine for concurrent-load simulation.

The legacy experiment runner approximates wall-clock as *aggregate
device busy time / io_concurrency* — queueing delay, device contention
and saturation do not exist in that model.  Here requests *arrive* on a
timeline (a :mod:`repro.sim.load` generator), wait in per-device FIFO
queues and overlap their service across devices, so latency becomes
``queue_wait + service`` and throughput saturates with the bottleneck.

* **The recorder** (:class:`~repro.sim.trace.Recorder`) folds each
  foreground device span a system emits, as it is emitted, into the
  request's *phase list* — its ordered per-device visits — and
  collects the background work (flushes, scans, destages) it
  triggered.  It keeps the emissions themselves only for a fold that
  reads them (a ring trace, the profiler).  Requests are processed in
  stream order, so contents, counters and service times equal a
  legacy run's; the engine only re-times them.
* **Stations.**  One :class:`DeviceStation` per device with its service
  slots (NCQ depth, :data:`DEFAULT_DEVICE_SLOTS`) and a FIFO.
  Background work is *deferrable backlog*, run in quanta of at most
  :data:`BACKGROUND_QUANTUM_S` on slots no foreground request wants:
  background yields to foreground.
* **One loop.**  :meth:`EventEngine.run` handles all four event kinds
  — arrival, phase done, background quantum done, completion — itself;
  heap entries are ``(time, seq, kind, payload)`` with a small-int
  kind.  A request in flight is a flat list (its measurements, then its
  routing state), routed and started inline; a helper frame runs only
  when backlog forms or drains.  Observers (event log, faults, the
  ring, profiler and monitor folds) are branches of the same
  loop: a ring folds what a request triggered off its critical path at
  admission and the request itself at completion.  A completed request
  becomes a :class:`RequestRecord`.
* **Exact order.**  Entries are keyed on ``(time, seq)`` with ``seq``
  drawn when an event is created.  The last event a step creates is
  not pushed: ``heappushpop`` hands it straight back when it is the
  earliest, else swaps it for the heap head — the pop order of a push
  then a pop, so every run is the event order it always was.  All
  randomness lives in the load generator's seeded RNG.

The front end is ``run_benchmark(..., engine="event", load=...)``;
``repro sweep load.rate`` sweeps arrival rates over it to find a
system's knee.  See "Event engine & load generation" in ``docs/ARCHITECTURE.md``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from heapq import heappop, heappush, heappushpop
from itertools import count, filterfalse
from operator import attrgetter
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.sim.request import OpType
from repro.sim.stats import LatencyStats
from repro.sim.trace import Recorder, foreground

#: Service-slot counts (NCQ depth) per device trace name: the queue
#: depth the device accepts.  Flash exposes channel parallelism, the
#: RAID stripe has one slot per member; an unlisted device (the
#: mechanical disk, one head) gets one slot.
DEFAULT_DEVICE_SLOTS: Dict[str, int] = {
    "ssd": 8,
    "raid0": 4,
    "dram": 64,
}

#: The longest one deferrable background chunk holds a slot: the
#: worst-case time a foreground arrival waits behind background work.
BACKGROUND_QUANTUM_S = 2e-3


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
        """JSON-ready form (``repro run W --critpath --json``)."""
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
    _EMITTED, _WAITS = range(14)
_new_record = tuple.__new__   # a record from its fields, with no frame


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
_READ = OpType.READ


class EventEngine:
    """Deterministic discrete-event simulation over one storage system.

    Totals — service times, device counters, SSD writes, block contents
    — equal a legacy closed-loop replay's by construction (the collapse
    property test asserts it); only the timeline is the engine's.
    """

    def __init__(self, system, tracer=None,
                 keep_event_log: bool = False,
                 profiler=None) -> None:
        self.system = system
        #: Ring trace (:class:`repro.sim.trace.RingBufferTracer`) and
        #: critical-path profiler (:mod:`repro.sim.profile`), or None:
        #: folds over what the recorder keeps.
        self.tracer = tracer
        self.profiler = profiler
        self.recorder = Recorder(keep=tracer is not None
                                 or profiler is not None)
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
        self._next_seq = count(1).__next__
        #: Optional :class:`repro.sim.faults.FaultInjector` — fires
        #: scheduled faults at admission boundaries and closes
        #: degraded-mode windows as repair backlog drains.
        self.faults = None
        for device in system.serving_devices():
            self._station(getattr(device, "trace_name",
                                  getattr(device, "name", "device")))

    # -- stations and faults ----------------------------------------------

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
            station = DeviceStation(name, DEFAULT_DEVICE_SLOTS.get(name, 1))
            self.stations[name] = station
        return station

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
            on_measure=None, monitor=None,
            measure_from: int = 0) -> List[RequestRecord]:
        """Drive ``workload``'s stream through the system under ``load``.

        The measurement window opens at admission index ``measure_from``
        (0-based): ``on_measure()`` fires once, just before that request
        is processed — the runner snapshots warmup state there — and
        the attached profiler's attribution table leaves out the
        requests before it, so it covers the same window the latency
        statistics do.  An attached ``monitor``
        (:class:`~repro.sim.metrics.Monitor`) folds each completion in
        event time, from the request's wait and service as the engine
        holds them.  Returns the completed records
        in admission order.  The loop and its next-event register
        (``created``) are described in the module docstring.
        """
        system = self.system
        system.set_tracer(self.recorder)
        take_request = self.recorder.take_request
        process = system.process
        stream = workload.requests()
        stations = self.stations
        records = self.records
        log = self.event_log
        faults = self.faults
        tracer, profiler = self.tracer, self.profiler
        open_loop = load.open_loop
        heap = self._heap
        next_seq = self._next_seq
        last_completion = self.last_completion_s
        completed_waits = self._completed_waits
        fold = monitor.fold if monitor is not None else None
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
                    phases, emitted, bg_jobs = take_request()
                    if tracer is not None:
                        tracer.fold(filterfalse(foreground, emitted))
                    phase_idx = -len(phases)
                    covered = 0.0
                    for _device, dur in phases:
                        covered += dur
                    residual = latency - covered
                    job = [
                        index, is_read, now, latency, 0.0, 0.0, verified,
                        residual if residual > 0.0 else 0.0, phases,
                        phase_idx, None, 0.0, emitted,
                        [] if profiler is not None and index >= measure_from
                        else None]
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
                emitted = record[_EMITTED]
                if emitted is not None:
                    # Kept emissions fold into the ring and, in the
                    # measured window, into the profiler with the waits.
                    latency = wait + record[_SERVICE_S]
                    if tracer is not None:
                        tracer.fold(filter(foreground, emitted), latency,
                                    wait)
                    station_waits = record[_WAITS]
                    if station_waits is not None:
                        profiler.fold(emitted, latency, station_waits)
                records[record[_INDEX]] = _new_record(RequestRecord,
                                                      record[:_PHASES])
                if fold is not None:
                    fold(record[_IS_READ], wait + record[_SERVICE_S], wait,
                         now)
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
            chunk = min(BACKGROUND_QUANTUM_S, station.backlog_s)
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

