"""Closed-loop benchmark runner.

Replays one workload's request stream into one storage system, advancing
a virtual clock by service latencies and per-transaction application
compute.  Produces a :class:`RunResult` carrying every quantity the
paper's figures report: throughput, per-class response times, CPU
utilisation, energy and SSD write counts.

Two modelling choices bridge the gap between the paper's testbed and a
scaled trace replay:

* **Warmup window.**  The paper measures steady state over runs of
  hundreds of thousands to millions of requests, where cold compulsory
  misses are noise.  A scaled trace of a few thousand requests is *all*
  warmup unless excluded, so the first ``warmup_fraction`` of the stream
  populates caches and reference sets without being measured.
* **Concurrency.**  The real benchmarks drive many client streams
  (SysBench 16 threads, TPC-C 50 clients...), overlapping their I/O.
  Wall-clock time therefore takes aggregate device busy time divided by
  the workload's concurrency level, plus the serial application compute —
  the standard open-queue approximation.

Reads are optionally verified against the workload's shadow copy — the
end-to-end correctness check that makes the I-CASH numbers trustworthy
(a storage model that returned wrong bytes fast would be worthless).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import compress
from operator import add, attrgetter, not_
from typing import Dict, List, Optional

from repro.baselines.base import StorageSystem
from repro.metrics.cpu import cpu_utilization
from repro.metrics.energy import EnergyReport, measure_energy
from repro.sim.engine import (EventEngine, QueueingSummary,
                              StationSummary, _CaptureTracer,
                              read_verified, service_items)
from repro.sim.load import default_closed_loop
from repro.sim.profile import RESIDUAL_PHASE, AttributionTable
from repro.sim.metrics import SLOBreach
from repro.sim.stats import LatencyStats
from repro.workloads.base import Workload

#: The two wall-clock models ``run_benchmark`` accepts.
ENGINES = ("legacy", "event")

_wait_s, _service_s, _is_read, _verified = map(
    attrgetter, ("wait_s", "service_s", "is_read", "verified"))


@dataclass
class RunResult:
    """Everything measured from one (workload, system) run.

    Latency and throughput fields cover the post-warmup measurement
    window; energy and SSD-write totals cover the whole run (the paper's
    power meter and write counters also ran for whole benchmarks).
    """

    workload: str
    system: str
    n_requests: int
    n_measured: int
    n_transactions: int
    #: Wall-clock of the measurement window (s).
    wall_time_s: float
    #: Wall-clock of the entire run including warmup (s).
    full_wall_time_s: float
    io_time_s: float
    app_cpu_s: float
    #: The CPU-busy part of ``app_cpu_s`` (the rest is waits/sleeps).
    app_cpu_busy_s: float
    storage_cpu_s: float
    background_s: float
    io_concurrency: int
    read_mean_us: float
    write_mean_us: float
    read_p99_us: float
    write_p99_us: float
    ssd_write_ops: int
    ssd_write_blocks: int
    energy: EnergyReport
    counters: Dict[str, int] = field(default_factory=dict)
    verified_reads: int = 0
    #: SLO breaches the monitor's health rules flagged (empty without a
    #: monitor or when every window held).
    slo_breaches: List[SLOBreach] = field(default_factory=list)
    #: Which wall-clock model produced this result ("legacy" or
    #: "event").
    engine: str = "legacy"
    #: Per-station queueing behaviour of an ``engine="event"`` run
    #: (waits, utilisations, depths); None under the legacy model.
    queueing: Optional[QueueingSummary] = None
    #: Critical-path attribution when a
    #: :class:`repro.sim.profile.Profiler` was attached; None for
    #: plain runs.  Covers the post-warmup measurement window, same as
    #: the latency statistics.
    attribution: Optional[AttributionTable] = None
    #: Outcomes of an armed :class:`repro.sim.faults.FaultPlan`
    #: (a :class:`repro.sim.faults.FaultReport`); None when the run
    #: injected no faults.
    faults: Optional[object] = None

    @property
    def transactions_per_s(self) -> float:
        return self.n_transactions / self.wall_time_s \
            if self.wall_time_s else 0.0

    @property
    def requests_per_s(self) -> float:
        return self.n_measured / self.wall_time_s \
            if self.wall_time_s else 0.0

    @property
    def tx_response_ms(self) -> float:
        """Mean application-level transaction response time."""
        if not self.n_transactions:
            return 0.0
        return (self.io_time_s + self.app_cpu_s) \
            / self.n_transactions * 1e3

    @property
    def io_response_ms(self) -> float:
        """Mean block-request response time (ms), both classes pooled."""
        if not self.n_measured:
            return 0.0
        return self.io_time_s / self.n_measured * 1e3

    @property
    def cpu_utilization(self) -> float:
        """Host CPU utilisation over the measurement window.

        The storage stack's cycles (codec, hashing, scans) spread across
        the same cores the concurrent client streams run on, so they
        normalise by the concurrency level, like I/O time does.
        """
        return cpu_utilization(
            self.app_cpu_busy_s,
            self.storage_cpu_s / max(1, self.io_concurrency),
            self.wall_time_s)

    @property
    def loadsim_score(self) -> float:
        """LoadSim-style score: response-time based, lower is better.

        Defined as the mean transaction response time in microseconds —
        monotone in what LoadSim2003's weighted-response score measures.
        """
        return self.tx_response_ms * 1e3

    # -- worker transport --------------------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Plain-data snapshot for cross-process transport.

        Parallel experiment workers (:mod:`repro.experiments.parallel`)
        ship results back as payloads: scalars, nested dicts and lists
        only — no live tracer, registry or monitor state.  The
        ``slo_breaches`` monitor product and fault-report objects are
        deliberately not carried (monitors and fault
        injection are interactive-run tooling; attach them
        to serial runs), and :meth:`from_payload` restores everything
        else bit-identically — floats cross pickle exactly.
        """
        payload: Dict[str, object] = {
            "workload": self.workload,
            "system": self.system,
            "n_requests": self.n_requests,
            "n_measured": self.n_measured,
            "n_transactions": self.n_transactions,
            "wall_time_s": self.wall_time_s,
            "full_wall_time_s": self.full_wall_time_s,
            "io_time_s": self.io_time_s,
            "app_cpu_s": self.app_cpu_s,
            "app_cpu_busy_s": self.app_cpu_busy_s,
            "storage_cpu_s": self.storage_cpu_s,
            "background_s": self.background_s,
            "io_concurrency": self.io_concurrency,
            "read_mean_us": self.read_mean_us,
            "write_mean_us": self.write_mean_us,
            "read_p99_us": self.read_p99_us,
            "write_p99_us": self.write_p99_us,
            "ssd_write_ops": self.ssd_write_ops,
            "ssd_write_blocks": self.ssd_write_blocks,
            "energy": {"hdd_j": self.energy.hdd_j,
                       "ssd_j": self.energy.ssd_j,
                       "cpu_j": self.energy.cpu_j},
            "counters": dict(self.counters),
            "verified_reads": self.verified_reads,
            "engine": self.engine,
            "queueing": None,
            "attribution": None,
        }
        if self.queueing is not None:
            payload["queueing"] = asdict(self.queueing)
        if self.attribution is not None:
            # Per-request (op, latency, items) in recording order,
            # *excluding* the derived (host, other) residual item: the
            # replay in from_payload recomputes it from the identical
            # floats, rebuilding rows and stats bit-identically.
            payload["attribution"] = [
                (r.op, r.latency_s,
                 [item for item in r.items
                  if item[:2] != ("host", RESIDUAL_PHASE)])
                for r in self.attribution.requests]
        return payload

    @classmethod
    def from_payload(cls, payload: Dict[str, object]) -> "RunResult":
        """Rebuild a result from :meth:`to_payload` output."""
        data = dict(payload)
        energy = data.pop("energy")
        queueing = data.pop("queueing")
        attribution = data.pop("attribution")
        result = cls(energy=EnergyReport(**energy), **data)
        if queueing is not None:
            result.queueing = QueueingSummary(**dict(queueing, stations={
                name: StationSummary(**fields)
                for name, fields in queueing["stations"].items()}))
        if attribution is not None:
            table = AttributionTable()
            for op, latency_s, items in attribution:
                table.record_request(op, items, latency_s)
            result.attribution = table
        return result


class _Measurement:
    """What the two clocks share of one run.

    Construction is the run's preamble — the ingest pass, monitor
    attach, the cpu and SSD-write baselines that keep load-phase work
    out of the results, the warm-up cut-off — and :meth:`result`
    assembles the :class:`RunResult` from the latencies recorded in
    between plus the few quantities each clock derives its own way.
    """

    def __init__(self, workload: Workload, system: StorageSystem,
                 warmup_fraction: float, preload: bool,
                 monitor, profiler) -> None:
        if preload:
            system.ingest()
        if monitor is not None:
            monitor.attach(system, workload)
        self.workload = workload
        self.system = system
        self.monitor = monitor
        self.profiler = profiler
        self.cpu_base = system.cpu_time
        self.ssd_writes_base = system.ssd_write_ops
        self.ssd_write_blocks_base = system.ssd_write_blocks
        n_total = getattr(workload, "n_requests", None)
        self.warmup_cutoff = \
            int(n_total * warmup_fraction) if n_total else 0
        self.cpu_at_warmup = 0.0
        self.bg_at_warmup = 0.0
        self.read_lat = LatencyStats()
        self.write_lat = LatencyStats()
        self.io_time_all = 0.0
        self.io_time_meas = 0.0
        self.n_measured = 0
        self.verified = 0

    def mark_warmup(self) -> None:
        """The measurement window opens here."""
        self.cpu_at_warmup = self.system.cpu_time
        self.bg_at_warmup = self.system.background_time

    def record(self, is_read: bool, latency: float,
               measured: bool) -> None:
        self.io_time_all += latency
        if measured:
            self.io_time_meas += latency
            self.n_measured += 1
            if is_read:
                self.read_lat.record(latency)
            else:
                self.write_lat.record(latency)

    def record_all(self, records) -> None:
        """Fold a finished event run's records, in admission order, in
        one frame: the same sums, in the same order, as :meth:`record`
        per record."""
        cutoff = self.warmup_cutoff
        latencies = list(map(add, map(_wait_s, records),
                             map(_service_s, records)))
        io_time_all, io_time_meas = self.io_time_all, self.io_time_meas
        for index, latency in enumerate(latencies):
            io_time_all += latency
            if index >= cutoff:
                io_time_meas += latency
        self.io_time_all, self.io_time_meas = io_time_all, io_time_meas
        measured = latencies[cutoff:]
        self.n_measured += len(measured)
        reads = list(map(_is_read, records[cutoff:]))
        self.read_lat.extend(list(compress(measured, reads)))
        self.write_lat.extend(list(compress(measured, map(not_, reads))))
        self.verified += sum(map(_verified, records))

    def flush(self, flush_at_end: bool, verify: bool) -> float:
        """Final foreground flush, charged to the measured window; a
        verified run then checks the system's own invariants."""
        latency = self.system.flush() if flush_at_end else 0.0
        self.io_time_all += latency
        self.io_time_meas += latency
        if verify:
            self.system.check_invariants()
        return latency

    def transactions(self, n_requests: int) -> int:
        return max(1, n_requests // self.workload.ios_per_transaction)

    def app_cpu(self, n_requests: int) -> float:
        """Application compute of the transactions ``n_requests`` make."""
        return self.transactions(n_requests) \
            * self.workload.app_compute_per_tx

    def result(self, *, wall: float, full_wall: float, n_requests: int,
               io_concurrency: int, engine: str,
               queueing: Optional[QueueingSummary] = None,
               faults: Optional[object] = None) -> RunResult:
        workload, system = self.workload, self.system
        monitor, profiler = self.monitor, self.profiler
        app_cpu = self.app_cpu(self.n_measured)
        return RunResult(
            workload=workload.name,
            system=system.name,
            n_requests=n_requests,
            n_measured=self.n_measured,
            n_transactions=self.transactions(self.n_measured),
            wall_time_s=wall,
            full_wall_time_s=full_wall,
            io_time_s=self.io_time_meas,
            app_cpu_s=app_cpu,
            app_cpu_busy_s=app_cpu * workload.app_cpu_fraction,
            storage_cpu_s=system.cpu_time - self.cpu_at_warmup,
            background_s=system.background_time - self.bg_at_warmup,
            io_concurrency=io_concurrency,
            read_mean_us=self.read_lat.mean_us,
            write_mean_us=self.write_lat.mean_us,
            read_p99_us=self.read_lat.percentile(99) * 1e6,
            write_p99_us=self.write_lat.percentile(99) * 1e6,
            ssd_write_ops=system.ssd_write_ops - self.ssd_writes_base,
            ssd_write_blocks=system.ssd_write_blocks
            - self.ssd_write_blocks_base,
            energy=measure_energy(
                system, full_wall,
                self.app_cpu(n_requests) * workload.app_cpu_fraction,
                storage_cpu_s=system.cpu_time - self.cpu_base),
            counters=system.counters(),
            verified_reads=self.verified,
            slo_breaches=list(monitor.breaches) if monitor is not None
            else [],
            engine=engine,
            queueing=queueing,
            attribution=profiler.table if profiler is not None else None,
            faults=faults)


def run_benchmark(workload: Workload, system: StorageSystem,
                  verify_reads: bool = False,
                  warmup_fraction: float = 0.25,
                  preload: bool = True,
                  flush_at_end: bool = True,
                  tracer=None,
                  monitor=None,
                  engine: str = "legacy",
                  load=None,
                  profiler=None,
                  fault_plan=None,
                  ledger=None
                  ) -> RunResult:
    """Replay ``workload`` into ``system`` and measure the run.

    ``verify_reads`` compares every read with the workload's shadow and,
    after the final flush, calls :meth:`StorageSystem.check_invariants`.

    ``preload`` runs the architecture's data-set organisation pass
    (:meth:`StorageSystem.ingest`) before the stream — the load phase
    every real benchmark performs — and excludes both its time and its
    device writes from the measured results.

    ``tracer`` (a :class:`repro.sim.trace.RingBufferTracer`) is attached
    *after* the ingest pass so the trace covers the benchmark stream
    itself rather than flooding the ring buffer with load-phase events.

    ``monitor`` (a :class:`repro.sim.metrics.Monitor`) likewise attaches
    after ingest; its sampler runs on the aggregate device-busy-time
    clock (``io_time_all``, the same virtual timeline trace spans lie
    on).  Its windowed series stays on ``monitor.store``, which ``repro
    monitor`` exports; its SLO breaches land in
    ``RunResult.slo_breaches``.

    ``engine`` selects the wall-clock model.  The default ``"legacy"``
    is the open-queue approximation documented above and stays
    bit-identical run to run; ``"event"`` hands the stream to the
    discrete-event queueing engine (:mod:`repro.sim.engine`), where a
    ``load`` generator (:mod:`repro.sim.load`; default: a closed loop
    matching the workload's ``io_concurrency`` and per-I/O think time)
    times arrivals and per-request latency becomes ``queue_wait +
    service``.  Under ``"event"`` the monitor samples on the event
    clock and the result carries a :class:`QueueingSummary`.

    ``profiler`` (a :class:`repro.sim.profile.Profiler`) attributes
    each measured request's end-to-end latency to ``(device, phase)``
    pairs; its table lands in ``RunResult.attribution``.  Under the
    event engine the attribution includes exact per-station queue
    waits; under the legacy model it covers the service phases (queues
    do not exist there).

    ``fault_plan`` (a :class:`repro.sim.faults.FaultPlan`) arms fault
    injection: faults fire at their scheduled admission indices,
    repair work competes with foreground I/O through the station
    queues, and the outcomes land in ``RunResult.faults``.  Faults
    need the event timeline, so this requires ``engine="event"``.

    ``ledger`` (a :class:`repro.ledger.LedgerWriter`) appends the
    result — provenance plus a curated metric snapshot — to the
    persistent run store under ``command="run_benchmark"``.  The
    default, None, records nothing and costs nothing (see
    docs/LEDGER.md).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; pick one of "
                         f"{ENGINES}")
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(
            f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    if engine == "event":
        result = _run_event_benchmark(
            workload, system, verify_reads=verify_reads,
            warmup_fraction=warmup_fraction, preload=preload,
            flush_at_end=flush_at_end, tracer=tracer, monitor=monitor,
            load=load, profiler=profiler,
            fault_plan=fault_plan)
        _ledger_record(ledger, result, workload, warmup_fraction)
        return result
    if fault_plan is not None:
        raise ValueError("fault injection needs engine='event'; the "
                         "legacy model has no arrival timeline to "
                         "schedule faults on (see docs/RELIABILITY.md)")
    if load is not None:
        raise ValueError("load generators need engine='event'; the "
                         "legacy model has no arrival timeline")
    run = _Measurement(workload, system, warmup_fraction, preload,
                       monitor, profiler)
    capture = None
    if profiler is not None:
        # Interpose the engine's capture tracer so each request's
        # service phases can be harvested for attribution; recorded
        # spans still reach the caller's tracer via replay.
        capture = _CaptureTracer(tracer, keep_spans=True)
        system.set_tracer(capture)
    elif tracer is not None:
        system.set_tracer(tracer)
    warmup_cutoff = run.warmup_cutoff
    n_requests = 0
    for request in workload.requests():
        if n_requests == warmup_cutoff:
            run.mark_warmup()
        if verify_reads and request.is_read:
            latency, verified = read_verified(system, workload.shadow,
                                              request, n_requests)
            run.verified += verified
        else:
            latency = system.process(request)
        measured = n_requests >= warmup_cutoff
        if capture is not None:
            creq, _phases, entries, _bg = capture.take_request()
            if measured:
                profiler.record_request(creq[0],
                                        service_items(entries),
                                        latency)
            capture.replay(creq, entries, 0.0, latency)
        run.record(request.is_read, latency, measured)
        if monitor is not None:
            monitor.on_request(request.is_read, latency, run.io_time_all)
        n_requests += 1
    run.flush(flush_at_end, verify_reads)
    if monitor is not None:
        monitor.finish(run.io_time_all)
    concurrency = max(1, workload.io_concurrency)
    # Background work (I-CASH's flushes and scans) runs on devices that
    # are otherwise idle on its critical path — that offload is the
    # architecture's point — so it shapes device busy time and energy but
    # not wall-clock.  Foreground I/O divides by client concurrency.
    wall = run.io_time_meas / concurrency + run.app_cpu(run.n_measured)
    full_wall = run.io_time_all / concurrency + run.app_cpu(n_requests) \
        + system.background_time / concurrency
    result = run.result(wall=wall, full_wall=full_wall,
                        n_requests=n_requests, io_concurrency=concurrency,
                        engine="legacy")
    _ledger_record(ledger, result, workload, warmup_fraction)
    return result


def record_run(ledger, result: RunResult, command: str, spec=None,
               extra=None, host_wall_s: Optional[float] = None
               ) -> Optional[str]:
    """The one place experiment code writes to the run ledger.

    ``ledger`` is a :class:`repro.ledger.LedgerWriter`, or None to
    record nothing (duck-typed: no :mod:`repro.ledger` import here).
    ``spec`` is the executed :class:`~repro.experiments.parallel.RunSpec`
    wherever one exists.
    Returns the row's run id, None when nothing was recorded.
    """
    if ledger is None:
        return None
    return ledger.record(result, command=command, spec=spec, extra=extra,
                         host_wall_s=host_wall_s)


def _ledger_record(ledger, result: RunResult, workload,
                   warmup_fraction: float) -> None:
    """Append a direct ``run_benchmark`` call to the run ledger."""
    record_run(ledger, result, "run_benchmark",
               {"seed": getattr(workload, "seed", None),
                "warmup_fraction": warmup_fraction})


def _run_event_benchmark(workload: Workload, system: StorageSystem,
                         verify_reads: bool,
                         warmup_fraction: float,
                         preload: bool,
                         flush_at_end: bool,
                         tracer,
                         monitor,
                         load,
                         profiler=None,
                         fault_plan=None
                         ) -> RunResult:
    """The ``engine="event"`` half of :func:`run_benchmark`.

    Requests are still *processed* in stream order (so device state,
    block contents and service times match a legacy replay exactly);
    the event engine re-times them on an arrival/queue/service
    timeline.  Wall-clock is event time over the measurement window,
    ``io_time_s`` is the sum of response times (wait + service), and
    warmup is cut by admission index exactly like the legacy path.
    """
    run = _Measurement(workload, system, warmup_fraction, preload,
                       monitor, profiler)
    if load is None:
        load = default_closed_loop(workload)
    sim = EventEngine(system, downstream_tracer=tracer,
                      profiler=profiler)
    if monitor is not None:
        sim.register_metrics(monitor.registry)
    injector = None
    if fault_plan is not None:
        from repro.sim.faults import FaultInjector

        injector = FaultInjector(
            fault_plan, system, sim,
            registry=monitor.registry if monitor is not None else None)
        sim.attach_faults(injector)
    on_complete = None
    if monitor is not None:
        def on_complete(record) -> None:
            monitor.on_request(record.is_read, record.latency_s, sim.now)

    records = sim.run(workload, load, verify_reads=verify_reads,
                      on_measure=run.mark_warmup, on_complete=on_complete,
                      measure_from=run.warmup_cutoff)
    queueing = sim.summary()
    run.record_all(records)
    # Two clocks: ``t_full`` runs until the heap drains (deferred
    # background included); the throughput window closes at the last
    # request completion — trailing background is off the critical
    # path, exactly as the legacy model treats it.
    flush_latency = run.flush(flush_at_end, verify_reads)
    t_full = sim.now + flush_latency
    t_last = sim.last_completion_s + flush_latency
    if monitor is not None:
        monitor.finish(t_full)
    # The measurement window opens when the first measured request
    # arrives and closes when the last completion (plus any final
    # flush) lands on the event clock.
    if len(records) > run.warmup_cutoff:
        t_meas_start = records[run.warmup_cutoff].arrival_s
    else:
        t_meas_start = t_last
    return run.result(
        wall=t_last - t_meas_start, full_wall=t_full,
        n_requests=len(records), io_concurrency=workload.io_concurrency,
        engine="event", queueing=queueing,
        faults=injector.report() if injector is not None else None)
