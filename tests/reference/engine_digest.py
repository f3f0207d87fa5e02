"""Frozen event order of the discrete-event engine, bit for bit.

``engine_digest.json`` pins five seeded event-engine runs, each with the
event log kept, as they ran before the engine became one loop over
flat request state:

* ``tpcc/lru`` — closed loop; the cache's destages become backlog;
* ``sysbench/icash`` — closed loop; flush and scan backlog, nonzero
  residuals;
* ``sysbench/icash/open`` — open loop far past the knee;
* ``sysbench/icash/chaos`` — a :class:`~repro.sim.faults.FaultPlan`:
  repair backlog and fault events in the log;
* ``tpcc/dedup/observed`` — a profiler, a recording tracer downstream
  and verified reads.

Each pin holds the event log, every record field, the queue-wait
samples, every station (its summary plus background chunks), the fault
outcomes, the attribution rows and the replayed span count, and the
whole :class:`~repro.experiments.runner.RunResult` of the same spec
through ``run_benchmark``.  Floats are recorded with ``float.hex`` (or
hashed through ``json``, whose float form round-trips exactly), so a
changed last bit or a swapped event is a changed digest.
"""

from __future__ import annotations

from typing import Dict

from reference.pins import fhex as _hex
from reference.pins import sha_json as _sha
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim.engine import EventEngine
from repro.sim.faults import FaultInjector, FaultPlan, FaultSpec
from repro.sim.load import OpenLoopLoad, default_closed_loop
from repro.sim.profile import Profiler
from repro.sim.trace import RingBufferTracer
from repro.workloads import SysBenchWorkload, TPCCWorkload

#: The warm-up share every case keeps out of the profiler's table,
#: ``run_benchmark``'s default.
WARMUP_FRACTION = 0.25

#: Pin name -> (workload factory, system, load factory or None for the
#: workload's default closed loop, fault plan factory or None,
#: observed: profiler + downstream tracer + verified reads).
CASES = {
    "tpcc/lru": (
        lambda: TPCCWorkload(scale=0.1, n_requests=1000, seed=2011),
        "lru", None, None, False),
    "sysbench/icash": (
        lambda: SysBenchWorkload(scale=0.1, n_requests=800, seed=2011),
        "icash", None, None, False),
    "sysbench/icash/open": (
        lambda: SysBenchWorkload(scale=0.05, n_requests=300, seed=2011),
        "icash", lambda: OpenLoopLoad(300_000.0, seed=42), None, False),
    "sysbench/icash/chaos": (
        lambda: SysBenchWorkload(scale=0.25, n_requests=500, seed=2011),
        "icash", lambda: OpenLoopLoad(2500.0, seed=11),
        lambda: FaultPlan([FaultSpec("hdd_failure", at_request=200),
                           FaultSpec("ssd_wearout", at_request=300)],
                          seed=7),
        False),
    "tpcc/dedup/observed": (
        lambda: TPCCWorkload(scale=0.1, n_requests=800, seed=2011),
        "dedup", None, None, True),
}


def _engine_run(name: str) -> Dict[str, object]:
    """Drive case ``name`` on a bare :class:`EventEngine`."""
    make_workload, system_name, make_load, make_plan, observed = CASES[name]
    workload = make_workload()
    system = make_system(system_name, workload)
    system.ingest()
    profiler = Profiler() if observed else None
    tracer = RingBufferTracer(None) if observed else None
    engine = EventEngine(system, keep_event_log=True,
                         tracer=tracer, profiler=profiler)
    injector = None
    if make_plan is not None:
        injector = FaultInjector(make_plan(), system, engine)
        engine.attach_faults(injector)
    load = make_load() if make_load is not None \
        else default_closed_loop(workload)
    records = engine.run(workload, load, verify_reads=observed,
                         measure_from=int(workload.n_requests
                                          * WARMUP_FRACTION))
    summary = engine.summary()
    waits = engine.queue_waits
    pin: Dict[str, object] = {
        "events": len(engine.event_log),
        "events_sha256": _sha([(_hex(t), action, label)
                               for t, action, label in engine.event_log]),
        "records": len(records),
        "records_sha256": _sha([
            (r.index, r.is_read, _hex(r.arrival_s), _hex(r.service_s),
             _hex(r.wait_s), _hex(r.completion_s), _hex(r.latency_s),
             _hex(r.residual), r.verified) for r in records]),
        "queue_waits": waits.count,
        "queue_waits_sha256": _sha([_hex(s) for s in waits._samples]),
        "queue_wait_moments": [_hex(waits.total), _hex(waits.mean_us),
                               _hex(waits.std),
                               _hex(min(waits._samples, default=0.0)),
                               _hex(waits.max)],
        "summary": {
            "duration_s": _hex(summary.duration_s),
            "wait_mean_us": _hex(summary.wait_mean_us),
            "wait_p99_us": _hex(summary.wait_p99_us),
            "wait_max_us": _hex(summary.wait_max_us),
            "bottleneck": summary.bottleneck,
            "last_completion_s": _hex(engine.last_completion_s),
        },
        "stations": {
            station: {"slots": s.slots, "busy_s": _hex(s.busy_s),
                      "background_s": _hex(s.background_s),
                      "utilization": _hex(s.utilization),
                      "served": s.served, "mean_depth": _hex(s.mean_depth),
                      "max_depth": s.max_depth,
                      "bg_chunks": engine.stations[station].bg_chunks}
            for station, s in sorted(summary.stations.items())},
    }
    if injector is not None:
        pin["faults"] = [
            [o.kind, o.at_request, _hex(o.t_injected_s),
             None if o.t_recovered_s is None else _hex(o.t_recovered_s),
             o.station, o.rebuild_blocks, o.skipped, o.detail]
            for o in injector.report().outcomes]
    if observed:
        pin["verified"] = sum(r.verified for r in records)
        pin["attribution_sha256"] = _sha(profiler.table.to_rows())
        pin["spans"] = len(tracer.events)
        pin["spans_sha256"] = _sha([
            (e.name, e.track, e.req, _hex(e.ts), _hex(e.dur))
            for e in tracer.events])
    return pin


def _runner_run(name: str) -> str:
    """The same case through ``run_benchmark``: its whole result."""
    make_workload, system_name, make_load, make_plan, observed = CASES[name]
    workload = make_workload()
    result = run_benchmark(
        workload, make_system(system_name, workload), engine="event",
        load=make_load() if make_load is not None else None,
        fault_plan=make_plan() if make_plan is not None else None,
        verify_reads=observed, warmup_fraction=WARMUP_FRACTION,
        profiler=Profiler() if observed else None,
        tracer=RingBufferTracer(None) if observed else None)
    return _sha(result.to_payload())


def pin(name: str) -> Dict[str, object]:
    """Case ``name``'s pin, computed by the engine on the path."""
    return dict(_engine_run(name), result_sha256=_runner_run(name))

