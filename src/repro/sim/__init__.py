"""Trace-driven simulation substrate.

This package provides the pieces every storage model in the repository is
built on: typed I/O requests that carry content (:mod:`repro.sim.request`)
and latency statistics (:mod:`repro.sim.stats`).  Counters are ``int``
attributes of the devices and storage systems that keep them
(:class:`repro.devices.base.Counted`).

The default replay is *closed loop*: a workload issues one request, the
storage system returns its service latency, and virtual time advances by
that latency (plus any application compute time the workload models).
Response time and service time therefore coincide, which matches how
the paper reports block-level response times.

:mod:`repro.sim.engine` lifts that restriction: a deterministic
discrete-event simulation routes requests through per-device FIFO
queues, driven by the open-/closed-loop load generators of
:mod:`repro.sim.load`, so response time becomes queue wait plus
service and saturation behaviour is measurable
(``run_benchmark(engine="event")``, ``python -m repro sweep
load.rate``).
"""

from repro.sim.backing import BackingStore
from repro.sim.engine import (DEFAULT_DEVICE_SLOTS, DeviceStation,
                              EventEngine, QueueingSummary, RequestRecord,
                              StationSummary)
from repro.sim.load import ClosedLoopLoad, OpenLoopLoad, \
    default_closed_loop
from repro.sim.metrics import Monitor, SLORule
from repro.sim.request import IORequest, OpType
from repro.sim.stats import LatencyStats

__all__ = [
    "BackingStore",
    "ClosedLoopLoad",
    "DEFAULT_DEVICE_SLOTS",
    "DeviceStation",
    "EventEngine",
    "IORequest",
    "LatencyStats",
    "Monitor",
    "OpenLoopLoad",
    "OpType",
    "QueueingSummary",
    "RequestRecord",
    "SLORule",
    "StationSummary",
    "default_closed_loop",
]
