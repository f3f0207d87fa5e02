"""Frozen monitor exports, byte for byte.

``monitor_digest.json`` pins, per monitored run, a sha256 of each thing
a :class:`~repro.sim.metrics.Monitor` hands a reader: the
``series.csv`` and ``series.jsonl`` exports of its windows, the
``metrics.prom`` exposition of its registry, its SLO breaches (rule,
window, bounds and value, floats exact) and ``render_report()``:

* ``legacy/sysbench/icash`` — the controller, flash, disk and DRAM
  instruments on the busy-time clock;
* ``legacy/tpcc/raid0`` — four member disks sharing one name, so the
  ``hdd``, ``hdd-2``... device labels, and a downsampled store;
* ``event/sysbench/icash`` — the queue-wait histogram, the engine's
  in-flight count and its stations;
* ``event/tpcc/raid0`` — the ``raid0`` station the engine creates
  mid-run, and a downsampled store;
* ``chaos/<scenario>`` — each of ``chaos.quick_scenarios()`` at
  :data:`CHAOS_REQUESTS` requests: the fault instruments and the
  scenario rules, through ``chaos.run_scenario`` itself.

Prometheus output follows registry insertion order and a counter's
floats their accumulation order, so a monitor that registers, reads or
adds in another order moves a pin.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict
from unittest import mock

from reference.pins import sha, sha_json
from repro.experiments import chaos
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim.metrics import (Monitor, export_prometheus,
                               export_series_csv, export_series_jsonl)
from repro.workloads import SysBenchWorkload, TPCCWorkload

#: Requests per chaos scenario (the matrix default is 2 000).
CHAOS_REQUESTS = 400

#: Pin name -> (workload factory, system, engine, Monitor keywords).
RUNS = {
    "legacy/sysbench/icash": (
        lambda: SysBenchWorkload(scale=0.1, n_requests=800, seed=2011),
        "icash", "legacy", dict(interval_s=0.001)),
    "legacy/tpcc/raid0": (
        lambda: TPCCWorkload(scale=0.1, n_requests=800, seed=2011),
        "raid0", "legacy", dict(interval_s=0.1, max_windows=16)),
    "event/sysbench/icash": (
        lambda: SysBenchWorkload(scale=0.1, n_requests=800, seed=2011),
        "icash", "event", dict(interval_s=0.002)),
    "event/tpcc/raid0": (
        lambda: TPCCWorkload(scale=0.1, n_requests=800, seed=2011),
        "raid0", "event", dict(interval_s=0.05, max_windows=16)),
}


CASES = list(RUNS) + [f"chaos/{scenario.scenario_id}"
                      for scenario in chaos.quick_scenarios()]


def exports(monitor: Monitor) -> Dict[str, str]:
    """A sha256 of each export of a finished ``monitor``."""
    with tempfile.TemporaryDirectory() as scratch:
        csv, jsonl, prom = (Path(scratch, name) for name in (
            "series.csv", "series.jsonl", "metrics.prom"))
        export_series_csv(monitor, str(csv))
        export_series_jsonl(monitor, str(jsonl))
        export_prometheus(monitor, str(prom))
        breaches = [[b.rule.name, b.window, b.t_start, b.t_end, b.value]
                    for b in monitor.breaches]
        return {"csv": sha(csv.read_bytes()),
                "jsonl": sha(jsonl.read_bytes()),
                "prom": sha(prom.read_bytes()),
                "breaches": sha_json(breaches),
                "report": sha(monitor.render_report())}


def monitored(name: str) -> Monitor:
    """The finished monitor of case ``name``."""
    if name.startswith("chaos/"):
        (scenario,) = [s for s in chaos.quick_scenarios()
                       if f"chaos/{s.scenario_id}" == name]
        made = []

        def keep(*args, **kwargs):
            made.append(Monitor(*args, **kwargs))
            return made[-1]

        with mock.patch.object(chaos, "Monitor", keep):
            chaos.run_scenario(scenario, n_requests=CHAOS_REQUESTS)
        (monitor,) = made
        return monitor
    factory, system, engine, kwargs = RUNS[name]
    workload = factory()
    monitor = Monitor(**kwargs)
    run_benchmark(workload, make_system(system, workload), engine=engine,
                  monitor=monitor)
    return monitor


def pin(name: str) -> Dict[str, str]:
    return exports(monitored(name))

