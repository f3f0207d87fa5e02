"""Frozen trace files, folded stacks and attribution rows, byte for byte.

``trace_digest.json`` pins what the observers hand a reader, as they
were before the ring trace and the profiler became folds over one
recorder:

* ``tpcc/<system>`` for all five systems and ``specsfs/icash`` — each
  run twice, with ``tracer=`` plus ``profiler=``: on the legacy engine
  and on the event engine;
* ``tpcc/icash/overflow`` — a legacy run into a ring too small for it.

Each run pins the sha256 of its ``export_jsonl`` bytes (completeness
header included), its ``export_chrome_trace`` bytes and its
``export_folded`` bytes (the profiler's rows as request stacks); an
event run also pins ``profiler.table.to_rows()``, the overflow case the
ring's surviving events and its drop count.  The profiler beside a
legacy ring leaves the ring as it is, event for event, so the JSONL and
Chrome pins predate it.
"""

from __future__ import annotations

import tempfile
from pathlib import Path
from typing import Dict

from reference.pins import sha, sha_json
from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim.profile import Profiler, export_folded
from repro.sim.trace import (RingBufferTracer, export_chrome_trace,
                             export_jsonl)
from repro.workloads import SpecSFSWorkload, TPCCWorkload

SYSTEMS = ("icash", "fusion-io", "raid0", "lru", "dedup")

#: Pin name -> (workload factory, system, ring capacity).
CASES = {
    **{f"tpcc/{system}": (
        lambda: TPCCWorkload(scale=0.1, n_requests=600, seed=2011),
        system, None) for system in SYSTEMS},
    "specsfs/icash": (
        lambda: SpecSFSWorkload(scale=0.1, n_requests=500, seed=2011),
        "icash", None),
    "tpcc/icash/overflow": (
        lambda: TPCCWorkload(scale=0.1, n_requests=300, seed=2011),
        "icash", 500),
}


def _trace_pin(tracer: RingBufferTracer,
               profiler: Profiler) -> Dict[str, object]:
    """What a reader of the run gets: the three files."""
    with tempfile.TemporaryDirectory() as scratch:
        jsonl, chrome, folded = (Path(scratch, name) for name in (
            "trace.jsonl", "trace.json", "flame.folded"))
        export_jsonl(tracer, str(jsonl))
        export_chrome_trace(tracer, str(chrome))
        export_folded(profiler.table, tracer.events, str(folded))
        return {
            "events": len(tracer.events),
            "dropped": tracer.dropped,
            "jsonl_sha256": sha(jsonl.read_bytes()),
            "chrome_sha256": sha(chrome.read_bytes()),
            "folded_sha256": sha(folded.read_bytes()),
        }


def pin(name: str) -> Dict[str, object]:
    """Case ``name``'s pin, computed by the tracer on the path."""
    make_workload, system_name, capacity = CASES[name]
    workload = make_workload()
    tracer, legacy_profiler = RingBufferTracer(capacity), Profiler()
    run_benchmark(workload, make_system(system_name, workload),
                  tracer=tracer, profiler=legacy_profiler)
    if capacity is not None:
        return {"legacy": _trace_pin(tracer, legacy_profiler),
                "events_sha256": sha_json([e.to_dict()
                                       for e in tracer.events])}
    workload = make_workload()
    event_tracer, profiler = RingBufferTracer(None), Profiler()
    run_benchmark(workload, make_system(system_name, workload),
                  engine="event", tracer=event_tracer, profiler=profiler)
    return {"legacy": _trace_pin(tracer, legacy_profiler),
            "event": dict(_trace_pin(event_tracer, profiler),
                          attribution_sha256=sha_json(
                              profiler.table.to_rows()))}

