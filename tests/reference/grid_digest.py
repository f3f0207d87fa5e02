"""Frozen simulated behaviour of the paper grid, bit for bit.

``grid_digest.json`` pins, per run, a sha256 over
``json.dumps(result.to_payload(), sort_keys=True)`` and, beside it, the
named scalars a reader looks at first: tx/s, read and write mean and
p99 in µs, SSD write ops and blocks, energy and the run's counters.
The runs are:

* every cell of the ``repro validate`` grid at 600 requests — each
  ``(grid, system)`` pair :func:`repro.experiments.figures.
  grid_requirements` lists for all of :data:`~repro.experiments.
  figures.SERIES` (40 runs), named ``<grid>/<system>``;
* sysbench / icash at 600 requests, scale 0.5 and seed 2011 on each
  engine with a :class:`~repro.sim.profile.Profiler` attached, named
  ``sysbench/icash/profiled/<engine>``: the payload then carries every
  request's critical-path attribution.

``json`` writes floats in a form that round-trips exactly, so a changed
last bit of any latency, counter, energy or attribution item is a
changed digest.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict

from reference import pins
from repro.experiments import figures
from repro.experiments.parallel import RunSpec, run_specs
from repro.experiments.runner import RunResult, run_benchmark
from repro.sim.profile import Profiler

#: Requests per grid run, as CI's ``repro validate --requests 600``.
N_REQUESTS = 600

#: The profiled runs, one per engine.
PROFILED = {
    f"sysbench/icash/profiled/{engine}": RunSpec(
        workload="sysbench", system="icash", engine=engine,
        n_requests=600, seed=2011, scale=0.5)
    for engine in ("legacy", "event")}

#: Pin name -> spec: every validate grid cell in grid order, then
#: :data:`PROFILED`.
CASES: Dict[str, RunSpec] = {
    **{f"{key[0]}/{system}": spec
       for key, system, spec in figures.grid_requirements(
           list(figures.SERIES), n_requests=N_REQUESTS)},
    **PROFILED}

#: The payload's named scalars each pin carries beside its hash.
SCALARS = ("read_mean_us", "read_p99_us", "write_mean_us", "write_p99_us",
           "ssd_write_ops", "ssd_write_blocks", "energy", "counters")


def pin_of(result: RunResult) -> Dict[str, object]:
    payload = result.to_payload()
    return {"sha256": pins.sha_json(payload),
            "transactions_per_s": result.transactions_per_s,
            **{key: payload[key] for key in SCALARS}}


def run_profiled(spec: RunSpec) -> RunResult:
    """``spec`` in this process, with a profiler attached."""
    workload = spec.build_workload()
    return run_benchmark(workload, spec.build_system(workload),
                         engine=spec.engine,
                         warmup_fraction=spec.warmup_fraction,
                         profiler=Profiler())


@lru_cache(maxsize=None)
def cell_pins() -> Dict[str, Dict[str, object]]:
    """Every grid cell's pin, from one ``run_specs`` call at 2 jobs."""
    cells = [name for name in CASES if name not in PROFILED]
    outcomes = run_specs([CASES[name] for name in cells], jobs=2)
    return {name: pin_of(outcome.result)
            for name, outcome in zip(cells, outcomes)}


def pin(name: str) -> Dict[str, object]:
    """A profiled run's pin from a run in this process; a grid cell's
    from :func:`cell_pins`, so the cells run in parallel."""
    if name in PROFILED:
        return pin_of(run_profiled(PROFILED[name]))
    return cell_pins()[name]
