"""Frozen simulated behaviour of the paper grid, bit for bit.

``grid_digest.json`` pins one sha256 per run over
``json.dumps(result.to_payload(), sort_keys=True)``:

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
changed digest.  The program is deterministic: an intended model change
rewrites the pins, in a change of its own that says why.
``PYTHONPATH=src:tests python -m reference.grid_digest`` rewrites the
JSON from whatever model is on the path.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.experiments import figures
from repro.experiments.parallel import RunSpec, run_specs
from repro.experiments.runner import RunResult, run_benchmark
from repro.sim.profile import Profiler

DIGEST_PATH = Path(__file__).with_name("grid_digest.json")

#: Requests per grid run, as CI's ``repro validate --requests 600``.
N_REQUESTS = 600

#: Worker processes the grid fans out over.
JOBS = 2

#: The profiled runs, one per engine.
PROFILED = {
    f"sysbench/icash/profiled/{engine}": RunSpec(
        workload="sysbench", system="icash", engine=engine,
        n_requests=600, seed=2011, scale=0.5)
    for engine in ("legacy", "event")}


def grid_cells() -> Dict[str, RunSpec]:
    """Pin name -> spec of every validate grid cell, in grid order."""
    return {f"{key[0]}/{system}": spec
            for key, system, spec in figures.grid_requirements(
                list(figures.SERIES), n_requests=N_REQUESTS)}


def sha(result: RunResult) -> str:
    return hashlib.sha256(json.dumps(
        result.to_payload(), sort_keys=True).encode()).hexdigest()


def grid_pins(jobs: int = JOBS) -> Dict[str, str]:
    """Every grid cell's digest, run through ``run_specs``."""
    cells = grid_cells()
    outcomes = run_specs(list(cells.values()), jobs=jobs)
    return {name: sha(outcome.result)
            for name, outcome in zip(cells, outcomes)}


def run_profiled(spec: RunSpec) -> RunResult:
    """``spec`` in this process, with a profiler attached."""
    workload = spec.build_workload()
    return run_benchmark(workload, spec.build_system(workload),
                         engine=spec.engine,
                         warmup_fraction=spec.warmup_fraction,
                         profiler=Profiler())


def profiled_pins() -> Dict[str, str]:
    return {name: sha(run_profiled(spec))
            for name, spec in PROFILED.items()}


def frozen() -> Dict[str, str]:
    return json.loads(DIGEST_PATH.read_text())


def regenerate() -> Dict[str, str]:
    """Every pin; writing it to ``DIGEST_PATH`` re-freezes them."""
    return {**grid_pins(), **profiled_pins()}


if __name__ == "__main__":
    DIGEST_PATH.write_text(json.dumps(regenerate(), indent=2,
                                      sort_keys=True) + "\n")
