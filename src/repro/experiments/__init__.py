"""Experiment harness regenerating every table and figure.

* :mod:`repro.experiments.systems` — builds the five storage
  architectures of Section 4.4 for a given workload (same SSD budget
  rules as the paper).
* :mod:`repro.experiments.runner` — closed-loop trace replay with
  transaction accounting; produces one :class:`RunResult` per
  (workload, system) pair.
* :mod:`repro.experiments.paperdata` — the numbers the paper reports, for
  side-by-side comparison.
* :mod:`repro.experiments.figures` — one registry row per figure/table
  series (`SERIES`), each run through `ALL_FIGURES`.
* :mod:`repro.experiments.validate` — every series against its floor,
  plus the headline claims.
* :mod:`repro.experiments.report` — text rendering of
  measured-vs-paper tables.
* :mod:`repro.experiments.loadtest` — open-loop arrival-rate sweeps
  over the discrete-event engine: saturation knees, throughput/latency
  curves, and the all-architectures knee comparison.
"""

from repro.experiments.loadtest import (RatePoint, SystemKnee,
                                        calibrate_capacity,
                                        compare_at_knee, find_knee,
                                        render_curve, sweep_rates)
from repro.experiments.runner import RunResult, run_benchmark
from repro.experiments.systems import SYSTEM_NAMES, make_system

__all__ = [
    "RatePoint",
    "RunResult",
    "SYSTEM_NAMES",
    "SystemKnee",
    "calibrate_capacity",
    "compare_at_knee",
    "find_knee",
    "make_system",
    "render_curve",
    "run_benchmark",
    "sweep_rates",
]
