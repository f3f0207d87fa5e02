"""Generic parameter-sweep utility for I-CASH experiments.

The ablation benches each sweep one knob by hand; this module offers the
same capability as a reusable API, so downstream users can explore the
configuration space (`sweep_config`) without writing runner plumbing.

Example::

    from repro.experiments.parallel import RunSpec
    from repro.experiments.sweeps import sweep_config

    points = sweep_config(
        RunSpec(workload="sysbench", n_requests=6000,
                warmup_fraction=0.4),
        "scan_interval", [250, 500, 1000, 2000])
    for point in points:
        print(point.value, point.result.transactions_per_s)
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Sequence

from repro.experiments.parallel import (RunSpec, record_outcomes,
                                        run_specs)
from repro.experiments.runner import RunResult


@dataclass
class SweepPoint:
    """One (parameter value, run outcome) pair of a sweep."""

    parameter: str
    value: object
    result: RunResult

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SweepPoint({self.parameter}={self.value!r}, "
                f"tx/s={self.result.transactions_per_s:.1f})")


def sweep_config(spec: RunSpec, parameter: str,
                 values: Sequence[object], jobs: int = 1,
                 ledger=None) -> List[SweepPoint]:
    """Run ``spec`` once per value of one :class:`ICASHConfig` field.

    Each point is ``spec`` with ``(parameter, value)`` appended to its
    ``config_overrides``: a fresh workload (same seed, same trace) and a
    fresh controller built from the workload's standard configuration
    with that field replaced.  Points are independent runs, fanned out
    over ``jobs`` worker processes.

    ``ledger`` (a :class:`repro.ledger.LedgerWriter`) records every
    point under ``command="sweep"``, in value order.
    """
    specs = [replace(spec, config_overrides=spec.config_overrides
                     + ((parameter, value),))
             for value in values]
    outcomes = run_specs(specs, jobs=jobs)
    record_outcomes(ledger, "sweep", specs, outcomes,
                    [{"parameter": parameter, "value": value}
                     for value in values])
    return [SweepPoint(parameter, value, outcome.result)
            for value, outcome in zip(values, outcomes)]


def render_sweep(points: Sequence[SweepPoint],
                 metrics: Sequence[str] = ("transactions_per_s",
                                           "read_mean_us",
                                           "write_mean_us")) -> str:
    """Aligned text table of a sweep's outcome."""
    if not points:
        return "(empty sweep)"
    header = f"{points[0].parameter:>16} " + " ".join(
        f"{metric:>18}" for metric in metrics)
    lines = [header, "-" * len(header)]
    for point in points:
        cells = " ".join(
            f"{getattr(point.result, metric):>18.2f}" for metric in metrics)
        lines.append(f"{str(point.value):>16} {cells}")
    return "\n".join(lines)
