"""Sweeps: one knob across values, one independent run per value.

Two knobs, both described as :class:`~repro.experiments.parallel.RunSpec`
lists and fanned out through ``run_specs`` (results identical at any
job count):

* **An** :class:`~repro.core.ICASHConfig` **field** (`sweep_config`) —
  the ablations of DESIGN.md, whole curves, without runner plumbing.
  Every value is checked against the workload's configuration before
  any run, so a field the config lacks or a value it rejects fails
  first.
* **The offered arrival rate** (`sweep_rates`, `compare_at_knee`).
  The paper's throughput claims live at the *knee* of the
  offered-load curve: below it a system keeps up (achieved == offered)
  and response times sit near the no-contention service time; past it
  the bottleneck device saturates, achieved throughput flattens at its
  capacity and queue waits — hence p99 latency — blow up.  The legacy
  runner's busy-time model cannot show any of this; these sweeps drive
  an open-loop arrival rate through ``run_benchmark(engine="event")``.

Determinism note: every rate point reuses the same arrival seed, and
:class:`repro.sim.load.OpenLoopLoad` draws unit-mean interarrivals
scaled by ``1/rate`` — so a sweep sees one arrival pattern compressed
in time, not a fresh random pattern per rate, and the measured curve
is monotone instead of jittering with resampling noise.  Requests are
processed in stream order regardless of rate, so service times and SSD
write counts are identical at every point; only waiting differs.

``python -m repro sweep FIELD VALUE...`` and ``python -m repro sweep
load.rate [RATE...]`` are the CLI front ends; with ``--compare`` the
latter runs :func:`compare_at_knee`, which puts I-CASH and every
baseline side by side at their own saturation points.

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

import sys
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.experiments.parallel import (RunSpec, record_outcomes,
                                        run_specs)
from repro.experiments.runner import RunResult
from repro.experiments.systems import SYSTEM_NAMES, make_icash_config
from repro.workloads import WORKLOADS


@dataclass
class SweepPoint:
    """One (parameter value, run outcome) pair of a sweep."""

    parameter: str
    value: object
    result: RunResult

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SweepPoint({self.parameter}={self.value!r}, "
                f"tx/s={self.result.transactions_per_s:.1f})")


def check_config_values(spec: RunSpec, parameter: str,
                        values: Sequence[object]) -> None:
    """Build each point's configuration without running it: a field
    :class:`ICASHConfig` lacks raises ``TypeError`` and a value it
    rejects ``ValueError``."""
    standard = make_icash_config(spec.build_workload())
    for value in values:
        replace(standard, **dict(spec.config_overrides,
                                 **{parameter: value}))


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
    point under ``command="sweep"``, in value order.  Every value is
    checked before any run (:func:`check_config_values`).
    """
    check_config_values(spec, parameter, values)
    specs = [replace(spec, config_overrides=spec.config_overrides
                     + ((parameter, value),))
             for value in values]
    outcomes = run_specs(specs, jobs=jobs)
    record_outcomes(ledger, "sweep", specs, outcomes,
                    [{"parameter": parameter, "value": value}
                     for value in values])
    return [SweepPoint(parameter, value, outcome.result)
            for value, outcome in zip(values, outcomes)]


#: The columns of :func:`render_sweep`, one :class:`RunResult` field each.
SWEEP_METRICS = ("transactions_per_s", "read_mean_us", "write_mean_us")


def render_sweep(points: Sequence[SweepPoint]) -> str:
    """Aligned text table of a sweep's outcome."""
    if not points:
        return "(empty sweep)"
    header = f"{points[0].parameter:>16} " + " ".join(
        f"{metric:>18}" for metric in SWEEP_METRICS)
    lines = [header, "-" * len(header)]
    for point in points:
        cells = " ".join(f"{getattr(point.result, metric):>18.2f}"
                         for metric in SWEEP_METRICS)
        lines.append(f"{str(point.value):>16} {cells}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Arrival-rate sweeps over the discrete-event engine
# ---------------------------------------------------------------------------

#: Default sweep span as fractions of the calibrated capacity: from
#: comfortably under the knee to well past it.
DEFAULT_SPAN = (0.3, 1.6)
#: A system "keeps up" with an offered rate when it achieves at least
#: this fraction of it; the first rate below the bar is the knee.
KNEE_EFFICIENCY = 0.9


@dataclass(frozen=True)
class RatePoint:
    """One sweep point: what an offered arrival rate actually got."""

    offered_rps: float
    achieved_rps: float
    n_measured: int
    mean_ms: float
    p99_ms: float
    wait_mean_ms: float
    #: Highest-utilisation station and its utilisation at this rate.
    bottleneck: Optional[str]
    bottleneck_util: float
    #: Per-station busy fraction and time-averaged queue depth from the
    #: run's :class:`~repro.sim.engine.QueueingSummary`, keyed by
    #: station (device) name.  Empty for hand-built points.
    station_util: Dict[str, float] = field(default_factory=dict)
    station_depth: Dict[str, float] = field(default_factory=dict)

    @property
    def efficiency(self) -> float:
        """Achieved / offered — 1.0 while the system keeps up."""
        return self.achieved_rps / self.offered_rps \
            if self.offered_rps else 0.0


def _pooled_p99_ms(result: RunResult) -> float:
    """Worst per-class p99 — reads and writes saturate together, and
    the max is what an SLO would alarm on."""
    return max(result.read_p99_us, result.write_p99_us) / 1e3


def _calibration_spec(spec: RunSpec) -> RunSpec:
    """``spec`` as a capacity calibration: a closed loop with enough
    zero-think clients (four per stream the family drives) to keep the
    bottleneck device permanently busy."""
    clients = max(4 * WORKLOADS[spec.workload].io_concurrency, 16)
    return replace(spec, engine="event", warmup_fraction=0.0,
                   flush_at_end=False, load=("closed", clients, 0.0))


def _rate_spec(spec: RunSpec, rate_rps: float, distribution: str,
               seed: int) -> RunSpec:
    """``spec`` as an open-loop probe of one offered rate.

    No warmup cut (the transient is part of what a rate probe measures)
    and no end-of-run flush: the flush is constant bookkeeping that
    would dilute low-rate efficiency and blur the knee.
    """
    return replace(spec, engine="event", warmup_fraction=0.0,
                   flush_at_end=False,
                   load=("open", rate_rps, distribution, seed))


def _run_wave(specs: Sequence[RunSpec], jobs: int,
              ledger) -> List[RunResult]:
    """Run calibration / probe specs and record them, in order, under
    ``command="loadtest"``."""
    outcomes = run_specs(specs, jobs=jobs)
    record_outcomes(
        ledger, "loadtest", specs, outcomes,
        [{"role": "probe", "offered_rps": spec.load[1]}
         if spec.load[0] == "open"
         else {"role": "calibrate", "offered_rps": None}
         for spec in specs])
    return [outcome.result for outcome in outcomes]


def _point_from_result(rate_rps: float, result: RunResult) -> RatePoint:
    """Distil one run's queueing summary into a :class:`RatePoint`."""
    queueing = result.queueing
    return RatePoint(
        offered_rps=rate_rps,
        achieved_rps=result.requests_per_s,
        n_measured=result.n_measured,
        mean_ms=result.io_response_ms,
        p99_ms=_pooled_p99_ms(result),
        wait_mean_ms=queueing.wait_mean_us / 1e3,
        bottleneck=queueing.bottleneck,
        bottleneck_util=(queueing.stations[queueing.bottleneck]
                         .utilization
                         if queueing.bottleneck else 0.0),
        station_util={name: s.utilization
                      for name, s in queueing.stations.items()},
        station_depth={name: s.mean_depth
                       for name, s in queueing.stations.items()})


def calibrate_capacity(spec: RunSpec, ledger=None) -> float:
    """The system's saturation throughput (requests/s).

    One closed-loop run that keeps the bottleneck device permanently
    busy; its achieved rate is the ceiling every open-loop sweep point
    is measured against.
    """
    (result,) = _run_wave([_calibration_spec(spec)], 1, ledger)
    return result.requests_per_s


def auto_rates(capacity_rps: float, points: int,
               span: Tuple[float, float] = DEFAULT_SPAN) -> List[float]:
    """Linearly spaced offered rates bracketing the knee."""
    if points < 1:
        raise ValueError(f"need at least one sweep point, got {points}")
    lo, hi = span
    if not 0.0 < lo <= hi:
        raise ValueError(f"bad sweep span {span}")
    if points == 1:
        return [capacity_rps * (lo + hi) / 2.0]
    step = (hi - lo) / (points - 1)
    return [capacity_rps * (lo + i * step) for i in range(points)]


def sweep_rates(spec: RunSpec, rates: Sequence[float],
                distribution: str = "poisson",
                seed: int = 1234, jobs: int = 1,
                ledger=None) -> List[RatePoint]:
    """Measure each offered rate (ascending) on a fresh system.

    Rate points are independent runs, fanned out over ``jobs`` worker
    processes.  ``ledger`` records every probe under
    ``command="loadtest"``, in ascending-rate order.
    """
    rates = sorted(rates)
    results = _run_wave([_rate_spec(spec, rate, distribution, seed)
                         for rate in rates], jobs, ledger)
    return [_point_from_result(rate, result)
            for rate, result in zip(rates, results)]


def find_knee(points: Sequence[RatePoint]) -> Optional[int]:
    """Index of the first sweep point past the saturation knee.

    The knee is where the system stops keeping up: the first offered
    rate achieving less than :data:`KNEE_EFFICIENCY` times the *first*
    point's achieved/offered ratio.  The relative baseline matters: a fixed
    arrival seed draws one pattern whose total span sits a few percent
    off nominal at every rate, so absolute efficiency is biased by a
    constant factor that the lowest (surely unsaturated) rate
    measures.  ``None`` when the whole sweep stayed under capacity.
    """
    if not points:
        return None
    baseline = points[0].efficiency
    for i, point in enumerate(points[1:], start=1):
        if point.efficiency < KNEE_EFFICIENCY * baseline:
            return i
    return None


def render_curve(points: Sequence[RatePoint],
                 knee: Optional[int] = None,
                 width: int = 40) -> str:
    """The throughput/latency curve as an ASCII table with bars."""
    if not points:
        return "(no sweep points)"
    if knee is None:
        knee = find_knee(points)
    peak = max(p.achieved_rps for p in points) or 1.0
    lines = [f"{'offered':>10} {'achieved':>10} "
             f"{'':{width}} {'mean':>9} {'p99':>9} {'wait':>9}  "
             f"bottleneck"]
    for i, p in enumerate(points):
        bar = "#" * max(1, round(p.achieved_rps / peak * width))
        marker = "  <- knee" if knee is not None and i == knee else ""
        util = (f"{p.bottleneck} {p.bottleneck_util:.0%}"
                if p.bottleneck else "-")
        lines.append(
            f"{p.offered_rps:>10.0f} {p.achieved_rps:>10.0f} "
            f"{bar:<{width}} {p.mean_ms:>7.2f}ms {p.p99_ms:>7.2f}ms "
            f"{p.wait_mean_ms:>7.2f}ms  {util}{marker}")
    if knee is None:
        lines.append("no saturation knee inside the sweep — every rate "
                     "was achieved; raise the span")
    else:
        p = points[knee]
        lines.append(
            f"knee at ~{p.offered_rps:.0f} offered rps: achieved "
            f"{p.achieved_rps:.0f} rps ({p.efficiency:.0%}), "
            f"p99 {p.p99_ms:.2f} ms")
    return "\n".join(lines)


def export_curve_csv(points: Sequence[RatePoint], path: str) -> int:
    """Write the sweep to ``path`` as CSV rows; returns the row count.

    Beyond the fixed columns, every station any point saw contributes a
    ``util_<station>`` (busy fraction) and ``depth_<station>`` (mean
    queue depth) column, so the file carries the full per-device
    queueing picture for offline analysis — no re-run needed to ask
    "what was the HDD doing at the knee".
    """
    stations = sorted({name for p in points for name in p.station_util})
    extra = [f"util_{name}" for name in stations] \
        + [f"depth_{name}" for name in stations]
    header = ("offered_rps,achieved_rps,n_measured,mean_ms,p99_ms,"
              "wait_mean_ms,bottleneck,bottleneck_util"
              + "".join("," + column for column in extra) + "\n")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header)
        for p in points:
            cells = [f"{p.offered_rps:.3f}", f"{p.achieved_rps:.3f}",
                     f"{p.n_measured}", f"{p.mean_ms:.6f}",
                     f"{p.p99_ms:.6f}", f"{p.wait_mean_ms:.6f}",
                     p.bottleneck or "", f"{p.bottleneck_util:.6f}"]
            cells += [f"{p.station_util.get(name, 0.0):.6f}"
                      for name in stations]
            cells += [f"{p.station_depth.get(name, 0.0):.6f}"
                      for name in stations]
            handle.write(",".join(cells) + "\n")
    return len(points)


# ---------------------------------------------------------------------------
# The experiments entry: every architecture at its own knee
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemKnee:
    """One architecture's saturation profile."""

    system: str
    capacity_rps: float
    #: Comfortably under the knee (low end of :data:`DEFAULT_SPAN`
    #: times capacity) and well past it (the high end).
    pre_knee: RatePoint
    post_knee: RatePoint


def compare_at_knee(spec: RunSpec,
                    distribution: str = "poisson",
                    seed: int = 1234,
                    jobs: int = 1,
                    ledger=None) -> List[SystemKnee]:
    """Calibrate each architecture's capacity and probe both sides of
    its knee — the event-engine counterpart of the paper's Figure 6/10
    throughput comparisons.

    Two waves over ``jobs`` worker processes: all capacity calibrations
    first (the probe rates depend on them), then every system's
    pre/post-knee probe.  Each wave announces itself on stderr.
    """
    print(f"  calibrating {len(SYSTEM_NAMES)} systems "
          f"({jobs} jobs)...", file=sys.stderr)
    calibration = _calibration_spec(spec)
    capacities = [
        result.requests_per_s for result in _run_wave(
            [replace(calibration, system=name) for name in SYSTEM_NAMES],
            jobs, ledger)]
    probes = [_rate_spec(replace(spec, system=name), capacity * fraction,
                         distribution, seed)
              for name, capacity in zip(SYSTEM_NAMES, capacities)
              for fraction in DEFAULT_SPAN]
    print(f"  probing {len(probes)} knee points "
          f"({jobs} jobs)...", file=sys.stderr)
    points = [_point_from_result(probe.load[1], result)
              for probe, result
              in zip(probes, _run_wave(probes, jobs, ledger))]
    return [SystemKnee(system=name, capacity_rps=capacity,
                       pre_knee=points[2 * i], post_knee=points[2 * i + 1])
            for i, (name, capacity)
            in enumerate(zip(SYSTEM_NAMES, capacities))]


def render_comparison(reports: Sequence[SystemKnee]) -> str:
    """Side-by-side table, best capacity first."""
    lines = [f"{'system':<10} {'capacity':>10} {'pre-knee p99':>13} "
             f"{'post-knee p99':>14} {'bottleneck':>11}"]
    ranked = sorted(reports, key=lambda r: -r.capacity_rps)
    lines.extend(
        f"{r.system:<10} {r.capacity_rps:>8.0f}/s "
        f"{r.pre_knee.p99_ms:>11.2f}ms {r.post_knee.p99_ms:>12.2f}ms "
        f"{r.post_knee.bottleneck or '-':>11}"
        for r in ranked)
    best = ranked[0]
    lines.append(f"highest capacity: {best.system} at "
                 f"{best.capacity_rps:.0f} rps")
    return "\n".join(lines)
