"""Benchmark regression harness (``repro bench``).

Runs a canonical suite — one figure workload per benchmark family at
fixed seeds, under both wall-clock engines — and emits a
schema-versioned ``BENCH_<n>.json`` snapshot of everything a PR could
regress: throughput, latency percentiles, SSD-write counts and the
critical-path attribution table from :mod:`repro.sim.profile`.

Because the simulation runs on a deterministic virtual clock, the
snapshots are machine independent: the same tree produces the same
numbers on a laptop and in CI.  ``compare`` therefore treats any
out-of-tolerance delta against a committed baseline as a real change
in modelled behaviour, not measurement noise.  Tolerances are still
noise-aware — a PR that legitimately perturbs request interleaving
(e.g. a new background quantum) shifts latency means by a little, so
each latency tolerance is ``max(rel_tol x baseline, z x sem)`` with the
standard error taken from the baseline's recorded sample variance
(:attr:`repro.sim.stats.LatencyStats.std`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.experiments.parallel import (RunSpec, record_outcomes,
                                        run_specs)
from repro.experiments.runner import RunResult

#: Version of the ``BENCH_<n>.json`` layout (documented in
#: docs/OBSERVABILITY.md, doc-parity tested).  Bump on any breaking
#: change to the keys below.  v2 added ``host_wall_s`` per case — real
#: host seconds the run cost, recorded for trend-watching only and
#: never compared (it is machine-dependent noise; every metric in
#: :data:`METRIC_POLICY` stays virtual-clock deterministic).  v3 adds
#: ``ledger_run_id`` per case — the run's row in the persistent run
#: ledger (docs/LEDGER.md) when one was recording, else null; like
#: ``host_wall_s`` it is provenance, never a compared metric.
BENCH_SCHEMA_VERSION = 3


def _cases(workloads: Iterable[str], engines: Iterable[str],
           system: str, seed: int, n_requests: int,
           scale: float) -> Tuple[RunSpec, ...]:
    """Suite entries: profiled runs, named by :func:`case_name`."""
    return tuple(
        RunSpec(workload=wl, system=system, engine=engine,
                n_requests=n_requests, seed=seed, scale=scale,
                profile=True)
        for wl in workloads for engine in engines)


def case_name(spec: RunSpec) -> str:
    """The name a suite entry goes by in BENCH documents."""
    return f"{spec.workload}-{spec.system}-{spec.engine}"


#: Smoke suite for every push: the paper's headline workload (SysBench,
#: Figures 6-8) on I-CASH under both engines.
QUICK_SUITE: Tuple[RunSpec, ...] = _cases(
    ("sysbench",), ("legacy", "event"), system="icash", seed=2011,
    n_requests=600, scale=0.5)

#: Full suite: one workload per benchmark family (Table 4) x both
#: engines, all on I-CASH at the paper's seed.
FULL_SUITE: Tuple[RunSpec, ...] = _cases(
    ("sysbench", "hadoop", "tpcc", "loadsim", "specsfs", "rubis"),
    ("legacy", "event"), system="icash", seed=2011, n_requests=1200,
    scale=0.5)

#: Regression policy per metric: (direction, relative tolerance,
#: key of the noise entry sizing the statistical tolerance, or None).
#: ``direction`` is the *good* direction — "higher" for throughput,
#: "lower" for latency and wear.
METRIC_POLICY: Dict[str, Tuple[str, float, Optional[str]]] = {
    "transactions_per_s": ("higher", 0.05, None),
    "requests_per_s": ("higher", 0.05, None),
    "read_mean_us": ("lower", 0.05, "read"),
    "read_p99_us": ("lower", 0.10, "read"),
    "write_mean_us": ("lower", 0.05, "write"),
    "write_p99_us": ("lower", 0.10, "write"),
    "ssd_write_ops": ("lower", 0.02, None),
    "ssd_write_blocks": ("lower", 0.02, None),
}

#: z-score for the noise-aware part of a latency tolerance.
NOISE_Z = 3.0


def case_record(spec: RunSpec, result: RunResult,
                host_wall_s: Optional[float] = None,
                ledger_run_id: Optional[str] = None
                ) -> Dict[str, object]:
    """The JSON-ready snapshot of one case (see docs/OBSERVABILITY.md).

    ``host_wall_s`` (schema v2) is the real host seconds the run took
    where it executed; it rides along for trend analysis but is *not* a
    compared metric — see :func:`compare`.  ``ledger_run_id`` (schema
    v3) links the case to its row in the persistent run ledger
    (docs/LEDGER.md) — provenance, likewise never compared.
    """
    metrics = {name: getattr(result, name) for name in METRIC_POLICY}
    noise: Dict[str, Dict[str, float]] = {}
    table = result.attribution
    if table is not None:
        for op in table.ops:
            stats = table.latency(op)
            noise[op] = {"std_us": stats.std_us, "n": stats.count}
    return {
        "case": case_name(spec),
        "workload": spec.workload,
        "system": spec.system,
        "engine": spec.engine,
        "seed": spec.seed,
        "n_requests": spec.n_requests,
        "scale": spec.scale,
        "n_measured": result.n_measured,
        "host_wall_s": host_wall_s,
        "ledger_run_id": ledger_run_id,
        "metrics": metrics,
        "noise": noise,
        "attribution": table.to_rows() if table is not None else [],
    }


def run_suite(quick: bool = False, progress=None,
              jobs: int = 1, ledger=None,
              seed: Optional[int] = None) -> Dict[str, object]:
    """Run the suite and return the full ``BENCH`` document.

    ``jobs > 1`` fans the (independent, deterministic) cases out across
    worker processes; every field except the machine-dependent
    ``host_wall_s`` is byte-identical to a serial run.  ``progress`` is
    called with each case's spec as its result is awaited.

    ``ledger`` (a :class:`repro.ledger.LedgerWriter`) records every
    case into the persistent run store — always in suite order, in
    *this* process, so ledger contents too are independent of the job
    count — and each case record embeds its ``ledger_run_id``.

    ``seed`` replaces each case's fixed seed — for seed-sensitivity
    probes feeding ``repro ledger diff``, *not* for ``--compare``
    (a non-default seed moves every metric off the committed baseline).
    """
    suite = QUICK_SUITE if quick else FULL_SUITE
    if seed is not None:
        suite = tuple(replace(spec, seed=seed) for spec in suite)
    suite_name = "quick" if quick else "full"
    outcomes = run_specs(suite, jobs=jobs, progress=progress)
    run_ids = record_outcomes(
        ledger, "bench", suite, outcomes,
        [{"case": case_name(spec), "suite": suite_name}
         for spec in suite])
    cases = [case_record(spec, outcome.result,
                         host_wall_s=outcome.host_wall_s,
                         ledger_run_id=run_id)
             for spec, outcome, run_id in zip(suite, outcomes, run_ids)]
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "suite": suite_name,
        "cases": cases,
    }


def next_bench_path(out_dir: str) -> str:
    """First free ``BENCH_<n>.json`` in ``out_dir``, counting from 1."""
    n = 1
    while os.path.exists(os.path.join(out_dir, f"BENCH_{n}.json")):
        n += 1
    return os.path.join(out_dir, f"BENCH_{n}.json")


def write_bench(document: Dict[str, object], out_dir: str = ".") -> str:
    """Write the document to the next free ``BENCH_<n>.json``."""
    os.makedirs(out_dir, exist_ok=True)
    path = next_bench_path(out_dir)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def load_bench(path: str) -> Dict[str, object]:
    """Read a ``BENCH_<n>.json``, validating the schema version."""
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    version = document.get("schema_version")
    if version != BENCH_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: bench schema {version!r} unsupported "
            f"(expected {BENCH_SCHEMA_VERSION})")
    return document


@dataclass(frozen=True)
class Delta:
    """One metric compared across two bench documents."""

    case: str
    metric: str
    baseline: float
    current: float
    tolerance: float
    #: Positive when the current value moved in the *bad* direction.
    worsening: float

    @property
    def regressed(self) -> bool:
        return self.worsening > self.tolerance

    def render(self) -> str:
        flag = "REGRESSION" if self.regressed else "ok"
        return (f"{self.case:<28} {self.metric:<20} "
                f"{self.baseline:>12.3f} -> {self.current:>12.3f} "
                f"(tol {self.tolerance:.3f})  {flag}")


def _tolerance(metric: str, base_value: float,
               noise: Dict[str, Dict[str, float]]) -> float:
    direction, rel_tol, noise_key = METRIC_POLICY[metric]
    tol = rel_tol * abs(base_value)
    if noise_key and noise_key in noise:
        entry = noise[noise_key]
        n = max(1.0, float(entry.get("n", 1.0)))
        sem = float(entry.get("std_us", 0.0)) / math.sqrt(n)
        tol = max(tol, NOISE_Z * sem)
    return tol


def compare(baseline: Dict[str, object],
            current: Dict[str, object]) -> List[Delta]:
    """Compare two bench documents case by case.

    Cases present in only one document are skipped (suites may grow);
    within a shared case every metric in :data:`METRIC_POLICY` is
    checked in its good direction against the noise-aware tolerance.
    Fields outside the policy — notably the machine-dependent
    ``host_wall_s`` — are never compared.
    """
    base_cases = {c["case"]: c for c in baseline["cases"]}
    deltas: List[Delta] = []
    for record in current["cases"]:
        base = base_cases.get(record["case"])
        if base is None:
            continue
        base_metrics = base["metrics"]
        cur_metrics = record["metrics"]
        base_noise = base.get("noise", {})
        for metric, (direction, _rel, _noise) in METRIC_POLICY.items():
            if metric not in base_metrics or metric not in cur_metrics:
                continue
            b = float(base_metrics[metric])
            c = float(cur_metrics[metric])
            worsening = (b - c) if direction == "higher" else (c - b)
            deltas.append(Delta(
                case=record["case"], metric=metric, baseline=b,
                current=c,
                tolerance=_tolerance(metric, b, base_noise),
                worsening=worsening))
    return deltas


def regressions(deltas: Iterable[Delta]) -> List[Delta]:
    return [d for d in deltas if d.regressed]


def render_compare(deltas: List[Delta],
                   verbose: bool = False) -> str:
    """Human-readable comparison report."""
    bad = regressions(deltas)
    lines: List[str] = []
    shown = deltas if verbose else bad
    if shown:
        header = (f"{'case':<28} {'metric':<20} "
                  f"{'baseline':>12}    {'current':>12}")
        lines.append(header)
        lines.append("-" * len(header))
        lines.extend(d.render() for d in shown)
    lines.append(f"{len(deltas)} metrics compared, "
                 f"{len(bad)} regression(s)")
    return "\n".join(lines)
