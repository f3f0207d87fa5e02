"""Normalised run views: one shape for every comparable artefact.

The explain engine diffs *runs*, but a run reaches it in two forms: a
:class:`repro.ledger.LedgerRow` (curated metric snapshot plus full
provenance) or one case record of a ``BENCH_<n>.json`` document (full
attribution table, no provenance beyond the recipe fields).

:class:`RunView` is the common denominator.  Every field is either
populated from the source artefact or empty, and each diff component
(:mod:`.attribution`, :mod:`.suspects`) degrades gracefully when its
input is absent — a ledger-row pair gets the heaviest attribution rows
and provenance suspects, a bench pair the full attribution table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass
class RunView:
    """One run, normalised for differential diagnosis.

    ``scalars``/``counters`` are the comparable numbers; ``noise`` maps
    a request class to its recorded latency spread (``std_us``, ``n``)
    for the statistical part of significance tolerances;
    ``attribution`` holds JSON-ready ``(op, device, phase)`` rows in
    the :meth:`repro.sim.profile.AttributionTable.to_rows` shape.
    ``spec``/``provenance`` are present for ledger rows (and partially
    for bench cases).
    """

    label: str
    source: str  # "ledger" | "bench"
    scalars: Dict[str, float] = field(default_factory=dict)
    counters: Dict[str, float] = field(default_factory=dict)
    noise: Dict[str, Dict[str, float]] = field(default_factory=dict)
    attribution: List[Dict[str, object]] = field(default_factory=list)
    spec: Dict[str, object] = field(default_factory=dict)
    provenance: Dict[str, object] = field(default_factory=dict)
    slo_breaches: int = 0


def larger_sem(view_a: RunView, view_b: RunView,
               op: Optional[str]) -> Optional[float]:
    """The larger standard error of request class ``op``'s mean latency
    (µs) over the two runs; None when neither recorded one."""
    from repro.experiments.bench import noise_sem

    sems = [sem for sem in (noise_sem(view_a.noise.get(op)),
                            noise_sem(view_b.noise.get(op)))
            if sem is not None]
    return max(sems, default=None)


def view_from_ledger_row(row) -> RunView:
    """Adapt one :class:`repro.ledger.LedgerRow`."""
    metrics = row.metrics
    scalars = {name: float(value) for name, value
               in metrics.get("scalars", {}).items()}
    counters = {name: float(value) for name, value
                in metrics.get("counters", {}).items()}
    return RunView(
        label=f"#{row.seq} {row.run_id}",
        source="ledger",
        scalars=scalars,
        counters=counters,
        noise=dict(metrics.get("noise", {}) or {}),
        attribution=list(metrics.get("attribution", []) or []),
        spec=dict(row.spec or {}),
        provenance=dict(row.provenance or {}),
        slo_breaches=int(metrics.get("slo", {}).get("breaches", 0)),
    )


def view_from_bench_case(case: Dict[str, object],
                         label: Optional[str] = None) -> RunView:
    """Adapt one case record of a ``BENCH_<n>.json`` document."""
    spec = {key: case.get(key) for key in
            ("workload", "system", "engine", "seed", "n_requests",
             "scale")}
    return RunView(
        label=label or str(case.get("case")),
        source="bench",
        scalars={name: float(value) for name, value
                 in case.get("metrics", {}).items()},
        counters={},
        noise=dict(case.get("noise", {}) or {}),
        attribution=list(case.get("attribution", []) or []),
        spec=spec,
        provenance={},
    )

