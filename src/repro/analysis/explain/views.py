"""Normalised run views: a ledger row in the shape the diffs read.

The explain engine diffs *runs*, each a :class:`repro.ledger.LedgerRow`
(curated metric snapshot plus full provenance).  :class:`RunView` holds
what the diff components (:mod:`.scalars`, :mod:`.attribution`,
:mod:`.suspects`) read; each degrades gracefully when its input is
empty — a row of an unprofiled run carries no attribution rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.ledger import noise_sem


@dataclass
class RunView:
    """One run, normalised for differential diagnosis.

    ``scalars``/``counters`` are the comparable numbers; ``noise`` maps
    a request class to its recorded latency spread (``std_us``, ``n``)
    for the statistical part of significance tolerances;
    ``attribution`` holds JSON-ready ``(op, device, phase)`` rows in
    the :meth:`repro.sim.profile.AttributionTable.to_rows` shape.
    """

    label: str
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
        scalars=scalars,
        counters=counters,
        noise=dict(metrics.get("noise", {}) or {}),
        attribution=list(metrics.get("attribution", []) or []),
        spec=dict(row.spec or {}),
        provenance=dict(row.provenance or {}),
        slo_breaches=int(metrics.get("slo", {}).get("breaches", 0)),
    )

