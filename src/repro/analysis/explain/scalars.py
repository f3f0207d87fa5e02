"""Scalar metric diff with METRIC_POLICY noise-aware significance.

The ledger's :func:`~repro.ledger.tolerance` applied to every metric
:func:`~repro.ledger.flatten_metrics` reads from either row, with the
larger of the two runs' standard errors — so ``repro explain`` and
``repro ledger trend``'s anomaly floor never disagree about whether a
number "really" moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.ledger import (METRIC_POLICY, LedgerRow, flatten_metrics,
                          max_sem, tolerance)


@dataclass(frozen=True)
class ScalarDelta:
    """One scalar/counter metric compared across two runs."""

    metric: str
    a: Optional[float]
    b: Optional[float]
    tolerance: float
    #: The *good* direction from METRIC_POLICY, or "" when unknown.
    direction: str = ""

    @property
    def delta(self) -> Optional[float]:
        if self.a is None or self.b is None:
            return None
        return self.b - self.a

    @property
    def rel(self) -> Optional[float]:
        if self.a is None or self.b is None or self.a == 0:
            return None
        return (self.b - self.a) / abs(self.a)

    @property
    def significant(self) -> bool:
        delta = self.delta
        return delta is not None and abs(delta) > self.tolerance

    @property
    def worsened(self) -> Optional[bool]:
        """Moved in the bad direction? None without a known policy."""
        delta = self.delta
        if delta is None or not self.direction:
            return None
        return delta < 0 if self.direction == "higher" else delta > 0

    def render(self) -> str:
        def fmt(value):
            return "-" if value is None else f"{value:>12.4f}"

        rel = self.rel
        rel_text = "" if rel is None else f"  {rel:+8.2%}"
        verdict = ""
        if self.worsened is True:
            verdict = "  WORSE"
        elif self.worsened is False:
            verdict = "  better"
        return (f"  {self.metric:<28} {fmt(self.a)} -> {fmt(self.b)}"
                f"{rel_text}  (tol {self.tolerance:.4f}){verdict}")


def diff_scalars(row_a: LedgerRow,
                 row_b: LedgerRow) -> List[ScalarDelta]:
    """Every metric either row carries, compared; sorted by absolute
    relative movement (missing-on-one-side first, then by name)."""
    flat_a = flatten_metrics(row_a.metrics)
    flat_b = flatten_metrics(row_b.metrics)
    deltas: List[ScalarDelta] = []
    for metric in sorted(set(flat_a) | set(flat_b)):
        a, b = flat_a.get(metric), flat_b.get(metric)
        direction, _rel, noise_key = METRIC_POLICY.get(metric,
                                                       ("", 0.0, None))
        deltas.append(ScalarDelta(
            metric=metric, a=a, b=b,
            tolerance=tolerance(metric, a or 0.0,
                                max_sem((row_a, row_b), noise_key)),
            direction=direction))
    deltas.sort(key=lambda d: (
        -(abs(d.rel) if d.rel is not None
          else float("inf") if d.delta is None or d.delta else 0.0),
        d.metric))
    return deltas


def significant_scalars(deltas: Iterable[ScalarDelta]
                        ) -> List[ScalarDelta]:
    return [d for d in deltas if d.significant]
