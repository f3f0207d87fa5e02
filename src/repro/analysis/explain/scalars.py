"""Scalar metric diff with METRIC_POLICY noise-aware significance.

The ledger's :func:`~repro.ledger.tolerance` applied to every scalar
and counter the two views share, with the larger of the two runs'
standard errors — so ``repro explain`` and ``repro ledger trend``'s
anomaly floor never disagree about whether a number "really" moved.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

from repro.analysis.explain.views import RunView, larger_sem
from repro.ledger import METRIC_POLICY, tolerance


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


def _flat(view: RunView) -> Dict[str, float]:
    flat = dict(view.scalars)
    flat.update({f"counters.{name}": value
                 for name, value in view.counters.items()})
    flat["slo.breaches"] = float(view.slo_breaches)
    return flat


def diff_scalars(view_a: RunView,
                 view_b: RunView) -> List[ScalarDelta]:
    """Every metric either view carries, compared; sorted by absolute
    relative movement (missing-on-one-side first, then by name)."""
    flat_a, flat_b = _flat(view_a), _flat(view_b)
    deltas: List[ScalarDelta] = []
    for metric in sorted(set(flat_a) | set(flat_b)):
        a, b = flat_a.get(metric), flat_b.get(metric)
        direction, _rel, noise_key = METRIC_POLICY.get(metric,
                                                       ("", 0.0, None))
        deltas.append(ScalarDelta(
            metric=metric, a=a, b=b,
            tolerance=tolerance(metric, a or 0.0,
                                larger_sem(view_a, view_b, noise_key)),
            direction=direction))
    deltas.sort(key=lambda d: (
        -(abs(d.rel) if d.rel is not None
          else float("inf") if d.delta is None or d.delta else 0.0),
        d.metric))
    return deltas


def significant_scalars(deltas: Iterable[ScalarDelta]
                        ) -> List[ScalarDelta]:
    return [d for d in deltas if d.significant]
