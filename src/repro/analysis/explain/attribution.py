"""Attribution diff: which ``(device, phase)`` pairs moved, and the
flame-diff export that makes the movement visual.

Rows come from :meth:`repro.sim.profile.AttributionTable.to_rows` (a
ledger row keeps the heaviest :data:`repro.ledger.TOP_ATTRIBUTION_ROWS`
per class).  Significance is noise-aware: a row's mean contribution
must move by more than :func:`repro.ledger.tolerance` for the class's
mean-latency metric, with ``sem`` the larger recorded standard error
of the two runs, and by at least :data:`EPSILON_US` — so an
interleaving-level wobble never becomes "evidence".

The flame-diff exporter writes ``op;device;phase count_a count_b``
lines — the two-column folded format ``difffolded.pl`` produces and
``flamegraph.pl --negate`` (and speedscope's left-heavy diff view)
consume — with counts in integer microseconds of *total* attributed
time, matching :func:`repro.sim.profile.export_folded`'s unit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, TextIO, Tuple, Union

from repro.ledger import LedgerRow, attribution_index, max_sem, tolerance

#: Rows below this mean contribution (µs) never count as significant on
#: their own — they round to zero in the flame export anyway.
EPSILON_US = 1.0

#: METRIC_POLICY metric whose relative tolerance sizes a class's row
#: tolerance, per operation class.
_CLASS_METRIC = {"read": "read_mean_us", "write": "write_mean_us"}

#: Attribution rows in the :meth:`repro.sim.profile.AttributionTable.
#: to_rows` shape, as a ledger row's ``metrics["attribution"]`` keeps.
_Rows = Iterable[Dict[str, object]]


@dataclass(frozen=True)
class AttributionDelta:
    """One ``(op, device, phase)`` row compared across two runs."""

    op: str
    device: str
    phase: str
    #: Mean contribution per request of the class (µs); 0.0 when the
    #: run has no such row.
    a_mean_us: float
    b_mean_us: float
    #: Total attributed time (µs) on each side — the flame-diff counts.
    a_total_us: float
    b_total_us: float
    tolerance_us: float
    #: Present in only one run's rows (always notable when above
    #: :data:`EPSILON_US`).
    only_in: str = ""  # "" | "a" | "b"

    @property
    def delta_us(self) -> float:
        return self.b_mean_us - self.a_mean_us

    @property
    def significant(self) -> bool:
        if max(abs(self.a_mean_us), abs(self.b_mean_us)) < EPSILON_US:
            return False
        if self.only_in:
            return True
        return abs(self.delta_us) > self.tolerance_us

    def render(self) -> str:
        note = f"  (only in {self.only_in})" if self.only_in else ""
        return (f"  {self.op:<8} {self.device:<8} {self.phase:<14} "
                f"{self.a_mean_us:>10.2f} -> {self.b_mean_us:>10.2f} us"
                f"  ({self.delta_us:+10.2f}, "
                f"tol {self.tolerance_us:.2f}){note}")


def diff_attribution(row_a: LedgerRow,
                     row_b: LedgerRow) -> List[AttributionDelta]:
    """Every attribution row either ledger row carries, compared;
    sorted by absolute mean movement (then key, for byte-determinism on
    ties)."""
    items_a = attribution_index(row_a.metrics.get("attribution", []))
    items_b = attribution_index(row_b.metrics.get("attribution", []))
    deltas: List[AttributionDelta] = []
    for key in sorted(set(items_a) | set(items_b)):
        op, device, phase = key
        a_mean, a_total = items_a.get(key, (0.0, 0.0))
        b_mean, b_total = items_b.get(key, (0.0, 0.0))
        only_in = "" if key in items_a and key in items_b else (
            "a" if key in items_a else "b")
        deltas.append(AttributionDelta(
            op=op, device=device, phase=phase,
            a_mean_us=a_mean, b_mean_us=b_mean,
            a_total_us=a_total, b_total_us=b_total,
            tolerance_us=max(tolerance(_CLASS_METRIC.get(op), a_mean,
                                       max_sem((row_a, row_b), op)),
                             EPSILON_US),
            only_in=only_in))
    deltas.sort(key=lambda d: (-abs(d.delta_us), d.op, d.device,
                               d.phase))
    return deltas


def significant_attribution(deltas: Iterable[AttributionDelta]
                            ) -> List[AttributionDelta]:
    return [d for d in deltas if d.significant]


# ---------------------------------------------------------------------------
# Flame diff
# ---------------------------------------------------------------------------


def flame_diff_stacks(items_a: _Rows, items_b: _Rows
                      ) -> Dict[str, Tuple[int, int]]:
    """``{stack: (a_us, b_us)}`` over two runs' attribution rows.

    Stacks are ``op;device;phase``, counts integer microseconds of
    total attributed time; stacks rounding to zero on both sides are
    dropped, mirroring :func:`repro.sim.profile.export_folded`.
    """
    totals_a = attribution_index(items_a)
    totals_b = attribution_index(items_b)
    stacks: Dict[str, Tuple[int, int]] = {}
    for key in sorted(set(totals_a) | set(totals_b)):
        a_us = round(totals_a.get(key, (0.0, 0.0))[1])
        b_us = round(totals_b.get(key, (0.0, 0.0))[1])
        if a_us >= 1 or b_us >= 1:
            stacks[";".join(key)] = (a_us, b_us)
    return stacks


def export_flame_diff(items_a: _Rows, items_b: _Rows,
                      destination: Union[str, TextIO]) -> int:
    """Write ``stack count_a count_b`` lines, sorted by stack.

    The output feeds ``flamegraph.pl --negate`` directly (blue where
    run B spends less, red where it spends more); returns the number
    of lines written.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return export_flame_diff(items_a, items_b, handle)
    stacks = flame_diff_stacks(items_a, items_b)
    for key in sorted(stacks):
        a_us, b_us = stacks[key]
        destination.write(f"{key} {a_us} {b_us}\n")
    return len(stacks)

