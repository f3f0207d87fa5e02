"""Latency-source breakdown for a completed run.

Figure 7's bars tell you *how fast*; this module tells you *why* — which
path served the reads and writes: RAM data hits, RAM delta
reconstructions, SSD reference reads, HDD log fetches, HDD data misses.
It works from the controller's own counters, so it is exact, and it
renders the paper's Section 5.1 narrative ("I-CASH accesses only 10 MB
of SSD very frequently with mostly read I/Os") as numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.core.controller import ICASHController

#: (counter, human label) pairs that classify where reads were served.
READ_SOURCES: Sequence[Tuple[str, str]] = (
    ("ram_data_hits", "RAM data block"),
    ("ram_delta_hits", "SSD reference + RAM delta"),
    ("ssd_ref_direct_reads", "SSD reference read"),
    ("ssd_spill_reads", "SSD spilled block"),
    ("shadowed_ref_reads", "HDD (shadowed reference)"),
    ("log_delta_fetches", "HDD delta-log fetch"),
    ("hdd_data_reads", "HDD data region miss"),
)

#: Counters classifying the write path.
WRITE_SOURCES: Sequence[Tuple[str, str]] = (
    ("delta_writes", "delta buffered in RAM"),
    ("reference_delta_writes", "reference self-delta in RAM"),
    ("independent_writes", "data block in RAM"),
    ("delta_spills", "spill to SSD"),
    ("spilled_write_through", "SSD write-through"),
    ("reference_refreshes", "SSD reference refresh"),
    ("reference_shadowed", "reference shadowed to HDD path"),
    ("hdd_write_through", "HDD write-through"),
)


@dataclass
class PathBreakdown:
    """Share of operations served by each internal path."""

    title: str
    shares: Dict[str, int]

    @property
    def total(self) -> int:
        return sum(self.shares.values())

    def render(self, width: int = 36) -> str:
        lines = [self.title, "-" * len(self.title)]
        total = self.total or 1
        for label, count in sorted(self.shares.items(),
                                   key=lambda kv: -kv[1]):
            if count == 0:
                continue
            bar = "#" * max(1, round(count / total * width))
            lines.append(f"{label:<28} {bar:<{width}} "
                         f"{count:>8} ({count / total:6.1%})")
        if len(lines) == 2:
            lines.append("(no operations recorded)")
        return "\n".join(lines)


def read_breakdown(controller: ICASHController) -> PathBreakdown:
    """Where this element's reads were actually served from."""
    shares = {label: getattr(controller, counter)
              for counter, label in READ_SOURCES}
    return PathBreakdown("read path breakdown", shares)


def write_breakdown(controller: ICASHController) -> PathBreakdown:
    """Which path this element's writes took."""
    shares = {label: getattr(controller, counter)
              for counter, label in WRITE_SOURCES}
    return PathBreakdown("write path breakdown", shares)


def semiconductor_fraction(controller: ICASHController) -> float:
    """Fraction of reads served without any mechanical operation —
    the paper's headline mechanism ("convert the majority of I/Os ...
    to I/O operations involving mainly SSD reads and computations")."""
    breakdown = read_breakdown(controller)
    mechanical = (breakdown.shares.get("HDD delta-log fetch", 0)
                  + breakdown.shares.get("HDD data region miss", 0)
                  + breakdown.shares.get("HDD (shadowed reference)", 0))
    total = breakdown.total
    return 1.0 - mechanical / total if total else 1.0
