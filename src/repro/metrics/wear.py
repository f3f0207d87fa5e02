"""SSD wear and endurance accounting (the lifetime argument of Table 6).

NAND blocks survive a bounded number of erase cycles (the paper cites
10 K for MLC, 100 K for SLC).  I-CASH's claim is that keeping random
writes off the SSD prolongs its life; this module turns the simulator's
per-block erase counters into the numbers that claim is judged by:

* total and per-block erase counts, and how evenly wear spread
  (wear-leveling quality);
* write amplification (GC relocations inflating host writes);
* projected device lifetime at the observed erase rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.devices.ssd import FlashSSD

#: Seconds per year, for lifetime projection.
_YEAR_S = 365.25 * 24 * 3600


@dataclass
class WearReport:
    """Wear summary for one SSD after a simulation run."""

    host_write_pages: int
    gc_moved_pages: int
    total_erases: int
    max_erase_count: int
    mean_erase_count: float
    erase_stddev: float
    write_amplification: float
    endurance_cycles: int
    #: Projected years until the worst block exhausts its endurance,
    #: assuming the observed per-wall-second erase rate continues.
    #: ``None`` when the run saw no erases (effectively unlimited life).
    projected_lifetime_years: Optional[float]

    @property
    def wear_evenness(self) -> float:
        """max / mean erase count; 1.0 is perfectly level wear."""
        if self.mean_erase_count == 0:
            return 1.0
        return self.max_erase_count / self.mean_erase_count


def wear_report(ssd: FlashSSD, wall_time_s: float) -> WearReport:
    """Build a :class:`WearReport` for ``ssd`` over a run of
    ``wall_time_s`` virtual seconds."""
    if wall_time_s <= 0:
        raise ValueError(f"wall time must be positive, got {wall_time_s}")
    counts = ssd.erase_counts()
    total = sum(counts)
    mean = total / len(counts) if counts else 0.0
    variance = (sum((c - mean) ** 2 for c in counts) / len(counts)
                if counts else 0.0)
    max_count = max(counts) if counts else 0
    lifetime: Optional[float] = None
    if max_count > 0:
        # The worst block's erase rate bounds device life.
        worst_rate = max_count / wall_time_s
        remaining = ssd.spec.endurance_cycles - max_count
        lifetime = max(0.0, remaining / worst_rate) / _YEAR_S
    return WearReport(
        host_write_pages=ssd.write_blocks,
        gc_moved_pages=ssd.gc_page_moves,
        total_erases=total,
        max_erase_count=max_count,
        mean_erase_count=mean,
        erase_stddev=math.sqrt(variance),
        write_amplification=ssd.write_amplification,
        endurance_cycles=ssd.spec.endurance_cycles,
        projected_lifetime_years=lifetime)
