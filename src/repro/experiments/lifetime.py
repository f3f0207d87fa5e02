"""SSD lifetime projection across architectures (§5.3's conclusion).

Table 6 counts SSD write requests; the paragraph under it argues the
reduction "impl[ies] prolonged life time of the SSD".  This module
finishes that argument with numbers: run one workload across the
SSD-bearing architectures, read each SSD's per-block erase counters and
write volume, and project device lifetime at the observed steady-state
rate.

Because I-CASH (and the caches) provision a *smaller* SSD than the
pure-SSD baseline, the projection normalises per flash block: what
matters for endurance is erases per block per unit time, not the
device's absolute write count.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Optional

from repro.devices.ssd import FlashSSD
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_benchmark
from repro.metrics.wear import WearReport, wear_report

#: Architectures that carry an SSD (RAID0 has none to wear out).
SSD_SYSTEMS = ("fusion-io", "dedup", "lru", "icash")


@dataclass
class LifetimeRow:
    """One architecture's wear outcome for one workload run."""

    system: str
    host_write_pages: int
    total_erases: int
    write_amplification: float
    wear: WearReport
    #: Projected years until the most-worn block exhausts endurance,
    #: at the run's observed rate; None when the run caused no erases.
    projected_years: Optional[float]

    def format_row(self) -> str:
        years = (f"{self.projected_years:10.2f}"
                 if self.projected_years is not None else
                 f"{'>1000':>10}")
        return (f"{self.system:<10} {self.host_write_pages:>12} "
                f"{self.total_erases:>8} "
                f"{self.write_amplification:>6.2f} {years}")


def _find_ssd(system) -> Optional[FlashSSD]:
    for device in system.devices():
        if isinstance(device, FlashSSD):
            return device
    return None


def lifetime_projection(spec: RunSpec) -> Dict[str, LifetimeRow]:
    """Run ``spec``'s workload on every SSD-bearing architecture and
    project each SSD's lifetime from its wear state (read off the live
    system, so the runs stay in this process)."""
    rows: Dict[str, LifetimeRow] = {}
    for name in SSD_SYSTEMS:
        cell = replace(spec, system=name)
        workload = cell.build_workload()
        system = cell.build_system(workload)
        result = run_benchmark(workload, system,
                               warmup_fraction=cell.warmup_fraction)
        ssd = _find_ssd(system)
        if ssd is None:  # pragma: no cover - all four carry SSDs
            continue
        report = wear_report(ssd, max(result.full_wall_time_s, 1e-9))
        rows[name] = LifetimeRow(
            system=name,
            host_write_pages=ssd.write_blocks,
            total_erases=ssd.total_erases,
            write_amplification=ssd.write_amplification,
            wear=report,
            projected_years=report.projected_lifetime_years)
    return rows


def render_lifetime_table(rows: Dict[str, LifetimeRow],
                          title: str = "SSD lifetime projection") -> str:
    lines = [title, "=" * len(title),
             f"{'system':<10} {'write pages':>12} {'erases':>8} "
             f"{'WA':>6} {'life (yr)':>10}"]
    for name in SSD_SYSTEMS:
        if name in rows:
            lines.append(rows[name].format_row())
    lines.append("")
    lines.append("(WA = write amplification; life projects the most-worn "
                 "block's erase rate\nagainst its endurance budget at "
                 "this run's intensity)")
    return "\n".join(lines)
