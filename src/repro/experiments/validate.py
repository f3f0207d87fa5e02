"""Whole-reproduction validation.

Runs every series of the paper's evaluation, holds each shape score to
its series' floor, checks the headline claims, and produces one summary
— the "did the reproduction hold" answer in a single call (``python -m
repro validate``, which exits 1 when a series falls below its floor or a
claim misses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List

from repro.experiments import figures as figures_module
from repro.experiments.figures import FigureResult


@dataclass
class Claim:
    """One qualitative claim from the paper, checked against a run."""

    description: str
    holds: bool


@dataclass
class ValidationSummary:
    """Outcome of running the full figure suite."""

    shape_scores: Dict[str, float] = field(default_factory=dict)
    #: The least shape score each series must keep.
    floors: Dict[str, float] = field(default_factory=dict)
    claims: List[Claim] = field(default_factory=list)

    @property
    def mean_shape_score(self) -> float:
        if not self.shape_scores:
            return 0.0
        return sum(self.shape_scores.values()) / len(self.shape_scores)

    @property
    def claims_held(self) -> int:
        return sum(1 for claim in self.claims if claim.holds)

    @property
    def below_floor(self) -> List[str]:
        return [name for name, score in self.shape_scores.items()
                if score < self.floors.get(name, 0.0)]

    @property
    def passed(self) -> bool:
        """Every series at or above its floor and every claim held."""
        return (not self.below_floor
                and self.claims_held == len(self.claims))

    def render(self) -> str:
        below = set(self.below_floor)
        lines = ["Reproduction validation", "=" * 23, "",
                 "shape scores (fraction of the paper's pairwise "
                 "orderings preserved)",
                 "and the floor each series must keep:"]
        lines.extend(
            f"  {'LOW ' if name in below else 'ok  '} {name:<15} "
            f"{score:6.0%}  floor {self.floors.get(name, 0.0):4.0%}"
            for name, score in self.shape_scores.items())
        lines.append(f"       {'mean':<15} {self.mean_shape_score:6.0%}")
        lines.append(f"series at or above their floor: "
                     f"{len(self.shape_scores) - len(below)}/"
                     f"{len(self.shape_scores)}")
        lines.append("")
        lines.append(f"headline claims: {self.claims_held}/"
                     f"{len(self.claims)} hold")
        for claim in self.claims:
            mark = "ok  " if claim.holds else "MISS"
            lines.append(f"  {mark} {claim.description}")
        return "\n".join(lines)


def _headline_claims(results: Dict[str, FigureResult]) -> List[Claim]:
    """The findings the paper's abstract and Section 5 lean on."""
    claims: List[Claim] = []

    def add(description: str, predicate: Callable[[], bool]) -> None:
        try:
            holds = bool(predicate())
        except (KeyError, ZeroDivisionError):
            holds = False
        claims.append(Claim(description, holds))

    def measured(name: str) -> Dict[str, float]:
        result = results.get(name)
        return result.measured if result is not None else {}

    m6 = measured("figure6a")
    add("I-CASH tops SysBench throughput (Fig 6a)",
        lambda: m6["icash"] == max(m6.values()))
    add("I-CASH beats RAID0 on SysBench by >1.2x (abstract: 1.2-7.5x)",
        lambda: m6["icash"] > 1.2 * m6["raid0"])
    # CPU figures: not an ordering but a bound on what I-CASH's own
    # computation adds over pure SSD.  Hadoop finishes much sooner on
    # I-CASH, so its utilisation over the shorter wall runs higher.
    for name, bound, label in (("figure6b", 0.15, "SysBench, Fig 6b"),
                               ("figure8b", 0.40, "Hadoop, Fig 8b"),
                               ("figure10b", 0.15, "TPC-C, Fig 10b")):
        cpu = measured(name)
        add(f"I-CASH adds <{bound:.2f} CPU utilisation over pure SSD "
            f"({label})",
            lambda cpu=cpu, bound=bound:
            cpu["icash"] - cpu["fusion-io"] < bound)
    for name, label in (("figure7write", "SysBench, Fig 7"),
                        ("figure9write", "Hadoop, Fig 9")):
        rsp = measured(name)
        add(f"I-CASH writes >5x faster than pure SSD ({label})",
            lambda rsp=rsp: rsp["icash"] * 5 < rsp["fusion-io"])
    m8 = measured("figure8a")
    add("I-CASH finishes the Hadoop job fastest (Fig 8a)",
        lambda: m8["icash"] == min(m8.values()))
    m10 = measured("figure10a")
    add("I-CASH tops TPC-C throughput (Fig 10a)",
        lambda: m10["icash"] == max(m10.values()))
    add("RAID0 trails TPC-C throughput (Fig 10a)",
        lambda: m10["raid0"] == min(m10.values()))
    m11 = measured("figure11")
    add("I-CASH has the best TPC-C response time (Fig 11)",
        lambda: m11["icash"] == min(m11.values()))
    m12 = measured("figure12")
    add("pure SSD wins LoadSim; I-CASH still beats both caches (Fig 12)",
        lambda: m12["fusion-io"] < m12["icash"] < min(m12["lru"],
                                                      m12["dedup"]))
    m13 = measured("figure13")
    add("I-CASH beats both caches and RAID0 on SPEC-sfs (Fig 13)",
        lambda: m13["icash"] < min(m13["dedup"], m13["lru"],
                                   m13["raid0"]))
    m14 = measured("figure14")
    add("read-heavy RUBiS: I-CASH within 15% of pure SSD (Fig 14)",
        lambda: abs(m14["icash"] / m14["fusion-io"] - 1.0) < 0.15)
    add("I-CASH beats both caches and RAID0 by >1.3x on RUBiS (Fig 14)",
        lambda: m14["icash"] > max(m14["lru"], m14["dedup"],
                                   1.3 * m14["raid0"]))
    m15 = measured("figure15")
    add("I-CASH >= pure SSD on five cloned TPC-C VMs (Fig 15)",
        lambda: m15["icash"] >= m15["fusion-io"])
    add("I-CASH > 2x the cache baselines and RAID0 on five VMs (Fig 15)",
        lambda: m15["icash"] > 2 * max(m15["lru"], m15["dedup"],
                                       m15["raid0"]))
    m16 = measured("figure16")
    add("I-CASH >= 0.95x pure SSD on five cloned RUBiS VMs (Fig 16)",
        lambda: m16["icash"] >= 0.95 * m16["fusion-io"])
    add("I-CASH > 2x the caches and > 4x RAID0 on five VMs (Fig 16)",
        lambda: m16["icash"] > max(2 * m16["lru"], 2 * m16["dedup"],
                                   4 * m16["raid0"]))
    # Table 5: four RAID spindles cost several times the hybrid's
    # energy; I-CASH never costs more than the SSD caches and stays in
    # pure SSD's band (paper: 7 vs 8 Wh).
    for family, label in (("hadoop", "Hadoop"), ("tpcc", "TPC-C")):
        wh = measured(f"table5{family}")
        add(f"RAID0 burns >2x I-CASH's energy on {label} (Table 5)",
            lambda wh=wh: wh["raid0"] > 2 * wh["icash"])
        add(f"I-CASH's energy <= both caches', 0.4-2x pure SSD's on "
            f"{label} (Table 5)",
            lambda wh=wh: (wh["icash"] <= min(wh["lru"], wh["dedup"])
                           and 0.4 < wh["icash"] / wh["fusion-io"] < 2.0))
    for family, label in (("sysbench", "SysBench"), ("hadoop", "Hadoop"),
                          ("tpcc", "TPC-C"), ("specsfs", "SPEC-sfs")):
        writes = measured(f"table6{family}")
        add(f"I-CASH writes the SSD least on {label} (Table 6)",
            lambda writes=writes: writes["icash"] == min(writes.values()))
    # The paragraph under Table 6: fewer writes prolong flash life,
    # counted in host page writes.
    add("I-CASH writes under half LRU's SSD pages on SysBench (Table 6)",
        lambda: (results["table6sysbench"].runs["icash"].ssd_write_blocks
                 < results["table6sysbench"].runs["lru"].ssd_write_blocks
                 / 2))
    return claims


def validate(n_requests: int = None) -> ValidationSummary:
    """Run every series and summarise how the reproduction held up."""
    summary = ValidationSummary()
    results: Dict[str, FigureResult] = {}
    for name in figures_module.ALL_FIGURES:
        result = results[name] = figures_module.run_figure(name, n_requests)
        summary.shape_scores[name] = result.shape_score()
        summary.floors[name] = result.floor
    summary.claims = _headline_claims(results)
    return summary
