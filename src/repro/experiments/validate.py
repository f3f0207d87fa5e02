"""Whole-reproduction validation.

Runs every figure, collects shape scores and the headline claims, and
produces one summary — the "did the reproduction hold" answer in a
single call (``python -m repro validate``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

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
    claims: List[Claim] = field(default_factory=list)

    @property
    def mean_shape_score(self) -> float:
        if not self.shape_scores:
            return 0.0
        return sum(self.shape_scores.values()) / len(self.shape_scores)

    @property
    def claims_held(self) -> int:
        return sum(1 for claim in self.claims if claim.holds)

    def render(self) -> str:
        lines = ["Reproduction validation", "=" * 23, "",
                 "shape scores (fraction of the paper's pairwise "
                 "orderings preserved):"]
        lines.extend(f"  {name:<12} {score:6.0%}"
                     for name, score in sorted(self.shape_scores.items()))
        lines.append(f"  {'mean':<12} {self.mean_shape_score:6.0%}")
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

    m6 = results["figure6a"].measured
    add("I-CASH tops SysBench throughput (Fig 6a)",
        lambda: m6["icash"] == max(m6.values()))
    add("I-CASH beats RAID0 on SysBench by >1.2x (abstract: 1.2-7.5x)",
        lambda: m6["icash"] > 1.2 * m6["raid0"])
    m10 = results["figure10a"].measured
    add("I-CASH tops TPC-C throughput (Fig 10a)",
        lambda: m10["icash"] == max(m10.values()))
    m11 = results["figure11"].measured
    add("I-CASH has the best TPC-C response time (Fig 11)",
        lambda: m11["icash"] == min(m11.values()))
    m12 = results["figure12"].measured
    add("pure SSD wins LoadSim; I-CASH still beats both caches (Fig 12)",
        lambda: m12["fusion-io"] < m12["icash"] < min(m12["lru"],
                                                      m12["dedup"]))
    m14 = results["figure14"].measured
    add("read-heavy RUBiS: I-CASH within 15% of pure SSD (Fig 14)",
        lambda: abs(m14["icash"] / m14["fusion-io"] - 1.0) < 0.15)
    m15 = results["figure15"].measured
    add("I-CASH >= pure SSD on five cloned TPC-C VMs (Fig 15)",
        lambda: m15["icash"] >= m15["fusion-io"])
    add("I-CASH > 2x the cache baselines on five VMs (Fig 15)",
        lambda: m15["icash"] > 2 * max(m15["lru"], m15["dedup"]))
    m8 = results["figure8a"].measured
    add("I-CASH finishes the Hadoop job fastest (Fig 8a)",
        lambda: m8["icash"] == min(m8.values()))
    return claims


def validate(n_requests: int = None) -> ValidationSummary:
    """Run every figure and summarise how the reproduction held up."""
    kwargs = {}
    if n_requests is not None:
        kwargs["n_requests"] = n_requests
    summary = ValidationSummary()
    results: Dict[str, FigureResult] = {}
    for name, fn in figures_module.ALL_FIGURES.items():
        if name in figures_module._FIGURE_MULTIVM:
            result = fn()
        else:
            result = fn(**kwargs)
        results[name] = result
        summary.shape_scores[name] = result.shape_score()
    summary.claims = _headline_claims(results)
    return summary
