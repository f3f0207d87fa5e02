"""Suspect ranking: from "what moved" to "what probably caused it".

Combines provenance deltas (recipe, seed, config overrides, git state)
with the significant metric and attribution findings into a
ranked hypothesis list.  Scores are fixed per cause kind — this is a
deterministic triage order encoding how conclusive each kind of
evidence is, not a fitted probability: an explicit config override
outranks a tree change outranks a dirty tree outranks a reseed, and
purely behavioural shifts (same recipe, same tree, numbers moved
anyway) rank last because they point at a determinism bug rather than
a cause the ledger recorded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.analysis.explain.attribution import (AttributionDelta,
                                                significant_attribution)
from repro.analysis.explain.scalars import (ScalarDelta,
                                            significant_scalars)
from repro.ledger import SPEC_FIELDS, LedgerRow

#: Fixed score per cause kind (the triage order; doc-parity listed in
#: docs/OBSERVABILITY.md).
SUSPECT_SCORES = {
    "incomparable": 1.0,
    "config_override": 0.95,
    "code_change": 0.8,
    "dirty_tree": 0.6,
    "seed_change": 0.5,
    "behavioural_shift": 0.4,
}

#: Evidence lines kept per suspect (the heaviest movers).
MAX_EVIDENCE = 5

#: The recipe two comparable runs share: every spec field but the two
#: that are causes of their own.
RECIPE_FIELDS = tuple(key for key in SPEC_FIELDS
                      if key not in ("seed", "config_overrides"))


@dataclass(frozen=True)
class Suspect:
    """One ranked root-cause hypothesis."""

    cause: str
    score: float
    summary: str
    evidence: List[str] = field(default_factory=list)

    def render(self, rank: int) -> str:
        lines = [f"{rank}. [{self.score:.2f}] {self.summary}"]
        lines.extend(f"     - {line}" for line in self.evidence)
        return "\n".join(lines)


def _metric_evidence(sig_scalars: List[ScalarDelta],
                     sig_attr: List[AttributionDelta]) -> List[str]:
    """The heaviest significant movers, metric lines first.

    When attribution rows moved too, up to two evidence slots are
    reserved for them — the (device, phase) rows are what localise a
    scalar regression, so they must survive even when many scalars
    moved.
    """
    reserved = min(len(sig_attr), 2)
    evidence = [d.render().strip()
                for d in sig_scalars[:MAX_EVIDENCE - reserved]]
    room = MAX_EVIDENCE - len(evidence)
    evidence.extend(d.render().strip() for d in sig_attr[:room])
    return evidence


def rank_suspects(row_a: LedgerRow, row_b: LedgerRow,
                  scalar_deltas: List[ScalarDelta],
                  attribution_deltas: List[AttributionDelta]
                  ) -> List[Suspect]:
    """The ranked hypothesis list, highest score first.

    With no significant metric or attribution movement, provenance
    differences alone are *not* suspects (a reseed that changed
    nothing needs no explanation) — the report then says "no
    significant deltas".
    """
    sig_scalars = significant_scalars(scalar_deltas)
    sig_attr = significant_attribution(attribution_deltas)
    moved = bool(sig_scalars or sig_attr)
    sa, sb = row_a.spec, row_b.spec
    suspects: List[Suspect] = []

    mismatched = [key for key in RECIPE_FIELDS
                  if sa.get(key) != sb.get(key)]
    if mismatched:
        suspects.append(Suspect(
            cause="incomparable", score=SUSPECT_SCORES["incomparable"],
            summary=("runs are not comparable: "
                     + ", ".join(f"{key} {sa.get(key)!r} vs "
                                 f"{sb.get(key)!r}"
                                 for key in mismatched)),
            evidence=["every metric delta below reflects the recipe "
                      "difference, not a regression"]))

    if not moved:
        return suspects

    overrides_a = sa.get("config_overrides")
    overrides_b = sb.get("config_overrides")
    if overrides_a != overrides_b:
        suspects.append(Suspect(
            cause="config_override",
            score=SUSPECT_SCORES["config_override"],
            summary=(f"config overrides differ: {overrides_a!r} vs "
                     f"{overrides_b!r}"),
            evidence=_metric_evidence(sig_scalars, sig_attr)))

    pa, pb = row_a.provenance, row_b.provenance
    sha_a, sha_b = pa.get("git_sha"), pb.get("git_sha")
    if (sha_a or sha_b) and sha_a != sha_b:
        suspects.append(Suspect(
            cause="code_change", score=SUSPECT_SCORES["code_change"],
            summary=(f"trees differ: {str(sha_a or 'unknown')[:10]} vs "
                     f"{str(sha_b or 'unknown')[:10]}"),
            evidence=_metric_evidence(sig_scalars, sig_attr)))
    if pa.get("git_dirty") or pb.get("git_dirty"):
        which = "both runs" if pa.get("git_dirty") \
            and pb.get("git_dirty") else \
            ("run a" if pa.get("git_dirty") else "run b")
        suspects.append(Suspect(
            cause="dirty_tree", score=SUSPECT_SCORES["dirty_tree"],
            summary=f"{which} used a dirty working tree — "
                    f"uncommitted edits may explain the movement",
            evidence=_metric_evidence(sig_scalars, sig_attr)))

    if sa.get("seed") != sb.get("seed"):
        suspects.append(Suspect(
            cause="seed_change", score=SUSPECT_SCORES["seed_change"],
            summary=(f"seed differs ({sa.get('seed')} vs "
                     f"{sb.get('seed')}): deltas beyond the noise "
                     f"tolerance under a reseed point at "
                     f"seed-sensitive behaviour"),
            evidence=_metric_evidence(sig_scalars, sig_attr)))

    if not suspects:
        suspects.append(Suspect(
            cause="behavioural_shift",
            score=SUSPECT_SCORES["behavioural_shift"],
            summary="same recipe, seed and tree, yet metrics moved "
                    "beyond tolerance — a behavioural shift (or a "
                    "determinism bug worth chasing)",
            evidence=_metric_evidence(sig_scalars, sig_attr)))

    suspects.sort(key=lambda s: (-s.score, s.cause))
    return suspects
