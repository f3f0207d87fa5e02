"""The explain engine's front door: run it, render it, serialise it.

:func:`explain_ledger_rows` takes two :class:`~repro.ledger.LedgerRow`\\ s
and produces an :class:`ExplainReport` bundling the two diagnosis
components — scalar diff and attribution diff — plus the ranked suspect
list.  :meth:`ExplainReport.render` is byte-deterministic for fixed
inputs and :meth:`ExplainReport.to_json` is the machine form tooling
consumes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List

from repro.analysis.explain.attribution import (
    AttributionDelta, diff_attribution, significant_attribution)
from repro.analysis.explain.scalars import (ScalarDelta, diff_scalars,
                                            significant_scalars)
from repro.analysis.explain.suspects import Suspect, rank_suspects
from repro.ledger import LedgerRow

#: Rows shown per section in the rendered report (the full lists live
#: in the JSON form).
MAX_RENDERED_ROWS = 12


@dataclass
class ExplainReport:
    """One differential diagnosis of two runs."""

    row_a: LedgerRow
    row_b: LedgerRow
    scalar_deltas: List[ScalarDelta] = field(default_factory=list)
    attribution_deltas: List[AttributionDelta] = \
        field(default_factory=list)
    suspects: List[Suspect] = field(default_factory=list)

    @property
    def significant(self) -> bool:
        """Did anything move beyond the noise-aware tolerances?"""
        return bool(significant_scalars(self.scalar_deltas)
                    or significant_attribution(self.attribution_deltas))

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The deterministic human-readable report."""
        sig_scalars = significant_scalars(self.scalar_deltas)
        sig_attr = significant_attribution(self.attribution_deltas)
        lines = [f"explain: {_label(self.row_a)} (ledger)"
                 f" vs {_label(self.row_b)} (ledger)",
                 ""]
        if not self.significant:
            lines.append("no significant deltas: every metric and "
                         "attribution row is within its noise-aware "
                         "tolerance")
            lines.append(f"  ({len(self.scalar_deltas)} metric(s) and "
                         f"{len(self.attribution_deltas)} attribution "
                         f"row(s) compared)")
            # Only a recipe difference is a suspect without movement.
            lines.extend(f"  but {s.summary}" for s in self.suspects)
            return "\n".join(lines)

        lines.append(f"suspects ({len(self.suspects)}):")
        for rank, suspect in enumerate(self.suspects, start=1):
            lines.append(suspect.render(rank))
        lines.append("")

        lines.append(f"significant metrics ({len(sig_scalars)} of "
                     f"{len(self.scalar_deltas)}):")
        lines.extend(d.render()
                     for d in sig_scalars[:MAX_RENDERED_ROWS])
        if len(sig_scalars) > MAX_RENDERED_ROWS:
            lines.append(f"  ... {len(sig_scalars) - MAX_RENDERED_ROWS}"
                         f" more (see --json)")
        lines.append("")

        lines.append(f"significant attribution rows ({len(sig_attr)} "
                     f"of {len(self.attribution_deltas)}):")
        if sig_attr:
            lines.extend(d.render()
                         for d in sig_attr[:MAX_RENDERED_ROWS])
            if len(sig_attr) > MAX_RENDERED_ROWS:
                lines.append(f"  ... {len(sig_attr) - MAX_RENDERED_ROWS}"
                             f" more (see --json)")
        else:
            lines.append("  (none — the movement is not "
                         "attribution-visible)")
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """JSON-ready document (sorted keys when dumped; stable)."""
        return {
            "a": {"label": _label(self.row_a), "source": "ledger"},
            "b": {"label": _label(self.row_b), "source": "ledger"},
            "significant": self.significant,
            "suspects": [
                {"cause": s.cause, "score": s.score,
                 "summary": s.summary, "evidence": list(s.evidence)}
                for s in self.suspects],
            "scalars": [
                {"metric": d.metric, "a": d.a, "b": d.b,
                 "delta": d.delta, "rel": d.rel,
                 "tolerance": d.tolerance, "direction": d.direction,
                 "significant": d.significant,
                 "worsened": d.worsened}
                for d in self.scalar_deltas],
            "attribution": [
                {"op": d.op, "device": d.device, "phase": d.phase,
                 "a_mean_us": d.a_mean_us, "b_mean_us": d.b_mean_us,
                 "delta_us": d.delta_us,
                 "tolerance_us": d.tolerance_us,
                 "only_in": d.only_in, "significant": d.significant}
                for d in self.attribution_deltas],
        }

    def render_json(self) -> str:
        return json.dumps(self.to_json(), sort_keys=True, indent=2)


def _label(row: LedgerRow) -> str:
    return f"#{row.seq} {row.run_id}"


def explain_ledger_rows(row_a: LedgerRow,
                        row_b: LedgerRow) -> ExplainReport:
    """Run the full differential diagnosis over two ledger rows."""
    scalar_deltas = diff_scalars(row_a, row_b)
    attribution_deltas = diff_attribution(row_a, row_b)
    suspects = rank_suspects(row_a, row_b, scalar_deltas,
                             attribution_deltas)
    return ExplainReport(row_a=row_a, row_b=row_b,
                         scalar_deltas=scalar_deltas,
                         attribution_deltas=attribution_deltas,
                         suspects=suspects)
