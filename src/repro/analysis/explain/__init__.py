"""Differential diagnosis of two runs (``repro explain``).

The one comparison of two runs: takes two ledger rows and produces a
ranked root-cause report — noise-aware scalar and attribution diffs
and a suspect ranking built from provenance deltas, which names every
recipe field the two rows disagree on.  See docs/OBSERVABILITY.md
("Explaining a delta") and the "debugging a regression" walkthrough.
"""

from repro.analysis.explain.attribution import (AttributionDelta,
                                                diff_attribution,
                                                export_flame_diff,
                                                flame_diff_stacks,
                                                significant_attribution)
from repro.analysis.explain.report import (ExplainReport,
                                           explain_ledger_rows)
from repro.analysis.explain.scalars import (ScalarDelta, diff_scalars,
                                            significant_scalars)
from repro.analysis.explain.suspects import (RECIPE_FIELDS,
                                             SUSPECT_SCORES, Suspect,
                                             rank_suspects)

__all__ = [
    "AttributionDelta", "ExplainReport", "RECIPE_FIELDS", "ScalarDelta",
    "SUSPECT_SCORES", "Suspect", "diff_attribution", "diff_scalars",
    "explain_ledger_rows", "export_flame_diff", "flame_diff_stacks",
    "rank_suspects", "significant_attribution", "significant_scalars",
]
