"""Content-locality and run analysis tools.

The paper's architecture stands on an empirical claim (Section 2.2):
data blocks exhibit *content locality* — many are identical, many more
are similar, and typical writes change only 5–20 % of a block.  This
package measures those properties directly:

* :mod:`repro.analysis.locality` — dataset- and trace-level content
  statistics: duplicate ratio, delta-size distributions against best
  references, signature-overlap histograms, write-change fractions
  (``repro analyze``).  How a live element splits its blocks into
  references and associates is ``ICASHController.block_kind_counts()``.
* :mod:`repro.analysis.explain` — differential diagnosis of two ledger
  rows: noise-aware scalar and attribution diffs and a ranked suspect
  list (``repro explain``).
"""

from repro.analysis.locality import (DatasetLocality, WriteLocality,
                                     analyze_dataset, analyze_writes)

__all__ = [
    "DatasetLocality",
    "WriteLocality",
    "analyze_dataset",
    "analyze_writes",
]
