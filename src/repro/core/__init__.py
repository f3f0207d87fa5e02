"""The I-CASH core: the paper's primary contribution.

Modules, in dependency order:

* :mod:`repro.core.config` — every tunable the paper names, with the
  paper's defaults.
* :mod:`repro.core.signatures` — cheap 1-byte sub-signatures (sampled sums,
  Section 4.2).
* :mod:`repro.core.heatmap` — the S x Vs popularity array that fuses
  temporal and content locality.
* :mod:`repro.core.virtual_block` — reference / associate / independent
  virtual blocks.
* :mod:`repro.core.cache` — the LRU virtual-block cache with the paper's
  three replacement policies.
* :mod:`repro.core.similarity` — reference selection and delta
  association (the periodic scan).
* :mod:`repro.core.ingest` — the load-phase plan (Section 3.1 case 2):
  which blocks become references and which join one as a delta.
* :mod:`repro.core.controller` — the full I-CASH storage element: read
  path, write path, flushing, spill threshold, background scan; its
  ``block_kind_counts()`` is Section 5.1's reference / associate /
  independent split.
* :mod:`repro.core.recovery` — crash recovery by replaying the HDD delta
  log against SSD reference blocks (Section 3.3).
"""

from repro.core.config import ICASHConfig
from repro.core.controller import ICASHController
from repro.core.heatmap import Heatmap
from repro.core.signatures import block_signatures, signature_overlap
from repro.core.virtual_block import BlockKind, VirtualBlock

__all__ = [
    "BlockKind",
    "Heatmap",
    "ICASHConfig",
    "ICASHController",
    "VirtualBlock",
    "block_signatures",
    "signature_overlap",
]
