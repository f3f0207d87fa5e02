"""Content-locality measurement.

Quantifies, for any block population or write stream, the properties the
paper's Section 2.2 asserts qualitatively:

* how many blocks are exact duplicates (dedup's food),
* how small blocks' deltas are against their best in-population anchor
  (I-CASH's food),
* how much of a block a write actually changes (the cited 5–20 %).

These functions are exact but O(n·candidates): they use the same
signature index the I-CASH scanner uses to find each block's best
anchor, then compute the true delta.  Suitable for datasets up to a few
tens of thousands of blocks — analysis, not data path.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from repro.core.signatures import block_signatures
from repro.delta.encoder import encode_delta
from repro.sim.backing import BackingStore
from repro.sim.request import BLOCK_SIZE, IORequest

#: Sub-signature positions a block must share with its best anchor
#: before the delta against it is computed (the controller's default
#: ``min_signature_match``).
MIN_MATCH = 4


@dataclass
class DatasetLocality:
    """Content-locality statistics of one block population."""

    n_blocks: int
    #: Blocks whose exact content occurs more than once.
    duplicate_blocks: int
    #: Distinct contents among the duplicates' classes.
    duplicate_classes: int
    #: Per-block size of the delta against its best anchor (bytes);
    #: ``BLOCK_SIZE`` stands in for "no anchor found".
    delta_sizes: List[int] = field(repr=False, default_factory=list)

    @property
    def duplicate_ratio(self) -> float:
        return self.duplicate_blocks / self.n_blocks if self.n_blocks \
            else 0.0

    def compressible_fraction(self, threshold: int = 2048) -> float:
        """Fraction of blocks whose best delta fits under ``threshold`` —
        the population I-CASH can represent as associates."""
        if not self.delta_sizes:
            return 0.0
        return sum(1 for s in self.delta_sizes if s <= threshold) \
            / len(self.delta_sizes)

    def median_delta_bytes(self) -> float:
        if not self.delta_sizes:
            return 0.0
        return float(np.median(self.delta_sizes))

    def summary(self) -> str:
        return (f"{self.n_blocks} blocks: "
                f"{self.duplicate_ratio:.1%} exact duplicates "
                f"({self.duplicate_classes} classes), "
                f"{self.compressible_fraction():.1%} delta-compressible "
                f"(median delta {self.median_delta_bytes():.0f} B)")


def _signature_index(signatures: List[Tuple[int, ...]]
                     ) -> Dict[Tuple[int, int], List[int]]:
    index: Dict[Tuple[int, int], List[int]] = {}
    for block_id, sigs in enumerate(signatures):
        for row, value in enumerate(sigs):
            index.setdefault((row, value), []).append(block_id)
    return index


def _best_anchor(block_id: int, signatures: List[Tuple[int, ...]],
                 index: Dict[Tuple[int, int], List[int]]) -> Optional[int]:
    tallies: Dict[int, int] = {}
    for row, value in enumerate(signatures[block_id]):
        for candidate in index.get((row, value), ()):
            if candidate != block_id:
                tallies[candidate] = tallies.get(candidate, 0) + 1
    if not tallies:
        return None
    best = max(tallies, key=tallies.get)
    return best if tallies[best] >= MIN_MATCH else None


def analyze_dataset(dataset: np.ndarray,
                    sample: Optional[int] = None,
                    seed: int = 0) -> DatasetLocality:
    """Measure a block population's content locality.

    ``sample`` bounds how many blocks get the (expensive) best-anchor
    delta computed; duplicates are always counted exactly.
    """
    n_blocks = dataset.shape[0]
    digests: Dict[bytes, int] = {}
    counts: Dict[bytes, int] = {}
    for lba in range(n_blocks):
        digest = hashlib.sha1(dataset[lba].tobytes()).digest()
        counts[digest] = counts.get(digest, 0) + 1
        digests[digest] = lba
    duplicate_blocks = sum(c for c in counts.values() if c > 1)
    duplicate_classes = sum(1 for c in counts.values() if c > 1)

    signatures = [block_signatures(dataset[lba]) for lba in range(n_blocks)]
    index = _signature_index(signatures)
    if sample is not None and sample < n_blocks:
        rng = np.random.default_rng(seed)
        probe = sorted(rng.choice(n_blocks, size=sample, replace=False))
    else:
        probe = range(n_blocks)
    delta_sizes: List[int] = []
    for block_id in probe:
        anchor = _best_anchor(block_id, signatures, index)
        if anchor is None:
            delta_sizes.append(BLOCK_SIZE)
            continue
        delta = encode_delta(dataset[block_id], dataset[anchor])
        delta_sizes.append(min(BLOCK_SIZE, delta.size_bytes))
    return DatasetLocality(
        n_blocks=n_blocks,
        duplicate_blocks=duplicate_blocks,
        duplicate_classes=duplicate_classes,
        delta_sizes=delta_sizes)


@dataclass
class WriteLocality:
    """How much content the writes of a stream actually change."""

    n_overwrites: int
    #: Per-overwrite fraction of bytes changed.
    change_fractions: List[float] = field(repr=False,
                                          default_factory=list)

    def mean_change_fraction(self) -> float:
        if not self.change_fractions:
            return 0.0
        return float(np.mean(self.change_fractions))

    def within_paper_band(self) -> float:
        """Fraction of overwrites changing between 5 % and 20 % of the
        block — the paper's cited band."""
        if not self.change_fractions:
            return 0.0
        return sum(1 for f in self.change_fractions if 0.05 <= f <= 0.20) \
            / len(self.change_fractions)

    def summary(self) -> str:
        return (f"{self.n_overwrites} overwrites: mean change "
                f"{self.mean_change_fraction():.1%} of the block, "
                f"{self.within_paper_band():.1%} inside the paper's "
                f"5-20% band")


def analyze_writes(initial: np.ndarray,
                   requests: Iterable[IORequest]) -> WriteLocality:
    """Replay a stream's writes and measure per-overwrite change.

    Maintains its own shadow, so any request iterable works — a live
    generator or a loaded trace.
    """
    shadow = BackingStore(initial)
    fractions: List[float] = []
    for request in requests:
        if not request.is_write:
            continue
        for offset, block in enumerate(request.payload):
            lba = request.lba + offset
            changed = int((shadow[lba] != block).sum())
            fractions.append(changed / BLOCK_SIZE)
            shadow[lba] = block
    return WriteLocality(n_overwrites=len(fractions),
                         change_fractions=fractions)
