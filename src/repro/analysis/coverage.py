"""Reference-coverage analysis.

Section 5.1's structural result: for SysBench, "the percentages of
reference blocks, delta blocks, and independent blocks are 1%, 85%, and
14%" — a tiny reference set anchors the population.  This module
measures that property for any (reference set, population) pair: how
many blocks each reference anchors, the delta bytes the representation
costs, and the space saving versus storing full blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.core.controller import ICASHController
from repro.delta.encoder import encode_delta
from repro.sim.request import BLOCK_SIZE


@dataclass
class CoverageReport:
    """How a reference set covers a block population."""

    n_blocks: int
    n_references: int
    n_associates: int
    n_independent: int
    #: Total bytes of all association deltas.
    delta_bytes: int
    #: Associates anchored per reference (only references with >= 1).
    fanout: Dict[int, int] = field(repr=False, default_factory=dict)

    @property
    def reference_fraction(self) -> float:
        return self.n_references / self.n_blocks if self.n_blocks else 0.0

    @property
    def associate_fraction(self) -> float:
        return self.n_associates / self.n_blocks if self.n_blocks else 0.0

    @property
    def space_saving(self) -> float:
        """1 - (references + deltas + independents) / full blocks.

        The quantity Table 2's worked example minimises: how much cache
        space the delta representation saves over storing every block.
        """
        full = self.n_blocks * BLOCK_SIZE
        compressed = ((self.n_references + self.n_independent)
                      * BLOCK_SIZE + self.delta_bytes)
        return 1.0 - compressed / full if full else 0.0

    def max_fanout(self) -> int:
        return max(self.fanout.values()) if self.fanout else 0

    def summary(self) -> str:
        return (f"{self.reference_fraction:.1%} references anchor "
                f"{self.associate_fraction:.1%} of {self.n_blocks} blocks "
                f"({self.n_independent} independent); space saving "
                f"{self.space_saving:.1%}, max fanout {self.max_fanout()}")


def reference_coverage(controller: ICASHController) -> CoverageReport:
    """Measure a live I-CASH element's reference coverage.

    Walks the durable delta map (cached and evicted associates alike) and
    re-derives each association's delta size from actual content, so the
    report reflects real bytes, not estimates.
    """
    delta_map = controller.delta_map_snapshot()
    ssd = controller.ssd_content_snapshot()
    references = set(controller.reference_lbas)
    fanout: Dict[int, int] = {}
    delta_bytes = 0
    n_associates = 0
    image = _content_reader(controller, delta_map, ssd)
    for lba, (ref_lba, _slot) in delta_map.items():
        if ref_lba == lba or ref_lba not in ssd:
            continue
        n_associates += 1
        fanout[ref_lba] = fanout.get(ref_lba, 0) + 1
        delta = encode_delta(image(lba), ssd[ref_lba])
        delta_bytes += delta.size_bytes
    n_blocks = controller.capacity_blocks
    n_independent = n_blocks - n_associates - len(references)
    return CoverageReport(
        n_blocks=n_blocks,
        n_references=len(references),
        n_associates=n_associates,
        n_independent=max(0, n_independent),
        delta_bytes=delta_bytes,
        fanout=fanout)


def _content_reader(controller: ICASHController, delta_map, ssd):
    """Current-content accessor that bypasses the data path entirely, so
    the analysis charges no device latency and moves no LRU state."""
    from repro.core.recovery import recover

    # A recovery image already resolves every durable representation;
    # overlay the not-yet-flushed RAM state on top of it.
    image = recover(controller)

    def read(lba: int) -> np.ndarray:
        vb = controller.cache.get(lba, touch=False)
        if vb is not None and vb.has_data:
            return vb.data.copy()
        if vb is not None and vb.has_delta:
            from repro.delta.encoder import apply_delta
            return apply_delta(vb.delta, ssd[delta_map[lba][0]])
        return image.read(lba)
    return read
