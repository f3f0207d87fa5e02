"""The "Fusion-io" baseline: the entire data set on the SSD.

Section 4.4, baseline 1: "using the Fusion-io ioDrive 80G SLC as the pure
data storage with no HDD involved.  All applications run on this SSD that
stores the entire data set."

Reads are fast but pay the full-footprint penalty (the whole data set is
touched, not a small reference set); writes pay NAND program time plus
whatever garbage collection their volume induces — which is exactly the
behaviour the paper leans on when I-CASH beats pure SSD on write-heavy
workloads (Figures 7, 9, 11).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.baselines.base import StorageSystem
from repro.devices.ssd import FlashSSD
from repro.sim.backing import BackingStore


class PureSSD(StorageSystem):
    """All blocks live on one flash SSD."""

    def __init__(self, initial_content: np.ndarray) -> None:
        capacity_blocks = initial_content.shape[0]
        super().__init__("fusion-io", capacity_blocks)
        self.backing = BackingStore(initial_content)
        self.ssd = FlashSSD(capacity_blocks)

    def devices(self) -> Iterable:
        return (self.ssd,)

    def ingest(self) -> float:
        """The benchmark's load phase: write the whole data set to flash.

        Matters for fidelity: afterwards the drive's footprint spans the
        full data set (the paper's ~15 µs large-footprint read penalty)
        and the FTL starts the measured run with a full mapping, so
        runtime overwrites trigger realistic garbage collection.
        """
        latency = 0.0
        for lba in range(self.capacity_blocks):
            latency += self.ssd.write(lba, 1)
        return latency

    def read(self, lba: int, nblocks: int = 1
             ) -> Tuple[float, List[np.ndarray]]:
        self._check_span(lba, nblocks)
        latency = self.ssd.read(lba, nblocks)
        contents = [self.backing.view(block)
                    for block in range(lba, lba + nblocks)]
        return latency, contents

    def write(self, lba: int, blocks: Sequence[np.ndarray]) -> float:
        self._check_span(lba, len(blocks))
        for offset, content in enumerate(blocks):
            self.backing.set(lba + offset, content)
        return self.ssd.write(lba, len(blocks))
