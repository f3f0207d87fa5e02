"""The RAID0 baseline: data striped over four SATA disks.

Section 4.4, baseline 2: "RAID0 with data striping on 4 SATA disks.
Linux MD is used as the RAID controller."  Good sequential throughput
through parallelism; small random requests still pay one full mechanical
access, which is why the paper sees RAID0 trail everything else on
transaction workloads.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.baselines.base import StorageSystem
from repro.devices.raid import RAID0Array
from repro.sim.backing import BackingStore


class RAID0Storage(StorageSystem):
    """All blocks live on a RAID0 array of mechanical disks."""

    def __init__(self, initial_content: np.ndarray) -> None:
        capacity_blocks = initial_content.shape[0]
        super().__init__("raid0", capacity_blocks)
        self.backing = BackingStore(initial_content)
        self.raid = RAID0Array(capacity_blocks)

    def devices(self) -> Iterable:
        # Expose member disks (not the array wrapper) so energy accounting
        # sees four spindles, matching the paper's "4 disks, 15 W each".
        return tuple(self.raid.disks)

    def serving_devices(self) -> Iterable:
        # The array serves requests, not its member disks: one
        # ``raid0_read``/``raid0_write`` span per request whose duration
        # is the slowest member's (the request's actual service time) —
        # per-member spans would overlap and double-count parallel work —
        # queued at one station with a slot per member.
        return (self.raid,)

    def read(self, lba: int, nblocks: int = 1
             ) -> Tuple[float, List[np.ndarray]]:
        self._check_span(lba, nblocks)
        latency = self.raid.read(lba, nblocks)
        contents = [self.backing.view(block)
                    for block in range(lba, lba + nblocks)]
        return latency, contents

    def write(self, lba: int, blocks: Sequence[np.ndarray]) -> float:
        self._check_span(lba, len(blocks))
        for offset, content in enumerate(blocks):
            self.backing.set(lba + offset, content)
        return self.raid.write(lba, len(blocks))
