"""I-CASH configuration.

Defaults follow the paper's prototype (Sections 4.2–4.3): 4 KB cache
blocks split into eight 512 B sub-blocks with 1-byte sampled
sub-signatures; a similarity scan every 2 000 I/Os over 4 000 LRU blocks;
a 2 048-byte delta spill threshold; delta storage in 64-byte segments.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

from repro.core.signatures import SUB_BLOCKS
from repro.delta.segments import SEGMENT_BYTES
from repro.sim.request import BLOCK_SIZE


@dataclass(frozen=True)
class ICASHConfig:
    """All tunables of one I-CASH storage element."""

    # -- geometry ----------------------------------------------------------
    #: SSD reference store capacity in 4 KB blocks.  The paper typically
    #: provisions about 10 % of the benchmark's data-set size.
    ssd_capacity_blocks: int = 4096
    #: RAM dedicated to cached data blocks, in bytes.
    data_ram_bytes: int = 16 * 1024 * 1024
    #: RAM dedicated to the delta segment pool, in bytes (the paper's
    #: "delta buffer", 32–512 MB depending on benchmark).
    delta_ram_bytes: int = 8 * 1024 * 1024
    #: Maximum virtual blocks tracked (metadata entries).  Virtual blocks
    #: are tiny, so the prototype keeps far more of them than data blocks.
    max_virtual_blocks: int = 65536
    #: HDD delta-log region size in blocks.
    log_blocks: int = 16384

    # -- signatures and similarity ------------------------------------------
    #: Run the similarity scan every this many I/Os (paper: 2 000).
    scan_interval: int = 2000
    #: Blocks examined per scan from the head of the LRU queue (paper: 4 000).
    scan_window: int = 4000
    #: Sub-signature positions that must match before a delta encode is
    #: even attempted between a block and a candidate reference.
    min_signature_match: int = 4
    #: Largest delta (bytes) accepted when associating a block with a
    #: reference during the scan.
    delta_accept_bytes: int = 2048

    # -- write path ------------------------------------------------------------
    #: Deltas larger than this spill the whole block to the SSD instead
    #: (paper: 2 048 bytes — "to release delta buffer").
    delta_spill_bytes: int = 2048
    #: Flush dirty deltas and data to the HDD at least every this many I/Os
    #: (the tunable reliability/performance knob of Section 3.3).
    flush_interval: int = 1024
    #: Also flush once this many deltas are dirty — "a tunable parameter
    #: based on the number of dirty delta blocks in the system" (§3.3).
    #: Batching matters: each flush packs its records into shared delta
    #: blocks, so bigger batches mean fewer, denser log writes.
    flush_dirty_count: int = 512

    # -- CPU cost model ----------------------------------------------------------
    #: Time to delta-compress one 4 KB block (s).  The paper overlaps
    #: compression with I/O processing, so only ``compress_exposed_fraction``
    #: of it lands on the request's critical path.
    compress_s: float = 15e-6
    compress_exposed_fraction: float = 0.2
    #: Time to decompress (apply) one delta (s); the paper measures ~10 µs.
    decompress_s: float = 10e-6
    #: CPU time per candidate comparison in the similarity scan (s).
    scan_compare_s: float = 2e-6

    def __post_init__(self) -> None:
        for spec in fields(self):
            value = getattr(self, spec.name)
            if spec.type == "int":
                if isinstance(value, bool) \
                        or not isinstance(value, numbers.Integral):
                    raise TypeError(f"{spec.name} must be an integer, "
                                    f"got {value!r}")
                least = _LEAST_INT[spec.name]
                if value < least:
                    raise ValueError(f"{spec.name} must be at least "
                                     f"{least}, got {value}")
            else:
                if isinstance(value, bool) \
                        or not isinstance(value, numbers.Real):
                    raise TypeError(f"{spec.name} must be a number, "
                                    f"got {value!r}")
                if not 0.0 <= value < math.inf:
                    raise ValueError(f"{spec.name} must be a finite "
                                     f"number >= 0, got {value}")
        if self.max_virtual_blocks <= self.ssd_capacity_blocks:
            # Each SSD slot can hold a reference, and a reference's
            # virtual block is never evicted: a budget the references
            # can fill leaves nothing to evict for the next block.
            raise ValueError(
                f"max_virtual_blocks ({self.max_virtual_blocks}) must "
                f"exceed ssd_capacity_blocks ({self.ssd_capacity_blocks})")
        if self.min_signature_match > SUB_BLOCKS:
            raise ValueError(
                f"min_signature_match must be at most {SUB_BLOCKS} (one "
                f"per sub-block), got {self.min_signature_match}")
        if self.compress_exposed_fraction > 1.0:
            raise ValueError("compress_exposed_fraction must be in [0, 1]")
        if self.delta_spill_bytes < self.delta_accept_bytes:
            raise ValueError(
                "spill threshold below accept threshold would spill every "
                "freshly associated block")


#: The least value of each integer field: a block of data RAM, a
#: segment of delta RAM, the cache's eight virtual blocks, and at least
#: one of everything counted.
_LEAST_INT = {
    "ssd_capacity_blocks": 1,
    "data_ram_bytes": BLOCK_SIZE,
    "delta_ram_bytes": SEGMENT_BYTES,
    "max_virtual_blocks": 8,
    "log_blocks": 1,
    "scan_interval": 1,
    "scan_window": 1,
    "min_signature_match": 0,
    "delta_accept_bytes": 0,
    "delta_spill_bytes": 0,
    "flush_interval": 1,
    "flush_dirty_count": 1,
}
