"""64-byte segment allocator for the RAM delta buffer.

Section 4.3 of the paper: "Delta blocks are managed using a linked list of
64-bytes segments."  Deltas have wildly varying sizes (a one-byte change
costs a handful of bytes; a heavy rewrite approaches the 2 KB spill
threshold), so fixed 64-byte segments give cheap allocation with bounded
internal fragmentation.

The pool only does *accounting* — actual delta payloads live in
:class:`~repro.delta.encoder.Delta` objects — but the accounting is what
drives the paper's delta-replacement policy: when the pool is exhausted,
the I-CASH cache must evict a delta-holding virtual block.
"""

from __future__ import annotations

SEGMENT_BYTES = 64


class SegmentPool:
    """Fixed-size segment pool with allocate/free accounting."""

    def __init__(self, capacity_bytes: int) -> None:
        if capacity_bytes < SEGMENT_BYTES:
            raise ValueError(
                f"pool needs at least one segment ({SEGMENT_BYTES} B), "
                f"got {capacity_bytes} B")
        self.capacity_segments = capacity_bytes // SEGMENT_BYTES
        self.used_segments = 0
        #: Highest occupancy ever reached, for sizing reports.
        self.peak_segments = 0

    @staticmethod
    def segments_for(nbytes: int) -> int:
        """Segments needed to hold ``nbytes`` (at least one)."""
        if nbytes < 0:
            raise ValueError(f"size cannot be negative: {nbytes}")
        return max(1, -(-nbytes // SEGMENT_BYTES))

    @property
    def free_segments(self) -> int:
        return self.capacity_segments - self.used_segments

    def can_fit(self, nbytes: int) -> bool:
        return self.segments_for(nbytes) <= self.free_segments

    def allocate(self, nbytes: int) -> int:
        """Claim segments for a delta of ``nbytes``; returns segment count.

        Raises ``MemoryError`` when the pool is exhausted — callers evict
        via the delta-replacement policy first.
        """
        need = self.segments_for(nbytes)
        if need > self.free_segments:
            raise MemoryError(
                f"segment pool exhausted: need {need}, "
                f"free {self.free_segments}")
        self.used_segments += need
        self.peak_segments = max(self.peak_segments, self.used_segments)
        return need

    def free(self, nbytes: int) -> None:
        """Release the segments previously allocated for ``nbytes``."""
        give_back = self.segments_for(nbytes)
        if give_back > self.used_segments:
            raise ValueError(
                f"freeing {give_back} segments but only "
                f"{self.used_segments} are allocated")
        self.used_segments -= give_back

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"SegmentPool(used={self.used_segments}/"
                f"{self.capacity_segments})")
