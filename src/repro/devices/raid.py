"""RAID0 striping across multiple hard disk drives.

The paper's second baseline is Linux MD RAID0 over four SATA disks.
RAID0 stripes consecutive chunks round-robin across member disks, so a
large sequential request is serviced in parallel (latency = slowest
member) while a small random request still pays one full mechanical
access on a single disk — exactly why the paper observes RAID0 doing
poorly on small random transaction workloads (Section 5.1, TPC-C).
"""

from __future__ import annotations

from typing import Dict, List

from repro.devices.base import Device
from repro.devices.hdd import HardDiskDrive
from repro.sim.request import BLOCK_SIZE

#: Member disks: the paper's "RAID0 with data striping on 4 SATA disks".
NDISKS = 4
#: Logical blocks per stripe chunk (64 KB).
CHUNK_BLOCKS = 16


class RAID0Array(Device):
    """Stripe a logical block space across :data:`NDISKS` identical HDDs.

    Addressing: chunk ``c`` (of :data:`CHUNK_BLOCKS` logical blocks)
    lives on disk ``c % NDISKS`` at chunk offset ``c // NDISKS``.  A
    request inside one chunk goes straight to its member's access; only
    a request that crosses chunks is split into per-disk extents.
    """

    COUNTERS = Device.COUNTERS + ("parallel_requests",)

    def __init__(self, capacity_blocks: int) -> None:
        super().__init__(capacity_blocks, f"raid0x{NDISKS}")
        # The trace-event prefix names the array, not its width.
        self.trace_name = "raid0"
        per_disk = -(-capacity_blocks // NDISKS) + CHUNK_BLOCKS
        self.disks: List[HardDiskDrive] = [
            HardDiskDrive(per_disk) for _ in range(NDISKS)]

    def _split(self, lba: int, nblocks: int) -> Dict[int, List[tuple]]:
        """Map a logical span to per-disk (physical lba, nblocks) extents."""
        per_disk: Dict[int, List[tuple]] = {}
        end = lba + nblocks
        while lba < end:
            chunk, offset = divmod(lba, CHUNK_BLOCKS)
            take = min(end - lba, CHUNK_BLOCKS - offset)
            per_disk.setdefault(chunk % NDISKS, []).append(
                (chunk // NDISKS * CHUNK_BLOCKS + offset, take))
            lba += take
        return per_disk

    def _access(self, lba: int, nblocks: int, write: bool) -> float:
        if nblocks < 1 or not 0 <= lba <= self.capacity_blocks - nblocks:
            self._check_span(lba, nblocks)
        offset = lba % CHUNK_BLOCKS
        if offset + nblocks <= CHUNK_BLOCKS:
            chunk = lba // CHUNK_BLOCKS
            latency = self.disks[chunk % NDISKS]._access(
                chunk // NDISKS * CHUNK_BLOCKS + offset, nblocks, write)
            used = 1
        else:
            # Members work in parallel, each through its extents in order;
            # the request completes when the slowest finishes.
            per_disk = self._split(lba, nblocks)
            latency = 0.0
            for disk, extents in per_disk.items():
                disk_time = 0.0
                for phys, take in extents:
                    disk_time += self.disks[disk]._access(phys, take, write)
                latency = max(latency, disk_time)
            used = len(per_disk)
            if used > 1:
                self.parallel_requests += 1
        if write:
            self.write_ops += 1
            self.write_blocks += nblocks
        else:
            self.read_ops += 1
            self.read_blocks += nblocks
        self.busy_time += latency
        if self.tracer is not None:
            self.tracer.device_span(
                self.trace_name, "write" if write else "read", latency,
                lba=lba, nbytes=nblocks * BLOCK_SIZE, outcome=f"disks={used}")
        return latency
