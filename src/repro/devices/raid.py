"""RAID0 striping across multiple hard disk drives.

The paper's second baseline is Linux MD RAID0 over four SATA disks.
RAID0 stripes consecutive chunks round-robin across member disks, so a
large sequential request is serviced in parallel (latency = slowest
member) while a small random request still pays one full mechanical
access on a single disk — exactly why the paper observes RAID0 doing
poorly on small random transaction workloads (Section 5.1, TPC-C).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.devices.base import Device
from repro.devices.hdd import HardDiskDrive, HDDSpec
from repro.sim.request import BLOCK_SIZE


class RAID0Array(Device):
    """Stripe a logical block space across N identical HDDs.

    Addressing: chunk ``c`` (of ``chunk_blocks`` logical blocks) lives on
    disk ``c % ndisks`` at chunk offset ``c // ndisks``.  A request inside
    one chunk goes straight to its member's access; only a request that
    crosses chunks is split into per-disk extents.
    """

    COUNTERS = Device.COUNTERS + ("parallel_requests",)

    def __init__(self, capacity_blocks: int, ndisks: int = 4,
                 chunk_blocks: int = 16,
                 hdd_spec: Optional[HDDSpec] = None) -> None:
        if ndisks < 1:
            raise ValueError(f"need at least one disk, got {ndisks}")
        if chunk_blocks < 1:
            raise ValueError(f"chunk must be >= 1 block, got {chunk_blocks}")
        super().__init__(capacity_blocks, f"raid0x{ndisks}")
        # One stable trace-event prefix regardless of stripe width.
        self.trace_name = "raid0"
        self.ndisks = ndisks
        self.chunk_blocks = chunk_blocks
        per_disk = -(-capacity_blocks // ndisks) + chunk_blocks
        spec = hdd_spec if hdd_spec is not None else HDDSpec()
        self.disks: List[HardDiskDrive] = [
            HardDiskDrive(per_disk, spec) for _ in range(ndisks)]

    def _split(self, lba: int, nblocks: int) -> Dict[int, List[tuple]]:
        """Map a logical span to per-disk (physical lba, nblocks) extents."""
        per_disk: Dict[int, List[tuple]] = {}
        end = lba + nblocks
        while lba < end:
            chunk, offset = divmod(lba, self.chunk_blocks)
            take = min(end - lba, self.chunk_blocks - offset)
            per_disk.setdefault(chunk % self.ndisks, []).append(
                (chunk // self.ndisks * self.chunk_blocks + offset, take))
            lba += take
        return per_disk

    def _access(self, lba: int, nblocks: int, write: bool) -> float:
        if nblocks < 1 or not 0 <= lba <= self.capacity_blocks - nblocks:
            self._check_span(lba, nblocks)
        chunk_blocks = self.chunk_blocks
        offset = lba % chunk_blocks
        if offset + nblocks <= chunk_blocks:
            chunk = lba // chunk_blocks
            latency = self.disks[chunk % self.ndisks]._access(
                chunk // self.ndisks * chunk_blocks + offset, nblocks, write)
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

    @property
    def member_busy_time(self) -> float:
        """Summed busy time across member disks (energy accounting)."""
        return sum(d.busy_time for d in self.disks)
