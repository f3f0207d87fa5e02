"""Mechanical hard disk drive model.

The paper's central performance argument is the gap between an HDD's
mechanical random access (roughly ten milliseconds of seek plus rotation)
and everything semiconductor-based (tens of microseconds).  I-CASH
exploits the one thing HDDs do well — sequential log appends — so this
model distinguishes three access patterns:

* **sequential**: the request starts exactly where the previous one ended —
  pure media transfer, no seek, no rotational delay;
* **near**: a short hop on the same region — track-to-track seek plus
  average rotation;
* **random**: a distance-dependent seek (square-root seek curve, the
  standard analytic disk model) plus average rotation plus transfer.

Defaults approximate the paper's 7200 RPM Seagate SATA drive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from itertools import repeat
from operator import add

from repro.devices.base import Device, DeviceSpec
from repro.sim.request import BLOCK_SIZE


@dataclass(frozen=True)
class HDDSpec(DeviceSpec):
    """Timing and geometry parameters for a hard disk drive."""

    name: str = "hdd"
    #: Rotational speed; 7200 RPM matches the prototype's SATA drives.
    rpm: float = 7200.0
    #: Minimum (track-to-track) seek time in seconds.
    min_seek_s: float = 0.7e-3
    #: Full-stroke seek time in seconds.
    max_seek_s: float = 14.0e-3
    #: Sustained media transfer rate in bytes per second.
    transfer_bytes_per_s: float = 100e6
    #: Span (in blocks) under which a hop counts as "near" rather than a
    #: full random seek.
    near_span_blocks: int = 256

    @property
    def avg_rotation_s(self) -> float:
        """Average rotational latency: half a revolution."""
        return 60.0 / self.rpm / 2.0

    def transfer_time(self, nblocks: int) -> float:
        return nblocks * BLOCK_SIZE / self.transfer_bytes_per_s


class HardDiskDrive(Device):
    """One mechanical disk with head-position tracking."""

    COUNTERS = Device.COUNTERS + (
        "sequential_accesses", "near_accesses", "random_accesses")

    def __init__(self, capacity_blocks: int) -> None:
        spec = HDDSpec()
        super().__init__(capacity_blocks, spec.name)
        self.spec = spec
        #: Block address one past the end of the previous request, i.e.
        #: where the head currently sits.  Starts parked at block 0.
        self._head = 0
        # Spec terms, which _access combines as the HDDSpec methods do.
        self._rotation = spec.avg_rotation_s
        self._min_seek = spec.min_seek_s
        self._seek_span = spec.max_seek_s - spec.min_seek_s
        self._near_cost = spec.min_seek_s + self._rotation
        self._near_span = spec.near_span_blocks
        self._rate = spec.transfer_bytes_per_s

    # -- latency model ----------------------------------------------------

    def _access(self, lba: int, nblocks: int, write: bool) -> float:
        if nblocks < 1 or not 0 <= lba <= self.capacity_blocks - nblocks:
            self._check_span(lba, nblocks)
        distance = abs(lba - self._head)
        if distance == 0:
            self.sequential_accesses += 1
            latency = nblocks * BLOCK_SIZE / self._rate
        elif distance <= self._near_span:
            self.near_accesses += 1
            latency = self._near_cost + nblocks * BLOCK_SIZE / self._rate
        else:
            self.random_accesses += 1
            latency = (self._min_seek + self._seek_span * math.sqrt(
                min(1.0, distance / self.capacity_blocks))
                + self._rotation + nblocks * BLOCK_SIZE / self._rate)
        self._head = lba + nblocks
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
                lba=lba, nbytes=nblocks * BLOCK_SIZE,
                outcome="sequential" if distance == 0 else
                "near" if distance <= self._near_span else "random")
        return latency

    def sweep(self, lba: int, end: int, total: float) -> float:
        """Read blocks ``lba`` to ``end - 1`` as that many one-block
        :meth:`read` calls would, and return ``total`` plus each one's
        latency, added in that order.  Every read after the first is
        sequential, so without a tracer they move the counters in bulk
        and their floats are added in C, one by one."""
        if lba >= end:
            return total
        if lba < 0 or end > self.capacity_blocks:
            self._check_span(lba, end - lba)
        total += self._access(lba, 1, False)
        n = end - lba - 1
        if n and self.tracer is None:
            latency = BLOCK_SIZE / self._rate
            self.sequential_accesses += n
            self.read_ops += n
            self.read_blocks += n
            self.busy_time = reduce(add, repeat(latency, n), self.busy_time)
            self._head = end
            return reduce(add, repeat(latency, n), total)
        for block in range(lba + 1, end):  # one span each
            total += self._access(block, 1, False)
        return total
