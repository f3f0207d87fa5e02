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
from typing import Optional

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

    def seek_time(self, distance_blocks: int, capacity_blocks: int) -> float:
        """Distance-dependent seek time via the square-root seek curve."""
        if distance_blocks <= 0:
            return 0.0
        frac = min(1.0, distance_blocks / capacity_blocks)
        return (self.min_seek_s
                + (self.max_seek_s - self.min_seek_s) * math.sqrt(frac))

    def transfer_time(self, nblocks: int) -> float:
        return nblocks * BLOCK_SIZE / self.transfer_bytes_per_s


class HardDiskDrive(Device):
    """One mechanical disk with head-position tracking."""

    COUNTERS = Device.COUNTERS + (
        "sequential_accesses", "near_accesses", "random_accesses")

    def __init__(self, capacity_blocks: int,
                 spec: Optional[HDDSpec] = None) -> None:
        spec = spec if spec is not None else HDDSpec()
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

    @property
    def head_position(self) -> int:
        """Current head position in blocks (exposed for tests)."""
        return self._head

    # -- metrics ------------------------------------------------------------

    def register_metrics(self, registry, label: str = None) -> None:
        """Mechanical-pattern instruments on top of the generic set:
        how often the head had to move (seek = near + random) versus
        rode an existing sequential stream — the quantity I-CASH's log
        layout exists to minimise."""
        super().register_metrics(registry, label=label)
        label = label if label is not None else self.name

        def seeks() -> int:
            return self.near_accesses + self.random_accesses

        def seek_ratio() -> float:
            total = seeks() + self.sequential_accesses
            return seeks() / total if total else 0.0

        registry.counter("hdd_seek_total", ("device",)) \
            .labels(device=label).set_fn(seeks)
        registry.counter("hdd_sequential_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.sequential_accesses)
        registry.gauge("hdd_seek_ratio", ("device",)) \
            .labels(device=label).set_fn(seek_ratio)
