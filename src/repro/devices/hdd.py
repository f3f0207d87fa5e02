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

    def __init__(self, capacity_blocks: int,
                 spec: Optional[HDDSpec] = None) -> None:
        spec = spec if spec is not None else HDDSpec()
        super().__init__(capacity_blocks, spec.name)
        self.spec = spec
        #: Block address one past the end of the previous request, i.e.
        #: where the head currently sits.  Starts parked at block 0.
        self._head = 0

    # -- latency model ----------------------------------------------------

    def _positioning_time(self, lba: int) -> "tuple[float, str]":
        """Seek + rotation cost of moving the head to ``lba``, plus the
        access-pattern classification (``sequential``/``near``/``random``)."""
        distance = abs(lba - self._head)
        if distance == 0:
            # Perfectly sequential: the head is already there and the next
            # sector is about to pass under it.
            return 0.0, "sequential"
        if distance <= self.spec.near_span_blocks:
            # Short hop: track-to-track seek, still pay average rotation.
            self.stats.bump("near_accesses")
            return self.spec.min_seek_s + self.spec.avg_rotation_s, "near"
        self.stats.bump("random_accesses")
        seek = self.spec.seek_time(distance, self.capacity_blocks)
        return seek + self.spec.avg_rotation_s, "random"

    def _service(self, kind: str, lba: int, nblocks: int) -> float:
        self._check_span(lba, nblocks)
        positioning, pattern = self._positioning_time(lba)
        if positioning == 0.0:
            self.stats.bump("sequential_accesses")
        latency = positioning + self.spec.transfer_time(nblocks)
        self._head = lba + nblocks
        return self._account(kind, nblocks, latency, lba=lba,
                             outcome=pattern)

    def read(self, lba: int, nblocks: int = 1) -> float:
        return self._service("read", lba, nblocks)

    def write(self, lba: int, nblocks: int = 1) -> float:
        return self._service("write", lba, nblocks)

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
        stats = self.stats

        def seeks() -> int:
            return (stats.count("near_accesses")
                    + stats.count("random_accesses"))

        def seek_ratio() -> float:
            total = seeks() + stats.count("sequential_accesses")
            return seeks() / total if total else 0.0

        registry.counter("hdd_seek_total", ("device",)) \
            .labels(device=label).set_fn(seeks)
        registry.counter("hdd_sequential_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: stats.count("sequential_accesses"))
        registry.gauge("hdd_seek_ratio", ("device",)) \
            .labels(device=label).set_fn(seek_ratio)
