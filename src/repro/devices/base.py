"""Common device interface.

Every device model exposes two operations — ``read`` and ``write`` over a
span of 4 KB blocks — that return the *service latency in seconds* for the
operation.  Devices also keep their own operation counters and accumulated
busy time, which the energy model (:mod:`repro.metrics.energy`) integrates
over (``docs/ARCHITECTURE.md``, "Device models").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.sim.stats import StatsCollector


@dataclass(frozen=True)
class DeviceSpec:
    """Base class for device parameter bundles.

    Concrete devices define frozen dataclasses extending this with their
    timing and geometry parameters; freezing them keeps a run's device
    configuration immutable and hashable (handy for experiment grids).
    """

    name: str = "device"


class CountedDevice:
    """A device whose per-operation counters are the ``int`` attributes
    named in ``COUNTERS``."""

    COUNTERS: Tuple[str, ...] = ()

    @property
    def stats(self) -> StatsCollector:
        """A read-only snapshot of the non-zero counters."""
        snapshot = StatsCollector()
        for name in self.COUNTERS:
            value = getattr(self, name)
            if value:
                snapshot.bump(name, value)
        return snapshot


class Device(CountedDevice):
    """Abstract block device addressed in 4 KB logical blocks."""

    #: Per-request trace sink (see :mod:`repro.sim.trace`), or None —
    #: the default — when nothing records;
    #: :meth:`repro.baselines.base.StorageSystem.set_tracer` attaches
    #: one for observability runs.
    tracer = None

    COUNTERS = ("read_ops", "read_blocks", "write_ops", "write_blocks")

    def __init__(self, capacity_blocks: int, name: str) -> None:
        if capacity_blocks <= 0:
            raise ValueError(
                f"capacity must be positive, got {capacity_blocks}")
        self.capacity_blocks = capacity_blocks
        self.name = name
        #: Event-name prefix for emitted trace spans (``{trace_name}_read``
        #: and so on); devices with instance-specific names override it.
        self.trace_name = name
        self.read_ops = self.read_blocks = 0
        self.write_ops = self.write_blocks = 0
        #: Total time (s) the device spent servicing operations.
        self.busy_time = 0.0

    # -- core operations --------------------------------------------------

    def read(self, lba: int, nblocks: int = 1) -> float:
        """Service a read of ``nblocks`` blocks at ``lba``; return seconds."""
        return self._access(lba, nblocks, False)

    def write(self, lba: int, nblocks: int = 1) -> float:
        """Service a write of ``nblocks`` blocks at ``lba``; return seconds."""
        return self._access(lba, nblocks, True)

    def _access(self, lba: int, nblocks: int, write: bool) -> float:
        """One read or write, in one frame; returns seconds."""
        raise NotImplementedError

    def _check_span(self, lba: int, nblocks: int) -> None:
        """Raise for a span outside the device (operations test inline)."""
        if nblocks < 1:
            raise ValueError(f"nblocks must be >= 1, got {nblocks}")
        if lba < 0 or lba + nblocks > self.capacity_blocks:
            raise ValueError(
                f"span [{lba}, {lba + nblocks}) outside device "
                f"{self.name} of {self.capacity_blocks} blocks")

    # -- metrics -----------------------------------------------------------

    def register_metrics(self, registry, label: str = None) -> None:
        """Register callback-backed instruments reading the counters at
        sample time.  Subclasses extend (call ``super()`` first);
        ``label`` is the ``device`` label value (default: the name;
        :meth:`StorageSystem.set_metrics` dedups collisions)."""
        label = label if label is not None else self.name
        registry.counter("device_read_ops_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.read_ops)
        registry.counter("device_write_ops_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.write_ops)
        registry.counter("device_busy_seconds", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.busy_time)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"capacity_blocks={self.capacity_blocks})")
