"""Common device interface.

Every device model exposes two operations — ``read`` and ``write`` over a
span of 4 KB blocks — that return the *service latency in seconds* for the
operation.  Devices also keep their own operation counters and accumulated
busy time, which the energy model (:mod:`repro.metrics.energy`) integrates
over (``docs/ARCHITECTURE.md``, "Device models").  Storage systems count
the same way: both derive from :class:`Counted`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class DeviceSpec:
    """Base class for device parameter bundles.

    Concrete devices define frozen dataclasses extending this with their
    timing and geometry parameters; freezing them keeps a run's device
    configuration immutable and hashable (handy for experiment grids).
    """

    name: str = "device"


class Counted:
    """Something that counts in ``int`` attributes — a device or a
    storage system.

    Each name in ``COUNTERS`` (a subclass's tuple extends its base's) is
    0 on the class and incremented in place, ``self.name += n``: the
    first increment makes it the instance's own attribute.  A device and
    a storage system take the same :meth:`counters` snapshot; neither
    adds another instance's counters to its own.
    """

    COUNTERS: Tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        for name in cls.COUNTERS:
            if not isinstance(getattr(cls, name, 0), int):
                raise TypeError(f"counter {cls.__name__}.{name} shadows "
                                f"another attribute")
            setattr(cls, name, 0)

    def counters(self) -> Dict[str, int]:
        """Every counter this instance has incremented, in order of first
        increment — one incremented by zero too, one never incremented
        not at all."""
        declared = self.COUNTERS
        return {name: value for name, value in vars(self).items()
                if name in declared}


class Device(Counted):
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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"capacity_blocks={self.capacity_blocks})")
