"""Common device interface.

Every device model exposes two operations — ``read`` and ``write`` over a
span of 4 KB blocks — that return the *service latency in seconds* for the
operation.  Devices also keep their own operation counters and accumulated
busy time, which the energy model (:mod:`repro.metrics.energy`) integrates
over.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass

from repro.sim.request import BLOCK_SIZE
from repro.sim.stats import StatsCollector


@dataclass(frozen=True)
class DeviceSpec:
    """Base class for device parameter bundles.

    Concrete devices define frozen dataclasses extending this with their
    timing and geometry parameters; freezing them keeps a run's device
    configuration immutable and hashable (handy for experiment grids).
    """

    name: str = "device"


#: Counter names per operation kind, so the request path formats none.
_COUNTER_KEYS = {kind: (f"{kind}_ops", f"{kind}_blocks")
                 for kind in ("read", "write")}


class Device(abc.ABC):
    """Abstract block device addressed in 4 KB logical blocks."""

    #: Per-request trace sink (see :mod:`repro.sim.trace`), or None —
    #: the default — when nothing records;
    #: :meth:`repro.baselines.base.StorageSystem.set_tracer` attaches
    #: one for observability runs.
    tracer = None

    def __init__(self, capacity_blocks: int, name: str) -> None:
        if capacity_blocks <= 0:
            raise ValueError(
                f"capacity must be positive, got {capacity_blocks}")
        self.capacity_blocks = capacity_blocks
        self.name = name
        #: Event-name prefix for emitted trace spans (``{trace_name}_read``
        #: and so on); devices with instance-specific names override it.
        self.trace_name = name
        self.stats = StatsCollector()
        #: Total time (s) the device spent servicing operations.
        self.busy_time = 0.0

    # -- core operations --------------------------------------------------

    @abc.abstractmethod
    def read(self, lba: int, nblocks: int = 1) -> float:
        """Service a read of ``nblocks`` blocks at ``lba``; return seconds."""

    @abc.abstractmethod
    def write(self, lba: int, nblocks: int = 1) -> float:
        """Service a write of ``nblocks`` blocks at ``lba``; return seconds."""

    # -- shared helpers ---------------------------------------------------

    def _check_span(self, lba: int, nblocks: int) -> None:
        """Validate that a request fits inside the device."""
        if nblocks < 1:
            raise ValueError(f"nblocks must be >= 1, got {nblocks}")
        if lba < 0 or lba + nblocks > self.capacity_blocks:
            raise ValueError(
                f"span [{lba}, {lba + nblocks}) outside device "
                f"{self.name} of {self.capacity_blocks} blocks")

    def _account(self, kind: str, nblocks: int, latency: float,
                 lba: int = None, outcome: str = None) -> float:
        """Record an operation's counters and busy time; return latency.

        When a tracer is attached, also emits one trace span
        (``{trace_name}_{kind}``) carrying the span's block address,
        byte count and optional outcome tag.
        """
        ops_key, blocks_key = _COUNTER_KEYS[kind]
        stats = self.stats
        stats.bump(ops_key)
        stats.bump(blocks_key, nblocks)
        self.busy_time += latency
        tracer = self.tracer
        if tracer is not None:
            tracer.device_span(self.trace_name, kind, latency, lba=lba,
                               nbytes=nblocks * BLOCK_SIZE,
                               outcome=outcome)
        return latency

    # -- metrics -----------------------------------------------------------

    def register_metrics(self, registry, label: str = None) -> None:
        """Register this device's instruments with ``registry``.

        Counters are callback-backed: they read the existing
        :class:`~repro.sim.stats.StatsCollector` counters at sample
        time, so registration adds nothing to the request path.
        Subclasses extend (call ``super()`` first) with device-specific
        instruments; ``label`` is the ``device`` label value (defaults
        to the device name; :meth:`StorageSystem.set_metrics` dedups
        collisions).
        """
        label = label if label is not None else self.name
        stats = self.stats
        registry.counter("device_read_ops_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: stats.count("read_ops"))
        registry.counter("device_write_ops_total", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: stats.count("write_ops"))
        registry.counter("device_busy_seconds", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.busy_time)

    @property
    def read_ops(self) -> int:
        return self.stats.count("read_ops")

    @property
    def write_ops(self) -> int:
        return self.stats.count("write_ops")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"capacity_blocks={self.capacity_blocks})")
