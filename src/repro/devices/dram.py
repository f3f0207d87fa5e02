"""DRAM buffer model.

I-CASH keeps active deltas and data blocks in a bounded RAM buffer (the
prototype dedicates a slice of system RAM, e.g. 32–256 MB depending on the
benchmark).  DRAM access is effectively free next to device latencies, but
it is not *zero*: copying a 4 KB block still costs on the order of a
microsecond, and that cost is visible in the paper's 7 µs I-CASH write
latency.  The buffer therefore models a small per-block copy cost and —
more importantly — enforces a byte budget that the I-CASH replacement
policies must operate within.
"""

from __future__ import annotations

from repro.devices.base import Counted
from repro.sim.request import BLOCK_SIZE


class DRAMBuffer(Counted):
    """A byte-budgeted RAM pool with explicit reserve/release accounting."""

    COUNTERS = ("reservations", "releases", "accesses")

    #: Time to move one 4 KB block through DRAM (copy + bookkeeping).
    BLOCK_COPY_S = 1e-6

    #: Trace sink; emits ``dram_access`` spans when a tracer is
    #: attached (instances may carry descriptive names like
    #: ``icash-ram``, so the event prefix is pinned here).
    tracer = None
    trace_name = "dram"

    def __init__(self, capacity_bytes: int, name: str = "dram") -> None:
        if capacity_bytes <= 0:
            raise ValueError(
                f"capacity must be positive, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.name = name
        self.used_bytes = 0
        self.busy_time = 0.0

    # -- space accounting ---------------------------------------------------

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.used_bytes

    def can_fit(self, nbytes: int) -> bool:
        return nbytes <= self.free_bytes

    def reserve(self, nbytes: int) -> None:
        """Claim ``nbytes``; raises ``MemoryError`` when over budget.

        Callers are expected to evict (via their replacement policy) until
        :meth:`can_fit` holds before reserving.
        """
        if nbytes < 0:
            raise ValueError(f"cannot reserve negative bytes: {nbytes}")
        if nbytes > self.free_bytes:
            raise MemoryError(
                f"{self.name}: reserve of {nbytes} B exceeds free "
                f"{self.free_bytes} B")
        self.used_bytes += nbytes
        self.reservations += 1

    def release(self, nbytes: int) -> None:
        """Return ``nbytes`` to the pool."""
        if nbytes < 0:
            raise ValueError(f"cannot release negative bytes: {nbytes}")
        if nbytes > self.used_bytes:
            raise ValueError(
                f"{self.name}: releasing {nbytes} B but only "
                f"{self.used_bytes} B are in use")
        self.used_bytes -= nbytes
        self.releases += 1

    # -- metrics --------------------------------------------------------------

    def register_metrics(self, registry, label: str = None) -> None:
        """DRAM exposes only busy time; space accounting is reported by
        the controller's fill gauges (which know the budget split)."""
        label = label if label is not None else self.name
        registry.counter("device_busy_seconds", ("device",)) \
            .labels(device=label) \
            .set_fn(lambda: self.busy_time)

    # -- timed accesses -------------------------------------------------------

    def access(self, nbytes: int = BLOCK_SIZE) -> float:
        """Latency of touching ``nbytes`` of buffered data."""
        latency = self.BLOCK_COPY_S * max(1, -(-nbytes // BLOCK_SIZE))
        self.accesses += 1
        self.busy_time += latency
        if self.tracer is not None:
            self.tracer.device_span(self.trace_name, "access", latency,
                                    nbytes=nbytes)
        return latency

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"DRAMBuffer(name={self.name!r}, used={self.used_bytes}, "
                f"capacity={self.capacity_bytes})")
