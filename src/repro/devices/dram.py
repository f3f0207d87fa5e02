"""DRAM buffer model.

I-CASH keeps active deltas and data blocks in a bounded RAM buffer (the
prototype dedicates a slice of system RAM, e.g. 32–256 MB depending on the
benchmark).  DRAM access is effectively free next to device latencies, but
it is not *zero*: copying a 4 KB block still costs on the order of a
microsecond, and that cost is visible in the paper's 7 µs I-CASH write
latency.  The buffer therefore models that per-block copy cost.  The
byte budgets the I-CASH replacement policies work within belong to
:class:`~repro.core.cache.ICashCache` and the delta segment pool, not
to this model.
"""

from __future__ import annotations

from repro.devices.base import Counted
from repro.sim.request import BLOCK_SIZE


class DRAMBuffer(Counted):
    """A RAM pool whose accesses cost copy time."""

    COUNTERS = ("accesses",)

    #: Time to move one 4 KB block through DRAM (copy + bookkeeping).
    BLOCK_COPY_S = 1e-6

    #: Trace sink; emits ``dram_access`` spans when a tracer is
    #: attached (instances may carry descriptive names like
    #: ``icash-ram``, so the event prefix is pinned here).
    tracer = None
    trace_name = "dram"

    def __init__(self, name: str = "dram") -> None:
        self.name = name
        self.busy_time = 0.0

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
        return f"DRAMBuffer(name={self.name!r})"
