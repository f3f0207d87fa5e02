"""Common interface every storage architecture implements.

A storage system services block reads and writes over one logical block
space, returning both the *service latency* and — for reads — the actual
block *content*.  Returning real content is deliberate: it lets the test
suite verify every architecture end-to-end (whatever was written must
read back identically), which for I-CASH exercises the whole
reference-plus-delta reconstruction path rather than trusting it.
"""

from __future__ import annotations

import abc
from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.devices.base import Counted
from repro.sim.request import IORequest, OpType


class StorageSystem(Counted, abc.ABC):
    """Abstract storage architecture over a logical 4 KB block space.

    Concrete systems keep ``initial_content`` in a ``BackingStore``, which
    shares a frozen image (what workloads hand out) and copies any other,
    and count in ``int`` attributes the way devices do (:class:`Counted`).
    No system wraps another: each counts, traces and times only itself
    and the devices under it.
    """

    #: Per-request trace sink — a :class:`repro.sim.trace.Recorder`
    #: (see ``docs/OBSERVABILITY.md``), or None when nothing observes
    #: the run: every instrumentation site tests ``is not None``.
    #: :meth:`set_tracer` attaches it to the system and every device
    #: model under it; whoever attached it takes each request from it.
    tracer = None

    def __init__(self, name: str, capacity_blocks: int) -> None:
        self.name = name
        self.capacity_blocks = capacity_blocks
        #: Time (s) spent on work off the request critical path
        #: (background scans, flushes, destaging).  The experiment runner
        #: folds this into wall-clock time.  Device work reaches it
        #: through :meth:`_in_background` only.
        self.background_time = 0.0
        #: CPU seconds consumed by the architecture's own computation
        #: (delta codec, hashing, scans) — input to the CPU-utilisation
        #: model behind Figures 6(b)/8(b)/10(b).
        self.cpu_time = 0.0

    # -- core operations ---------------------------------------------------

    @abc.abstractmethod
    def read(self, lba: int, nblocks: int = 1
             ) -> Tuple[float, List[np.ndarray]]:
        """Service a read; returns (latency seconds, block contents)."""

    @abc.abstractmethod
    def write(self, lba: int, blocks: Sequence[np.ndarray]) -> float:
        """Service a write of consecutive blocks; returns latency seconds."""

    def flush(self) -> float:
        """Drain dirty state to durable media; returns latency seconds.

        Architectures without dirty state inherit this no-op.
        """
        return 0.0

    def ingest(self) -> float:
        """Organise the pre-loaded data set before the benchmark runs.

        Real benchmarks create their data sets (database load, mail-store
        creation, NFS file population) before measurement; architectures
        that reorganise content at creation time (I-CASH's offline
        reference selection and delta packing, Section 3.1 case 2)
        override this.  Returns the setup time, which runners do not
        charge to the benchmark.
        """
        return 0.0

    def check_invariants(self) -> None:
        """Raise ``AssertionError`` when internal state is inconsistent.

        Verified runs call it after their final flush.  The base checks
        every device that states its own invariants (the SSD's FTL);
        architectures with cross-referencing state extend it.
        """
        for device in self.devices():
            check = getattr(device, "check_invariants", None)
            if check is not None:
                check()

    @abc.abstractmethod
    def devices(self) -> Iterable:
        """The device models underlying this system (energy accounting)."""

    def serving_devices(self) -> Iterable:
        """The devices that serve this system's requests: each traces
        its own spans and is one station of the event engine.  They are
        :meth:`devices` unless the system serves through an array of
        them."""
        return self.devices()

    # -- observability -----------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Attach a tracer to this system and every device serving its
        requests.

        Pass None to detach.  Devices shared with nothing else (the
        normal case) simply start emitting spans into ``tracer``.
        """
        self.tracer = tracer
        for device in self.serving_devices():
            device.tracer = tracer

    def _in_background(self, op, *args, section=None, outcome=None) -> None:
        """Run ``op(*args)`` — a device operation, or a section of
        them, returning its latency — off the request critical path.

        The one way model code declares background work: the latency
        lands on :attr:`background_time` and, when a tracer is attached,
        every span ``op`` emits sits inside a background scope (named
        ``section`` when given), which is what tells the ring trace's
        background track, the event engine's backlog and the profiler
        that no request waited for it.  Scopes nest.
        """
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_background(section, outcome=outcome)
        latency = op(*args)
        if tracer is not None:
            tracer.end_background()
        self.background_time += latency

    # -- request dispatch ------------------------------------------------------

    def process(self, request: IORequest) -> float:
        """Service one request; returns its latency in seconds."""
        if request.op is OpType.READ:
            latency, _ = self.process_read(request)
        else:
            latency = self.process_write(request)
        return latency

    def process_read(self, request: IORequest
                     ) -> Tuple[float, List[np.ndarray]]:
        """Service one read request, opening it on the tracer."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_request("read", request.lba, request.nblocks)
        return self.read(request.lba, request.nblocks)

    def process_write(self, request: IORequest) -> float:
        """Service one write request, opening it on the tracer."""
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_request("write", request.lba, request.nblocks)
        return self.write(request.lba, request.payload)

    # -- reporting ---------------------------------------------------------------

    @property
    def ssd_write_ops(self) -> int:
        """Write operations issued to SSD devices (Table 6's metric)."""
        return sum(d.write_ops for d in self.devices()
                   if getattr(d, "name", "") == "ssd")

    @property
    def ssd_write_blocks(self) -> int:
        return sum(d.write_blocks for d in self.devices()
                   if getattr(d, "name", "") == "ssd")

    def _check_span(self, lba: int, nblocks: int) -> None:
        if nblocks < 1:
            raise ValueError(f"nblocks must be >= 1, got {nblocks}")
        if lba < 0 or lba + nblocks > self.capacity_blocks:
            raise ValueError(
                f"span [{lba}, {lba + nblocks}) outside {self.name} of "
                f"{self.capacity_blocks} blocks")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(name={self.name!r}, "
                f"capacity_blocks={self.capacity_blocks})")
