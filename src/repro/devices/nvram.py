"""Byte-addressable non-volatile RAM (PRAM/PCM) device model.

The paper's related work (Section 2.1) points at Sun et al.'s hybrid
architecture that "leverag[es] phase change random access memory (PRAM)
to implement [the] log region".  I-CASH's delta log is a natural fit
for such a device: appends become sub-microsecond persists instead of
mechanical writes, shrinking the crash-loss window to near zero without
giving up the packing scheme.

The model mirrors 2010-era PCM characteristics: reads near DRAM speed,
writes several times slower, no erase cycle, effectively unlimited
endurance at log-append rates.  It exposes the same block interface as
the other devices, so :class:`~repro.delta.packer.DeltaLog` can sit on
it unchanged — exercised by the ``bench_ablation_log_medium`` ablation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.devices.base import Device, DeviceSpec
from repro.sim.request import BLOCK_SIZE


@dataclass(frozen=True)
class NVRAMSpec(DeviceSpec):
    """Timing parameters for a phase-change memory region."""

    name: str = "nvram"
    #: Read latency for the first 4 KB block of an access.
    read_s: float = 1e-6
    #: Write (persist) latency for the first 4 KB block.
    write_s: float = 5e-6
    #: Streaming per-block latency for additional blocks in one access.
    streaming_block_s: float = 2e-6


class NVRAM(Device):
    """Byte-addressable persistent memory with block-interface shims."""

    def __init__(self, capacity_blocks: int,
                 spec: Optional[NVRAMSpec] = None) -> None:
        spec = spec if spec is not None else NVRAMSpec()
        super().__init__(capacity_blocks, spec.name)
        self.spec = spec

    def _access(self, lba: int, nblocks: int, write: bool) -> float:
        if nblocks < 1 or not 0 <= lba <= self.capacity_blocks - nblocks:
            self._check_span(lba, nblocks)
        latency = ((self.spec.write_s if write else self.spec.read_s)
                   + (nblocks - 1) * self.spec.streaming_block_s)
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
                lba=lba, nbytes=nblocks * BLOCK_SIZE)
        return latency

    @property
    def capacity_bytes(self) -> int:
        return self.capacity_blocks * BLOCK_SIZE
