"""Storage device models.

Four device models underpin every storage architecture in the repository:

* :class:`~repro.devices.hdd.HardDiskDrive` — seek/rotation/transfer
  mechanical model with sequential-access detection.
* :class:`~repro.devices.ssd.FlashSSD` — NAND flash with a page-mapped FTL,
  greedy garbage collection and wear leveling; tracks per-block erase
  counts for the paper's SSD-lifetime analysis (Table 6).
* :class:`~repro.devices.raid.RAID0Array` — striping across N HDDs, the
  paper's second baseline.
* :class:`~repro.devices.dram.DRAMBuffer` — the RAM buffer behind the
  I-CASH data and delta caches, charging per-block copy time.
"""

from repro.devices.base import Device, DeviceSpec
from repro.devices.dram import DRAMBuffer
from repro.devices.hdd import HardDiskDrive, HDDSpec
from repro.devices.raid import RAID0Array
from repro.devices.ssd import FlashSSD, SSDSpec

__all__ = [
    "DRAMBuffer",
    "Device",
    "DeviceSpec",
    "FlashSSD",
    "HDDSpec",
    "HardDiskDrive",
    "RAID0Array",
    "SSDSpec",
]
