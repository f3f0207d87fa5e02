"""Energy model (Table 5).

The paper measures wall-socket energy with the system's idle draw
subtracted, so what remains is *activity* energy: spindles and actuators,
NAND operations, and the CPU cycles the storage architecture and the
application burn.  The model mirrors that accounting:

* **HDD** — a spinning drive draws power for the whole run (the paper
  charges "4 disks, 15 Walts each" against RAID0), modelled as a spin
  component over wall-clock time plus an actuator component over busy
  time.
* **SSD** — per-operation energies; the paper cites 9.5 µJ per 4 KB read
  and 76.1 µJ per 4 KB write (Section 5.2, from Sun et al.), plus erase
  energy for garbage collection.
* **CPU** — active power over the seconds of application compute and
  storage-stack computation (delta codec, hashing, scans).

Longer runs on slower storage therefore cost more energy even at equal
power — which is most of why RAID0 loses Table 5 so badly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.baselines.base import StorageSystem


# Component power/energy parameters.

#: HDD spindle power while the run lasts (W).
HDD_SPIN_W = 7.0
#: Additional HDD power while actually seeking/transferring (W);
#: spin + active together match the paper's 15 W per disk.
HDD_ACTIVE_W = 8.0
#: SSD energy per 4 KB page read (J) — the paper's cited 9.5 µJ.
SSD_READ_J = 9.5e-6
#: SSD energy per 4 KB page program (J) — the paper's cited 76.1 µJ.
SSD_WRITE_J = 76.1e-6
#: SSD energy per block erase (J).
SSD_ERASE_J = 2.0e-3
#: CPU active power above idle (W).
CPU_ACTIVE_W = 65.0
#: Spindle power of the host's system disk (W).  Charged to systems
#: that bring no HDD of their own — the paper's Fusion-io baseline
#: explicitly includes the system disk in its measurement.
SYSTEM_DISK_W = 7.0


@dataclass
class EnergyReport:
    """Per-component activity energy for one benchmark run."""

    hdd_j: float
    ssd_j: float
    cpu_j: float

    @property
    def total_j(self) -> float:
        return self.hdd_j + self.ssd_j + self.cpu_j

    @property
    def total_wh(self) -> float:
        """Watt-hours, the unit of the paper's Table 5."""
        return self.total_j / 3600.0


def measure_energy(system: StorageSystem, wall_time_s: float,
                   app_cpu_s: float,
                   storage_cpu_s: Optional[float] = None) -> EnergyReport:
    """Activity energy of one completed run on ``system``.

    ``wall_time_s`` is the run's total virtual time and ``app_cpu_s`` the
    application compute within it (both come from the experiment runner).
    ``storage_cpu_s`` lets the runner exclude load-phase computation; it
    defaults to the system's cumulative CPU time.
    """
    if wall_time_s < 0 or app_cpu_s < 0:
        raise ValueError("times cannot be negative")
    if storage_cpu_s is None:
        storage_cpu_s = system.cpu_time
    hdd_j = 0.0
    ssd_j = 0.0
    has_hdd = False
    for device in system.devices():
        name = getattr(device, "name", "")
        if name == "ssd":
            ssd_j += device.read_blocks * SSD_READ_J
            ssd_j += device.write_blocks * SSD_WRITE_J
            ssd_j += device.gc_page_moves * (SSD_READ_J + SSD_WRITE_J)
            ssd_j += device.gc_erases * SSD_ERASE_J
        elif name == "hdd":
            has_hdd = True
            hdd_j += HDD_SPIN_W * wall_time_s
            hdd_j += HDD_ACTIVE_W * device.busy_time
    if not has_hdd:
        # The host still spins its system disk for the whole run.
        hdd_j += SYSTEM_DISK_W * wall_time_s
    cpu_j = CPU_ACTIVE_W * (app_cpu_s + storage_cpu_s)
    return EnergyReport(hdd_j=hdd_j, ssd_j=ssd_j, cpu_j=cpu_j)
