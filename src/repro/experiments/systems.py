"""Factories for the five storage architectures of Section 4.4.

Provisioning rules follow the paper:

* **fusion-io** (pure SSD) gets enough flash for the whole data set;
* **raid0** gets four striped disks;
* **dedup**, **lru** and **icash** get the *same* SSD budget — about one
  tenth of the workload's data set (``Workload.ssd_budget_blocks``);
* **icash** additionally gets a RAM delta buffer sized like the
  prototype's (a fraction of the SSD budget).
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.baselines import (DedupCacheStorage, LRUCacheStorage, PureSSD,
                             RAID0Storage, StorageSystem)
from repro.core import ICASHConfig, ICASHController
from repro.sim.request import BLOCK_SIZE
from repro.workloads.base import Workload

#: Display order used throughout the figures (matches the paper's).
SYSTEM_NAMES = ("fusion-io", "raid0", "dedup", "lru", "icash")


def make_icash_config(workload: Workload) -> ICASHConfig:
    """I-CASH tuning for a workload, scaled like the prototype's.

    The prototype pairs its SSD budget with a delta buffer of roughly a
    quarter of the SSD size (e.g. 128 MB SSD + 32 MB RAM for SysBench,
    512 MB + 256 MB for Hadoop) and a data cache of similar order.
    """
    ssd_blocks = workload.ssd_budget_blocks
    # Sized so the steady-state delta population fits in RAM (the
    # prototype reports caching all deltas; our synthetic blocks carry
    # more per-block noise, hence the x2 headroom over the SSD budget).
    delta_ram = max(1 << 19, 2 * ssd_blocks * BLOCK_SIZE)
    data_ram = max(1 << 19, ssd_blocks * BLOCK_SIZE)
    # The paper scans every 2 000 I/Os over runs of millions of requests;
    # simulation traces are thousands of requests, so the interval scales
    # down proportionally to give the similarity detector a comparable
    # number of passes over the working set.
    n_requests = getattr(workload, "n_requests", None)
    if n_requests is None:  # composed workloads (multi-VM)
        n_requests = sum(vm.n_requests for vm in getattr(workload, "vms", ())) or 8000
    scan_interval = max(200, min(2000, n_requests // 16))
    return ICASHConfig(
        ssd_capacity_blocks=ssd_blocks,
        data_ram_bytes=data_ram,
        delta_ram_bytes=delta_ram,
        max_virtual_blocks=max(8192, 2 * workload.n_blocks),
        log_blocks=max(4096, workload.n_blocks),
        scan_interval=scan_interval,
        scan_window=4000)


def make_system(name: str, workload: Workload) -> StorageSystem:
    """Instantiate architecture ``name`` initialised with the workload's
    pristine data set."""
    dataset = workload.build_dataset()
    builders: Dict[str, Callable[[], StorageSystem]] = {
        "fusion-io": lambda: PureSSD(dataset),
        "raid0": lambda: RAID0Storage(dataset),
        "dedup": lambda: DedupCacheStorage(
            dataset, cache_blocks=workload.ssd_budget_blocks),
        "lru": lambda: LRUCacheStorage(
            dataset, cache_blocks=workload.ssd_budget_blocks),
        "icash": lambda: ICASHController(
            dataset, make_icash_config(workload)),
    }
    if name not in builders:
        raise ValueError(
            f"unknown system {name!r}; expected one of {SYSTEM_NAMES}")
    return builders[name]()
