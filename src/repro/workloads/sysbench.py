"""SysBench: multi-threaded OLTP benchmark over MySQL.

Paper setup (Section 4.4): a 4,000,000-row table, 100,000 max requests,
16 threads; Table 4 measures 619 K reads / 236 K writes, ~6.7 KB reads,
~7.7 KB writes over a 960 MB data set.

Database pages share heavy structure (same schema, same page layout), so
content locality is strong: the paper finds 85 % of blocks similar to a
1 % reference set.  Transactions touch a hot set of rows with small,
clustered page updates.
"""

from __future__ import annotations

from typing import Optional

from repro.workloads.base import SyntheticWorkload, WorkloadProfile

#: Default simulated data-set size in 4 KB blocks (32 MiB; the paper's
#: 960 MB scaled to simulation size — ratios, not absolutes, matter).
BASE_BLOCKS = 8192


class SysBenchWorkload(SyntheticWorkload):
    """OLTP: read-mostly, small requests, strong content locality."""

    name = "sysbench"
    ios_per_transaction = 8
    app_compute_per_tx = 0.5e-3
    io_concurrency = 16          # SysBench runs 16 threads
    app_cpu_fraction = 0.52
    paper_profile = WorkloadProfile(
        name="SysBench", n_reads=619_000, n_writes=236_000,
        avg_read_bytes=6656, avg_write_bytes=7680,
        data_size_bytes=int(960 * 2**20), vm_ram_bytes=256 * 2**20)

    def __init__(self, scale: float = 1.0, n_requests: Optional[int] = None,
                 seed: int = 2011, vm_id: int = 0,
                 content_seed: Optional[int] = None) -> None:
        n_blocks = max(256, int(BASE_BLOCKS * scale))
        super().__init__(
            n_blocks=n_blocks,
            n_requests=n_requests if n_requests is not None else 8000,
            read_fraction=0.724,            # 619K / (619K + 236K)
            avg_read_blocks=6656 / 4096,
            avg_write_blocks=7680 / 4096,
            zipf_theta=1.6,
            seq_run_prob=0.20,
            n_families=max(2, n_blocks // 64),
            mutation_fraction=0.08,
            duplicate_fraction=0.05,
            dup_write_fraction=0.02,
            rewrite_fraction=0.04,
            vm_id=vm_id, seed=seed, content_seed=content_seed)
