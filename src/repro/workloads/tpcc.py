"""TPC-C: on-line transaction processing over Postgres (TPCC-UVA).

Paper setup (Section 4.4): 5 warehouses, 10 clients each, 30 minutes;
Table 4 measures 339 K reads / 156 K writes, mid-size requests, 1.2 GB.

Clients "commit small transactions frequently generating a large amount
of write requests" (Section 5.1) scattered across warehouses — lots of
small random I/O, which is what buries RAID0 in Figure 10 and lets
I-CASH's microsecond delta writes shine in Figure 11.
"""

from __future__ import annotations

from typing import Optional

from repro.workloads.base import SyntheticWorkload, WorkloadProfile

#: Default simulated data-set size in 4 KB blocks (32 MiB, scaled from the
#: paper's 1.2 GB).
BASE_BLOCKS = 8192


class TPCCWorkload(SyntheticWorkload):
    """OLTP: small random transactions, commit-heavy, similar DB pages."""

    name = "tpcc"
    ios_per_transaction = 6
    app_compute_per_tx = 5.0e-3
    io_concurrency = 10          # 50 clients over 5 warehouses
    app_cpu_fraction = 0.5
    paper_profile = WorkloadProfile(
        name="TPC-C", n_reads=339_000, n_writes=156_000,
        avg_read_bytes=13312, avg_write_bytes=10752,
        data_size_bytes=int(1.2 * 2**30), vm_ram_bytes=256 * 2**20)

    def __init__(self, scale: float = 1.0, n_requests: Optional[int] = None,
                 seed: int = 2011, vm_id: int = 0,
                 content_seed: Optional[int] = None) -> None:
        n_blocks = max(256, int(BASE_BLOCKS * scale))
        super().__init__(
            n_blocks=n_blocks,
            n_requests=n_requests if n_requests is not None else 8000,
            read_fraction=0.685,            # 339K / (339K + 156K)
            avg_read_blocks=13312 / 4096,
            avg_write_blocks=10752 / 4096,
            zipf_theta=1.4,
            seq_run_prob=0.10,              # random small transactions
            n_families=max(2, n_blocks // 64),
            mutation_fraction=0.06,         # a few rows per page update
            duplicate_fraction=0.05,
            dup_write_fraction=0.02,
            rewrite_fraction=0.03,
            vm_id=vm_id, seed=seed, content_seed=content_seed)
