"""RUBiS: eBay-style auction-site benchmark.

Paper setup (Section 4.4): Apache + MySQL + PHP serving 300 clients for
15 minutes; Table 4 measures 799 K reads against only 7 K writes (~99 %
reads) over 1.8 GB.

Because the workload is read-dominated, I-CASH's write-path advantage is
muted: the paper reports I-CASH about 10 % *slower* than pure SSD here
(Figure 14) but still 1.5x over RAID0 — and the "online similarity
detection of I-CASH is effective under read intensive workloads",
beating the dedup cache 1.29x by packing more logical blocks into the
same SSD budget.
"""

from __future__ import annotations

from typing import Optional

from repro.workloads.base import SyntheticWorkload, WorkloadProfile

#: Default simulated data-set size in 4 KB blocks (32 MiB, scaled from the
#: paper's 1.8 GB).
BASE_BLOCKS = 8192


class RUBiSWorkload(SyntheticWorkload):
    """Auction web site: 99 % reads with strong locality."""

    name = "rubis"
    ios_per_transaction = 5
    app_compute_per_tx = 1.5e-3
    io_concurrency = 12          # 300 web clients
    app_cpu_fraction = 0.6
    paper_profile = WorkloadProfile(
        name="RUBiS", n_reads=799_000, n_writes=7_000,
        avg_read_bytes=4608, avg_write_bytes=20480,
        data_size_bytes=int(1.8 * 2**30), vm_ram_bytes=256 * 2**20)

    def __init__(self, scale: float = 1.0, n_requests: Optional[int] = None,
                 seed: int = 2011, vm_id: int = 0,
                 content_seed: Optional[int] = None) -> None:
        n_blocks = max(256, int(BASE_BLOCKS * scale))
        super().__init__(
            n_blocks=n_blocks,
            n_requests=n_requests if n_requests is not None else 8000,
            read_fraction=0.991,            # 799K / (799K + 7K)
            avg_read_blocks=4608 / 4096,
            avg_write_blocks=20480 / 4096,
            zipf_theta=1.6,
            seq_run_prob=0.15,
            n_families=max(2, n_blocks // 32),
            mutation_fraction=0.08,
            duplicate_fraction=0.10,
            dup_write_fraction=0.03,
            rewrite_fraction=0.03,
            vm_id=vm_id, seed=seed, content_seed=content_seed)
