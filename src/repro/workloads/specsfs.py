"""SPEC-sfs: NFS file-server benchmark.

Paper setup (Section 4.4): 100 NFS LOADs against an Ubuntu NFS server;
Table 4 measures 64 K reads against 715 K writes — the one write-dominated
workload in the study (~92 % writes) — over 10 GB.

File servers overwrite files with mostly-similar content (append, edit,
re-save), so new data is similar to old data: Section 5.1 credits
I-CASH's 28 % response-time win over the dedup cache to "exploit[ing] the
content similarity between the new data and the old data to store only
the changed data in small deltas", while dedup pays copy-on-write for
every changed shared block.
"""

from __future__ import annotations

from typing import Optional

from repro.workloads.base import SyntheticWorkload, WorkloadProfile

#: Default simulated data-set size in 4 KB blocks (64 MiB, scaled from the
#: paper's 10 GB).
BASE_BLOCKS = 16384


class SpecSFSWorkload(SyntheticWorkload):
    """NFS server: write-intensive, new content similar to old."""

    name = "specsfs"
    ios_per_transaction = 10
    app_compute_per_tx = 3.0e-3
    io_concurrency = 16          # 100 NFS LOAD generators
    app_cpu_fraction = 0.5
    paper_profile = WorkloadProfile(
        name="SPEC-sfs", n_reads=64_000, n_writes=715_000,
        avg_read_bytes=6144, avg_write_bytes=17408,
        data_size_bytes=int(10 * 2**30), vm_ram_bytes=512 * 2**20)

    def __init__(self, scale: float = 1.0, n_requests: Optional[int] = None,
                 seed: int = 2011, vm_id: int = 0,
                 content_seed: Optional[int] = None) -> None:
        n_blocks = max(256, int(BASE_BLOCKS * scale))
        super().__init__(
            n_blocks=n_blocks,
            n_requests=n_requests if n_requests is not None else 8000,
            read_fraction=0.082,            # 64K / (64K + 715K)
            avg_read_blocks=6144 / 4096,
            avg_write_blocks=17408 / 4096,
            zipf_theta=1.1,
            seq_run_prob=0.30,              # file-sized extents
            n_families=max(2, n_blocks // 16),
            mutation_fraction=0.60,
            duplicate_fraction=0.08,
            dup_write_fraction=0.04,
            rewrite_fraction=0.35,
            vm_id=vm_id, seed=seed, content_seed=content_seed)
