"""Hadoop: a MapReduce WordCount job over HDFS.

Paper setup (Section 4.4): a two-VM Hadoop cluster counting words in a
web-server access log; Table 4 measures 241 K reads / 62 K writes with
large requests (~21 KB reads, ~99 KB writes) over 4.4 GB.

HDFS streams data in large sequential extents; log text is highly
repetitive (the same URL patterns over and over), so both sequentiality
and content locality are high.  The job itself is compute heavy — the
paper's Figure 8(b) shows 73–86 % CPU utilisation.
"""

from __future__ import annotations

from typing import Optional

from repro.workloads.base import SyntheticWorkload, WorkloadProfile

#: Default simulated data-set size in 4 KB blocks (64 MiB, scaled from the
#: paper's 4.4 GB).
BASE_BLOCKS = 16384


class HadoopWorkload(SyntheticWorkload):
    """MapReduce: sequential streaming, large requests, repetitive text."""

    name = "hadoop"
    ios_per_transaction = 16
    app_compute_per_tx = 8.0e-3
    io_concurrency = 4           # two VMs, few mappers
    app_cpu_fraction = 0.8
    paper_profile = WorkloadProfile(
        name="Hadoop", n_reads=241_000, n_writes=62_000,
        avg_read_bytes=20992, avg_write_bytes=101376,
        data_size_bytes=int(4.4 * 2**30), vm_ram_bytes=512 * 2**20)

    def __init__(self, scale: float = 1.0, n_requests: Optional[int] = None,
                 seed: int = 2011, vm_id: int = 0,
                 content_seed: Optional[int] = None) -> None:
        n_blocks = max(256, int(BASE_BLOCKS * scale))
        super().__init__(
            n_blocks=n_blocks,
            n_requests=n_requests if n_requests is not None else 6000,
            read_fraction=0.795,            # 241K / (241K + 62K)
            avg_read_blocks=20992 / 4096,
            avg_write_blocks=101376 / 4096,
            zipf_theta=0.9,
            seq_run_prob=0.70,              # streaming scans
            n_families=max(2, n_blocks // 32),
            mutation_fraction=0.15,
            duplicate_fraction=0.10,
            dup_write_fraction=0.05,
            rewrite_fraction=0.10,          # output files are fresh content
            vm_id=vm_id, seed=seed, content_seed=content_seed)
