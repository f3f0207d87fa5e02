"""Synthetic, content-bearing benchmark workloads.

The paper stresses (Section 4.4) that evaluating I-CASH needs more than
address traces: "the workload should have data contents in addition to
addresses", because deltas are content dependent.  Each generator here
produces a deterministic, seeded stream of block requests whose *payloads*
carry realistic content structure — families of similar blocks, partial
overwrites changing 5–20 % of a block, exact duplicates — matched to the
benchmark's published characteristics (Table 4): read/write mix, request
sizes, data-set scale and access locality.

Generators:

* :class:`~repro.workloads.sysbench.SysBenchWorkload` — OLTP on MySQL.
* :class:`~repro.workloads.hadoop.HadoopWorkload` — MapReduce WordCount.
* :class:`~repro.workloads.tpcc.TPCCWorkload` — TPC-C on Postgres.
* :class:`~repro.workloads.loadsim.LoadSimWorkload` — Exchange LoadSim2003.
* :class:`~repro.workloads.specsfs.SpecSFSWorkload` — SPEC-sfs NFS server.
* :class:`~repro.workloads.rubis.RUBiSWorkload` — RUBiS auction site.
* :class:`~repro.workloads.multivm.MultiVMWorkload` — N cloned VM images
  running the same benchmark (Figures 15–16).

Every stream is generated from a seed, never replayed from a file: an
address-only trace carries no content to derive deltas from.
"""

from repro.workloads.base import SyntheticWorkload, Workload, WorkloadProfile
from repro.workloads.hadoop import HadoopWorkload
from repro.workloads.loadsim import LoadSimWorkload
from repro.workloads.multivm import MultiVMWorkload
from repro.workloads.rubis import RUBiSWorkload
from repro.workloads.specsfs import SpecSFSWorkload
from repro.workloads.sysbench import SysBenchWorkload
from repro.workloads.tpcc import TPCCWorkload

ALL_WORKLOADS = (
    SysBenchWorkload,
    HadoopWorkload,
    TPCCWorkload,
    LoadSimWorkload,
    SpecSFSWorkload,
    RUBiSWorkload,
)

#: Workload family name -> class: the one lookup behind every
#: ``--workload`` choice and :class:`~repro.experiments.parallel.RunSpec`.
WORKLOADS = {cls.name: cls for cls in ALL_WORKLOADS}

__all__ = [
    "ALL_WORKLOADS",
    "WORKLOADS",
    "HadoopWorkload",
    "LoadSimWorkload",
    "MultiVMWorkload",
    "RUBiSWorkload",
    "SpecSFSWorkload",
    "SyntheticWorkload",
    "SysBenchWorkload",
    "TPCCWorkload",
    "Workload",
    "WorkloadProfile",
]
