"""The named workloads.  Pure data: nothing here imports ``repro``.

A ``replay`` workload is a list of runs, each the keyword arguments of
one ``RunSpec`` (the seed is added from ``--seed``).  The ``grid``
workload runs every paper figure once per fresh process.
``min_repeats`` is the fewest timed repeats a measurement may rest on
(``run.py`` splits them over three fresh processes).
"""

from __future__ import annotations

from typing import Dict

#: SPEC-sfs at scale 0.25 has 4096 blocks; the stock SSD budget is a
#: tenth of that.  At the stock budget the controller retires
#: references whose only current copy is on the SSD and later reads of
#: those blocks return stale bytes (12 of 520 reads at seed 2011), so
#: ``nfs_write`` provisions half the data set — no reference is ever
#: retired and every read is right — and ``nfs_write_stock`` keeps the
#: stock budget runnable as the hand-off to a correctness issue.
NFS_SSD_BLOCKS = 2048

WORKLOADS: Dict[str, Dict[str, object]] = {
    "oltp_read": {
        "kind": "replay", "min_repeats": 6,
        "why": "72% small reads on a hot Zipf set: interpreter overhead in "
               "sim.engine, delta.encoder and core.controller does the "
               "work; core.similarity is small",
        "runs": [{"workload": "sysbench", "system": "icash",
                  "n_requests": 10000, "scale": 1.0}],
    },
    "nfs_write": {
        "kind": "replay", "min_repeats": 6,
        "why": "92% writes, 60% mutation: the same controller on the "
               "scan/encode/log path; delta.encoder and core.similarity "
               "lead, core.similarity at five times its oltp_read share",
        "runs": [{"workload": "specsfs", "system": "icash",
                  "n_requests": 1500, "scale": 0.25,
                  "config_overrides": (
                      ("ssd_capacity_blocks", NFS_SSD_BLOCKS),)}],
    },
    "baseline_sweep": {
        "kind": "replay", "min_repeats": 6,
        "why": "four baselines on tpcc bypass core.* and delta.* entirely: "
               "the control for controller changes, the target for "
               "engine, device and stats changes",
        "runs": [{"workload": "tpcc", "system": system,
                  "n_requests": 8000, "scale": 0.5}
                 for system in ("fusion-io", "raid0", "lru", "dedup")],
    },
    "paper_grid": {
        "kind": "grid",
        "why": "all 12 paper figures as short cold runs: dataset build, "
               "stream generation, ingest and experiments.* dominate; the "
               "only workload that measures paper fidelity",
        "n_requests": 600,
        "per_vm_requests": 2500,
        # A shot is a whole process (about 25 s here); the driver's time
        # cap leaves room for one.  ``--seconds 30`` or more buys a
        # second, and the fastest wall per figure call counts.
        "min_repeats": 1,
    },
}

#: Runnable by name but not part of BENCHMARK.json: reads fail on it.
EXTRA_WORKLOADS: Dict[str, Dict[str, object]] = {
    "nfs_write_stock": {
        "kind": "replay", "min_repeats": 6,
        "why": "nfs_write at the paper's SSD budget (a tenth of the data "
               "set): reproduces the stale reads after reference "
               "retirement",
        "runs": [{"workload": "specsfs", "system": "icash",
                  "n_requests": 6000, "scale": 0.25}],
    },
}

#: ``--quick`` divides every request count by this.
QUICK_DIVISOR = 10


def lookup(name: str, quick: bool = False) -> Dict[str, object]:
    """The table entry for ``name``, scaled down for ``--quick``."""
    entry = dict({**WORKLOADS, **EXTRA_WORKLOADS}[name])
    if not quick:
        return entry
    if entry["kind"] == "grid":
        entry["n_requests"] //= QUICK_DIVISOR
        entry["per_vm_requests"] //= QUICK_DIVISOR
    else:
        entry["runs"] = [
            {**run, "n_requests": run["n_requests"] // QUICK_DIVISOR}
            for run in entry["runs"]]
    return entry
