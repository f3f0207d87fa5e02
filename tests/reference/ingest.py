"""Frozen outcome of the §3.1 ingest sweep.

``ingest_digest.json`` was written at commit 8a8fd7e, the last one that
carried two sweeps: there the scalar sweep and the chunked speculative
one (chunk sizes 4 and 256) all produced exactly these digests.  The
batched sweep is gone; the file stays so ``ICASHController.ingest`` is
held to the numbers both sweeps agreed on, not merely to itself.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.core.controller import ICASHController
from repro.workloads.specsfs import SpecSFSWorkload
from repro.workloads.sysbench import SysBenchWorkload

DIGEST_PATH = Path(__file__).with_name("ingest_digest.json")

WORKLOADS = {"sysbench": SysBenchWorkload, "specsfs": SpecSFSWorkload}


def _sha(parts) -> str:
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def ingest_digest(controller: ICASHController,
                  setup_s: float) -> Dict[str, object]:
    """Everything the sweep decides, as exact strings and hashes."""
    references = sorted(controller.ssd_content_snapshot().items())
    delta_map = sorted((lba, entry.ref_lba, entry.log_slot)
                       for lba, entry in controller._delta_map.items())
    log_blocks = sorted(controller.log._contents.items())
    return {
        "setup_s": float(setup_s).hex(),
        "cpu_time": float(controller.cpu_time).hex(),
        "counters": dict(sorted(controller.stats.counters().items())),
        "references": len(references),
        "references_sha256": _sha(
            part for lba, content in references
            for part in (lba.to_bytes(8, "little"), content.tobytes())),
        "delta_map": len(delta_map),
        "delta_map_sha256": _sha([json.dumps(delta_map).encode()]),
        "log_blocks": len(log_blocks),
        "log_sha256": _sha(
            part for slot, block in log_blocks
            for part in (slot.to_bytes(8, "little"), block)),
    }


def ingested_digest(workload_name: str) -> Dict[str, object]:
    workload = WORKLOADS[workload_name](scale=0.02, n_requests=1, seed=17)
    controller = ICASHController(workload.build_dataset())
    return ingest_digest(controller, controller.ingest())


def frozen() -> Dict[str, Dict[str, object]]:
    return json.loads(DIGEST_PATH.read_text())
