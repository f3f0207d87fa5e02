"""Frozen §3.1 ingest sweep and its outcome.

:func:`scalar_ingest` is ``ICASHController.ingest`` as it stood before
the sweep was split into a planner and an apply loop: one Python round
per block, tallying the references promoted so far that share a
``(row, value)`` sub-signature, encoding against the best one and
promoting the block when nothing fits.  It is the oracle the planner is
held to on random content models, side effect for side effect.

``ingest_digest.json`` holds the outcome of three sweeps.  The
``sysbench`` and ``specsfs`` entries were written at commit 8a8fd7e,
where the scalar sweep and a chunked speculative one (chunk sizes 4 and
256) all produced them; ``specsfs_ssd_full`` (an SSD that fills
mid-sweep, so later clusters stay independent) was written by
:func:`scalar_ingest`, which reproduces the other two.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from reference.pins import fhex, sha, sha_json
from repro.core.signatures import block_signatures_batch, signature_tuples
from repro.core.config import ICASHConfig
from repro.core.controller import ICASHController
from repro.core.virtual_block import BlockKind
from repro.delta.encoder import encode_delta
from repro.delta.packer import DeltaRecord
from repro.workloads.specsfs import SpecSFSWorkload
from repro.workloads.sysbench import SysBenchWorkload

#: Digest name -> (workload class, ``ICASHConfig`` overrides).
CASES = {
    "sysbench": (SysBenchWorkload, {}),
    "specsfs": (SpecSFSWorkload, {}),
    # 20 clusters would promote; the SSD holds 12 references.
    "specsfs_ssd_full": (SpecSFSWorkload, {"ssd_capacity_blocks": 12}),
}


def scalar_ingest(controller: ICASHController) -> float:
    """The block-by-block sweep; returns the set-up seconds."""
    self = controller
    config = self.config
    # (row, value) -> references carrying it, in promotion order.
    cells: Dict[Tuple[int, int], List[int]] = {}
    pending: List[DeltaRecord] = []
    sig_matrix = block_signatures_batch(self.backing.view_all())
    all_signatures = signature_tuples(sig_matrix)
    self.heatmap.record_batch(sig_matrix)
    total = 0.0
    for lba in range(self.capacity_blocks):
        total += self.hdd.read(lba, 1)  # sequential sweep
        content = self.backing.view(lba)
        signatures = all_signatures[lba]
        # The promoted reference sharing most sub-signatures; ties go to
        # the first one met.
        tallies: Dict[int, int] = {}
        for row, value in enumerate(signatures):
            for ref_lba in cells.get((row, value), ()):
                tallies[ref_lba] = tallies.get(ref_lba, 0) + 1
        self.cpu_time += max(1, len(tallies)) * config.scan_compare_s
        best_lba = max(tallies, key=tallies.get, default=None)
        if best_lba is not None \
                and tallies[best_lba] >= config.min_signature_match:
            delta = encode_delta(content, self._ssd_copies[best_lba].data)
            self.cpu_time += config.compress_s
            if delta.size_bytes <= config.delta_accept_bytes:
                pending.append(DeltaRecord(lba, best_lba, delta))
                self._map_delta(lba, best_lba, dirty=False)
                continue
        # No similar reference: promote the block itself — unless the
        # SSD is full, when it stays independent on the HDD region.
        if self._acquire_ssd_slot(lba) is not None:
            total += self._ssd_write(lba, content)
            vb = self._install_virtual_block(lba, BlockKind.REFERENCE)
            vb.signatures = signatures
            self.scanner.note_reference(vb)
            for row, value in enumerate(signatures):
                cells.setdefault((row, value), []).append(lba)
            self.ingest_references += 1
    if pending:
        total += self._append_to_log(pending)
        self.ingest_deltas += len(pending)
        # Leave the delta buffer warm (Section 5.1).
        for record in pending:
            if not self.segments.can_fit(record.delta.size_bytes):
                break
            if record.lba in self.cache:
                continue
            vb = self._install_virtual_block(record.lba, BlockKind.ASSOCIATE)
            self.cache.attach_delta(vb, record.delta)
    return total


def ingest_digest(controller: ICASHController,
                  setup_s: float) -> Dict[str, object]:
    """Everything the sweep decides, as exact strings and hashes."""
    references = sorted(controller.ssd_content_snapshot().items())
    delta_map = sorted((lba, entry.ref_lba, entry.log_slot)
                       for lba, entry in controller._delta_map.items())
    log_blocks = sorted(controller.log._contents.items())
    return {
        "setup_s": fhex(setup_s),
        "cpu_time": fhex(controller.cpu_time),
        "counters": dict(sorted(controller.counters().items())),
        "references": len(references),
        "references_sha256": sha(
            part for lba, content in references
            for part in (lba.to_bytes(8, "little"), content.tobytes())),
        "delta_map": len(delta_map),
        "delta_map_sha256": sha_json(delta_map),
        "log_blocks": len(log_blocks),
        "log_sha256": sha(
            part for slot, block in log_blocks
            for part in (slot.to_bytes(8, "little"), block)),
    }


def controller_for(case: str) -> ICASHController:
    workload_cls, overrides = CASES[case]
    workload = workload_cls(scale=0.02, n_requests=1, seed=17)
    return ICASHController(workload.build_dataset(),
                           ICASHConfig(**overrides))


def pin(case: str,
        sweep: Optional[Callable[[ICASHController], float]] = None
        ) -> Dict[str, object]:
    """The digest of ``case`` after ``sweep`` (default: the controller's
    own ``ingest``)."""
    controller = controller_for(case)
    sweep = sweep if sweep is not None else ICASHController.ingest
    return ingest_digest(controller, sweep(controller))

