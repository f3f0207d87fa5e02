"""Crash recovery from durable I-CASH state (Section 3.3).

After a failure, RAM contents (dirty data blocks, unflushed deltas) are
gone.  What survives is:

* the HDD data region (the backing store),
* the SSD's reference blocks and spilled blocks,
* the HDD delta log.

"I-CASH can recover data by combining reference blocks with deltas
unrolled from the delta logs in the HDD."  Replay walks the log in flush
order; the *last* record for each block wins (the controller always
appends a block's current delta, so later records supersede earlier
ones), and each winning delta is applied to its reference's SSD copy.

Writes that never reached a flush are lost — that is the bounded loss
window the flush-interval knob of Section 3.3 trades against performance.
The test suite asserts both sides: recovery is byte-exact after a flush,
and the loss window never exceeds the data written since the last flush.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.controller import ICASHController
from repro.delta.encoder import apply_delta


class RecoveredImage:
    """The durable content of an I-CASH element after a simulated crash."""

    def __init__(self, controller: ICASHController) -> None:
        self._backing = controller.backing
        # Every SSD copy is a spilled block or a reference's frozen one.
        self._ssd = controller.ssd_content_snapshot()
        # Shadowed references serve dependents from their frozen copy but
        # recover their *own* content from the HDD data region.
        self._shadowed = controller.shadowed_reference_lbas
        # Unroll the log: the last record per block wins, and only records
        # the durable delta map still vouches for count — a block that was
        # later spilled or reverted leaves stale records behind.
        delta_map = controller.delta_map_snapshot()
        self._winning: Dict[int, object] = {}
        for record in controller.log.replay():
            mapped = delta_map.get(record.lba)
            if mapped is not None and mapped[0] == record.ref_lba:
                self._winning[record.lba] = record
        #: Torn/corrupted log blocks skipped during replay; their deltas
        #: fall back to older durable state.
        self.corrupt_blocks_skipped = controller.log.corrupt_blocks_skipped

    def read(self, lba: int) -> np.ndarray:
        """The recovered content of one block."""
        record = self._winning.get(lba)
        if record is not None and record.ref_lba in self._ssd:
            return apply_delta(record.delta, self._ssd[record.ref_lba])
        if lba in self._ssd and lba not in self._shadowed:
            return self._ssd[lba].copy()
        return self._backing.get(lba)

    @property
    def logged_blocks(self) -> int:
        """Distinct blocks with a recoverable delta in the log."""
        return len(self._winning)


def recover(controller: ICASHController) -> RecoveredImage:
    """Simulate a crash of ``controller`` and rebuild durable content.

    The controller object itself is left untouched (the simulation can
    continue); the returned image answers "what would a restarted I-CASH
    element serve for block X".
    """
    return RecoveredImage(controller)


def rebuild_controller(crashed: ICASHController) -> ICASHController:
    """Restart after a crash: build a *fresh* controller from durable
    state only, ready to serve I/O.

    This is the full §3.3 story rather than a read-only view: the new
    element starts with

    * the HDD data region patched to the recovered content of every
      delta-mapped and shadowed block (log replay applied once, then the
      log is considered consumed),
    * the SSD reference/spill set re-registered,
    * empty RAM — no data blocks, no delta pool, cold Heatmap.

    The returned controller then re-learns its reference/associate
    structure online, exactly like a rebooted prototype would.
    """
    image = RecoveredImage(crashed)
    capacity = crashed.capacity_blocks
    # Durable content for every block becomes the new data region.
    rebuilt = np.empty((capacity, 4096), dtype=np.uint8)
    for lba in range(capacity):
        rebuilt[lba] = image.read(lba)
    fresh = ICASHController(rebuilt, crashed.config)
    # Re-register the surviving SSD population.  The fresh element has no
    # delta map yet — nothing depends on the *old* frozen copies — so
    # every reference re-freezes at its recovered current content (a
    # reference that carried its own logged delta would otherwise serve
    # stale bytes).  The new structure then re-forms online.
    from repro.core.signatures import block_signatures
    from repro.core.virtual_block import BlockKind
    for lba in sorted(crashed.reference_lbas):
        copy = fresh._acquire_ssd_slot(lba, survivor=rebuilt[lba].copy())
        if copy is None:  # pragma: no cover - same capacity as before
            break
        vb = fresh._install_virtual_block(lba, BlockKind.REFERENCE)
        vb.signatures = block_signatures(rebuilt[lba])
        fresh.scanner.note_reference(vb)
    for lba in sorted(crashed.spilled_lbas):
        copy = fresh._acquire_ssd_slot(lba, spilled=True,
                                       survivor=rebuilt[lba].copy())
        if copy is None:  # pragma: no cover
            break
    fresh.rebuilt_references += len(crashed.reference_lbas)
    fresh.rebuilt_spills += len(crashed.spilled_lbas)
    return fresh


def verify_recovery(controller: ICASHController,
                    expected: Dict[int, np.ndarray],
                    ) -> Dict[int, bool]:
    """Compare recovered content against expected content per block.

    Returns ``{lba: matches}``; helper for tests and the reliability
    example.
    """
    image = recover(controller)
    return {lba: bool(np.array_equal(image.read(lba), content))
            for lba, content in expected.items()}
