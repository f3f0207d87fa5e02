"""The §3.1 load-phase plan, decided from the signature columns.

"At the time when virtual machines are created, I-CASH compares each
data block ... derives deltas ... and packs the deltas into delta
blocks."  :meth:`ICASHController.ingest` sweeps the data set in LBA
order: a block joins the promoted reference sharing most sub-signature
rows with it when that delta fits, and is promoted itself otherwise.
Every one of those decisions is a pure function of the data set, so
this module makes them all in array passes and the controller replays
the outcome in a few bulk passes, with the sweep's device calls and CPU
charges in sweep order.

The planner keeps, for every block not yet swept, the best reference
promoted so far — most shared rows, then the earliest first shared row,
then the earliest promotion, which is the order a per-block tally over
``(row, value)`` cells meets them in — and folds each promotion in with
one pass over that reference's eight inverted lists, each later block's
shared rows reduced to a bit mask and scored as one integer.  It walks
windows of :data:`ENCODE_BATCH` blocks: when a block it is about to pass
lacks the delta against its best reference, every such block of the
window is encoded in one :func:`~repro.delta.encoder.encode_deltas` call
(a later promotion re-encodes only the blocks whose best reference it
replaces), and the walk stops at the first block that must promote: one
with no reference sharing at least ``min_match`` rows, or whose delta
exceeds ``accept_bytes``.  Only blocks after a promotion can see it, so
each block's entries are final once the walk passes it and the plan is
exact by construction.

The plan is a pure function of a frozen image and three settings, so
:func:`memoised_plan` keeps the last one for every later controller
built over the same image with the same settings to replay.
"""

from __future__ import annotations

import weakref
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.signatures import SIGNATURE_VALUES, block_signatures_batch
from repro.delta.encoder import Delta, encode_deltas

#: Most rows per :func:`encode_deltas` call, and the planner's window.
#: The kernel's temporaries grow with the batch: at 1 024 rows a warm
#: ``TestHostCostBudget`` sysbench / icash run allocates 1.83 × its data
#: set, at 64 rows 0.60 ×.
ENCODE_BATCH = 64


class IngestPlan(NamedTuple):
    """Per-block outcome of the sweep, indexed by lba: tuples, as every
    controller over one image shares one plan."""

    #: Promoted references sharing at least one row at the block's turn.
    candidates: Tuple[int, ...]
    #: The best of them (meaningful where ``deltas`` has an entry).
    references: Tuple[int, ...]
    #: The block encoded against that reference, or None when no
    #: reference shared ``min_match`` rows and nothing was encoded.
    deltas: Tuple[Optional[Delta], ...]
    #: Blocks promoted to references, ascending.
    promoted: Tuple[int, ...]
    #: Blocks whose delta is accepted and logged, ascending.
    logged: Tuple[int, ...]


def plan_ingest(blocks: np.ndarray, signatures: np.ndarray,
                min_match: int, accept_bytes: int,
                free_slots: int) -> IngestPlan:
    """Plan the sweep over ``blocks`` (``(N, 4096)`` uint8) with their
    ``(N, rows)`` sub-signatures, promoting at most ``free_slots``
    blocks.  The controller must start with no references."""
    n, rows = signatures.shape
    # Inverted lists, one per cell c = row * 256 + value: entries
    # [end_of[c - 1], end_of[c]) of ``entries`` are the blocks carrying
    # that value at that row, ascending, each as block * rows + row —
    # its index in ``cells`` — and that one sits at entry place[index].
    row_base = SIGNATURE_VALUES * np.arange(rows, dtype=np.int16)
    cells = (signatures + row_base).ravel()  # int16: a radix sort
    entries = np.argsort(cells, kind="stable")
    place = np.empty_like(entries)
    place[entries] = np.arange(entries.size)
    end_of = np.searchsorted(cells[entries],
                             np.arange(1, SIGNATURE_VALUES * rows + 1))

    candidates = np.zeros(n, dtype=np.intp)
    # A block's standing against its best reference: shared rows times
    # ``rows`` plus ``rows - 1`` minus the first shared row, so higher is
    # better and a tie keeps the earlier promotion.  ``mask_score`` maps
    # a set of shared rows, row r at bit ``rows - 1 - r``, to it.
    score = np.zeros(n, dtype=np.intp)
    row_bit = 1 << (rows - 1 - np.arange(rows))
    mask_score = np.array([bin(mask).count("1") * rows + mask.bit_length()
                           - 1 for mask in range(1 << rows)], dtype=np.intp)
    best = np.full(n, -1, dtype=np.intp)
    encoded_for = np.full(n, -1, dtype=np.intp)
    sizes = np.zeros(n, dtype=np.intp)
    deltas: List[Optional[Delta]] = [None] * n
    promoted: List[int] = []
    threshold = max(min_match, 1)  # no candidate never qualifies
    qualifies = threshold * rows   # the least score of ``threshold`` rows

    def promote(ref: int) -> None:
        # The entries after ``ref`` in each of its lists, sorted: one
        # group per later block sharing a row, rows ascending.
        lo = place[ref * rows:(ref + 1) * rows] + 1
        span = end_of[signatures[ref] + row_base] - lo
        taken = (lo - span.cumsum() + span).repeat(span)
        taken += np.arange(taken.size)
        hit, row = np.divmod(np.sort(entries[taken]), rows)
        opens = np.empty(hit.size, dtype=bool)
        opens[:1] = True
        np.not_equal(hit[1:], hit[:-1], out=opens[1:])
        head = opens.nonzero()[0]
        if not head.size:
            return
        key = mask_score[np.bitwise_or.reduceat(row_bit[row], head)]
        hit = hit[head]
        candidates[hit] += 1
        wins = key > score[hit]
        hit = hit[wins]
        score[hit] = key[wins]
        best[hit] = ref

    def encode(stale: np.ndarray) -> None:
        for at in range(0, stale.size, ENCODE_BATCH):
            chunk = stale[at:at + ENCODE_BATCH]
            refs = best[chunk]
            encoded = encode_deltas(blocks[chunk], blocks[refs])
            for lba, delta in zip(chunk.tolist(), encoded):
                deltas[lba] = delta
            sizes[chunk] = [delta.size_bytes for delta in encoded]
            encoded_for[chunk] = refs

    def stale_in(lo: int, hi: int) -> np.ndarray:
        """Qualifying blocks in [lo, hi) not encoded against their best."""
        return lo + ((score[lo:hi] >= qualifies)
                     & (encoded_for[lo:hi] != best[lo:hi])).nonzero()[0]

    cursor = 0
    while cursor < n and free_slots:
        end = min(n, cursor + ENCODE_BATCH)
        weak = (score[cursor:end] < qualifies).nonzero()[0]
        stop = cursor + int(weak[0]) if weak.size else end
        if (encoded_for[cursor:stop] != best[cursor:stop]).any():
            # Encode the whole window ahead: a later promotion only
            # re-encodes the blocks whose best reference it replaces.
            encode(stale_in(cursor, end))
        rejected = (sizes[cursor:stop] > accept_bytes).nonzero()[0]
        if rejected.size:
            stop = cursor + int(rejected[0])
        if stop == end:
            cursor = end
            continue
        promote(stop)
        promoted.append(stop)
        free_slots -= 1
        cursor = stop + 1
    # The SSD is full (or the sweep done): every later block's best
    # reference is final.
    encode(stale_in(cursor, n))
    logged = ((score >= qualifies) & (sizes <= accept_bytes)).nonzero()[0]
    return IngestPlan(tuple(candidates.tolist()), tuple(best.tolist()),
                      tuple(deltas), tuple(promoted), tuple(logged.tolist()))


#: The one memoised plan: a weak reference to the image's root array,
#: then the key, the signature matrix and the plan.  Empty until a
#: frozen image is planned, and again once that image dies.
_memo: list = []


def memoised_plan(blocks: np.ndarray, min_match: int, accept_bytes: int,
                  free_slots: int) -> Tuple[np.ndarray, IngestPlan]:
    """The sub-signatures of ``blocks`` and their :func:`plan_ingest`,
    read-only and shared by every later call with the same settings on
    the same frozen image: its root array, held weakly and compared by
    identity (each ``build_dataset()`` is a new view), and the view's
    data pointer, shape and strides.  A writeable root is never kept."""
    root = blocks
    while isinstance(root.base, np.ndarray):
        root = root.base
    key = (blocks.__array_interface__["data"][0], blocks.shape,
           blocks.strides, min_match, accept_bytes, free_slots)
    frozen = not root.flags.writeable
    if frozen and _memo and _memo[0]() is root and _memo[1] == key:
        return _memo[2], _memo[3]
    signatures = block_signatures_batch(blocks)
    plan = plan_ingest(blocks, signatures, min_match, accept_bytes,
                       free_slots)
    if frozen:
        signatures.flags.writeable = False
        # A replaced entry's weakref dies with it and never calls back.
        _memo[:] = (weakref.ref(root, lambda _ref: _memo.clear()), key,
                    signatures, plan)
    return signatures, plan
