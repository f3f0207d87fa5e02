"""Similarity detection and reference-block selection.

The periodic scan of Section 4.2: every ``scan_interval`` I/Os, examine
the ``scan_window`` hottest blocks of the LRU queue, promote the blocks
whose sub-signatures are most popular (per the Heatmap) to *reference
blocks*, and try to delta-compress the remaining blocks against them.

The module separates the pure selection logic (rankable, testable against
the paper's Table 2 worked example) from the :class:`SimilarityScanner`
that walks a live cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Callable, Dict, List, Optional, Sequence, Tuple)

import numpy as np

from repro.core.cache import ICashCache
from repro.core.heatmap import Heatmap
from repro.core.signatures import signature_overlap
from repro.core.virtual_block import BlockKind, VirtualBlock
from repro.delta.encoder import Delta, encode_delta

#: Fraction of the scan window (by popularity rank) eligible to become
#: new reference blocks in one scan.
REF_CANDIDATE_FRACTION = 0.10


class SignatureIndex:
    """Incrementally maintained ``(row, value) -> reference blocks`` map.

    The direct implementation (``tests/reference/similarity.py``, the
    golden the equivalence tests compare against) rebuilds this mapping
    from scratch on every scan — eight dict operations per reference per
    scan.  This class keeps the mapping alive across scans: the
    controller notifies it when references appear, change content, or
    retire, and each scan merely *syncs* the window's references (a
    no-op when nothing changed).

    Correctness does not depend on the notifications being complete: the
    per-scan sync re-adds any window reference whose entry is missing or
    stale, and the scanner filters candidates to the current window, so a
    stale entry for a retired reference can never be selected — it only
    wastes a dict hit until evicted.
    """

    def __init__(self) -> None:
        #: ``(row, value) -> {lba: block}`` — dict-valued cells so discard
        #: is O(1) instead of a list scan.
        self._cells: Dict[Tuple[int, int], Dict[int, VirtualBlock]] = {}
        #: ``lba -> (block, signatures-at-insert)``; the recorded
        #: signatures let :meth:`sync` detect content refreshes.
        self._entries: Dict[int, Tuple[VirtualBlock, Tuple[int, ...]]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def add(self, vb: VirtualBlock) -> None:
        """Index ``vb`` under each of its sub-signatures (replacing any
        previous entry for the same LBA)."""
        if not vb.signatures:
            return
        self.discard(vb.lba)
        sigs = tuple(vb.signatures)
        self._entries[vb.lba] = (vb, sigs)
        for row, value in enumerate(sigs):
            self._cells.setdefault((row, value), {})[vb.lba] = vb

    def discard(self, lba: int) -> None:
        """Forget the reference at ``lba`` (no-op when absent)."""
        entry = self._entries.pop(lba, None)
        if entry is None:
            return
        _vb, sigs = entry
        for row, value in enumerate(sigs):
            cell = self._cells.get((row, value))
            if cell is not None:
                cell.pop(lba, None)
                if not cell:
                    del self._cells[(row, value)]

    def sync(self, vb: VirtualBlock) -> None:
        """Ensure the index entry for ``vb`` is current (self-healing)."""
        entry = self._entries.get(vb.lba)
        if entry is not None and entry[0] is vb \
                and entry[1] == tuple(vb.signatures):
            return
        self.add(vb)

    def candidates(self, row: int, value: int) -> Sequence[VirtualBlock]:
        """References carrying sub-signature ``value`` at ``row``.

        The returned view must not be retained across an :meth:`add` or
        :meth:`discard` — the scanner consumes it immediately.
        """
        cell = self._cells.get((row, value))
        return cell.values() if cell else ()


def popularity_ranking(entries: Sequence[Tuple[object, Sequence[int]]],
                       heatmap: Heatmap,
                       ) -> List[Tuple[object, int]]:
    """Rank ``(key, signatures)`` entries by Heatmap popularity, best first.

    Ties preserve input order, matching the paper's example where the
    earliest-seen block wins among equals.
    """
    scored = [(key, heatmap.popularity(sigs)) for key, sigs in entries]
    return sorted(scored, key=lambda pair: -pair[1])


def select_reference(entries: Sequence[Tuple[object, Sequence[int]]],
                     heatmap: Heatmap) -> object:
    """The single best reference among ``entries`` (Table 2's selection).

    The paper's example: after the Table 1 request sequence, block
    (A, D) at LBA3 has popularity 5 — the highest — and is selected, which
    minimises total cache space once the others delta-compress against it.
    """
    if not entries:
        raise ValueError("cannot select a reference from no candidates")
    return popularity_ranking(entries, heatmap)[0][0]


@dataclass
class Association:
    """A block newly paired with a reference, with its computed delta."""

    vb: VirtualBlock
    ref_lba: int
    delta: Delta


@dataclass
class ScanResult:
    """Outcome of one similarity scan."""

    new_references: List[VirtualBlock] = field(default_factory=list)
    associations: List[Association] = field(default_factory=list)
    blocks_examined: int = 0
    comparisons: int = 0
    #: CPU seconds the scan consumed (comparisons + delta encodes).
    cpu_time: float = 0.0


class SimilarityScanner:
    """Walks the cache's hot window selecting references and associates."""

    def __init__(self, heatmap: Heatmap, min_signature_match: int,
                 delta_accept_bytes: int, scan_compare_s: float,
                 compress_s: float) -> None:
        self.heatmap = heatmap
        self.min_signature_match = min_signature_match
        self.delta_accept_bytes = delta_accept_bytes
        self.scan_compare_s = scan_compare_s
        self.compress_s = compress_s
        self.signature_index = SignatureIndex()

    def note_reference(self, vb: VirtualBlock) -> None:
        """Controller hook: ``vb`` became (or refreshed) a reference."""
        self.signature_index.add(vb)

    def note_retired(self, lba: int) -> None:
        """Controller hook: the reference at ``lba`` was demoted/evicted."""
        self.signature_index.discard(lba)

    def scan(self, cache: ICashCache, window: int, max_new_references: int,
             content_fn: Callable[[VirtualBlock], Optional[np.ndarray]],
             ) -> ScanResult:
        """One scan pass.

        ``content_fn`` resolves a virtual block's current content without
        device I/O (RAM data, SSD-resident copies the controller already
        holds) and returns ``None`` when content is not cheaply available —
        such blocks are skipped rather than paged in, as a background scan
        must not thrash the devices.

        ``max_new_references`` lets the controller cap promotions at its
        free SSD slots.

        The simulated cost covers the whole window (every signed block is
        "examined"), but the host only ranks and matches the blocks that
        can take part: the window's references (the match targets) and
        the *eligible* blocks — neither a reference nor an associate
        already holding a delta.  Both are flags the scan itself never
        flips (the controller applies promotions and associations
        afterwards), and a stable sort restricted to a subset keeps that
        subset's relative order, so the outcome equals ranking everything
        and skipping the rest one by one.
        """
        result = ScanResult()
        pool: List[VirtualBlock] = []
        for vb in cache.mru_window(window):
            if not vb.signatures:
                continue
            result.blocks_examined += 1
            if not (vb.kind is BlockKind.ASSOCIATE
                    and vb.delta is not None):
                pool.append(vb)
        examined = result.blocks_examined
        result.cpu_time += examined * self.scan_compare_s
        if not pool:
            return result

        # Popularity order, ties by window position (stable), as
        # popularity_ranking sorts.
        pops = self.heatmap.popularity_batch(np.asarray(
            [vb.signatures for vb in pool], dtype=np.int64))
        ranked = [pool[i] for i in np.argsort(-pops, kind="stable").tolist()]

        # One pass in popularity order (Table 2's semantics): a block that
        # delta-compresses against an existing reference becomes its
        # associate; a popular block no reference covers becomes a new
        # reference itself.  Promoting only the *unmatched* is what spreads
        # reference coverage across content clusters instead of piling
        # redundant references into the hottest one.
        #
        # Heal the persistent index for this window (no-op per reference
        # when notifications kept it current).  ``rank_of`` is the
        # matcher's tie-break: window references in popularity order,
        # then references promoted mid-scan in promotion order.
        rank_of: Dict[int, int] = {}
        for vb in ranked:
            if vb.kind is BlockKind.REFERENCE:
                self.signature_index.sync(vb)
                rank_of[vb.lba] = len(rank_of)
        promotable = min(max_new_references,
                         max(4, int(examined * REF_CANDIDATE_FRACTION)))
        for vb in ranked:
            if vb.kind is BlockKind.REFERENCE:
                continue
            content = content_fn(vb)
            if content is None:
                continue
            best = self._best_reference(vb, rank_of, result)
            if best is not None and best.lba != vb.lba:
                ref_content = content_fn(best)
                if ref_content is not None:
                    delta = encode_delta(content, ref_content)
                    result.cpu_time += self.compress_s
                    if delta.size_bytes <= self.delta_accept_bytes:
                        result.associations.append(Association(
                            vb=vb, ref_lba=best.lba, delta=delta))
                        continue
            if len(result.new_references) < promotable:
                result.new_references.append(vb)
                self.signature_index.add(vb)
                rank_of[vb.lba] = len(rank_of)
        return result

    def _best_reference(self, vb: VirtualBlock, rank_of: Dict[int, int],
                        result: ScanResult) -> Optional[VirtualBlock]:
        """Reference with the highest signature overlap, if it clears the
        minimum-match bar.

        A hash join of ``vb``'s eight ``(row, value)`` cells against the
        persistent index; ties on overlap go to the reference matching at
        the earliest row, then to the lower ``rank_of`` — the order in
        which a per-scan rebuild of the index (the golden in
        ``tests/reference/similarity.py``) would have met them.
        """
        # lba -> [tally, first matching row, rank, block]
        tallies: Dict[int, List] = {}
        for row, value in enumerate(vb.signatures):
            for ref in self.signature_index.candidates(row, value):
                rank = rank_of.get(ref.lba)
                if rank is None:
                    continue  # stale entry: not a reference this window
                entry = tallies.get(ref.lba)
                if entry is None:
                    tallies[ref.lba] = [1, row, rank, ref]
                else:
                    entry[0] += 1
        result.comparisons += len(tallies)
        result.cpu_time += len(tallies) * self.scan_compare_s
        if not tallies:
            return None
        count, _row, _rank, best = min(
            tallies.values(), key=lambda e: (-e[0], e[1], e[2]))
        if count < self.min_signature_match:
            return None
        if signature_overlap(vb.signatures, best.signatures) \
                < self.min_signature_match:
            return None
        return best
