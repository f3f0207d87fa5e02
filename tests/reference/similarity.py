"""The direct similarity scan: rank the whole window, rebuild the
``(row, value) -> references`` index from scratch, tally per candidate.

This is the scan as first written, before the persistent
:class:`repro.core.similarity.SignatureIndex` and the eligible-rows
ranking replaced it in ``src/``.  It takes a production scanner only for
its parameters and heatmap, never touches its index, and mutates
nothing — so it can run on the same live cache right before the
production scan and the two results can be compared field by field.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.signatures import signature_overlap
from repro.core.similarity import (REF_CANDIDATE_FRACTION, Association,
                                   ScanResult, SimilarityScanner,
                                   popularity_ranking)
from repro.core.virtual_block import BlockKind, VirtualBlock
from repro.delta.encoder import encode_delta

_Index = Dict[Tuple[int, int], List[VirtualBlock]]


def _index_by_signature(refs: Sequence[VirtualBlock]) -> _Index:
    """(row, value) -> reference blocks carrying that sub-signature."""
    index: _Index = {}
    for ref in refs:
        for row, value in enumerate(ref.signatures):
            index.setdefault((row, value), []).append(ref)
    return index


def _best_reference(scanner: SimilarityScanner, vb: VirtualBlock,
                    index: _Index, result: ScanResult
                    ) -> Optional[VirtualBlock]:
    """Reference with the highest signature overlap, if it clears the
    minimum-match bar (``max`` keeps the first-met maximum)."""
    tallies: Dict[int, int] = {}
    by_id: Dict[int, VirtualBlock] = {}
    for row, value in enumerate(vb.signatures):
        for ref in index.get((row, value), ()):
            tallies[id(ref)] = tallies.get(id(ref), 0) + 1
            by_id[id(ref)] = ref
    result.comparisons += len(tallies)
    result.cpu_time += len(tallies) * scanner.scan_compare_s
    if not tallies:
        return None
    best_id = max(tallies, key=lambda k: tallies[k])
    best = by_id[best_id]
    if tallies[best_id] < scanner.min_signature_match:
        return None
    if signature_overlap(vb.signatures, best.signatures) \
            < scanner.min_signature_match:
        return None
    return best


def direct_scan(scanner: SimilarityScanner, cache, window: int,
                max_new_references: int, content_fn) -> ScanResult:
    """What ``scanner.scan(cache, window, max_new_references, content_fn)``
    must return, computed the direct way."""
    result = ScanResult()
    candidates = [vb for vb in cache.mru_window(window) if vb.signatures]
    result.blocks_examined = len(candidates)
    if not candidates:
        return result
    ranked = popularity_ranking(
        [(vb, vb.signatures) for vb in candidates], scanner.heatmap)
    result.cpu_time += len(ranked) * scanner.scan_compare_s
    index = _index_by_signature(
        [vb for vb, _ in ranked if vb.is_reference])
    promotable = min(max_new_references,
                     max(4, int(len(ranked) * REF_CANDIDATE_FRACTION)))
    for vb, _pop in ranked:
        if vb.is_reference:
            continue
        if vb.kind is BlockKind.ASSOCIATE and vb.has_delta:
            continue  # already well paired
        content = content_fn(vb)
        if content is None:
            continue
        best = _best_reference(scanner, vb, index, result)
        if best is not None and best.lba != vb.lba:
            ref_content = content_fn(best)
            if ref_content is not None:
                delta = encode_delta(content, ref_content)
                result.cpu_time += scanner.compress_s
                if delta.size_bytes <= scanner.delta_accept_bytes:
                    result.associations.append(Association(
                        vb=vb, ref_lba=best.lba, delta=delta))
                    continue
        if len(result.new_references) < promotable:
            result.new_references.append(vb)
            for row, value in enumerate(vb.signatures):
                index.setdefault((row, value), []).append(vb)
    return result


def outcome(result: ScanResult) -> dict:
    """Every field of a :class:`ScanResult` in comparable form."""
    return {
        "new_references": [vb.lba for vb in result.new_references],
        "associations": [(a.vb.lba, a.ref_lba, a.delta.runs)
                         for a in result.associations],
        "blocks_examined": result.blocks_examined,
        "comparisons": result.comparisons,
        "cpu_time": result.cpu_time,
    }
