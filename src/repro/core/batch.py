"""Vectorised signature kernels over stacked 4 KB blocks.

:func:`repro.core.signatures.block_signatures` is the semantic
reference; ``tests/test_batch_kernels.py`` asserts bit-identical
results on random shapes, non-contiguous views, empty batches and
single blocks.

The point is wall-clock only: callers that already hold ``N`` blocks
(controller ingest over the whole backing store, multi-block writes)
pay one numpy pass instead of ``N`` python round trips.  Simulated
metrics are unaffected by construction — the kernels compute the same
values the scalar calls would.  The batch form of delta encoding is
:func:`repro.delta.encoder.encode_deltas`, beside the scalar codec it
shares its run arithmetic with; its one caller is the ingest planner
(:mod:`repro.core.ingest`), while the write path keeps the scalar
``encode_delta``, which a batch of one cannot beat.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.signatures import (
    _FLAT_SAMPLE_INDEX,
    SAMPLE_OFFSETS,
    SUB_BLOCKS,
    SignatureScheme,
    _cache_get,
    _cache_put,
    _hash_from_bytes,
)
from repro.sim.request import BLOCK_SIZE


def _as_block_matrix(blocks: np.ndarray, name: str) -> np.ndarray:
    """Validate and normalise an ``(N, 4096)`` uint8 batch."""
    arr = np.asarray(blocks)
    if arr.ndim != 2 or arr.shape[1] != BLOCK_SIZE:
        raise ValueError(
            f"{name} must be an (N, {BLOCK_SIZE}) array, got shape "
            f"{arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"{name} must be uint8, got {arr.dtype}")
    return np.ascontiguousarray(arr)


def block_signatures_batch(blocks: np.ndarray,
                           scheme: SignatureScheme = SignatureScheme.SAMPLED,
                           ) -> np.ndarray:
    """Sub-signatures of ``N`` stacked blocks as an ``(N, 8)`` uint8 array.

    The sampled scheme is one fancy-index gather plus a reshape-sum over
    ``_FLAT_SAMPLE_INDEX`` — uint8 summation wraps at 256, which *is*
    the paper's mod-256.  The hash scheme has no vector form (SHA-1 per
    sub-block) and falls back to the scalar reference per row.
    """
    arr = _as_block_matrix(blocks, "blocks")
    n = arr.shape[0]
    if n == 0:
        return np.empty((0, SUB_BLOCKS), dtype=np.uint8)
    if scheme is SignatureScheme.SAMPLED:
        return (arr[:, _FLAT_SAMPLE_INDEX]
                .reshape(n, SUB_BLOCKS, len(SAMPLE_OFFSETS))
                .sum(axis=2, dtype=np.uint8))
    out = np.empty((n, SUB_BLOCKS), dtype=np.uint8)
    for i in range(n):
        out[i] = _hash_from_bytes(arr[i].tobytes())
    return out


def signature_tuples(matrix: np.ndarray) -> List[Tuple[int, ...]]:
    """Rows of a signature matrix as the scalar API's python tuples."""
    return [tuple(row) for row in matrix.tolist()]


def block_signatures_many(blocks: Sequence[np.ndarray],
                          scheme: SignatureScheme = SignatureScheme.SAMPLED,
                          ) -> List[Tuple[int, ...]]:
    """Cache-aware signatures for a sequence of individual blocks.

    Drop-in for ``[block_signatures(b) for b in blocks]``: each block is
    looked up in the memoisation LRU first, then the misses are computed
    in one :func:`block_signatures_batch` pass and inserted.  Duplicate
    content within one batch is computed once.
    """
    results: List[Optional[Tuple[int, ...]]] = [None] * len(blocks)
    miss_raw: dict = {}
    miss_slots: List[Tuple[int, Tuple[str, bytes]]] = []
    for i, block in enumerate(blocks):
        arr = np.asarray(block)
        if arr.nbytes != BLOCK_SIZE:
            raise ValueError(
                f"signatures are defined on {BLOCK_SIZE}-byte blocks, "
                f"got {arr.nbytes}")
        if arr.dtype != np.uint8:
            # Rare non-byte layouts keep scalar semantics (uncached).
            from repro.core.signatures import block_signatures
            results[i] = block_signatures(arr, scheme)
            continue
        key = (scheme.value, arr.tobytes())
        cached = _cache_get(key)
        if cached is not None:
            results[i] = cached
        else:
            if key not in miss_raw:
                miss_raw[key] = len(miss_raw)
            miss_slots.append((i, key))
    if miss_raw:
        stacked = np.frombuffer(
            b"".join(key[1] for key in miss_raw),
            dtype=np.uint8).reshape(len(miss_raw), BLOCK_SIZE)
        matrix = block_signatures_batch(stacked, scheme)
        computed = signature_tuples(matrix)
        for key, row in zip(miss_raw, computed):
            _cache_put(key, row)
        for i, key in miss_slots:
            results[i] = computed[miss_raw[key]]
    return results  # type: ignore[return-value]
