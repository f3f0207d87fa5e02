"""Content sub-signatures.

Section 4.2: each 4 KB block is divided into eight 512 B sub-blocks and a
1-byte *sub-signature* is computed per sub-block as the sum of the bytes
at offsets 0, 16, 32 and 64 (mod 256).  The paper deliberately avoids
cryptographic hashing here: hashing detects *identical* content, but a
single changed byte destroys the hash, which hurts *similarity* detection
— and similarity, not identity, is what pairs blocks with reference
blocks.

A hash-based scheme is provided anyway so the ablation bench
(``bench_ablation_signature_scheme``) can quantify that design choice.

Because :func:`block_signatures` sits on both hot request paths (every
write, every first read of a block), results are memoised behind a
bounded LRU keyed by the *exact block content* plus the scheme — so a
cache hit is byte-for-byte equivalent to recomputing by construction
(no digest collisions: the key is the content itself).  The direct
implementations (:func:`_sampled_signatures`, :func:`_hash_signatures`)
are kept and exercised by golden-equivalence tests.

Callers that already hold ``N`` blocks (controller ingest over the
whole backing store, multi-block writes) use the batch kernels
:func:`block_signatures_batch` and :func:`block_signatures_many`: one
numpy pass instead of ``N`` python round trips, bit-identical to the
scalar calls (``tests/test_batch_kernels.py``), so wall-clock changes
and no simulated metric does.
"""

from __future__ import annotations

import enum
import hashlib
from collections import OrderedDict
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.sim.request import BLOCK_SIZE

#: Number of sub-blocks per 4 KB block.
SUB_BLOCKS = 8
#: Bytes per sub-block.
SUB_BLOCK_BYTES = BLOCK_SIZE // SUB_BLOCKS
#: Byte offsets within a sub-block that the sampled signature sums.
SAMPLE_OFFSETS = (0, 16, 32, 64)
#: Number of possible values of one sub-signature.
SIGNATURE_VALUES = 256

#: Bound on the memoised-signature LRU (entries; each key holds one 4 KB
#: content copy, so the default caps the cache at ~16 MiB — the same
#: order as the paper's delta buffer).
SIGNATURE_CACHE_CAPACITY = 4096

#: Flat byte indices of every sampled offset within a 4 KB block, row
#: by sub-block — precomputed once for the vectorised fast path.
_FLAT_SAMPLE_INDEX = (
    np.arange(SUB_BLOCKS, dtype=np.intp)[:, None] * SUB_BLOCK_BYTES
    + np.array(SAMPLE_OFFSETS, dtype=np.intp)).ravel()


class SignatureScheme(enum.Enum):
    """How sub-signatures are derived from sub-block content."""

    #: The paper's scheme: sum of four sampled bytes, mod 256.  Cheap, and
    #: tolerant of changes outside the sampled offsets — which is what
    #: makes it a *similarity* signature.
    SAMPLED = "sampled"
    #: First byte of SHA-1 over the whole sub-block.  Detects identity
    #: only; kept for the ablation.
    HASH = "hash"


_signature_cache: "OrderedDict[Tuple[str, bytes], Tuple[int, ...]]" = \
    OrderedDict()
_cache_counters = {"hits": 0, "misses": 0, "evictions": 0, "size_bytes": 0}

#: Per-entry key overhead beyond the 4 KB content copy: the scheme tag
#: and the memoised 8-tuple.  Small but honest — the point of
#: ``size_bytes`` is that each entry costs a full content copy, not just
#: a digest.
_CACHE_ENTRY_OVERHEAD = 64


def _cache_entry_bytes(key: Tuple[str, bytes]) -> int:
    return len(key[1]) + _CACHE_ENTRY_OVERHEAD


def clear_signature_cache() -> None:
    """Drop every memoised signature (tests and benchmarks use this)."""
    _signature_cache.clear()
    _cache_counters["hits"] = 0
    _cache_counters["misses"] = 0
    _cache_counters["evictions"] = 0
    _cache_counters["size_bytes"] = 0


def signature_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters of the memoisation layer.

    ``size_bytes`` accounts for the content-copy keys (each entry pins a
    full 4 KB ``tobytes()`` copy plus bookkeeping), and ``evictions``
    counts LRU pop-outs — together they make cache pressure visible in
    ``repro critpath --json``.
    """
    return {"hits": _cache_counters["hits"],
            "misses": _cache_counters["misses"],
            "size": len(_signature_cache),
            "size_bytes": _cache_counters["size_bytes"],
            "evictions": _cache_counters["evictions"]}


def _cache_get(key: Tuple[str, bytes]):
    """LRU lookup with hit/miss accounting (shared with the batch path)."""
    cached = _signature_cache.get(key)
    if cached is not None:
        _signature_cache.move_to_end(key)
        _cache_counters["hits"] += 1
        return cached
    _cache_counters["misses"] += 1
    return None


def _cache_put(key: Tuple[str, bytes],
               signatures: Tuple[int, ...]) -> None:
    """Insert one memoised signature, evicting LRU past capacity."""
    if key not in _signature_cache:
        _cache_counters["size_bytes"] += _cache_entry_bytes(key)
    _signature_cache[key] = signatures
    if len(_signature_cache) > SIGNATURE_CACHE_CAPACITY:
        evicted_key, _ = _signature_cache.popitem(last=False)
        _cache_counters["evictions"] += 1
        _cache_counters["size_bytes"] -= _cache_entry_bytes(evicted_key)


def block_signatures(block: np.ndarray,
                     scheme: SignatureScheme = SignatureScheme.SAMPLED,
                     ) -> Tuple[int, ...]:
    """The 8-tuple of sub-signatures of a 4 KB block."""
    if block.nbytes != BLOCK_SIZE:
        raise ValueError(
            f"signatures are defined on {BLOCK_SIZE}-byte blocks, "
            f"got {block.nbytes}")
    if block.dtype != np.uint8:
        # Rare non-byte layouts keep the direct element-wise semantics
        # and skip the content-keyed cache (whose key is raw bytes).
        if scheme is SignatureScheme.SAMPLED:
            return _sampled_signatures(block)
        return _hash_signatures(block)
    raw = block.tobytes()
    key = (scheme.value, raw)
    cached = _cache_get(key)
    if cached is not None:
        return cached
    if scheme is SignatureScheme.SAMPLED:
        signatures = _sampled_from_bytes(raw)
    else:
        signatures = _hash_from_bytes(raw)
    _cache_put(key, signatures)
    return signatures


def _sampled_from_bytes(raw: bytes) -> Tuple[int, ...]:
    """Vectorised sampled scheme over the block's raw bytes.

    ``uint8`` summation wraps at 256, which *is* the paper's mod-256 —
    golden-equivalence tested against :func:`_sampled_signatures`.
    """
    flat = np.frombuffer(raw, dtype=np.uint8)
    sums = flat[_FLAT_SAMPLE_INDEX] \
        .reshape(SUB_BLOCKS, len(SAMPLE_OFFSETS)) \
        .sum(axis=1, dtype=np.uint8)
    return tuple(sums.tolist())


def _hash_from_bytes(raw: bytes) -> Tuple[int, ...]:
    return tuple(
        hashlib.sha1(
            raw[i * SUB_BLOCK_BYTES:(i + 1) * SUB_BLOCK_BYTES]
        ).digest()[0]
        for i in range(SUB_BLOCKS))


def _sampled_signatures(block: np.ndarray) -> Tuple[int, ...]:
    """Direct (unmemoised, element-wise) sampled scheme — the reference
    implementation golden tests compare the cached path against."""
    view = block.reshape(SUB_BLOCKS, SUB_BLOCK_BYTES)
    # Sum the four sampled columns per sub-block; uint8 overflow wraps
    # naturally at 256, matching the paper's 1-byte signature.
    sampled = view[:, list(SAMPLE_OFFSETS)].astype(np.uint32)
    return tuple(int(s) & 0xFF for s in sampled.sum(axis=1))


def _hash_signatures(block: np.ndarray) -> Tuple[int, ...]:
    """Direct hash scheme — reference implementation for golden tests."""
    view = block.reshape(SUB_BLOCKS, SUB_BLOCK_BYTES)
    return tuple(
        hashlib.sha1(view[i].tobytes()).digest()[0]
        for i in range(SUB_BLOCKS))


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


def signature_overlap(a: Tuple[int, ...], b: Tuple[int, ...]) -> int:
    """Positions at which two signature tuples agree.

    Agreement at position ``i`` means sub-block ``i`` of the two blocks
    *probably* carries similar content; the scanner requires a minimum
    overlap before paying for a real delta encode.
    """
    if len(a) != len(b):
        raise ValueError(
            f"signature tuples differ in length: {len(a)} vs {len(b)}")
    return sum(1 for x, y in zip(a, b) if x == y)
