"""Content sub-signatures.

Section 4.2: each 4 KB block is divided into eight 512 B sub-blocks and a
1-byte *sub-signature* is computed per sub-block as the sum of the bytes
at offsets 0, 16, 32 and 64 (mod 256).  The paper deliberately avoids
cryptographic hashing here: hashing detects *identical* content, but a
single changed byte destroys the hash, which hurts *similarity* detection
— and similarity, not identity, is what pairs blocks with reference
blocks.  A sampled signature is cheap, and it tolerates changes outside
the sampled offsets, which is what makes it a similarity signature.
The gap is large in this model too: on SysBench at seed 2011 (1 500
requests), a signature taken as the first byte of SHA-1 per sub-block
associated 118 blocks with a reference where the sampled one associates
8 062.

Signatures are recomputed on every call, with no memo: gathering the
32 sampled bytes of a block is one numpy fancy index, cheaper than the
4 KB content copy a memo key would need, and nothing stays pinned
between requests.  The direct element-wise implementation
(:func:`_sampled_signatures`) is kept as the reference golden-equivalence
tests compare the kernels against.

Callers that already hold ``N`` blocks (controller ingest over the
whole backing store, multi-block writes) use the batch kernels
:func:`block_signatures_batch` and :func:`block_signatures_many`: one
numpy pass instead of ``N`` python round trips, bit-identical to the
scalar calls (``tests/test_batch_kernels.py``), so wall-clock changes
and no simulated metric does.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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

#: Byte index of every sampled offset within a 4 KB block, one row per
#: sub-block — precomputed once for the vectorised kernels.
_SAMPLE_INDEX = (
    np.arange(SUB_BLOCKS, dtype=np.intp)[:, None] * SUB_BLOCK_BYTES
    + np.array(SAMPLE_OFFSETS, dtype=np.intp))


def signature_cache_stats() -> Dict[str, int]:
    """Zero hits and zero misses: there is no signature memo.

    Gathering the 32 sampled bytes of a block costs less than the 4 KB
    content copy a memo key would need, so signatures are recomputed on
    every call.  The function stays importable because the benchmark's
    adapter still reads a ``core.signatures.cache_hit_ratio`` from it.
    """
    return {"hits": 0, "misses": 0}


def _block_bytes(block: np.ndarray) -> np.ndarray:
    """The 4 096 bytes of ``block`` as one flat ``uint8`` array (the
    block itself when it is one already)."""
    if block.nbytes != BLOCK_SIZE:
        raise ValueError(
            f"signatures are defined on {BLOCK_SIZE}-byte blocks, "
            f"got {block.nbytes}")
    if block.dtype != np.uint8:
        block = np.ascontiguousarray(block).view(np.uint8)
    return block if block.ndim == 1 else block.reshape(BLOCK_SIZE)


def block_signatures(block: np.ndarray) -> Tuple[int, ...]:
    """The 8-tuple of sub-signatures of a 4 KB block.

    ``uint8`` summation wraps at 256, which *is* the paper's mod-256 —
    golden-equivalence tested against :func:`_sampled_signatures`.
    """
    flat = _block_bytes(block)
    return tuple(flat[_SAMPLE_INDEX].sum(axis=1, dtype=np.uint8).tolist())


def _sampled_signatures(block: np.ndarray) -> Tuple[int, ...]:
    """Direct (element-wise) sampled scheme — the reference
    implementation golden tests compare the kernels against."""
    view = block.reshape(SUB_BLOCKS, SUB_BLOCK_BYTES)
    # Sum the four sampled columns per sub-block; uint8 overflow wraps
    # naturally at 256, matching the paper's 1-byte signature.
    sampled = view[:, list(SAMPLE_OFFSETS)].astype(np.uint32)
    return tuple(int(s) & 0xFF for s in sampled.sum(axis=1))


def _as_block_matrix(blocks: np.ndarray, name: str) -> np.ndarray:
    """Validate and normalise an ``(N, 4096)`` uint8 batch."""
    arr = np.asarray(blocks)
    if arr.ndim != 2 or arr.shape[1] != BLOCK_SIZE:
        raise ValueError(
            f"{name} must be an (N, {BLOCK_SIZE}) array, got shape "
            f"{arr.shape}")
    if arr.dtype != np.uint8:
        raise ValueError(f"{name} must be uint8, got {arr.dtype}")
    return arr


def block_signatures_batch(blocks: np.ndarray) -> np.ndarray:
    """Sub-signatures of ``N`` stacked blocks as an ``(N, 8)`` uint8 array.

    One fancy-index gather over ``_SAMPLE_INDEX`` plus a sum — uint8
    summation wraps at 256, which *is* the paper's mod-256.
    """
    arr = _as_block_matrix(blocks, "blocks")
    return arr[:, _SAMPLE_INDEX].sum(axis=2, dtype=np.uint8)


def signature_tuples(matrix: np.ndarray) -> List[Tuple[int, ...]]:
    """Rows of a signature matrix as the scalar API's python tuples."""
    return [tuple(row) for row in matrix.tolist()]


def block_signatures_many(blocks: Sequence[np.ndarray]
                          ) -> List[Tuple[int, ...]]:
    """``[block_signatures(b) for b in blocks]`` in one pass.

    The 32 sampled bytes of every block are gathered into one
    ``(N, 8, 4)`` array and summed once, so a multi-block write costs
    one numpy reduction, not ``N``.
    """
    flats = [_block_bytes(np.asarray(block)) for block in blocks]
    if not flats:
        return []
    gathered = np.array([flat[_SAMPLE_INDEX] for flat in flats])
    return signature_tuples(gathered.sum(axis=2, dtype=np.uint8))


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
