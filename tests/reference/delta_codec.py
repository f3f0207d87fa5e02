"""Frozen byte-range delta codec: the tuple-of-runs ``Delta`` dataclass.

This is ``src/repro/delta/encoder.py`` as of commit 39665f9, verbatim
below the corpus helpers: every delta a frozen dataclass of
``(offset, bytes)`` tuples with three hand-installed caches.  The
production codec now holds a delta as its wire bytes; this one stays so
the new codec is held to the old one's bytes, not merely to itself.
``delta_wire_digest.json`` holds, per case of :func:`wire_corpus`, the
sha256 of the production codec's wire bytes; it was first written at
that commit, when both codecs agreed.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Tuple

import numpy as np

from reference.pins import sha
from repro.delta import encoder
from repro.sim.request import BLOCK_SIZE

#: Per-run header bytes in both the in-memory size model and wire format.
RUN_HEADER_BYTES = 4
#: Fixed per-delta header bytes (the run count).
DELTA_HEADER_BYTES = 2
#: Runs closer than this many identical bytes are merged: carrying the gap
#: bytes verbatim costs less than a fresh run header.
MERGE_GAP = RUN_HEADER_BYTES

#: Below this run count :func:`apply_delta` patches with a plain loop;
#: building (and caching) the vectorised patch plan only pays off once a
#: delta carries enough runs to amortise the numpy setup.
_PATCH_PLAN_MIN_RUNS = 3


@dataclass(frozen=True)
class Delta:
    """An immutable delta: byte runs that replace reference content.

    Attributes:
        runs: ``(offset, payload)`` pairs, sorted by offset and
            non-overlapping; ``payload`` is a ``bytes`` object.

    Derived views (``size_bytes``, the serialized wire bytes, the apply
    plan) are cached on first use — safe because instances are frozen.
    """

    runs: Tuple[Tuple[int, bytes], ...]

    @cached_property
    def size_bytes(self) -> int:
        """Encoded size: what the delta costs in RAM segments or log space."""
        return DELTA_HEADER_BYTES + sum(
            RUN_HEADER_BYTES + len(payload) for _, payload in self.runs)

    @property
    def is_identity(self) -> bool:
        """True when target and reference were byte-identical."""
        return not self.runs

    @property
    def changed_bytes(self) -> int:
        return sum(len(payload) for _, payload in self.runs)

    @cached_property
    def _wire(self) -> bytes:
        n = len(self.runs)
        header = struct.pack(
            f"<H{2 * n}H", n,
            *(v for offset, payload in self.runs
              for v in (offset, len(payload))))
        return header + b"".join(payload for _, payload in self.runs)

    @cached_property
    def _patch_plan(self) -> Tuple[np.ndarray, np.ndarray]:
        """Flat ``(indices, values)`` arrays patching a reference in one
        fancy assignment; bounds are validated here, once per delta."""
        n = len(self.runs)
        starts = np.fromiter(
            (offset for offset, _ in self.runs), dtype=np.intp, count=n)
        lengths = np.fromiter(
            (len(payload) for _, payload in self.runs),
            dtype=np.intp, count=n)
        ends = starts + lengths
        if n and int(ends.max()) > BLOCK_SIZE:
            worst = int(np.argmax(ends))
            raise ValueError(
                f"delta run [{int(starts[worst])}, {int(ends[worst])}) "
                f"exceeds block size")
        total = int(lengths.sum())
        run_base = np.concatenate(
            (np.zeros(1, dtype=np.intp), np.cumsum(lengths)[:-1]))
        indices = (np.repeat(starts - run_base, lengths)
                   + np.arange(total, dtype=np.intp))
        values = np.frombuffer(
            b"".join(payload for _, payload in self.runs), dtype=np.uint8)
        return indices, values

    def serialize(self) -> bytes:
        """Encode to the wire format used in HDD delta blocks."""
        return self._wire

    @classmethod
    def deserialize(cls, blob: bytes) -> "Delta":
        """Decode from the wire format; raises ``ValueError`` on corruption."""
        if len(blob) < DELTA_HEADER_BYTES:
            raise ValueError("delta blob shorter than its header")
        (run_count,) = struct.unpack_from("<H", blob, 0)
        pos = DELTA_HEADER_BYTES + run_count * RUN_HEADER_BYTES
        if pos > len(blob):
            raise ValueError("truncated delta run header")
        fields = struct.unpack_from(f"<{2 * run_count}H", blob,
                                    DELTA_HEADER_BYTES)
        runs: List[Tuple[int, bytes]] = []
        for i in range(run_count):
            length = fields[2 * i + 1]
            end = pos + length
            if end > len(blob):
                raise ValueError("truncated delta run payload")
            runs.append((fields[2 * i], blob[pos:end]))
            pos = end
        return cls(runs=tuple(runs))


def _diff_run_arrays(target: np.ndarray,
                     reference: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Maximal differing runs as parallel ``(starts, ends)`` arrays."""
    mask = target != reference
    # Transitions of the padded mask give run boundaries.
    padded = np.empty(mask.size + 2, dtype=bool)
    padded[0] = padded[-1] = False
    padded[1:-1] = mask
    edges = np.flatnonzero(padded[1:] != padded[:-1])
    return edges[0::2], edges[1::2]


def encode_delta(target: np.ndarray, reference: np.ndarray) -> Delta:
    """Encode ``target`` as a delta against ``reference``.

    Both arguments must be ``uint8`` arrays of :data:`BLOCK_SIZE` bytes.
    The run payloads are materialised as ``bytes`` (copied out of
    ``target``), so the returned delta never aliases the caller's array
    — mutating ``target`` afterwards cannot corrupt the delta.
    """
    if target.nbytes != BLOCK_SIZE or reference.nbytes != BLOCK_SIZE:
        raise ValueError(
            f"delta codec operates on {BLOCK_SIZE}-byte blocks, got "
            f"{target.nbytes} and {reference.nbytes}")
    start_arr, end_arr = _diff_run_arrays(target, reference)
    if not start_arr.size:
        return Delta(runs=())
    starts = start_arr.tolist()
    ends = end_arr.tolist()
    # Merge runs separated by gaps too small to be worth a run header:
    # ``heads`` are the raw runs that open a new merged run.  (Plain
    # lists: typical deltas carry a few dozen runs, and at that size
    # python beats numpy's per-op overhead.)
    heads = [i for i in range(1, len(starts))
             if starts[i] - ends[i - 1] > MERGE_GAP]
    starts = starts[:1] + [starts[i] for i in heads]
    ends = [ends[i - 1] for i in heads] + ends[-1:]
    # One bulk copy to bytes, then cheap slicing — faster than a
    # per-run ``ndarray.tobytes()`` and byte-identical to it.
    raw = target.tobytes()
    payloads = [raw[start:end] for start, end in zip(starts, ends)]
    n = len(payloads)
    delta = Delta(runs=tuple(zip(starts, payloads)))
    # Preinstall both cached views: every encoded delta has its size
    # read (spill and accept thresholds) and most reach the log packer,
    # and from the run bounds both cost a fraction of the lazy per-run
    # walks.
    lengths = list(map(len, payloads))
    header = [n] * (2 * n + 1)
    header[1::2] = starts
    header[2::2] = lengths
    delta.__dict__["size_bytes"] = (
        DELTA_HEADER_BYTES + RUN_HEADER_BYTES * n + sum(lengths))
    delta.__dict__["_wire"] = (struct.pack(f"<{2 * n + 1}H", *header)
                               + b"".join(payloads))
    return delta


def apply_delta(delta: Delta, reference: np.ndarray) -> np.ndarray:
    """Reconstruct the target block by patching ``reference``.

    Returns a fresh array; the reference is never modified in place (a
    reference block may serve many associate blocks simultaneously), so
    the result never aliases the caller's reference — even when the
    reference is a read-only zero-copy view.
    """
    if reference.nbytes != BLOCK_SIZE:
        raise ValueError(
            f"reference must be {BLOCK_SIZE} bytes, got {reference.nbytes}")
    target = reference.copy()
    runs = delta.runs
    if not runs:
        return target
    if len(runs) < _PATCH_PLAN_MIN_RUNS:
        for offset, payload in runs:
            end = offset + len(payload)
            if end > BLOCK_SIZE:
                raise ValueError(
                    f"delta run [{offset}, {end}) exceeds block size")
            target[offset:end] = np.frombuffer(payload, dtype=np.uint8)
        return target
    indices, values = delta._patch_plan
    target[indices] = values
    return target


def _edited(reference: np.ndarray, rng: np.random.Generator,
            n_edits: int) -> np.ndarray:
    target = reference.copy()
    for _ in range(n_edits):
        start = int(rng.integers(0, BLOCK_SIZE))
        target[start:start + int(rng.integers(1, 12))] ^= 0xFF
    return target


def wire_corpus(seed: int = 16) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Named ``(target, reference)`` pairs covering the codec's edges."""
    rng = np.random.default_rng(seed)
    reference = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)

    def flipped(*offsets: int) -> np.ndarray:
        target = reference.copy()
        target[list(offsets)] ^= 0xFF
        return target

    corpus = {
        "identity": reference.copy(),
        "byte_at_0": flipped(0),
        "byte_at_4095": flipped(BLOCK_SIZE - 1),
        # MERGE_GAP identical bytes between two edits merge into one
        # run; one more keeps them apart.
        "gap_merge": flipped(100, 100 + MERGE_GAP + 1),
        "gap_split": flipped(100, 100 + MERGE_GAP + 2),
        "all_different": reference ^ 0xFF,
    }
    for n_edits in (1, 2, 7, 40, 300):
        corpus[f"edits_{n_edits}"] = _edited(reference, rng, n_edits)
    return {name: (target, reference) for name, target in corpus.items()}


CASES = list(wire_corpus())


def pin(case: str) -> str:
    """sha256 of the production codec's wire bytes for ``case``."""
    target, reference = wire_corpus()[case]
    return sha(encoder.encode_delta(target, reference).serialize())
