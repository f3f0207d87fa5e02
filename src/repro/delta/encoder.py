"""Byte-range delta codec.

A delta represents a target block as the list of byte runs in which it
differs from a reference block.  This is the "delta-coding to eliminate
data redundancy" of Section 4.2: the paper reports that typical writes
change only 5–20 % of a block's bits, so a run-based encoding shrinks a
4 KB block to a few hundred bytes.

Wire format (used by the HDD log packer and by crash recovery)::

    u16 run_count | run_count x (u16 offset, u16 length) | run payloads

All offsets/lengths fit in u16 because blocks are 4 096 bytes.

A :class:`Delta` *is* those bytes: one slotted object around one
``bytes`` buffer.  Its size is the buffer's length, serialising returns
the buffer, and encoding, decoding and patching read the run bounds as a
``<u2`` numpy view of the header — no per-run python object exists
unless a caller asks for ``.runs``.  Bytes from outside (the log, the
``Delta(runs=...)`` constructor) are bounds-checked once, on the way in;
:func:`encode_delta` output is in range by construction and skips that.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

import numpy as np

from repro.sim.request import BLOCK_SIZE

#: Per-run header bytes in both the in-memory size model and wire format.
RUN_HEADER_BYTES = 4
#: Fixed per-delta header bytes (the run count).
DELTA_HEADER_BYTES = 2
#: Runs closer than this many identical bytes are merged: carrying the gap
#: bytes verbatim costs less than a fresh run header.
MERGE_GAP = RUN_HEADER_BYTES

_U2 = np.dtype("<u2")
_OFFSETS = np.arange(BLOCK_SIZE)
_OFFSETS.flags.writeable = False


def _covered(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Every offset the runs cover, in payload order."""
    # Each run's start minus its position in the payload, spread over
    # the run's bytes; adding 0, 1, 2, ... turns that into offsets.
    cover = (starts - lengths.cumsum() + lengths).repeat(lengths)
    cover += (_OFFSETS[:cover.size] if cover.size <= BLOCK_SIZE
              else np.arange(cover.size))
    return cover


def _run_bounds(wire: bytes, n: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of the ``n`` runs the wire header declares."""
    bounds = np.frombuffer(wire, _U2, 2 * n,
                           DELTA_HEADER_BYTES).astype(np.intp)
    return bounds[0::2], bounds[1::2]


class Delta:
    """A delta: byte runs that replace reference content.  Immutable by
    convention — the controller shares one instance between the cache,
    the log's record lists and its reconstruction memo.

    Attributes:
        size_bytes: Encoded size — what the delta costs in RAM segments
            or log space; the length of the wire bytes.
    """

    __slots__ = ("_wire", "size_bytes")

    def __init__(self, runs: Iterable[Tuple[int, bytes]]) -> None:
        """Build from ``(offset, payload)`` pairs, which must be sorted,
        non-overlapping and inside the block (``ValueError`` if not)."""
        runs = tuple(runs)
        header = [len(runs)]
        for offset, payload in runs:
            header += (offset, len(payload))
        if not all(0 <= field <= BLOCK_SIZE for field in header):
            raise ValueError("delta run bound exceeds block size")
        self._wire = self._checked(np.array(header, dtype=_U2).tobytes()
                                   + b"".join(payload for _, payload in runs))
        self.size_bytes = len(self._wire)

    @staticmethod
    def _checked(wire: bytes) -> bytes:
        """``wire`` itself, once its framing and run bounds are proven."""
        if len(wire) < DELTA_HEADER_BYTES:
            raise ValueError("delta blob shorter than its header")
        n = wire[0] | wire[1] << 8
        payload_at = DELTA_HEADER_BYTES + n * RUN_HEADER_BYTES
        if payload_at > len(wire):
            raise ValueError("truncated delta run header")
        starts, lengths = _run_bounds(wire, n)
        if payload_at + int(lengths.sum()) != len(wire):
            raise ValueError(
                f"delta run payload is {len(wire) - payload_at} B, its "
                f"run headers promise {int(lengths.sum())} B")
        ends = starts + lengths
        if (ends > BLOCK_SIZE).any():
            worst = int(ends.argmax())
            raise ValueError(f"delta run [{int(starts[worst])}, "
                             f"{int(ends[worst])}) exceeds block size")
        if (starts[1:] < ends[:-1]).any():
            raise ValueError("delta runs overlap or are out of order")
        return wire

    @classmethod
    def _trusted(cls, wire: bytes) -> "Delta":
        delta = cls.__new__(cls)
        delta._wire = wire
        delta.size_bytes = len(wire)
        return delta

    @property
    def run_count(self) -> int:
        return self._wire[0] | self._wire[1] << 8

    @property
    def is_identity(self) -> bool:
        """True when target and reference were byte-identical."""
        return self.size_bytes == DELTA_HEADER_BYTES

    @property
    def runs(self) -> Tuple[Tuple[int, bytes], ...]:
        """``(offset, payload)`` pairs, materialised from the wire bytes."""
        n = self.run_count
        starts, lengths = _run_bounds(self._wire, n)
        runs = []
        pos = DELTA_HEADER_BYTES + n * RUN_HEADER_BYTES
        for offset, length in zip(starts.tolist(), lengths.tolist()):
            runs.append((offset, self._wire[pos:pos + length]))
            pos += length
        return tuple(runs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self._wire == other._wire

    def __hash__(self) -> int:
        return hash(self._wire)

    def __repr__(self) -> str:
        return f"Delta({self.run_count} runs, {self.size_bytes} B)"

    def serialize(self) -> bytes:
        """Encode to the wire format used in HDD delta blocks."""
        return self._wire

    @classmethod
    def deserialize(cls, blob: bytes) -> "Delta":
        """Decode from the wire format; raises ``ValueError`` on corruption
        — truncation, or runs that overlap or leave the block."""
        return cls._trusted(cls._checked(bytes(blob)))


_IDENTITY = bytes(DELTA_HEADER_BYTES)


def _split_runs(changed: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(starts, lengths)`` of the runs over the ascending, non-empty
    differing offsets ``changed``.

    A run ends wherever the next differing byte is more than MERGE_GAP
    identical bytes away; closer ones share a run, since carrying the
    gap verbatim costs less than a fresh run header.
    """
    after = changed[1:]
    breaks = (after - changed[:-1] > MERGE_GAP + 1).nonzero()[0]
    n = breaks.size + 1
    starts = np.empty(n, dtype=np.intp)
    starts[0] = changed[0]
    starts[1:] = after[breaks]
    lengths = np.empty(n, dtype=np.intp)
    lengths[:-1] = changed[breaks]
    lengths[-1] = changed[-1]
    lengths -= starts
    lengths += 1
    return starts, lengths


def encode_delta(target: np.ndarray, reference: np.ndarray) -> Delta:
    """Encode ``target`` as a delta against ``reference``.

    Both arguments must be ``uint8`` arrays of :data:`BLOCK_SIZE` bytes.
    The run payloads are copied out of ``target``, so the returned delta
    never aliases the caller's array — mutating ``target`` afterwards
    cannot corrupt the delta.
    """
    if target.nbytes != BLOCK_SIZE or reference.nbytes != BLOCK_SIZE:
        raise ValueError(
            f"delta codec operates on {BLOCK_SIZE}-byte blocks, got "
            f"{target.nbytes} and {reference.nbytes}")
    changed = (target != reference).nonzero()[0]
    if not changed.size:
        return Delta._trusted(_IDENTITY)
    starts, lengths = _split_runs(changed)
    header = np.empty(2 * starts.size + 1, dtype=_U2)
    header[0] = starts.size
    header[1::2] = starts
    header[2::2] = lengths
    return Delta._trusted(
        header.tobytes() + target[_covered(starts, lengths)].tobytes())


#: Row pitch of the batch kernel's difference mask: every row is
#: followed by MERGE_GAP + 1 never-differing bytes, so no run can bridge
#: the last byte of one row and the first of the next.
_PITCH = BLOCK_SIZE + MERGE_GAP + 1


def encode_deltas(targets: np.ndarray,
                  references: np.ndarray) -> List[Delta]:
    """``[encode_delta(t, r) for t, r in zip(targets, references)]`` in
    one numpy pass over two ``(N, BLOCK_SIZE)`` uint8 arrays.

    The runs are split by the same arithmetic as :func:`encode_delta`,
    over a difference mask whose rows are padded apart; only the
    per-row slicing of the shared header and payload buffers is a
    Python loop, and it runs no Python frame.  Temporaries are a few
    times ``N`` blocks, so callers keep ``N`` bounded (the ingest planner
    passes at most 64 rows).
    """
    targets = np.asarray(targets)
    references = np.asarray(references)
    if targets.shape != references.shape or targets.ndim != 2 \
            or targets.shape[1] != BLOCK_SIZE \
            or targets.dtype != np.uint8 or references.dtype != np.uint8:
        raise ValueError(
            f"delta codec operates on (N, {BLOCK_SIZE}) uint8 batches, "
            f"got {targets.shape} {targets.dtype} and {references.shape} "
            f"{references.dtype}")
    rows = targets.shape[0]
    differs = np.zeros((rows, _PITCH), dtype=bool)
    np.not_equal(targets, references, out=differs[:, :BLOCK_SIZE])
    changed = differs.ravel().nonzero()[0]
    if not changed.size:
        return [Delta._trusted(_IDENTITY) for _ in range(rows)]
    starts, lengths = _split_runs(changed)
    run_row, starts = np.divmod(starts, _PITCH)
    counts = np.bincount(run_row, minlength=rows)
    runs_before = counts.cumsum() - counts
    # One ``<u2`` buffer holding every row's header back to back: row r
    # opens at word r + 2 * (runs of earlier rows), its runs follow.
    words = np.empty(rows + 2 * starts.size, dtype=_U2)
    head_at = np.arange(rows) + 2 * runs_before
    words[head_at] = counts
    run_at = run_row + 2 * np.arange(1, starts.size + 1) - 1
    words[run_at] = starts
    words[run_at + 1] = lengths
    header = words.tobytes()
    payload = targets.reshape(-1)[
        _covered(run_row * BLOCK_SIZE + starts, lengths)].tobytes()
    payload_at = np.zeros(starts.size + 1, dtype=np.intp)
    lengths.cumsum(out=payload_at[1:])
    head_from = 2 * head_at
    head_to = head_from + 2 + 4 * counts
    pay_from = payload_at[runs_before]
    pay_to = payload_at[runs_before + counts]
    # The rows are in range by construction: fill the two slots here
    # rather than through a ``_trusted`` frame per row.
    deltas = []
    for h0, h1, p0, p1 in zip(head_from.tolist(), head_to.tolist(),
                              pay_from.tolist(), pay_to.tolist()):
        delta = object.__new__(Delta)
        delta._wire = header[h0:h1] + payload[p0:p1]
        delta.size_bytes = h1 - h0 + p1 - p0
        deltas.append(delta)
    return deltas


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
    n = delta.run_count
    if n:
        target[_covered(*_run_bounds(delta._wire, n))] = np.frombuffer(
            delta._wire, np.uint8, -1,
            DELTA_HEADER_BYTES + n * RUN_HEADER_BYTES)
    return target
