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

from typing import Iterable, Tuple

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
    """Every block offset the runs cover, in payload order."""
    # Each run's start minus its position in the payload, spread over
    # the run's bytes; adding 0, 1, 2, ... turns that into offsets.
    cover = (starts - lengths.cumsum() + lengths).repeat(lengths)
    cover += _OFFSETS[:cover.size]
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
    def changed_bytes(self) -> int:
        return (self.size_bytes - DELTA_HEADER_BYTES
                - self.run_count * RUN_HEADER_BYTES)

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
        return Delta._trusted(bytes(DELTA_HEADER_BYTES))
    # A run ends wherever the next differing byte is more than MERGE_GAP
    # identical bytes away; closer ones share a run, since carrying the
    # gap verbatim costs less than a fresh run header.
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
    header = np.empty(2 * n + 1, dtype=_U2)
    header[0] = n
    header[1::2] = starts
    header[2::2] = lengths
    return Delta._trusted(
        header.tobytes() + target[_covered(starts, lengths)].tobytes())


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
