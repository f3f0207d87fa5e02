"""The Heatmap: a content-popularity frequency spectrum.

Section 4.2: a two-dimensional array of S rows (one per sub-block
position) by Vs columns (one per possible sub-signature value).  Every
block access increments the S entries matching the block's
sub-signatures.  Because *similar* blocks share sub-signature values, the
Heatmap captures content locality; because *repeated* accesses increment
the same entries, it captures temporal locality — both with a single
cheap update.

The dimensions are configurable so the unit tests can reproduce the
paper's worked example (Table 1: S = 2 sub-blocks, Vs = 4 values) exactly,
while the production configuration is 8 x 256.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.signatures import SIGNATURE_VALUES, SUB_BLOCKS


class Heatmap:
    """S x Vs popularity counters over sub-signature values."""

    def __init__(self, rows: int = SUB_BLOCKS,
                 values: int = SIGNATURE_VALUES) -> None:
        if rows < 1 or values < 1:
            raise ValueError(
                f"heatmap dimensions must be positive, got {rows}x{values}")
        self.rows = rows
        self.values = values
        self._counts = np.zeros((rows, values), dtype=np.int64)
        self._rows_index = np.arange(rows)
        #: Accesses registered so far, batched or pending.
        self.total_accesses = 0
        #: The per-access buffer: one tuple of ``rows`` sub-signatures
        #: per block access, not yet in the counters.  The controller
        #: registers an access by appending its signatures here and
        #: adding 1 to :attr:`total_accesses`; every reader scatters the
        #: buffer into the counters first.  Counter increments commute,
        #: so a reader sees exactly what eager updates would have built,
        #: while the hot path pays a list append instead of a numpy
        #: fancy-index round trip per IO.
        self.pending: List[Tuple[int, ...]] = []

    def _check(self, signatures: Sequence[int]) -> None:
        if len(signatures) != self.rows:
            raise ValueError(
                f"expected {self.rows} sub-signatures, got {len(signatures)}")
        for sig in signatures:
            if not 0 <= sig < self.values:
                raise ValueError(
                    f"sub-signature {sig} outside [0, {self.values})")

    def _flush(self) -> None:
        if not self.pending:
            return
        sig = np.asarray(self.pending, dtype=np.intp)
        np.add.at(self._counts, (self._rows_index, sig), 1)
        self.pending.clear()

    def _check_matrix(self, matrix: np.ndarray) -> np.ndarray:
        sig = np.asarray(matrix)
        if sig.ndim != 2 or sig.shape[1] != self.rows:
            raise ValueError(
                f"expected an (N, {self.rows}) signature matrix, "
                f"got shape {sig.shape}")
        if sig.size and (int(sig.min()) < 0 or int(sig.max()) >= self.values):
            raise ValueError(
                f"sub-signature outside [0, {self.values})")
        return sig

    def record_batch(self, matrix: np.ndarray) -> None:
        """Register one access per row of an ``(N, rows)`` signature matrix.

        Exactly equivalent to ``N`` appends to :attr:`pending` in any
        order — counter increments commute — but one ``np.add.at``
        scatter.
        """
        sig = self._check_matrix(matrix)
        np.add.at(self._counts, (self._rows_index, sig), 1)
        self.total_accesses += sig.shape[0]

    def popularity_batch(self, matrix: np.ndarray) -> np.ndarray:
        """Per-row :meth:`popularity` of a signature matrix (int64)."""
        sig = self._check_matrix(matrix)
        self._flush()
        return self._counts[self._rows_index, sig].sum(axis=1)

    def popularity(self, signatures: Sequence[int]) -> int:
        """Block popularity: sum of its sub-signature popularity values.

        This is the quantity Table 2 computes when selecting a reference
        block — the most popular block's content is the best compression
        anchor for the working set.
        """
        self._check(signatures)
        self._flush()
        return int(self._counts[self._rows_index, list(signatures)].sum())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Heatmap(rows={self.rows}, values={self.values}, "
                f"accesses={self.total_accesses})")
