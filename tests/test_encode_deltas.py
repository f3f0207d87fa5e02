"""The batch delta kernel: ``encode_deltas`` row by row against the
frozen tuple-of-runs codec in ``tests/reference/delta_codec.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.delta.encoder import MERGE_GAP, encode_delta, encode_deltas
from repro.sim.request import BLOCK_SIZE

from reference import delta_codec as reference_codec


def _frozen_wire(targets, references):
    return [reference_codec.encode_delta(t, r).serialize()
            for t, r in zip(targets, references)]


def _wire(deltas):
    return [delta.serialize() for delta in deltas]


def _edited_batch(rng, rows, max_edits):
    references = rng.integers(0, 256, size=(rows, BLOCK_SIZE),
                              dtype=np.uint8)
    targets = references.copy()
    for row in range(rows):
        n_edits = int(rng.integers(0, max_edits + 1))
        for _ in range(n_edits):
            start = int(rng.integers(0, BLOCK_SIZE))
            targets[row, start:start + int(rng.integers(1, 12))] ^= 0xFF
    return targets, references


class TestEncodeDeltas:
    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), rows=st.integers(0, 20),
           max_edits=st.sampled_from([0, 1, 8, 60, 400]))
    def test_matches_frozen_codec_row_by_row(self, seed, rows, max_edits):
        targets, references = _edited_batch(np.random.default_rng(seed),
                                            rows, max_edits)
        assert _wire(encode_deltas(targets, references)) \
            == _frozen_wire(targets, references)

    def test_runs_never_bridge_two_rows(self):
        """Byte 4095 of row i and byte 0 of row i + 1 are neighbours in
        the flat index, closer than MERGE_GAP, yet stay two deltas."""
        references = np.zeros((3, BLOCK_SIZE), dtype=np.uint8)
        targets = references.copy()
        targets[0, BLOCK_SIZE - 1] = 1
        targets[1, 0] = 2
        targets[1, BLOCK_SIZE - 1] = 3
        targets[2, :MERGE_GAP] = 4
        deltas = encode_deltas(targets, references)
        assert [d.runs for d in deltas] == [
            ((BLOCK_SIZE - 1, b"\x01"),),
            ((0, b"\x02"), (BLOCK_SIZE - 1, b"\x03")),
            ((0, b"\x04" * MERGE_GAP),)]
        assert _wire(deltas) == _frozen_wire(targets, references)

    def test_empty_batch(self):
        empty = np.empty((0, BLOCK_SIZE), dtype=np.uint8)
        assert encode_deltas(empty, empty) == []

    def test_one_row_equals_scalar(self, rng):
        targets, references = _edited_batch(rng, 1, 30)
        (delta,) = encode_deltas(targets, references)
        assert delta == encode_delta(targets[0], references[0])

    def test_identity_and_all_different_rows(self, rng):
        references = rng.integers(0, 256, size=(4, BLOCK_SIZE),
                                  dtype=np.uint8)
        targets = references.copy()
        targets[1] ^= 0xFF
        targets[3] ^= 0xFF
        deltas = encode_deltas(targets, references)
        assert [d.is_identity for d in deltas] == [True, False, True, False]
        assert deltas[1].runs == ((0, targets[1].tobytes()),)
        assert _wire(deltas) == _frozen_wire(targets, references)

    def test_non_contiguous_inputs(self, rng):
        targets, references = _edited_batch(rng, 12, 20)
        strided_t, strided_r = targets[::2], references[::-2]
        assert not strided_t.flags.c_contiguous
        assert not strided_r.flags.c_contiguous
        assert _wire(encode_deltas(strided_t, strided_r)) \
            == _frozen_wire(strided_t, strided_r)

    def test_rejects_bad_shapes(self):
        block = np.zeros((2, BLOCK_SIZE), dtype=np.uint8)
        with pytest.raises(ValueError):
            encode_deltas(block, block[:1])
        with pytest.raises(ValueError):
            encode_deltas(block[:, :100], block[:, :100])
        with pytest.raises(ValueError):
            encode_deltas(block.astype(np.uint16), block.astype(np.uint16))
