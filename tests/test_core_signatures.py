"""Unit tests for content sub-signatures (paper Section 4.2)."""

import numpy as np
import pytest

from repro.core.signatures import (SAMPLE_OFFSETS, SIGNATURE_VALUES,
                                   SUB_BLOCK_BYTES, SUB_BLOCKS,
                                   block_signatures, signature_overlap)
from repro.sim.request import BLOCK_SIZE

from conftest import make_block


class TestSampledScheme:
    def test_eight_signatures_per_block(self, random_block):
        sigs = block_signatures(random_block)
        assert len(sigs) == SUB_BLOCKS
        assert all(0 <= s < SIGNATURE_VALUES for s in sigs)

    def test_matches_paper_definition(self, random_block):
        """Sub-signature i = sum of bytes at offsets 0,16,32,64 of
        sub-block i, mod 256."""
        sigs = block_signatures(random_block)
        for i in range(SUB_BLOCKS):
            sub = random_block[i * SUB_BLOCK_BYTES:(i + 1) * SUB_BLOCK_BYTES]
            expected = sum(int(sub[o]) for o in SAMPLE_OFFSETS) & 0xFF
            assert sigs[i] == expected

    def test_deterministic(self, random_block):
        assert block_signatures(random_block) \
            == block_signatures(random_block.copy())

    def test_insensitive_to_unsampled_bytes(self):
        """The design point: a change outside the sampled offsets leaves
        the signature intact, so similar blocks keep matching."""
        block = make_block(0)
        sigs = block_signatures(block)
        block[5] = 0xFF  # offset 5 is not sampled
        assert block_signatures(block) == sigs

    def test_sensitive_to_sampled_bytes(self):
        block = make_block(0)
        sigs = block_signatures(block)
        block[16] = 1  # sampled offset in sub-block 0
        changed = block_signatures(block)
        assert changed[0] != sigs[0]
        assert changed[1:] == sigs[1:]

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ValueError):
            block_signatures(np.zeros(100, dtype=np.uint8))


class TestOverlap:
    def test_full_overlap(self):
        assert signature_overlap((1, 2, 3), (1, 2, 3)) == 3

    def test_partial_overlap_by_position(self):
        assert signature_overlap((1, 2, 3), (1, 9, 3)) == 2
        # Same values at different positions do not count.
        assert signature_overlap((1, 2), (2, 1)) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            signature_overlap((1,), (1, 2))

    def test_similar_blocks_overlap_highly(self, rng):
        """Blocks differing by a small patch keep most sub-signatures."""
        base = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        variant = base.copy()
        variant[100:160] = 0  # one 60-byte patch in sub-block 0
        overlap = signature_overlap(block_signatures(base),
                                    block_signatures(variant))
        assert overlap >= SUB_BLOCKS - 1
