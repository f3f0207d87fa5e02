"""Unit tests for IORequest and its constructors."""

import numpy as np
import pytest

from repro.sim.request import (BLOCK_SIZE, IORequest, OpType, make_read,
                               make_write)

from conftest import make_block


class TestIORequestValidation:
    def test_read_basics(self):
        req = IORequest(OpType.READ, lba=5, nblocks=3)
        assert req.is_read and not req.is_write
        assert req.size_bytes == 3 * BLOCK_SIZE

    def test_write_carries_payload(self):
        req = IORequest(OpType.WRITE, 0, 2,
                        payload=[make_block(1), make_block(2)])
        assert req.is_write
        assert len(req.payload) == 2

    def test_negative_lba_rejected(self):
        with pytest.raises(ValueError, match="lba"):
            IORequest(OpType.READ, -1)

    def test_zero_nblocks_rejected(self):
        with pytest.raises(ValueError, match="nblocks"):
            IORequest(OpType.READ, 0, nblocks=0)

    def test_write_without_payload_rejected(self):
        with pytest.raises(ValueError, match="payload"):
            IORequest(OpType.WRITE, 0, 1)

    def test_write_payload_count_must_match_nblocks(self):
        with pytest.raises(ValueError, match="spans"):
            IORequest(OpType.WRITE, 0, 2, payload=[make_block()])

    def test_write_payload_block_size_checked(self):
        bad = np.zeros(100, dtype=np.uint8)
        with pytest.raises(ValueError, match="bytes"):
            IORequest(OpType.WRITE, 0, 1, payload=[bad])

    def test_read_with_payload_rejected(self):
        with pytest.raises(ValueError, match="read requests"):
            IORequest(OpType.READ, 0, 1, payload=[make_block()])


class TestConvenienceConstructors:
    def test_make_read(self):
        req = make_read(9, nblocks=4, vm_id=2)
        assert req.op is OpType.READ
        assert req.lba == 9
        assert req.nblocks == 4
        assert req.vm_id == 2

    def test_make_write_infers_nblocks(self):
        req = make_write(3, [make_block(), make_block()])
        assert req.nblocks == 2
        assert req.lba == 3

    def test_default_vm_is_native_machine(self):
        assert make_read(0).vm_id == 0
