"""Unit tests for the logical content backing store."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.raid0 import RAID0Storage
from repro.sim.backing import BackingStore
from repro.sim.request import BLOCK_SIZE, IORequest, OpType

from conftest import make_block, make_dataset


class TestConstruction:
    def test_owns_a_copy(self):
        # Mutating the source array must not change the store's content.
        dataset = make_dataset(4)
        store = BackingStore(dataset)
        original = store.get(1).copy()
        dataset[1, :] = 0
        assert np.array_equal(store.get(1), original)

    def test_zeros_constructor(self):
        store = BackingStore.zeros(8)
        assert store.capacity_blocks == 8
        assert not store.get(3).any()

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match="shape|expects"):
            BackingStore(np.zeros((4, 100), dtype=np.uint8))

    def test_rejects_wrong_dtype(self):
        with pytest.raises(ValueError, match="uint8"):
            BackingStore(np.zeros((4, BLOCK_SIZE), dtype=np.int32))


class TestAccess:
    def test_set_then_get_roundtrip(self):
        store = BackingStore.zeros(4)
        block = make_block(0x5A)
        store.set(2, block)
        assert np.array_equal(store.get(2), block)

    def test_get_returns_copy(self):
        store = BackingStore.zeros(4)
        got = store.get(0)
        got[:] = 1
        assert not store.get(0).any()

    def test_set_copies_in(self):
        store = BackingStore.zeros(4)
        block = make_block(7)
        store.set(0, block)
        block[:] = 0
        assert store.get(0)[0] == 7

    def test_view_is_readonly(self):
        store = BackingStore.zeros(4)
        view = store.view(1)
        with pytest.raises((ValueError, RuntimeError)):
            view[0] = 1

    def test_out_of_range_lba(self):
        store = BackingStore.zeros(4)
        with pytest.raises(IndexError):
            store.get(4)
        with pytest.raises(IndexError):
            store.set(-1, make_block())

    def test_set_rejects_wrong_size(self):
        store = BackingStore.zeros(4)
        with pytest.raises(ValueError, match="bytes"):
            store.set(0, np.zeros(10, dtype=np.uint8))


def _frozen(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


class TestBasePlusOverlay:
    def test_shares_a_frozen_image_and_copies_a_writeable_one(self):
        frozen = _frozen(make_dataset(4))
        assert np.shares_memory(BackingStore(frozen).view_all(), frozen)
        writeable = make_dataset(4)
        assert not np.shares_memory(BackingStore(writeable).view_all(),
                                    writeable)

    def test_keeps_a_frozen_block_and_copies_any_other(self):
        store = BackingStore.zeros(4)
        owned = _frozen(make_block(1))
        store.set(0, owned)
        assert store.view(0) is owned
        row = _frozen(make_dataset(2))[1]  # frozen, but somebody's view
        store.set(1, row)
        assert not np.shares_memory(store.view(1), row)

    def test_a_view_keeps_the_bytes_it_was_handed_out_with(self):
        store = BackingStore(make_dataset(4))
        before_first_write = store.view(2)
        old = before_first_write.copy()
        store.set(2, make_block(9))
        before_second_write = store.view(2)
        store.set(2, make_block(10))
        assert np.array_equal(before_first_write, old)
        assert (before_second_write == 9).all()
        assert (store.view(2) == 10).all()

    def test_a_served_read_keeps_its_bytes_across_a_later_write(self):
        dataset = make_dataset(8)
        system = RAID0Storage(dataset)
        _, contents = system.process_read(IORequest(OpType.READ, 3, 2))
        system.process(IORequest(OpType.WRITE, 3, 2,
                                 payload=[make_block(1), make_block(2)]))
        assert np.array_equal(contents[0], dataset[3])
        assert np.array_equal(contents[1], dataset[4])

    def test_indexable_and_materialisable_like_an_array(self):
        dataset = make_dataset(4)
        store = BackingStore(dataset)
        store[1] = make_block(3)
        dataset[1] = 3
        assert len(store) == 4
        assert np.array_equal(store[1], dataset[1])
        assert np.array_equal(np.asarray(store), dataset)
        assert not np.asarray(store).flags.writeable
        snapshot = np.array(store)
        snapshot[0] = 0  # a requested copy is the caller's own
        assert np.array_equal(store[0], dataset[0])

    @settings(max_examples=60, deadline=None)
    @given(frozen_base=st.booleans(),
           ops=st.lists(st.tuples(
               st.sampled_from(["set", "get", "view", "view_all",
                                "asarray"]),
               st.integers(0, 5), st.integers(0, 255), st.booleans()),
               max_size=40))
    def test_any_sequence_matches_a_plain_array(self, frozen_base, ops):
        base = make_dataset(6)
        oracle = base.copy()
        base.flags.writeable = not frozen_base
        digest = hashlib.sha256(base).digest()
        store = BackingStore(base)
        assert np.shares_memory(store.view_all(), base) == frozen_base
        handed_out = []
        for op, lba, fill, frozen_block in ops:
            if op == "set":
                block = make_block(fill)
                block.flags.writeable = not frozen_block
                store.set(lba, block)
                oracle[lba] = fill
                if not frozen_block:
                    block[:] = fill ^ 0xFF  # the caller's array, still
            elif op == "get":
                got = store.get(lba)
                assert np.array_equal(got, oracle[lba])
                got[:] = fill  # a private copy
            elif op == "view":
                view = store.view(lba)
                assert np.array_equal(view, oracle[lba])
                assert not view.flags.writeable
                handed_out.append((view, view.tobytes()))
            else:
                whole = store.view_all() if op == "view_all" \
                    else np.asarray(store)
                assert np.array_equal(whole, oracle)
                assert not whole.flags.writeable
                handed_out.append((whole, whole.tobytes()))
            assert hashlib.sha256(base).digest() == digest
        for array, content in handed_out:
            assert array.tobytes() == content
