"""Unit tests for the virtual-block cache and its three replacement
policies (paper Section 4.3)."""

import pytest

from repro.core.cache import ICashCache
from repro.core.virtual_block import BlockKind, VirtualBlock
from repro.delta.encoder import Delta
from repro.delta.segments import SegmentPool
from repro.sim.request import BLOCK_SIZE

from conftest import make_block


def make_cache(max_vbs: int = 64, data_blocks: int = 4,
               pool_bytes: int = 4096) -> ICashCache:
    return ICashCache(max_virtual_blocks=max_vbs,
                      data_ram_bytes=data_blocks * BLOCK_SIZE,
                      segment_pool=SegmentPool(pool_bytes))


def vb_of(lba: int, kind: BlockKind = BlockKind.INDEPENDENT) -> VirtualBlock:
    return VirtualBlock(lba=lba, kind=kind)


def delta_of(nbytes: int) -> Delta:
    return Delta(runs=((0, bytes(nbytes)),))


class TestLRUBehaviour:
    def test_insert_get_contains(self):
        cache = make_cache()
        cache.insert(vb_of(5))
        assert 5 in cache
        assert cache.get(5).lba == 5
        assert len(cache) == 1

    def test_duplicate_insert_rejected(self):
        cache = make_cache()
        cache.insert(vb_of(1))
        with pytest.raises(ValueError):
            cache.insert(vb_of(1))

    def test_get_touches_lru_order(self):
        cache = make_cache()
        for lba in range(3):
            cache.insert(vb_of(lba))
        cache.get(0)  # 0 becomes MRU
        order = [vb.lba for vb in cache.lru_order()]
        assert order == [1, 2, 0]

    def test_get_without_touch(self):
        cache = make_cache()
        for lba in range(3):
            cache.insert(vb_of(lba))
        cache.get(0, touch=False)
        assert [vb.lba for vb in cache.lru_order()] == [0, 1, 2]

    def test_mru_window_returns_hot_end(self):
        cache = make_cache()
        for lba in range(5):
            cache.insert(vb_of(lba))
        window = cache.mru_window(2)
        assert [vb.lba for vb in window] == [4, 3]

    def test_capacity_enforced(self):
        cache = make_cache(max_vbs=8)
        for lba in range(8):
            cache.insert(vb_of(lba))
        with pytest.raises(MemoryError):
            cache.insert(vb_of(99))


class TestDataBudget:
    def test_attach_data_counts(self):
        cache = make_cache(data_blocks=2)
        vb = vb_of(0)
        cache.insert(vb)
        cache.attach_data(vb, make_block())
        assert cache.data_blocks_used == 1
        assert cache.data_blocks_free == 1

    def test_data_budget_enforced(self):
        cache = make_cache(data_blocks=1)
        a, b = vb_of(0), vb_of(1)
        cache.insert(a)
        cache.insert(b)
        cache.attach_data(a, make_block())
        with pytest.raises(MemoryError):
            cache.attach_data(b, make_block())

    def test_reattach_does_not_double_count(self):
        cache = make_cache(data_blocks=1)
        vb = vb_of(0)
        cache.insert(vb)
        cache.attach_data(vb, make_block(1))
        cache.attach_data(vb, make_block(2))
        assert cache.data_blocks_used == 1
        assert vb.data[0] == 2

    def test_drop_data_releases_budget(self):
        cache = make_cache(data_blocks=1)
        vb = vb_of(0)
        cache.insert(vb)
        cache.attach_data(vb, make_block())
        vb.data_dirty = True
        cache.drop_data(vb)
        assert cache.data_blocks_used == 0
        assert vb.data is None
        assert not vb.data_dirty


class TestDeltaBudget:
    def test_attach_delta_allocates_segments(self):
        cache = make_cache(pool_bytes=4096)
        vb = vb_of(0)
        cache.insert(vb)
        cache.attach_delta(vb, delta_of(100))
        assert cache.segments.used_segments > 0
        assert vb.has_delta

    def test_reattach_frees_old_allocation(self):
        cache = make_cache(pool_bytes=4096)
        vb = vb_of(0)
        cache.insert(vb)
        cache.attach_delta(vb, delta_of(1000))
        big = cache.segments.used_segments
        cache.attach_delta(vb, delta_of(10))
        assert cache.segments.used_segments < big

    def test_drop_delta_releases_segments(self):
        cache = make_cache()
        vb = vb_of(0)
        cache.insert(vb)
        cache.attach_delta(vb, delta_of(100))
        cache.drop_delta(vb)
        assert cache.segments.used_segments == 0
        assert not vb.has_delta

    def test_remove_releases_everything(self):
        cache = make_cache()
        vb = vb_of(0)
        cache.insert(vb)
        cache.attach_data(vb, make_block())
        cache.attach_delta(vb, delta_of(100))
        cache.remove(0)
        assert len(cache) == 0
        assert cache.data_blocks_used == 0
        assert cache.segments.used_segments == 0


class TestReplacementPolicies:
    def test_policy1_first_non_reference_from_tail(self):
        cache = make_cache()
        ref = vb_of(0, BlockKind.REFERENCE)
        cache.insert(ref)
        cache.insert(vb_of(1))
        cache.insert(vb_of(2))
        victim = cache.find_virtual_victim()
        assert victim.lba == 1  # 0 is a reference, skip it

    def test_policy1_none_when_all_references(self):
        cache = make_cache()
        cache.insert(vb_of(0, BlockKind.REFERENCE))
        assert cache.find_virtual_victim() is None

    def test_policy2_first_data_holder_from_tail(self):
        cache = make_cache(data_blocks=4)
        for lba in range(3):
            vb = vb_of(lba)
            cache.insert(vb)
        vb1 = cache.get(1, touch=False)
        cache.attach_data(vb1, make_block())
        assert cache.find_data_victim().lba == 1

    def test_policy2_reference_data_evictable(self):
        """Section 4.3: 'The data block of a reference block can also be
        evicted'."""
        cache = make_cache()
        ref = vb_of(0, BlockKind.REFERENCE)
        cache.insert(ref)
        cache.attach_data(ref, make_block())
        assert cache.find_data_victim() is ref

    def test_policy3_first_non_reference_delta_holder(self):
        cache = make_cache()
        ref = vb_of(0, BlockKind.REFERENCE)
        cache.insert(ref)
        cache.attach_delta(ref, delta_of(10))
        assoc = vb_of(1, BlockKind.ASSOCIATE)
        cache.insert(assoc)
        cache.attach_delta(assoc, delta_of(10))
        assert cache.find_delta_victim() is assoc

    def test_policy3_none_when_only_reference_deltas(self):
        cache = make_cache()
        ref = vb_of(0, BlockKind.REFERENCE)
        cache.insert(ref)
        cache.attach_delta(ref, delta_of(10))
        assert cache.find_delta_victim() is None

    def test_victim_order_follows_lru_touch(self):
        cache = make_cache()
        for lba in range(3):
            vb = vb_of(lba)
            cache.insert(vb)
            cache.attach_delta(vb, delta_of(10))
        cache.get(0)  # a lookup touches
        assert cache.find_delta_victim().lba == 1

    def test_references_listing(self):
        cache = make_cache()
        cache.insert(vb_of(0, BlockKind.REFERENCE))
        cache.insert(vb_of(1))
        refs = cache.references()
        assert [vb.lba for vb in refs] == [0]

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            make_cache(max_vbs=4)
