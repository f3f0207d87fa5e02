"""Unit tests for the four baseline architectures."""

import numpy as np
import pytest

from repro.baselines import (DedupCacheStorage, LRUCacheStorage, PureSSD,
                             RAID0Storage)
from repro.sim.request import BLOCK_SIZE

from conftest import make_block, make_dataset


def write_read_roundtrip(system, rng, n_ops=200, n_blocks=64):
    shadow = {lba: system.backing.get(lba) for lba in range(n_blocks)}
    for _ in range(n_ops):
        lba = int(rng.integers(0, n_blocks))
        if rng.random() < 0.5:
            content = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
            system.write(lba, [content])
            shadow[lba] = content
        else:
            _, (out,) = system.read(lba)
            assert np.array_equal(out, shadow[lba])


class TestPureSSD:
    def test_content_roundtrip(self, rng):
        system = PureSSD(make_dataset(64))
        write_read_roundtrip(system, rng)

    def test_every_write_hits_ssd(self):
        system = PureSSD(make_dataset(16))
        system.write(0, [make_block(1)])
        system.write(5, [make_block(2)])
        assert system.ssd_write_ops == 2

    def test_ingest_fills_footprint(self):
        system = PureSSD(make_dataset(32))
        system.ingest()
        assert len(system.ssd._footprint) == 32

    def test_read_faster_than_write(self):
        system = PureSSD(make_dataset(16))
        write = system.write(0, [make_block()])
        read, _ = system.read(0)
        assert read < write


class TestRAID0Storage:
    def test_content_roundtrip(self, rng):
        system = RAID0Storage(make_dataset(64))
        write_read_roundtrip(system, rng)

    def test_has_no_ssd(self):
        system = RAID0Storage(make_dataset(16))
        system.write(0, [make_block()])
        assert system.ssd_write_ops == 0

    def test_exposes_member_spindles(self):
        system = RAID0Storage(make_dataset(16))
        assert len(list(system.devices())) == 4


class TestLRUCacheStorage:
    def make(self, n_blocks=64, cache_blocks=8):
        return LRUCacheStorage(make_dataset(n_blocks),
                               cache_blocks=cache_blocks)

    def test_content_roundtrip(self, rng):
        write_read_roundtrip(self.make(), rng)

    def test_read_miss_then_hit(self):
        system = self.make()
        miss, _ = system.read(3)
        hit, _ = system.read(3)
        assert hit < miss
        assert system.cache_hits == 1
        assert system.cache_misses == 1

    def test_miss_fill_writes_ssd(self):
        """Every miss populates the cache — the SSD-write churn of
        Table 6."""
        system = self.make()
        system.read(0)
        assert system.ssd_write_ops == 1

    def test_lru_eviction_order(self):
        system = self.make(cache_blocks=2)
        system.read(0)
        system.read(1)
        system.read(0)   # 1 is now LRU
        system.read(2)   # evicts 1
        assert system.evictions == 1
        system.read(0)   # still cached
        assert system.cache_hits == 2

    def test_dirty_eviction_destages_in_background(self):
        system = self.make(cache_blocks=1)
        system.write(0, [make_block(1)])
        system.read(1)  # evicts dirty block 0
        assert system.destages == 1
        assert system.background_time > 0
        assert system.hdd.write_ops == 1

    def test_flush_destages_all_dirty(self):
        system = self.make(cache_blocks=4)
        system.write(0, [make_block(1)])
        system.write(1, [make_block(2)])
        latency = system.flush()
        assert latency > 0
        assert system.flush_destages == 2

    def test_hit_ratio(self):
        system = self.make()
        system.read(0)
        system.read(0)
        assert (system.cache_hits, system.cache_misses) == (1, 1)

    def test_cache_size_validated(self):
        with pytest.raises(ValueError):
            LRUCacheStorage(make_dataset(8), cache_blocks=0)


class TestDedupCacheStorage:
    def make(self, n_blocks=64, cache_blocks=8):
        return DedupCacheStorage(make_dataset(n_blocks),
                                 cache_blocks=cache_blocks)

    def test_content_roundtrip(self, rng):
        write_read_roundtrip(self.make(), rng)

    def test_identical_blocks_share_one_slot(self):
        system = self.make()
        same = make_block(0x42)
        system.write(0, [same])
        system.write(1, [same.copy()])
        system.write(2, [same.copy()])
        assert system.dedup_hits == 2
        # Logical cached blocks per physical SSD copy.
        assert len(system._lba_hash) / len(system._chunks) == 3.0
        # Three logical blocks, one physical SSD copy.
        assert system.unique_inserts == 1

    def test_dedup_extends_effective_capacity(self):
        """More logical blocks stay cached than the SSD has slots."""
        system = self.make(cache_blocks=4)
        same = make_block(7)
        for lba in range(8):
            system.write(lba, [same.copy()])
        hits = system.cache_hits
        for lba in range(8):
            system.read(lba)
        assert system.cache_hits - hits == 8

    def test_cow_counted_on_shared_block_write(self):
        system = self.make()
        same = make_block(9)
        system.write(0, [same])
        system.write(1, [same.copy()])
        system.write(1, [make_block(10)])  # breaks sharing
        assert system.shared_block_cow == 1

    def test_refcount_drops_free_slots(self):
        system = self.make(cache_blocks=4)
        same = make_block(1)
        system.write(0, [same])
        system.write(1, [same.copy()])
        # Rewriting both with distinct content releases the shared chunk.
        system.write(0, [make_block(2)])
        system.write(1, [make_block(3)])
        assert len(system._chunks) == 2

    def test_hashing_costs_cpu(self):
        system = self.make()
        assert system.cpu_time == 0.0
        system.write(0, [make_block()])
        assert system.cpu_time > 0.0

    def test_eviction_destages_dirty(self):
        system = self.make(cache_blocks=1)
        system.write(0, [make_block(1)])
        system.write(1, [make_block(2)])
        assert system.destages == 1
        assert system.background_time > 0

    def test_reads_return_the_stored_block_read_only(self):
        """A read, hit or miss, hands back the stored block itself, as
        the other systems do: never a private writeable copy."""
        from repro.workloads.tpcc import TPCCWorkload

        workload = TPCCWorkload(scale=0.05, n_requests=400, seed=3)
        system = DedupCacheStorage(workload.build_dataset(),
                                   cache_blocks=16)
        for request in workload.requests():
            if request.is_write:
                system.write(request.lba, request.payload)
                continue
            _, contents = system.read(request.lba, request.nblocks)
            for offset, content in enumerate(contents):
                assert not content.flags.writeable
                assert np.array_equal(
                    content, workload.shadow[request.lba + offset])
        assert system.cache_hits > 0 and system.cache_misses > 0


class TestCommonInterface:
    @pytest.mark.parametrize("factory", [
        lambda ds: PureSSD(ds),
        lambda ds: RAID0Storage(ds),
        lambda ds: LRUCacheStorage(ds, cache_blocks=8),
        lambda ds: DedupCacheStorage(ds, cache_blocks=8),
    ])
    def test_process_records_latency_classes(self, factory):
        from repro.sim.request import make_read, make_write
        from repro.sim.trace import BEGIN_REQUEST, Recorder
        system = factory(make_dataset(32))
        recorder = Recorder(keep=True)
        system.set_tracer(recorder)
        classes = []
        for request in (make_read(0), make_write(1, [make_block()])):
            assert system.process(request) > 0.0
            classes.extend(outcome for _fg, op, *_rest, outcome, _dev
                           in recorder.take_request()[1]
                           if op == BEGIN_REQUEST)
        assert classes == ["read", "write"]

    @pytest.mark.parametrize("factory", [
        lambda ds: PureSSD(ds),
        lambda ds: RAID0Storage(ds),
        lambda ds: LRUCacheStorage(ds, cache_blocks=8),
        lambda ds: DedupCacheStorage(ds, cache_blocks=8),
    ])
    def test_span_validation(self, factory):
        system = factory(make_dataset(32))
        with pytest.raises(ValueError):
            system.read(32)
        with pytest.raises(ValueError):
            system.write(31, [make_block(), make_block()])
