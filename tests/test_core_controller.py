"""Integration-grade unit tests for the I-CASH controller.

The central invariant throughout: whatever was written must read back
byte-identical, no matter which internal representation (RAM data block,
reference + delta, SSD spill, HDD region, delta log) currently holds it.
"""

import numpy as np
import pytest

from repro.core import BlockKind, ICASHConfig, ICASHController
from repro.core.signatures import block_signatures
from repro.experiments.parallel import RunSpec, run_spec
from repro.experiments.runner import run_benchmark
from repro.sim.request import BLOCK_SIZE

from conftest import make_dataset


def small_config(**overrides) -> ICASHConfig:
    defaults = dict(
        ssd_capacity_blocks=64,
        data_ram_bytes=32 * BLOCK_SIZE,
        delta_ram_bytes=64 * 1024,
        max_virtual_blocks=512,
        log_blocks=512,
        scan_interval=100,
        scan_window=256,
        flush_interval=128,
    )
    defaults.update(overrides)
    return ICASHConfig(**defaults)


@pytest.fixture
def controller() -> ICASHController:
    return ICASHController(make_dataset(256), small_config())


def family_dataset(n_blocks: int = 256, n_families: int = 8,
                   seed: int = 3) -> np.ndarray:
    gen = np.random.default_rng(seed)
    bases = gen.integers(0, 256, (n_families, BLOCK_SIZE), dtype=np.uint8)
    dataset = bases[gen.integers(0, n_families, n_blocks)].copy()
    for lba in range(n_blocks):
        idx = gen.integers(0, BLOCK_SIZE, 16)
        dataset[lba, idx] = gen.integers(0, 256, 16)
    return dataset


class TestReadPath:
    def test_cold_read_returns_initial_content(self, controller):
        dataset = controller.backing
        latency, (content,) = controller.read(10)
        assert np.array_equal(content, dataset.get(10))
        assert latency > 0
        assert controller.hdd_data_reads == 1

    def test_second_read_hits_ram(self, controller):
        controller.read(10)
        before = controller.hdd.read_ops
        controller.read(10)
        assert controller.hdd.read_ops == before
        assert controller.ram_data_hits == 1

    def test_multiblock_read(self, controller):
        latency, contents = controller.read(4, 3)
        assert len(contents) == 3
        for offset, content in enumerate(contents):
            assert np.array_equal(content, controller.backing.get(4 + offset))

    def test_bounds_checked(self, controller):
        with pytest.raises(ValueError):
            controller.read(256)


class TestWritePath:
    def test_write_then_read_roundtrip(self, controller, rng):
        content = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        controller.write(7, [content])
        _, (out,) = controller.read(7)
        assert np.array_equal(out, content)

    def test_write_latency_is_microseconds(self, controller, rng):
        """The headline: I-CASH writes are RAM-speed, not device-speed."""
        content = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        latency = controller.write(7, [content])
        assert latency < 100e-6

    def test_overwrites_visible_in_order(self, controller, rng):
        for fill in (1, 2, 3):
            block = np.full(BLOCK_SIZE, fill, dtype=np.uint8)
            controller.write(3, [block])
        _, (out,) = controller.read(3)
        assert (out == 3).all()


class TestDeltaMachinery:
    def test_ingest_builds_reference_structure(self):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        counts = controller.block_kind_counts()
        assert counts["reference"] >= 8
        assert counts["associate"] > counts["reference"]
        assert controller.ingest_deltas > 0

    def test_ingest_preserves_all_content(self):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        for lba in range(0, 256, 7):
            _, (content,) = controller.read(lba)
            assert np.array_equal(content, dataset[lba]), f"lba {lba}"

    def test_associate_write_produces_delta_not_ssd_write(self):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        ssd_writes = controller.ssd.write_ops
        # Find an associate and write a small change to it.
        lba = next(iter(controller.delta_map_snapshot()))
        content = dataset[lba].copy()
        content[0:40] = 0
        controller.write(lba, [content])
        assert controller.delta_writes == 1
        assert controller.ssd.write_ops == ssd_writes
        _, (out,) = controller.read(lba)
        assert np.array_equal(out, content)

    def test_large_delta_spills_to_ssd(self, rng):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        lba = next(iter(controller.delta_map_snapshot()))
        # Rewrite the block entirely: delta exceeds the 2048 B threshold.
        content = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        controller.write(lba, [content])
        assert controller.delta_spills == 1
        assert lba in controller.spilled_lbas
        _, (out,) = controller.read(lba)
        assert np.array_equal(out, content)

    def test_spilled_block_write_through_hits_ssd(self, rng):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        lba = next(iter(controller.delta_map_snapshot()))
        controller.write(lba, [rng.integers(0, 256, BLOCK_SIZE,
                                            dtype=np.uint8)])
        ssd_writes = controller.ssd.write_ops
        newer = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        controller.write(lba, [newer])
        assert controller.ssd.write_ops == ssd_writes + 1
        assert controller.spilled_write_through == 1
        _, (out,) = controller.read(lba)
        assert np.array_equal(out, newer)

    def test_reference_write_keeps_frozen_copy(self, rng):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        ref_lba = next(iter(controller.reference_lbas))
        frozen = controller.ssd_content_snapshot()[ref_lba].copy()
        content = dataset[ref_lba].copy()
        content[100:140] = 0
        controller.write(ref_lba, [content])
        assert controller.reference_delta_writes == 1
        # The SSD copy is untouched; reads combine it with the delta.
        assert np.array_equal(controller.ssd_content_snapshot()[ref_lba],
                              frozen)
        _, (out,) = controller.read(ref_lba)
        assert np.array_equal(out, content)

    def test_reference_write_reverting_drops_delta(self):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        ref_lba = next(iter(controller.reference_lbas))
        original = dataset[ref_lba].copy()
        changed = original.copy()
        changed[0:20] = 0
        controller.write(ref_lba, [changed])
        controller.write(ref_lba, [original])  # revert
        vb = controller.cache.get(ref_lba, touch=False)
        assert not vb.has_delta


class TestRetiredReferenceKeepsItsContent:
    """A retired reference is served from the HDD region afterwards, so
    whatever only its SSD copy held must be written back first."""

    @staticmethod
    def _reference_with_dependents(controller):
        return next(lba for lba in sorted(controller.reference_lbas)
                    if controller._dependents_of(lba) > 0)

    @staticmethod
    def _detach_dependents(controller, ref_lba, rng):
        for lba, (mapped_ref, _slot) in \
                controller.delta_map_snapshot().items():
            if mapped_ref == ref_lba:
                controller.write(lba, [rng.integers(
                    0, 256, BLOCK_SIZE, dtype=np.uint8)])
        assert controller._dependents_of(ref_lba) == 0

    def test_refreshed_in_place_then_retired(self, rng):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        ref_lba = self._reference_with_dependents(controller)
        self._detach_dependents(controller, ref_lba, rng)
        fresh = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        controller.write(ref_lba, [fresh])
        assert controller.reference_refreshes == 1
        hdd_writes = controller.hdd.write_ops
        controller._retire_cold_references(controller.capacity_blocks)
        assert ref_lba not in controller.reference_lbas
        assert controller.hdd.write_ops == hdd_writes + 1
        _, (out,) = controller.read(ref_lba)
        assert np.array_equal(out, fresh)

    def test_never_refreshed_retires_without_hdd_write(self, rng):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        ref_lba = self._reference_with_dependents(controller)
        original = controller.ssd_block_content(ref_lba).copy()
        self._detach_dependents(controller, ref_lba, rng)
        hdd_writes = controller.hdd.write_ops
        controller._retire_cold_references(controller.capacity_blocks)
        assert ref_lba not in controller.reference_lbas
        assert controller.hdd.write_ops == hdd_writes
        _, (out,) = controller.read(ref_lba)
        assert np.array_equal(out, original)

    def test_shadowed_then_reverted_then_retired(self, rng):
        """Shadowed content reaches the HDD on a flush; a write that
        reverts to the frozen copy makes the SSD current again."""
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        ref_lba = self._reference_with_dependents(controller)
        frozen = controller.ssd_block_content(ref_lba).copy()
        controller.write(ref_lba, [rng.integers(
            0, 256, BLOCK_SIZE, dtype=np.uint8)])
        assert ref_lba in controller.shadowed_reference_lbas
        controller.flush()
        controller.write(ref_lba, [frozen])
        assert ref_lba not in controller.shadowed_reference_lbas
        self._detach_dependents(controller, ref_lba, rng)
        controller._retire_cold_references(controller.capacity_blocks)
        assert ref_lba not in controller.reference_lbas
        _, (out,) = controller.read(ref_lba)
        assert np.array_equal(out, frozen)


class TestFlushAndEviction:
    def test_flush_logs_dirty_deltas(self):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        lba = next(iter(controller.delta_map_snapshot()))
        content = dataset[lba].copy()
        content[0:30] = 0
        controller.write(lba, [content])
        logged_before = controller.log.blocks_written
        controller.flush()
        assert controller.log.blocks_written > logged_before
        entry = controller.delta_map_snapshot()[lba]
        assert entry[1] is not None  # log slot assigned

    def test_content_survives_delta_eviction(self, rng):
        """Delta replacement drops the virtual block but the delta stays
        reachable through the log — reads must still reconstruct."""
        config = small_config(delta_ram_bytes=8 * 1024)  # tiny pool
        dataset = family_dataset()
        controller = ICASHController(dataset, config)
        controller.ingest()
        # Write small deltas to many blocks to thrash the pool.
        written = {}
        lbas = list(controller.delta_map_snapshot())[:60]
        for lba in lbas:
            content = dataset[lba].copy()
            content[8:48] = rng.integers(0, 256, 40)
            controller.write(lba, [content])
            written[lba] = content
        for lba, content in written.items():
            _, (out,) = controller.read(lba)
            assert np.array_equal(out, content), f"lba {lba}"

    def test_log_fetch_hydrates_siblings(self):
        dataset = family_dataset()
        # A pool too small to keep every ingested delta in RAM guarantees
        # some blocks are reachable only through the log.
        controller = ICASHController(
            dataset, small_config(delta_ram_bytes=8 * 1024))
        controller.ingest()
        # Evict every cached virtual block state by forcing a fresh
        # controller view: read a delta-mapped block not cached in RAM.
        mapped = [lba for lba in controller.delta_map_snapshot()
                  if lba not in controller.cache]
        if not mapped:
            pytest.skip("ingest cached every delta in RAM")
        controller.read(mapped[0])
        assert controller.log_delta_fetches >= 1


class TestSpillThreshold:
    def test_aggressive_spilling_costs_ssd_writes(self):
        """Section 5.3's 2 048-byte spill threshold: spilling every delta
        over 512 bytes writes the SSD more than the default does
        (SPEC-sfs, 2 606 vs 657 writes at seed 2011)."""
        writes = {
            threshold: run_spec(RunSpec(
                "specsfs", n_requests=1500, warmup_fraction=0.4,
                config_overrides=(
                    ("delta_spill_bytes", threshold),
                    ("delta_accept_bytes", min(threshold, 2048)))
            )).ssd_write_ops
            for threshold in (512, 2048)}
        assert writes[512] >= writes[2048]


class TestScanIntegration:
    def test_scan_promotes_and_associates_online(self, rng):
        """Without ingest, the periodic scan alone must discover the
        reference/associate structure."""
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        for _i in range(600):
            controller.read(int(rng.integers(0, 256)))
        counts = controller.block_kind_counts()
        assert controller.scans >= 5
        assert counts["reference"] >= 1
        assert counts["associate"] >= 1

    def test_frequent_scans_keep_coverage(self):
        """The scan interval, online only (no ingest): scanning every 250
        I/Os covers at least 80 % of what every 4 000 covers (805 vs 505
        blocks at seed 2011).  Below 4 000 requests after warmup the rare
        scan never runs, so the run is 6 000 requests long."""
        coverage = {}
        for interval in (250, 4000):
            spec = RunSpec("sysbench", n_requests=6000, config_overrides=(
                ("scan_interval", interval),))
            workload = spec.build_workload()
            controller = spec.build_system(workload)
            run_benchmark(workload, controller, preload=False,
                          warmup_fraction=0.4)
            counts = controller.block_kind_counts()
            coverage[interval] = counts["associate"] + counts["reference"]
        assert coverage[250] >= coverage[4000] * 0.8

    def test_block_kind_counts_cover_population(self):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        counts = controller.block_kind_counts()
        assert sum(counts.values()) >= 256 * 0.9


class TestReferenceStoreBudget:
    def test_throughput_saturates_past_a_tenth(self):
        """The paper's one-tenth rule: an SSD of 10 % of the data set
        gains at least what 2.5 % does, and 40 % gains little more."""
        workload = RunSpec("sysbench", n_requests=1500).build_workload()
        tps = {
            fraction: run_spec(RunSpec(
                "sysbench", n_requests=1500, warmup_fraction=0.4,
                config_overrides=(("ssd_capacity_blocks", max(
                    64, int(workload.n_blocks * fraction))),)
            )).transactions_per_s
            for fraction in (0.025, 0.10, 0.40)}
        assert tps[0.10] >= tps[0.025]
        gain_low = tps[0.10] - tps[0.025]
        gain_high = tps[0.40] - tps[0.10]
        assert gain_high <= max(gain_low, 0.15 * tps[0.10])


class TestRandomizedShadowComparison:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_mixed_workload_matches_shadow(self, seed):
        dataset = family_dataset(seed=seed)
        shadow = dataset.copy()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        gen = np.random.default_rng(seed)
        for i in range(1500):
            lba = int(gen.integers(0, 256))
            if gen.random() < 0.4:
                content = shadow[lba].copy()
                span = int(gen.integers(1, 200))
                start = int(gen.integers(0, BLOCK_SIZE - span))
                content[start:start + span] = gen.integers(0, 256, span)
                shadow[lba] = content
                controller.write(lba, [content])
            else:
                _, (out,) = controller.read(lba)
                assert np.array_equal(out, shadow[lba]), \
                    f"mismatch at lba {lba}, op {i}"
