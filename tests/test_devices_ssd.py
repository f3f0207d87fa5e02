"""Unit tests for the NAND SSD model: FTL, GC, wear, footprint penalty."""

import numpy as np
import pytest

from repro.devices.ssd import FlashSSD, SSDSpec
from repro.sim.request import BLOCK_SIZE


def small_ssd(capacity_blocks: int = 256, **spec_kwargs) -> FlashSSD:
    spec = SSDSpec(pages_per_block=8, **spec_kwargs)
    return FlashSSD(capacity_blocks, spec)


class TestBasicTiming:
    def test_read_latency_small_footprint(self):
        ssd = small_ssd()
        latency = ssd.read(0, 1)
        assert latency == pytest.approx(
            ssd.spec.read_base_s, rel=0.5)

    def test_footprint_penalty_grows(self):
        spec = SSDSpec(pages_per_block=8, footprint_knee_blocks=100)
        ssd = FlashSSD(256, spec)
        first = ssd.read(0, 1)
        for lba in range(100):
            ssd.read(lba, 1)
        late = ssd.read(0, 1)
        assert late > first
        assert late == pytest.approx(
            spec.read_base_s + spec.read_footprint_penalty_s)

    def test_multiblock_read_pipelines(self):
        ssd = small_ssd()
        one = FlashSSD(256, SSDSpec(pages_per_block=8)).read(0, 1)
        eight = ssd.read(0, 8)
        assert eight < 8 * one

    def test_write_is_slower_than_read(self):
        ssd = small_ssd()
        write = ssd.write(0, 1)
        read = ssd.read(0, 1)
        assert write > read

    def test_trim_does_not_advance_busy_time(self):
        ssd = small_ssd()
        ssd.write(0, 1)
        busy = ssd.busy_time
        ssd.trim(0, 1)
        assert ssd.busy_time == busy
        assert ssd.trim_ops == 1


class TestFTL:
    def test_overwrite_invalidates_old_page(self):
        ssd = small_ssd()
        for _ in range(5):
            ssd.write(7, 1)
        # One valid mapping only (the valid counts agree with the page
        # owners); the rest are stale pages awaiting GC.
        ssd.check_invariants()
        assert ssd.mapped_lbas() == [7]

    def test_mapping_unique_per_lba(self):
        ssd = small_ssd()
        for lba in range(64):
            ssd.write(lba, 1)
        for lba in range(0, 64, 2):
            ssd.write(lba, 1)
        # l2p and the page owners are inverses: no page holds two lbas.
        ssd.check_invariants()
        assert ssd.mapped_lbas() == list(range(64))

    def test_trim_frees_mapping(self):
        ssd = small_ssd()
        ssd.write(3, 1)
        ssd.trim(3, 1)
        ssd.check_invariants()
        assert ssd.mapped_lbas() == []


class TestGarbageCollection:
    def test_gc_triggers_under_overwrite_pressure(self):
        ssd = small_ssd(capacity_blocks=128, overprovision=0.15)
        # Fill the device, then overwrite it repeatedly.
        for _round_ in range(6):
            for lba in range(128):
                ssd.write(lba, 1)
        assert ssd.gc_erases > 0
        assert ssd.total_erases > 0

    def test_gc_never_loses_mappings(self):
        ssd = small_ssd(capacity_blocks=128, overprovision=0.15)
        for _round_ in range(8):
            for lba in range(128):
                ssd.write(lba, 1)
        assert ssd.total_erases > 0
        ssd.check_invariants()
        assert ssd.mapped_lbas() == list(range(128))

    def test_write_amplification_at_least_one(self):
        ssd = small_ssd(capacity_blocks=128, overprovision=0.15)
        assert ssd.write_amplification == 1.0
        for _round_ in range(8):
            for lba in range(128):
                ssd.write(lba, 1)
        assert ssd.write_amplification >= 1.0

    def test_gc_latency_charged_to_triggering_write(self):
        ssd = small_ssd(capacity_blocks=128, overprovision=0.15)
        latencies = []
        for _round_ in range(8):
            latencies.extend(ssd.write(lba, 1) for lba in range(128))
        # Some writes stalled behind at least one erase.
        assert max(latencies) >= ssd.spec.erase_s

    def test_sequential_overwrites_have_low_amplification(self):
        # Purely sequential overwrite leaves victims fully invalid, so GC
        # relocates (almost) nothing.
        ssd = small_ssd(capacity_blocks=128, overprovision=0.15)
        for _round_ in range(10):
            for lba in range(128):
                ssd.write(lba, 1)
        assert ssd.write_amplification < 1.3


class TestWearLeveling:
    def test_erase_counts_reported_per_block(self):
        ssd = small_ssd(capacity_blocks=64, overprovision=0.2)
        for _round_ in range(10):
            for lba in range(64):
                ssd.write(lba, 1)
        counts = ssd.erase_counts()
        # 8 logical erase blocks, 20 % spare, plus two: 12 physical.
        assert len(counts) == 12
        assert sum(counts) == ssd.total_erases

    def test_wear_spread_stays_bounded(self):
        # Static wear leveling should keep max-min spread near wear_delta.
        ssd = small_ssd(capacity_blocks=64, overprovision=0.2, wear_delta=4)
        for _round_ in range(60):
            for lba in range(64):
                ssd.write(lba, 1)
        counts = [c for c in ssd.erase_counts()]
        assert max(counts) - min(counts) <= 4 * ssd.spec.wear_delta

    def test_footprint_counts_distinct_blocks(self):
        ssd = small_ssd()
        for _ in range(10):
            ssd.read(5, 1)
        assert ssd.footprint_blocks == 1
        ssd.read(6, 1)
        assert ssd.footprint_blocks == 2
        ssd.trim(6, 1)
        assert ssd.footprint_blocks == 1


class TestInvariants:
    """``check_invariants`` names the invariant each hand-made break
    violates, and every storage system runs it on its SSDs."""

    @staticmethod
    def collected_ssd() -> FlashSSD:
        ssd = small_ssd(capacity_blocks=64, overprovision=0.2)
        for _round_ in range(4):
            for lba in range(64):
                ssd.write(lba, 1)
        for lba in range(0, 64, 3):
            ssd.trim(lba, 1)
        assert ssd.total_erases > 0
        ssd.check_invariants()
        return ssd

    @staticmethod
    def in_use_block(ssd: FlashSSD) -> int:
        """A block that is neither free nor active and holds a valid page."""
        return next(block for block, free in enumerate(ssd._is_free)
                    if not free and block != ssd._active
                    and ssd._valid[block])

    def test_l2p_and_owner_are_inverses(self):
        ssd = self.collected_ssd()
        ssd._l2p[1], ssd._l2p[2] = ssd._l2p[2], ssd._l2p[1]
        with pytest.raises(AssertionError, match=r"\(a\) l2p and owner"):
            ssd.check_invariants()

    def test_valid_count_is_the_owner_census(self):
        ssd = self.collected_ssd()
        ssd._valid[self.in_use_block(ssd)] -= 1
        with pytest.raises(AssertionError, match=r"\(b\) a valid count"):
            ssd.check_invariants()

    def test_free_deque_matches_the_mask(self):
        ssd = self.collected_ssd()
        ssd._is_free[self.in_use_block(ssd)] = True
        with pytest.raises(AssertionError, match=r"\(c\) the free deque"):
            ssd.check_invariants()

    def test_no_free_block_holds_a_valid_page(self):
        ssd = self.collected_ssd()
        block = self.in_use_block(ssd)
        ssd._free.append(block)
        ssd._is_free[block] = True
        with pytest.raises(AssertionError, match=r"\(c\) a free block"):
            ssd.check_invariants()

    def test_free_active_and_in_use_partition_the_blocks(self):
        ssd = small_ssd()
        ssd._free.append(ssd._active)  # still empty: only (d) breaks
        ssd._is_free[ssd._active] = True
        with pytest.raises(AssertionError, match=r"\(d\) the active block"):
            ssd.check_invariants()

    def test_no_page_past_the_write_pointer_has_an_owner(self):
        ssd = small_ssd()
        ssd.write(5, 1)
        ssd._wp -= 1
        with pytest.raises(AssertionError, match=r"\(e\) a page past"):
            ssd.check_invariants()

    def test_storage_systems_check_their_ssd(self):
        from repro.baselines.pure_ssd import PureSSD
        from repro.core import ICASHConfig, ICASHController

        data = np.zeros((64, BLOCK_SIZE), dtype=np.uint8)
        systems = (PureSSD(data), ICASHController(data, ICASHConfig(
            ssd_capacity_blocks=16, log_blocks=64,
            max_virtual_blocks=64)))
        for system in systems:
            system.ingest()
            system.check_invariants()
            system.ssd._valid[system.ssd._active] += 1
            with pytest.raises(AssertionError, match="ssd FTL: \\(b\\)"):
                system.check_invariants()


class TestBounds:
    def test_span_checked(self):
        ssd = small_ssd(capacity_blocks=16)
        with pytest.raises(ValueError):
            ssd.read(16, 1)
        with pytest.raises(ValueError):
            ssd.write(15, 2)
