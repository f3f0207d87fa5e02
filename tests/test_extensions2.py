"""Tests for the second wave of extensions: flush-order policy, sibling
hydration revival and the controller status report."""

import numpy as np
import pytest

from repro.core import ICASHConfig, ICASHController

from test_core_controller import family_dataset, small_config


class TestFlushOrder:
    def test_invalid_order_rejected(self):
        with pytest.raises(ValueError, match="flush_order"):
            ICASHConfig(flush_order="random")

    @pytest.mark.parametrize("order", ["arrival", "lba"])
    def test_both_orders_preserve_content(self, order, rng):
        dataset = family_dataset()
        controller = ICASHController(
            dataset, small_config(flush_order=order))
        controller.ingest()
        shadow = dataset.copy()
        for _ in range(400):
            lba = int(rng.integers(0, 256))
            content = shadow[lba].copy()
            content[0:48] = rng.integers(0, 256, 48)
            shadow[lba] = content
            controller.write(lba, [content])
        controller.flush()
        for lba in range(0, 256, 5):
            _, (out,) = controller.read(lba)
            assert np.array_equal(out, shadow[lba])

    def test_arrival_order_groups_write_bursts(self):
        """Deltas written back-to-back land in the same delta block
        under arrival order, even at scattered addresses."""
        dataset = family_dataset()
        controller = ICASHController(
            dataset, small_config(flush_order="arrival"))
        controller.ingest()
        mapped = list(controller.delta_map_snapshot())[:6]
        scattered = [mapped[i] for i in (5, 0, 3, 1, 4, 2)]
        for lba in scattered:
            content = controller.backing.get(lba)
            content[0:20] = 7
            controller.write(lba, [content])
        logged_before = controller.log.blocks_written
        controller.flush()
        new_blocks = controller.log.blocks_written - logged_before
        # Six small deltas share one (maybe two) packed blocks.
        assert new_blocks <= 2
        slot = controller.delta_map_snapshot()[scattered[0]][1]
        packed_lbas = {r.lba for r in controller.log.peek_block(slot)}
        assert set(scattered[:4]) & packed_lbas  # burst co-packed


class TestHydrationRevival:
    def test_log_fetch_revives_sibling_metadata(self):
        """One mechanical log read makes its co-packed deltas servable
        from RAM — §3.1's 'one HDD operation yields many I/Os'."""
        dataset = family_dataset()
        controller = ICASHController(
            dataset, small_config(delta_ram_bytes=8 * 1024))
        controller.ingest()
        evicted = [lba for lba in controller.delta_map_snapshot()
                   if lba not in controller.cache]
        assert evicted, "tiny pool must leave some deltas log-only"
        controller.read(evicted[0])
        hydrated = controller.delta_hydrations
        assert hydrated >= 1
        # A hydrated sibling now reads without another HDD access.
        siblings = [lba for lba in evicted[1:]
                    if lba in controller.cache
                    and controller.cache.get(lba, touch=False).has_delta]
        if siblings:
            hdd_reads = controller.hdd.read_ops
            controller.read(siblings[0])
            assert controller.hdd.read_ops == hdd_reads


class TestDescribe:
    def test_report_covers_the_essentials(self):
        controller = ICASHController(family_dataset(), small_config())
        controller.ingest()
        text = controller.describe()
        for needle in ("block population", "reference", "associate",
                       "delta pool", "ssd", "log", "dirty deltas",
                       "write amplification"):
            assert needle in text

    def test_report_shows_nvram_medium(self):
        controller = ICASHController(
            family_dataset(), small_config(log_on_nvram=True))
        assert "nvram" in controller.describe()
