"""Failure-injection tests: torn log blocks and corrupted replay, and
the Heatmap counting every access."""

import numpy as np
import pytest

from repro.core import ICASHController
from repro.core.recovery import recover
from repro.delta.packer import DeltaLog, DeltaRecord
from repro.delta.encoder import Delta
from repro.devices.hdd import HardDiskDrive

from test_core_controller import family_dataset, small_config


def delta_of(nbytes: int) -> Delta:
    return Delta(runs=((0, bytes(nbytes)),))


class TestTornLogBlocks:
    def make_log(self):
        hdd = HardDiskDrive(100_000)
        return DeltaLog(hdd, base_lba=50_000, size_blocks=64)

    def test_replay_skips_torn_block(self):
        log = self.make_log()
        _, slots_a, _ = log.append([DeltaRecord(1, 0, delta_of(3000))])
        _, slots_b, _ = log.append([DeltaRecord(2, 0, delta_of(3000))])
        log.corrupt_block(slots_a[0])
        survivors = [r.lba for r in log.replay()]
        assert survivors == [2]
        assert log.corrupt_blocks_skipped == 1

    def test_replay_with_all_blocks_torn(self):
        log = self.make_log()
        _, slots, _ = log.append([DeltaRecord(1, 0, delta_of(100))])
        log.corrupt_block(slots[0])
        assert list(log.replay()) == []
        assert log.corrupt_blocks_skipped == 1

    def test_corrupting_missing_slot_rejected(self):
        with pytest.raises(KeyError):
            self.make_log().corrupt_block(9)

    def test_wrap_over_torn_block_does_not_crash(self):
        hdd = HardDiskDrive(100_000)
        log = DeltaLog(hdd, base_lba=50_000, size_blocks=2)
        _, slots, _ = log.append([DeltaRecord(0, 0, delta_of(3000))])
        log.corrupt_block(slots[0])
        log.append([DeltaRecord(1, 0, delta_of(3000))])
        # Third append wraps onto the torn slot: must not raise.
        log.append([DeltaRecord(2, 0, delta_of(3000))])


class TestRecoveryUnderCorruption:
    def test_torn_block_degrades_to_older_state(self):
        """A torn delta block loses only its own deltas; every other
        block still recovers, and the lost ones fall back to durable
        (pre-write) content — never garbage."""
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        pristine = recover(controller)
        baseline = {lba: pristine.read(lba) for lba in range(256)}

        gen = np.random.default_rng(5)
        written = {}
        lbas = list(controller.delta_map_snapshot())[:30]
        for lba in lbas:
            content = baseline[lba].copy()
            content[0:40] = gen.integers(0, 256, 40)
            controller.write(lba, [content])
            written[lba] = content
        controller.flush()
        # Tear the most recently appended log block.
        victim_slot = (controller.log._next - 1) % controller.log.size_blocks
        controller.log.corrupt_block(victim_slot)

        image = recover(controller)
        assert image.corrupt_blocks_skipped >= 1
        for lba in range(256):
            recovered = image.read(lba)
            if lba in written:
                ok = (np.array_equal(recovered, written[lba])
                      or np.array_equal(recovered, baseline[lba]))
                assert ok, f"block {lba} recovered to garbage"
            else:
                assert np.array_equal(recovered, baseline[lba])


class TestHeatmapCounting:
    def test_every_read_is_counted(self):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        for lba in range(100):
            controller.read(lba)
        assert controller.heatmap.total_accesses == 100
