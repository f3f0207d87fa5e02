"""Direct tests of the circular-log wrap path at controller level.

A long-running element eventually wraps its delta log; the overwritten
blocks' still-current records must be rescued (re-appended) or content
would silently vanish.  These tests force wraps with a deliberately tiny
log region and verify both the rescue accounting and — the part that
matters — byte-exact content throughout.
"""

import numpy as np
import pytest

from repro.core import ICASHController
from repro.core.recovery import recover

from test_core_controller import family_dataset, small_config


def wrapping_controller(log_blocks: int = 48) -> ICASHController:
    """A log larger than the live-delta footprint (its durable home must
    hold every current delta) but small enough that runtime flushes wrap
    it repeatedly."""
    return ICASHController(
        family_dataset(),
        small_config(log_blocks=log_blocks, flush_interval=40,
                     flush_dirty_count=8, delta_ram_bytes=16 * 1024))


class TestLogWrapRescue:
    def test_content_survives_many_wraps(self, rng):
        controller = wrapping_controller()
        controller.ingest()
        shadow = {lba: controller.backing.get(lba) for lba in range(256)}
        for i in range(1200):
            lba = int(rng.integers(0, 256))
            if rng.random() < 0.5:
                content = shadow[lba].copy()
                content[0:40] = rng.integers(0, 256, 40)
                shadow[lba] = content
                controller.write(lba, [content])
            else:
                _, (out,) = controller.read(lba)
                assert np.array_equal(out, shadow[lba]), \
                    f"lba {lba} corrupted after wraps (op {i})"
        # The log must actually have wrapped for this test to mean much.
        assert controller.log.blocks_written > controller.log.size_blocks

    def test_wrap_never_rescues_a_record_its_append_superseded(self):
        """A wrapping append can put a block's new record in the very slot
        its old record is displaced from.  The map then names that slot,
        and the old record must not be re-appended as if it were current:
        it used to be, and the next log fetch of the block (op 2835, lba
        85) served the stale bytes."""
        controller = wrapping_controller(log_blocks=512)
        controller.ingest()
        rng = np.random.default_rng(5)
        shadow = {lba: controller.backing.get(lba) for lba in range(256)}
        for i in range(3000):
            lba = int(rng.integers(0, 256))
            if rng.random() < 0.5:
                changed = 40 * int(rng.integers(1, 4)) ** 3
                content = shadow[lba].copy()
                content[:changed] = rng.integers(0, 256, changed)
                shadow[lba] = content
                controller.write(lba, [content])
            else:
                _, (out,) = controller.read(lba)
                assert np.array_equal(out, shadow[lba]), \
                    f"lba {lba} stale after a wrap (op {i})"
        assert controller.log.wrap_count > 0
        controller.check_invariants()

    def test_rescued_records_counted(self, rng):
        controller = wrapping_controller(log_blocks=40)
        controller.ingest()
        for _ in range(800):
            lba = int(rng.integers(0, 256))
            content = controller.backing.get(lba)
            content[0:40] = rng.integers(0, 256, 40)
            controller.write(lba, [content])
        assert controller.stats.count("log_rescued_records") > 0

    def test_recovery_correct_after_wraps(self, rng):
        controller = wrapping_controller()
        controller.ingest()
        shadow = {lba: controller.backing.get(lba) for lba in range(256)}
        for _ in range(900):
            lba = int(rng.integers(0, 256))
            content = shadow[lba].copy()
            content[10:60] = rng.integers(0, 256, 50)
            shadow[lba] = content
            controller.write(lba, [content])
        controller.flush()
        image = recover(controller)
        for lba in range(0, 256, 3):
            assert np.array_equal(image.read(lba), shadow[lba]), lba

    def test_pathologically_small_log_raises_clearly(self, rng):
        """A log too small to hold one flush's worth of current deltas
        must fail loudly, not corrupt silently."""
        controller = ICASHController(
            family_dataset(),
            small_config(log_blocks=2, flush_interval=10_000,
                         flush_dirty_count=10_000))
        controller.ingest()  # 8000+ deltas cannot fit 2 log blocks
        mapped = list(controller.delta_map_snapshot())[:120]
        with pytest.raises(RuntimeError, match="delta log too small"):
            for lba in mapped:
                content = controller.backing.get(lba)
                content[0:30] = rng.integers(0, 256, 30)
                controller.write(lba, [content])
            controller.flush()
