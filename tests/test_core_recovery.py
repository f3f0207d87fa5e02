"""Crash-recovery tests (paper Section 3.3).

Two guarantees are exercised: recovery is byte-exact for everything that
reached durable media (after a flush), and unflushed writes lose at most
the window since the last flush — never older durable state.
"""

import numpy as np

from repro.core import ICASHController
from repro.core.recovery import recover, verify_recovery
from repro.experiments.parallel import RunSpec
from repro.sim.request import BLOCK_SIZE

from test_core_controller import family_dataset, small_config


def run_mixed_workload(controller, shadow, n_ops=800, seed=11,
                       write_fraction=0.4):
    gen = np.random.default_rng(seed)
    for _ in range(n_ops):
        lba = int(gen.integers(0, shadow.shape[0]))
        if gen.random() < write_fraction:
            content = shadow[lba].copy()
            span = int(gen.integers(1, 150))
            start = int(gen.integers(0, BLOCK_SIZE - span))
            content[start:start + span] = gen.integers(0, 256, span)
            shadow[lba] = content
            controller.write(lba, [content])
        else:
            controller.read(lba)


class TestExactRecoveryAfterFlush:
    def test_every_block_recovers(self):
        dataset = family_dataset()
        shadow = dataset.copy()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        run_mixed_workload(controller, shadow)
        controller.flush()
        image = recover(controller)
        for lba in range(shadow.shape[0]):
            assert np.array_equal(image.read(lba), shadow[lba]), \
                f"block {lba} recovered wrong"

    def test_verify_recovery_helper(self):
        dataset = family_dataset()
        shadow = dataset.copy()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        run_mixed_workload(controller, shadow, n_ops=300)
        controller.flush()
        expected = {lba: shadow[lba] for lba in range(0, 256, 16)}
        outcome = verify_recovery(controller, expected)
        assert all(outcome.values())

    def test_recovery_with_tiny_delta_pool(self):
        """Evicted deltas must recover through the log."""
        dataset = family_dataset()
        shadow = dataset.copy()
        controller = ICASHController(
            dataset, small_config(delta_ram_bytes=8 * 1024))
        controller.ingest()
        run_mixed_workload(controller, shadow, n_ops=600)
        controller.flush()
        image = recover(controller)
        for lba in range(0, 256, 3):
            assert np.array_equal(image.read(lba), shadow[lba])


class TestLossWindow:
    def test_unflushed_write_may_lose_only_recent_data(self):
        dataset = family_dataset()
        controller = ICASHController(
            dataset, small_config(flush_interval=10_000))
        controller.ingest()
        controller.flush()
        lba = next(iter(controller.delta_map_snapshot()))
        durable = recover(controller).read(lba)
        # One unflushed small write...
        newer = durable.copy()
        newer[0:20] = 0xEE
        controller.write(lba, [newer])
        recovered = recover(controller).read(lba)
        # ...recovers to *some* prior durable version, never garbage:
        assert (np.array_equal(recovered, durable)
                or np.array_equal(recovered, newer))

    def test_flush_closes_the_window(self):
        dataset = family_dataset()
        controller = ICASHController(
            dataset, small_config(flush_interval=10_000))
        controller.ingest()
        lba = next(iter(controller.delta_map_snapshot()))
        newer = recover(controller).read(lba)
        newer[0:20] = 0xEE
        controller.write(lba, [newer])
        controller.flush()
        assert np.array_equal(recover(controller).read(lba), newer)

    def test_rare_flushes_lose_more_on_a_crash(self):
        """Section 3.3's reliability knob: crashing without a final
        flush, a 4 096-I/O flush interval loses at least as many blocks
        as a 64-I/O one (162 vs 0 on SysBench at seed 2011)."""
        lost = {}
        for interval in (64, 4096):
            spec = RunSpec("sysbench", n_requests=1500, config_overrides=(
                ("flush_interval", interval),
                ("flush_dirty_count", 10 ** 9)))  # interval is the knob
            workload = spec.build_workload()
            controller = spec.build_system(workload)
            controller.ingest()
            for request in workload.requests():
                controller.process(request)
            image = recover(controller)
            lost[interval] = sum(
                1 for lba in range(workload.n_blocks)
                if not np.array_equal(image.read(lba),
                                      workload.shadow[lba]))
        assert lost[4096] >= lost[64]


class TestStaleRecordFiltering:
    def test_spilled_block_ignores_old_log_records(self, rng):
        """A block that logged a delta and was later spilled must recover
        from its SSD copy, not the stale log record."""
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        lba = next(iter(controller.delta_map_snapshot()))
        small = dataset[lba].copy()
        small[0:30] = 1
        controller.write(lba, [small])
        controller.flush()  # delta for `small` is in the log
        full = rng.integers(0, 256, BLOCK_SIZE, dtype=np.uint8)
        controller.write(lba, [full])  # spills to SSD
        assert lba in controller.spilled_lbas
        assert np.array_equal(recover(controller).read(lba), full)

    def test_logged_blocks_counter(self):
        dataset = family_dataset()
        controller = ICASHController(dataset, small_config())
        controller.ingest()
        image = recover(controller)
        assert image.logged_blocks > 0
