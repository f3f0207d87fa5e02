"""Recovery edge cases the baseline failure-injection tests miss:
power loss between a delta-log wrap and the next flush, corruption on
a reference block with live deltas, a double fault (HDD death during
SSD wear-out degraded mode), and determinism of full chaos runs."""

import numpy as np

from repro.core import ICASHController
from repro.core.recovery import recover
from repro.experiments import chaos
from repro.experiments.systems import make_system
from repro.sim.engine import EventEngine
from repro.sim.faults import (FaultInjector, FaultPlan, FaultSpec,
                              scrub_references)
from repro.sim.load import OpenLoopLoad
from repro.workloads import SysBenchWorkload

from test_core_controller import family_dataset, small_config


class TestPowerLossBetweenWrapAndFlush:
    def test_loss_window_bounded_after_wrap(self):
        """Crash with a freshly wrapped log and dirty deltas pending:
        every block recovers to current or last-flushed content, and
        the stale set is bounded by the dirty window."""
        dataset = family_dataset()
        controller = ICASHController(
            dataset.copy(),
            small_config(log_blocks=8, flush_interval=100_000,
                         flush_dirty_count=100_000))
        controller.ingest()
        shadow = dataset.copy()
        flushed = dataset.copy()
        gen = np.random.default_rng(11)

        def burst(n: int) -> None:
            for _ in range(n):
                lba = int(gen.integers(0, shadow.shape[0]))
                content = shadow[lba].copy()
                content[0:48] = gen.integers(0, 256, 48)
                shadow[lba] = content
                controller.write(lba, [content])

        rounds = 0
        while controller.log.wrap_count == 0 and rounds < 60:
            burst(30)
            controller.flush()
            flushed = shadow.copy()
            rounds += 1
        assert controller.log.wrap_count >= 1, \
            "the tiny log never wrapped"
        # New deltas after the wrap, crash before the next flush.
        burst(25)
        assert controller.dirty_delta_count > 0

        image = recover(controller)
        stale = 0
        for lba in range(shadow.shape[0]):
            recovered = image.read(lba)
            if np.array_equal(recovered, shadow[lba]):
                continue
            assert np.array_equal(recovered, flushed[lba]), \
                f"block {lba} recovered to garbage"
            stale += 1
        assert stale <= controller.dirty_delta_count

    def test_loss_window_zero_when_crash_lands_on_flush(self):
        """Same wrapped-log state, but the flush won the race: replay
        is byte-exact."""
        dataset = family_dataset()
        controller = ICASHController(
            dataset.copy(),
            small_config(log_blocks=8, flush_interval=100_000,
                         flush_dirty_count=100_000))
        controller.ingest()
        shadow = dataset.copy()
        gen = np.random.default_rng(13)
        rounds = 0
        while controller.log.wrap_count == 0 and rounds < 60:
            for _ in range(30):
                lba = int(gen.integers(0, shadow.shape[0]))
                content = shadow[lba].copy()
                content[0:48] = gen.integers(0, 256, 48)
                shadow[lba] = content
                controller.write(lba, [content])
            controller.flush()
            rounds += 1
        assert controller.log.wrap_count >= 1
        assert controller.dirty_delta_count == 0
        image = recover(controller)
        for lba in range(shadow.shape[0]):
            assert np.array_equal(image.read(lba), shadow[lba])


class TestReferenceCorruptionWithLiveDeltas:
    def test_scrub_detects_and_dependents_survive_restore(self):
        dataset = family_dataset()
        controller = ICASHController(dataset.copy(), small_config())
        controller.ingest()
        snapshot = controller.delta_map_snapshot()
        assert snapshot, "ingest should have packed deltas"
        ref = next(r for (r, _slot) in snapshot.values()
                   if controller.ssd_block_content(r) is not None)
        dependents = [lba for lba, (r, _s) in snapshot.items()
                      if r == ref]
        assert dependents, "picked a reference without live deltas"

        content = controller.ssd_block_content(ref)
        saved = content[:64].copy()
        content[:64] ^= 0xFF
        flagged = scrub_references(controller)
        assert ref in flagged
        content[:64] = saved
        assert scrub_references(controller) == []
        # With the reference restored, every dependent still recovers
        # byte-exact through the corrupted-then-repaired copy.
        image = recover(controller)
        for lba in dependents[:5]:
            assert np.array_equal(image.read(lba), dataset[lba])

    def test_corrupted_reference_poisons_recovery_until_detected(self):
        """The failure the scrub exists to prevent: recovery applied
        to a corrupted reference yields wrong bytes for at least one
        dependent."""
        dataset = family_dataset()
        controller = ICASHController(dataset.copy(), small_config())
        controller.ingest()
        snapshot = controller.delta_map_snapshot()
        ref = next(r for (r, _slot) in snapshot.values()
                   if controller.ssd_block_content(r) is not None)
        dependents = [lba for lba, (r, _s) in snapshot.items()
                      if r == ref]
        content = controller.ssd_block_content(ref)
        saved = content[:64].copy()
        content[:64] ^= 0xFF
        try:
            image = recover(controller)
            poisoned = any(
                not np.array_equal(image.read(lba), dataset[lba])
                for lba in dependents)
            assert poisoned, ("corruption on a live reference should "
                              "surface in recovered dependents")
            assert ref in scrub_references(controller)
        finally:
            content[:64] = saved


class TestDoubleFault:
    def test_hdd_dies_during_ssd_wearout_degraded_mode(self):
        workload = SysBenchWorkload(n_requests=600)
        system = make_system("icash", workload)
        system.ingest()
        engine = EventEngine(system, keep_event_log=True)
        plan = FaultPlan(
            [FaultSpec("ssd_wearout", at_request=100),
             FaultSpec("hdd_failure", at_request=101)], seed=5)
        injector = FaultInjector(plan, system, engine)
        engine.attach_faults(injector)
        engine.run(workload, OpenLoopLoad(2000.0, seed=3))
        wear, hdd = injector.report().outcomes
        assert wear.kind == "ssd_wearout"
        assert hdd.kind == "hdd_failure"
        assert not wear.skipped and not hdd.skipped
        # The second fault fired while the first window was open, and
        # both windows still closed.
        assert hdd.t_injected_s < wear.t_recovered_s
        assert wear.t_recovered_s is not None
        assert hdd.t_recovered_s is not None
        # Both stations drained: independent recoveries, no deadlock.
        assert all(s.backlog_s == 0.0 and s.bg_active == 0
                   for s in engine.stations.values())

    def test_double_fault_is_deterministic(self):
        def run_once():
            workload = SysBenchWorkload(n_requests=400)
            system = make_system("icash", workload)
            system.ingest()
            engine = EventEngine(system, keep_event_log=True)
            plan = FaultPlan(
                [FaultSpec("ssd_wearout", at_request=80),
                 FaultSpec("hdd_failure", at_request=85)], seed=21)
            injector = FaultInjector(plan, system, engine)
            engine.attach_faults(injector)
            engine.run(workload, OpenLoopLoad(2000.0, seed=4))
            return engine.event_log

        assert run_once() == run_once()


class TestChaosDeterminism:
    def test_same_seed_same_verdict(self):
        scenario = next(s for s in chaos.SCENARIOS
                        if s.scenario_id == "powerloss-sysbench")
        a = chaos.run_scenario(scenario, seed=5, n_requests=500)
        b = chaos.run_scenario(scenario, seed=5, n_requests=500)
        assert a.to_payload() == b.to_payload()

    def test_jsonl_export_byte_identical(self, tmp_path):
        scenarios = [s for s in chaos.quick_scenarios()
                     if s.fault_kind in ("ssd_wearout",
                                         "silent_corruption")]
        path_a = tmp_path / "a.jsonl"
        path_b = tmp_path / "b.jsonl"
        chaos.export_chaos_jsonl(
            chaos.run_matrix(scenarios, seed=3, n_requests=400), path_a)
        chaos.export_chaos_jsonl(
            chaos.run_matrix(scenarios, seed=3, n_requests=400), path_b)
        assert path_a.read_bytes() == path_b.read_bytes()
        assert len(path_a.read_text().splitlines()) == \
            1 + len(scenarios)
