"""Fault-injection layer tests: plans, each injector end-to-end on a
live event-engine run, degraded-mode windows, instruments, and the
runner/CLI integration."""

import numpy as np
import pytest

from repro.experiments.runner import run_benchmark
from repro.experiments.systems import make_system
from repro.sim import faults
from repro.sim.engine import EventEngine
from repro.sim.faults import (FAULT_KINDS, FaultInjector, FaultPlan,
                              FaultSpec, scrub_references)
from repro.sim.load import OpenLoopLoad
from repro.sim.metrics import Monitor
from repro.sim.request import BLOCK_SIZE
from repro.workloads import SysBenchWorkload, TPCCWorkload


def run_with_fault(kind, n_requests=600, at_request=300, seed=9,
                   rate=3000.0, monitor=None, workload=None):
    if workload is None:
        workload = SysBenchWorkload(n_requests=n_requests)
    system = make_system("icash", workload)
    plan = FaultPlan.single(kind, at_request=at_request, seed=seed)
    result = run_benchmark(workload, system, engine="event",
                           load=OpenLoopLoad(rate, seed=seed),
                           monitor=monitor, fault_plan=plan)
    return result, system


class TestFaultPlan:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="RELIABILITY"):
            FaultSpec("disk_on_fire", at_request=10)

    def test_bad_knobs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec("ssd_wearout", at_request=-1)

    def test_specs_sorted_by_admission_index(self):
        plan = FaultPlan([FaultSpec("hdd_failure", at_request=50),
                          FaultSpec("power_loss", at_request=10)])
        assert [s.at_request for s in plan.specs] == [10, 50]

    def test_single_builds_one_spec(self):
        plan = FaultPlan.single("power_loss", at_request=7, seed=3)
        assert len(plan) == 1
        assert plan.seed == 3
        assert plan.specs[0].kind == "power_loss"


class TestInjectors:
    def test_ssd_wearout_drives_blocks_to_limit(self):
        result, system = run_with_fault("ssd_wearout")
        outcome = result.faults.outcomes[0]
        assert not outcome.skipped
        assert outcome.station == "ssd"
        ssd = system.ssd
        worn = sum(1 for count in ssd._erases
                   if count >= ssd.spec.endurance_cycles)
        assert worn >= 1
        assert outcome.rebuild_blocks == worn * ssd.spec.pages_per_block
        assert outcome.t_recovered_s is not None
        assert outcome.degraded_s > 0.0

    def test_hdd_failure_injects_rebuild_backlog(self):
        result, _ = run_with_fault("hdd_failure")
        outcome = result.faults.outcomes[0]
        assert not outcome.skipped
        assert outcome.rebuild_blocks == faults.REBUILD_BLOCKS == 4096
        # 4096 blocks x 2 transfers at ~41 us each, drained over idle
        # slots: the degraded window is substantial but bounded.
        assert 0.1 < outcome.degraded_s < 10.0

    def test_power_loss_reports_loss_window_and_replays(self):
        result, system = run_with_fault("power_loss")
        outcome = result.faults.outcomes[0]
        assert not outcome.skipped
        assert outcome.data_loss_window_blocks is not None
        assert outcome.data_loss_window_blocks >= 0
        assert system.log.replay_count >= 1
        assert outcome.rebuild_blocks > 0

    def test_reference_corruption_is_detected(self):
        result, _ = run_with_fault("silent_corruption")
        outcome = result.faults.outcomes[0]
        assert outcome.detected is True

    def test_spill_corruption_is_missed(self, rng):
        """Spilled blocks carry no signatures, so the scrub never reads
        one: damage to a spilled block's SSD copy goes unseen, while the
        same scrub flags a damaged reference (docs/RELIABILITY.md)."""
        workload = SysBenchWorkload(n_requests=200)
        system = make_system("icash", workload)
        system.ingest()
        lba, (ref, _slot) = next(iter(
            system.delta_map_snapshot().items()))
        system.write(lba, [rng.integers(0, 256, BLOCK_SIZE,
                                        dtype=np.uint8)])
        assert lba in system.spilled_lbas
        system.ssd_block_content(lba)[:64] ^= 0xFF
        assert scrub_references(system) == []
        system.ssd_block_content(ref)[:64] ^= 0xFF
        assert scrub_references(system) == [ref]

    def test_scrub_is_clean_without_corruption(self):
        workload = SysBenchWorkload(n_requests=200)
        system = make_system("icash", workload)
        system.ingest()
        assert scrub_references(system) == []

    def test_fault_on_system_without_flash_is_skipped(self):
        workload = SysBenchWorkload(n_requests=300)
        system = make_system("raid0", workload)
        plan = FaultPlan.single("ssd_wearout", at_request=100)
        result = run_benchmark(workload, system, engine="event",
                               load=OpenLoopLoad(2000.0, seed=1),
                               fault_plan=plan)
        assert result.faults.outcomes[0].skipped

    def test_power_loss_on_baseline_without_log_is_skipped(self):
        workload = SysBenchWorkload(n_requests=300)
        system = make_system("fusion-io", workload)
        plan = FaultPlan.single("power_loss", at_request=100)
        result = run_benchmark(workload, system, engine="event",
                               load=OpenLoopLoad(2000.0, seed=1),
                               fault_plan=plan)
        assert result.faults.outcomes[0].skipped


class TestRAID0ServesAsOneArray:
    """A RAID0 event run queues at its array alone: one station with a
    slot per member, where a failed member's rebuild competes with the
    array's foreground I/O."""

    @staticmethod
    def _run(plan=None):
        workload = TPCCWorkload(scale=0.1, n_requests=600, seed=2011)
        return run_benchmark(workload, make_system("raid0", workload),
                             engine="event",
                             load=OpenLoopLoad(3000.0, seed=9),
                             fault_plan=plan)

    def test_one_station_serves_every_request(self):
        stations = self._run().queueing.stations
        assert list(stations) == ["raid0"]
        assert stations["raid0"].slots == 4
        assert stations["raid0"].served == 600

    def test_member_failure_rebuilds_on_the_array(self):
        plan = FaultPlan.single("hdd_failure", at_request=300, seed=9)
        result = self._run(plan)
        (outcome,) = result.faults.outcomes
        assert outcome.station == "raid0"
        assert outcome.detail.split(",")[0].endswith("/4 failed")
        assert list(result.queueing.stations) == ["raid0"]
        assert result.queueing.stations["raid0"].background_s > 0.0
        assert outcome.t_recovered_s is not None


class TestCopyOnCorrupt:
    """SSD copies share frozen bytes; a corruption gets a private copy."""

    def test_ingested_reference_shares_the_frozen_image(self):
        workload = SysBenchWorkload(n_requests=50)
        system = make_system("icash", workload)
        system.ingest()
        image = workload.build_dataset()
        ref = min(system.reference_lbas)
        assert np.shares_memory(system._ssd_copies[ref].data, image)
        content = system.ssd_block_content(ref)
        assert content.flags.writeable
        assert not np.shares_memory(content, image)
        assert np.array_equal(content, image[ref])
        assert system.ssd_block_content(ref) is content

    def test_reference_corruption_never_reaches_image_or_shadow(self):
        expected = SysBenchWorkload(n_requests=600)
        list(expected.requests())
        expected_shadow = np.asarray(expected.shadow)
        workload = SysBenchWorkload(n_requests=600)
        image = workload.build_dataset()
        pristine = image.copy()
        scrub = faults.scrub_references
        seen = []

        def scrub_while_corrupted(controller):
            # The flipped bytes are in place until the scrub returns.
            seen.append(np.array_equal(image, pristine))
            return scrub(controller)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(faults, "scrub_references", scrub_while_corrupted)
            result, _ = run_with_fault("silent_corruption",
                                       workload=workload)
        assert result.faults.outcomes[0].detected is True
        assert seen == [True]
        assert np.array_equal(image, pristine)
        assert np.array_equal(np.asarray(workload.shadow), expected_shadow)


class TestInstrumentsAndReport:
    def test_counters_tick(self):
        monitor = Monitor(interval_s=0.02)
        result, _ = run_with_fault("hdd_failure", monitor=monitor)
        values = {key: column[-1] for key, column in monitor.columns.items()}
        assert values['faults_injected_total{kind="hdd_failure"}'] == 1.0
        assert values["rebuild_io_total"] == 4096.0
        outcome = result.faults.outcomes[0]
        assert values["degraded_mode_seconds"] == outcome.degraded_s

    def test_report_aggregates(self):
        result, _ = run_with_fault("hdd_failure")
        (outcome,) = result.faults.outcomes
        assert outcome.kind == "hdd_failure"
        assert outcome.rebuild_blocks == 4096
        assert outcome.degraded_s > 0.0

    def test_no_plan_no_report(self):
        workload = SysBenchWorkload(n_requests=200)
        system = make_system("icash", workload)
        result = run_benchmark(workload, system, engine="event",
                               load=OpenLoopLoad(2000.0, seed=1))
        assert result.faults is None

    def test_legacy_engine_rejects_fault_plan(self):
        workload = SysBenchWorkload(n_requests=200)
        system = make_system("icash", workload)
        with pytest.raises(ValueError, match="event"):
            run_benchmark(workload, system,
                          fault_plan=FaultPlan.single(
                              "power_loss", at_request=10))


class TestEventLogIntegration:
    def run_logged(self, seed=7):
        workload = SysBenchWorkload(n_requests=500)
        system = make_system("icash", workload)
        system.ingest()
        engine = EventEngine(system, keep_event_log=True)
        plan = FaultPlan([FaultSpec("hdd_failure", at_request=200),
                          FaultSpec("ssd_wearout", at_request=300)],
                         seed=seed)
        injector = FaultInjector(plan, system, engine)
        engine.attach_faults(injector)
        engine.run(workload, OpenLoopLoad(2500.0, seed=11))
        return engine.event_log, injector.report()

    def test_faults_appear_in_event_log(self):
        log, _ = self.run_logged()
        fault_entries = [label for _t, action, label in log
                         if action == "fault"]
        assert "hdd_failure:injected" in fault_entries
        assert "ssd_wearout:injected" in fault_entries
        assert "hdd_failure:recovered" in fault_entries

    def test_same_seed_identical_event_log_and_report(self):
        log_a, report_a = self.run_logged()
        log_b, report_b = self.run_logged()
        assert log_a == log_b
        keys_a = [(o.kind, o.t_injected_s, o.t_recovered_s,
                   o.rebuild_blocks, o.detail)
                  for o in report_a.outcomes]
        keys_b = [(o.kind, o.t_injected_s, o.t_recovered_s,
                   o.rebuild_blocks, o.detail)
                  for o in report_b.outcomes]
        assert keys_a == keys_b


class TestKindCoverage:
    @pytest.mark.parametrize("kind", FAULT_KINDS)
    def test_every_kind_has_an_injector(self, kind):
        assert hasattr(FaultInjector, f"_inject_{kind}")
