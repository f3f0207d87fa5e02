"""``ICASHController.check_invariants()`` is not vacuous.

Each of its six facts, (a)–(f) in docs/ARCHITECTURE.md, holds on a
freshly ingested controller; breaking one by hand makes the check raise
an ``AssertionError`` that names the invariant and the block.
"""

import numpy as np
import pytest

from repro.core import BlockKind, ICASHController
from repro.delta.encoder import Delta
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_benchmark
from repro.sim.request import BLOCK_SIZE

from test_core_controller import family_dataset, small_config


@pytest.fixture
def controller() -> ICASHController:
    # A delta pool too small for every ingested delta leaves some
    # associates reachable through the log only.
    controller = ICASHController(
        family_dataset(), small_config(delta_ram_bytes=8 * 1024))
    controller.ingest()
    controller.check_invariants()
    return controller


def breaks(invariant: str, block: int = None):
    where = rf"block {block}: " if block is not None else ""
    return pytest.raises(AssertionError,
                         match=rf"{where}\({invariant}\)")


def associate(controller, cached: bool = True) -> int:
    return next(lba for lba, (ref, _slot)
                in controller.delta_map_snapshot().items()
                if ref != lba and (lba in controller.cache) == cached)


def dirty_associate(controller) -> int:
    """An associate whose fresh delta waits in the flush queue."""
    lba = associate(controller)
    content = controller.backing.get(lba)
    content[:40] = 0
    controller.write(lba, [content])
    assert lba in controller._dirty_delta_lbas
    controller.check_invariants()
    return lba


def reference(controller) -> int:
    """A reference with no delta of its own, as ingest leaves them."""
    lba = min(controller.reference_lbas)
    assert lba not in controller._delta_map
    return lba


def spilled(controller) -> int:
    """An associate rewritten beyond the spill threshold."""
    lba = associate(controller)
    controller.write(lba, [np.random.default_rng(0).integers(
        0, 256, BLOCK_SIZE, dtype=np.uint8)])
    assert lba in controller.spilled_lbas
    controller.check_invariants()
    return lba


class TestEachInvariantBreaks:
    def test_a_reference_loses_its_frozen_copy(self, controller):
        lba = associate(controller)
        ref = controller._delta_map[lba].ref_lba
        controller._ssd_copies[ref].spilled = True
        with breaks("a"):
            controller.check_invariants()

    def test_b_dependants_count_bumped(self, controller):
        ref = controller._delta_map[associate(controller)].ref_lba
        controller._ref_dependents[ref] += 1
        with breaks("b", ref):
            controller.check_invariants()

    def test_b_zero_count_kept(self, controller):
        lba = associate(controller)
        controller._ref_dependents[lba] = 0
        with breaks("b", lba):
            controller.check_invariants()

    def test_c_queue_entry_dropped(self, controller):
        lba = dirty_associate(controller)
        controller._dirty_delta_lbas.pop(lba)
        with breaks("c", lba):
            controller.check_invariants()

    def test_c_queued_without_a_record(self, controller):
        lba = reference(controller)
        controller._dirty_delta_lbas[lba] = None
        with breaks("c", lba):
            controller.check_invariants()

    def test_c_queued_delta_not_in_ram(self, controller):
        lba = dirty_associate(controller)
        controller.cache.drop_delta(controller.cache.get(lba, touch=False))
        with breaks("c", lba):
            controller.check_invariants()

    def test_d_associate_turned_independent(self, controller):
        lba = associate(controller)
        controller.cache.get(lba, touch=False).kind = BlockKind.INDEPENDENT
        with breaks("d", lba):
            controller.check_invariants()

    def test_d_ram_delta_without_a_record(self, controller):
        lba = reference(controller)
        controller.cache.attach_delta(controller.cache.get(lba, touch=False),
                                      Delta(runs=((0, b"x"),)))
        with breaks("d", lba):
            controller.check_invariants()

    def test_e_slot_both_free_and_held(self, controller):
        lba = reference(controller)
        controller._free_slots.append(controller._ssd_copies[lba].slot)
        with breaks("e", lba):
            controller.check_invariants()

    def test_e_slot_lost(self, controller):
        controller._free_slots.pop()
        with breaks("e"):
            controller.check_invariants()

    def test_e_spill_taken_for_a_reference_copy(self, controller):
        lba = spilled(controller)
        controller._ssd_copies[lba].spilled = False
        with breaks("e", lba):
            controller.check_invariants()

    def test_f_record_pointed_at_another_slot(self, controller):
        lba = associate(controller, cached=False)
        entry = controller._delta_map[lba]
        entry.log_slot = next(
            other.log_slot for other in controller._delta_map.values()
            if other.log_slot not in (None, entry.log_slot))
        with breaks("f", lba):
            controller.check_invariants()

    def test_f_slot_outside_the_log(self, controller):
        lba = associate(controller, cached=False)
        controller._delta_map[lba].log_slot = controller.log.size_blocks
        with breaks("f", lba):
            controller.check_invariants()

    def test_f_clean_delta_differs_from_the_log(self, controller):
        lba = associate(controller)
        controller.cache.get(lba, touch=False).delta = \
            Delta(runs=((0, b"x"),))
        with breaks("f", lba):
            controller.check_invariants()


class TestDirtyVirtualEviction:
    """A virtual-block budget below the RAM data budget evicts blocks
    whose cached data is newer than the HDD's copy; only the destage in
    ``_evict_virtual_block`` keeps their next reads right.  No run at
    the standard configuration reaches it."""

    @pytest.mark.parametrize("engine", ["legacy", "event"])
    def test_dirty_victims_are_destaged(self, monkeypatch, engine):
        victims, checks = [], []
        evict = ICASHController._evict_virtual_block
        check = ICASHController.check_invariants

        def spy_evict(self, victim):
            victims.append(victim.data_dirty and victim.has_data)
            return evict(self, victim)

        def spy_check(self):
            checks.append(self)
            return check(self)

        monkeypatch.setattr(ICASHController, "_evict_virtual_block",
                            spy_evict)
        monkeypatch.setattr(ICASHController, "check_invariants", spy_check)
        spec = RunSpec(workload="specsfs", engine=engine, n_requests=600,
                       scale=0.25, config_overrides=(
                           ("max_virtual_blocks", 256),
                           ("ssd_capacity_blocks", 64)))
        workload = spec.build_workload()
        run_benchmark(workload, spec.build_system(workload),
                      engine=engine, verify_reads=True)
        assert sum(victims) > 100
        assert len(checks) == 1


class TestVirtualBudget:
    """Every SSD slot can hold a reference and a reference's virtual
    block is never evicted, so a virtual-block budget no larger than the
    SSD can fill with references: the configuration refuses it."""

    @pytest.mark.parametrize("workload, scale, n_requests, budget, ssd", [
        ("loadsim", 0.25, 600, 512, 614),
        ("specsfs", 1.0, 1500, 256, 1638),
    ])
    def test_a_budget_the_references_can_fill_fails_at_build(
            self, workload, scale, n_requests, budget, ssd):
        spec = RunSpec(workload=workload, scale=scale,
                       n_requests=n_requests, config_overrides=(
                           ("max_virtual_blocks", budget),))
        with pytest.raises(ValueError, match=rf"\({budget}\).*\({ssd}\)"):
            spec.build_system(spec.build_workload())

    @pytest.mark.parametrize("engine", ["legacy", "event"])
    def test_the_smallest_accepted_budget_runs_verified(self, monkeypatch,
                                                        engine):
        checks = []
        check = ICASHController.check_invariants

        def spy_check(self):
            checks.append(self)
            return check(self)

        monkeypatch.setattr(ICASHController, "check_invariants", spy_check)
        spec = RunSpec(workload="loadsim", engine=engine, n_requests=600,
                       scale=0.25, config_overrides=(
                           ("max_virtual_blocks", 615),))
        workload = spec.build_workload()
        system = spec.build_system(workload)
        assert system.config.ssd_capacity_blocks == 614
        run_benchmark(workload, system, engine=engine, verify_reads=True)
        assert checks == [system]
        # The references come within two blocks of the whole budget.
        assert len(system.reference_lbas) == 613
        assert system.virtual_evictions > 1000
