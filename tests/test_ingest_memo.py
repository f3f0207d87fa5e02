"""The ingest memo is invisible: a plan it hands back is the plan a fresh
pass makes, it answers only for the same frozen image and settings, and
it holds nothing once its image is gone.

:func:`repro.core.ingest.memoised_plan` keeps one signature matrix and
one :class:`~repro.core.ingest.IngestPlan`, shared by every controller
built over the same image: the same ``Delta`` objects reach each one's
log and delta buffer, so nothing a run does may write through them.
"""

import gc
import weakref

import numpy as np
import pytest

import reference.pins as pins
from reference import ingest as ingest_reference
from repro.core import ingest
from repro.core.config import ICASHConfig
from repro.core.controller import ICASHController
from repro.experiments import chaos
from repro.workloads import content
from repro.workloads.content import ContentModel

INGEST_PINS = pins.load("ingest")

#: The three settings a plan reads, as ``memoised_plan``'s arguments.
SETTINGS = (3, 2048, 40)


@pytest.fixture
def planned(monkeypatch):
    """Images ``plan_ingest`` was called on, in call order."""
    images = []
    plan_ingest = ingest.plan_ingest

    def counting(blocks, *args):
        images.append(blocks)
        return plan_ingest(blocks, *args)

    monkeypatch.setattr(ingest, "plan_ingest", counting)
    return images


def _image(seed: int) -> np.ndarray:
    image = ContentModel(96, 6, 0.1, 0.0, seed).build_dataset().copy()
    image.flags.writeable = False
    return image


class TestSecondController:
    @pytest.mark.parametrize("case", sorted(ingest_reference.CASES))
    def test_pins_hold_on_a_memo_hit(self, case, planned):
        first = ingest_reference.controller_for(case)
        pins.check(ingest_reference.ingest_digest(first, first.ingest()),
                   INGEST_PINS[case])
        plans = len(planned)
        second = ingest_reference.controller_for(case)
        assert second.backing.view_all() is not first.backing.view_all()
        pins.check(ingest_reference.ingest_digest(second, second.ingest()),
                   INGEST_PINS[case])
        assert len(planned) == plans, "the second ingest planned again"
        logged = [[record.delta for record in log._unpacked[slot]]
                  for log in (first.log, second.log)
                  for slot in sorted(log._unpacked)]
        half = len(logged) // 2
        assert half and all(a is b for ours, theirs in
                            zip(logged[:half], logged[half:])
                            for a, b in zip(ours, theirs))


class TestMisses:
    def test_a_frozen_image_is_planned_once(self, planned):
        image = _image(1)
        first = ingest.memoised_plan(image, *SETTINGS)
        again = ingest.memoised_plan(image.view(), *SETTINGS)
        assert again[1] is first[1] and again[0] is first[0]
        assert not first[0].flags.writeable
        assert len(planned) == 1

    def test_a_writeable_image_is_never_memoised(self, planned):
        image = _image(1).copy()
        ingest.memoised_plan(image, *SETTINGS)
        ingest.memoised_plan(image, *SETTINGS)
        assert len(planned) == 2
        assert not ingest._memo or ingest._memo[0]() is not image

    def test_a_different_image_misses(self, planned):
        for seed in (1, 2):
            ingest.memoised_plan(_image(seed), *SETTINGS)
        assert len(planned) == 2

    def test_a_replaced_image_dying_keeps_the_current_plan(self):
        first, second = _image(1), _image(2)
        ingest.memoised_plan(first, *SETTINGS)
        ingest.memoised_plan(second, *SETTINGS)
        del first
        gc.collect()
        assert ingest._memo and ingest._memo[0]() is second

    def test_another_view_of_the_same_root_misses(self, planned):
        image = _image(1)
        ingest.memoised_plan(image, *SETTINGS)
        ingest.memoised_plan(image[1:], *SETTINGS)
        assert len(planned) == 2

    @pytest.mark.parametrize("changed", range(len(SETTINGS)))
    def test_each_setting_changed_misses(self, changed, planned):
        image = _image(1)
        settings = list(SETTINGS)
        ingest.memoised_plan(image, *settings)
        settings[changed] += 1
        ingest.memoised_plan(image, *settings)
        assert len(planned) == 2


def test_the_memo_dies_with_its_image():
    """The memo holds its image weakly: once the data-set memo drops
    the image and nothing else holds it, the plan goes with it."""
    content.clear_dataset_cache()
    data = ContentModel(64, 4, 0.1, 0.0, 99).build_dataset()
    ICASHController(data, ICASHConfig(ssd_capacity_blocks=16)).ingest()
    assert ingest._memo
    image = weakref.ref(data)
    del data
    gc.collect()
    assert image() is not None, "the data-set memo holds the image"
    content.clear_dataset_cache()
    gc.collect()
    assert image() is None
    assert ingest._memo == []


def test_a_fault_does_not_reach_the_next_run(planned):
    """Two runs of one scenario share the memoised plan; a corruption
    injected into the first leaves the second's verdict what a freshly
    planned run gives."""
    scenario = next(s for s in chaos.SCENARIOS
                    if s.scenario_id == "corrupt-sysbench")
    first = chaos.run_scenario(scenario, seed=5, n_requests=500)
    plans = len(planned)
    second = chaos.run_scenario(scenario, seed=5, n_requests=500)
    assert len(planned) == plans, "the second run planned again"
    ingest._memo.clear()
    fresh = chaos.run_scenario(scenario, seed=5, n_requests=500)
    assert len(planned) == plans + 1
    assert first.to_payload() == second.to_payload() == fresh.to_payload()
