"""Simulated behaviour, held to ``tests/reference/grid_digest.py``'s
exact pins: every run behind ``repro validate --requests 600`` and two
profiled runs.  A failure names the run and the scalars that moved.
"""

import dataclasses

import pytest

from reference import grid_digest as reference
from reference import pins
from repro.devices.ssd import FlashSSD

FROZEN = pins.load("grid")


@pytest.mark.parametrize(
    "name", sorted(set(reference.CASES) - set(reference.PROFILED)))
def test_grid_cell_matches_the_pin(name):
    pins.check(reference.pin(name), FROZEN[name])


@pytest.mark.parametrize("name", sorted(reference.PROFILED))
def test_profiled_run_matches_the_pin(name):
    result = reference.run_profiled(reference.PROFILED[name])
    assert result.attribution is not None
    pins.check(reference.pin_of(result), FROZEN[name])


def test_the_pins_reach_what_they_claim(monkeypatch):
    """A flash read 1 % slower moves a pin: no tolerance hides it, and
    the failure names the mean that moved."""
    init = FlashSSD.__init__

    def slower_reads(self, capacity_blocks, spec=None):
        init(self, capacity_blocks, spec)
        self.spec = dataclasses.replace(
            self.spec, read_base_s=self.spec.read_base_s * 1.01)

    monkeypatch.setattr(FlashSSD, "__init__", slower_reads)
    name = "sysbench/icash/profiled/legacy"
    with pytest.raises(AssertionError) as failure:
        pins.check(reference.pin(name), FROZEN[name])
    message = str(failure.value)
    assert "sha256: changed" in message
    old = FROZEN[name]["read_mean_us"]
    assert f"read_mean_us: {old!r} → " in message
