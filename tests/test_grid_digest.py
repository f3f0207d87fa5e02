"""Simulated behaviour, held to frozen pins.

``tests/reference/grid_digest.json`` (written by
``tests/reference/grid_digest.py``) pins the whole result payload of
every run behind ``repro validate --requests 600`` and of two profiled
sysbench / icash runs, one per engine.  The program is deterministic,
so the pins are exact: any change to a latency constant, an eviction
order, a destage or a seed derivation that reaches a run moves its
digest.  An intended model change rewrites the JSON and says why.
"""

import dataclasses

import pytest

from reference import grid_digest as reference
from repro.devices.ssd import FlashSSD

FROZEN = reference.frozen()


@pytest.fixture(scope="module")
def grid_pins():
    return reference.grid_pins()


@pytest.mark.parametrize("name", sorted(reference.grid_cells()))
def test_grid_cell_matches_the_pin(grid_pins, name):
    assert grid_pins[name] == FROZEN[name]


@pytest.mark.parametrize("name", sorted(reference.PROFILED))
def test_profiled_run_matches_the_pin(name):
    result = reference.run_profiled(reference.PROFILED[name])
    assert result.attribution is not None
    assert reference.sha(result) == FROZEN[name]


def test_every_pin_has_a_run():
    assert set(FROZEN) == set(reference.grid_cells()) | set(
        reference.PROFILED)
    assert len(FROZEN) == 42


def test_the_pins_reach_what_they_claim(monkeypatch):
    """A flash read 1 % slower moves a pin: no tolerance hides it."""
    init = FlashSSD.__init__

    def slower_reads(self, capacity_blocks, spec=None):
        init(self, capacity_blocks, spec)
        self.spec = dataclasses.replace(
            self.spec, read_base_s=self.spec.read_base_s * 1.01)

    monkeypatch.setattr(FlashSSD, "__init__", slower_reads)
    name = "sysbench/icash/profiled/legacy"
    result = reference.run_profiled(reference.PROFILED[name])
    assert reference.sha(result) != FROZEN[name]
