"""Monitor exports, held to frozen pins.

``tests/reference/monitor_digest.json`` (written by
``tests/reference/monitor_digest.py``) pins the CSV, JSONL and
Prometheus exports, the SLO breaches and the rendered report of four
monitored runs (both engines, I-CASH and RAID-0) and of the four quick
chaos scenarios.  The program is deterministic, so the pins are exact:
an instrument read from other state, registered in another order or
summed in another order moves a pin.
"""

import pytest

from reference import monitor_digest as reference

FROZEN = reference.frozen()


@pytest.mark.parametrize("name", reference.case_names())
def test_monitor_exports_match_the_pin(name):
    assert reference.pin(name) == FROZEN[name]


def test_every_pin_has_a_run():
    assert set(FROZEN) == set(reference.case_names())
    assert len(FROZEN) == 8
