"""Monitor exports, held to ``tests/reference/monitor_digest.py``'s
pins: an instrument read from other state, registered in another order
or summed in another order moves one.
"""

import pytest

from reference import monitor_digest as reference
from reference import pins

FROZEN = pins.load("monitor")


@pytest.mark.parametrize("name", reference.CASES)
def test_monitor_exports_match_the_pin(name):
    pins.check(reference.pin(name), FROZEN[name])


def test_every_pin_has_a_run():
    assert len(FROZEN) == 8
