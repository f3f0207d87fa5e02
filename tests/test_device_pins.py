"""The device models, held to ``tests/reference/devices.py``'s pins,
written before the models were rewritten for host speed, bit for bit.
"""

import pytest

from reference import devices as reference
from reference import pins

FROZEN = pins.load("devices")


@pytest.mark.parametrize("name", sorted(reference.LATENCY_CASES))
def test_latencies_and_spans_match_the_pin(name):
    pins.check(reference.latency_pin(name, traced=True),
               FROZEN[f"latency/{name}"])


@pytest.mark.parametrize("name", sorted(reference.LATENCY_CASES))
def test_an_untraced_device_returns_the_same_floats(name):
    expected = {key: value for key, value
                in FROZEN[f"latency/{name}"].items()
                if not key.startswith("spans")}
    pins.check(reference.latency_pin(name), expected)


def test_the_tiny_ssd_collects_and_wear_levels():
    """The latency golden only pins GC if the op list reaches it."""
    counters = FROZEN["latency/ssd"]["counters"]
    assert counters["gc_erases"] > 100
    assert counters["gc_page_moves"] > 100
    assert counters["wear_level_picks"] > 100


@pytest.mark.parametrize("name", sorted(reference.WEAR_RUNS))
def test_erase_histogram_matches_the_pin(name):
    pins.check(reference.wear_pin(name), FROZEN[f"wear/{name}"])
