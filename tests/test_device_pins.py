"""The device models' simulated behaviour, held to frozen pins.

``tests/reference/devices_digest.json`` was written by
``tests/reference/devices.py`` before the device models were rewritten
for host speed; every latency, counter, span and erase must still match
it bit for bit.
"""

import pytest

from reference import devices as reference

FROZEN = reference.frozen()


@pytest.mark.parametrize("name", sorted(reference.LATENCY_CASES))
def test_latencies_and_spans_match_the_pin(name):
    traced = reference.latency_pin(name, traced=True)
    assert traced == FROZEN["latency"][name]


@pytest.mark.parametrize("name", sorted(reference.LATENCY_CASES))
def test_an_untraced_device_returns_the_same_floats(name):
    untraced = reference.latency_pin(name)
    expected = {key: value for key, value in FROZEN["latency"][name].items()
                if not key.startswith("spans")}
    assert untraced == expected


def test_the_tiny_ssd_collects_and_wear_levels():
    """The latency golden only pins GC if the op list reaches it."""
    counters = FROZEN["latency"]["ssd"]["counters"]
    assert counters["gc_erases"] > 100
    assert counters["gc_page_moves"] > 100
    assert counters["wear_level_picks"] > 100


@pytest.mark.parametrize("name", sorted(reference.WEAR_RUNS))
def test_erase_histogram_matches_the_pin(name):
    assert reference.wear_pin(name) == FROZEN["wear"][name]
