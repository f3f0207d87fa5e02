"""The event engine's event order, held to frozen pins.

``tests/reference/engine_digest.json`` was written by
``tests/reference/engine_digest.py`` before the engine became one loop
over flat request state; every event, record, queue wait, station,
fault outcome, attribution row and replayed span of its five seeded
runs must still match it bit for bit.
"""

import pytest

from reference import engine_digest as reference

FROZEN = reference.frozen()


@pytest.mark.parametrize("name", sorted(reference.CASES))
def test_event_order_matches_the_pin(name):
    assert reference.case_pin(name) == FROZEN[name]


def test_the_pins_reach_what_they_claim():
    """Each pin is only worth its name if its run exercises it."""
    for name in ("tpcc/lru", "sysbench/icash", "tpcc/dedup/observed"):
        assert any(s["bg_chunks"] for s in FROZEN[name]["stations"].values())
    assert FROZEN["sysbench/icash/open"]["summary"]["wait_max_us"] \
        != (0.0).hex()
    faults = FROZEN["sysbench/icash/chaos"]["faults"]
    assert [kind for kind, *_ in faults] == ["hdd_failure", "ssd_wearout"]
    assert all(recovered is not None for _k, _a, _t, recovered, *_ in faults)
    observed = FROZEN["tpcc/dedup/observed"]
    assert observed["spans"] > observed["records"]
    assert observed["verified"] > 0
