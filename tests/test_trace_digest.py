"""Trace files, folded stacks and attribution rows, held to frozen pins.

``tests/reference/trace_digest.json`` was written by
``tests/reference/trace_digest.py`` before the ring trace and the
profiler became folds over one recorder; every JSONL and Chrome byte
and attribution row of its seeded runs must still match it.  The
folded pins were re-frozen once, when the folded file's request stacks
became the profiler's rows (they were a second attribution, re-derived
from the ring over the whole run, warm-up included).
"""

import pytest

from reference import trace_digest as reference

FROZEN = reference.frozen()


@pytest.mark.parametrize("name", sorted(reference.CASES))
def test_trace_matches_the_pin(name):
    assert reference.case_pin(name) == FROZEN[name]


def test_the_pins_reach_what_they_claim():
    """Every system on both engines, a queue span per delayed event
    request, and one ring that overflowed."""
    assert set(FROZEN) == set(reference.CASES)
    for name, pin in FROZEN.items():
        if name.endswith("/overflow"):
            assert pin["legacy"]["dropped"] > 0
            continue
        assert pin["legacy"]["dropped"] == pin["event"]["dropped"] == 0
        # The event trace adds the queue spans the legacy one lacks.
        assert pin["event"]["events"] > pin["legacy"]["events"]
        assert pin["event"]["jsonl_sha256"] != pin["legacy"]["jsonl_sha256"]
