"""Trace files, folded stacks and attribution rows, held to
``tests/reference/trace_digest.py``'s pins, written before the ring
trace and the profiler became folds over one recorder.  The folded pins
were re-frozen once, when the folded file's request stacks became the
profiler's rows.
"""

import pytest

from reference import pins
from reference import trace_digest as reference

FROZEN = pins.load("trace")


@pytest.mark.parametrize("name", sorted(reference.CASES))
def test_trace_matches_the_pin(name):
    pins.check(reference.pin(name), FROZEN[name])


def test_the_pins_reach_what_they_claim():
    """Every system on both engines, a queue span per delayed event
    request, and one ring that overflowed."""
    for name, pin in FROZEN.items():
        if name.endswith("/overflow"):
            assert pin["legacy"]["dropped"] > 0
            continue
        assert pin["legacy"]["dropped"] == pin["event"]["dropped"] == 0
        # The event trace adds the queue spans the legacy one lacks.
        assert pin["event"]["events"] > pin["legacy"]["events"]
        assert pin["event"]["jsonl_sha256"] != pin["legacy"]["jsonl_sha256"]
