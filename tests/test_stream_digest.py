"""Request streams, held to ``tests/reference/stream_digest.py``'s exact
pins: a changed payload byte, or one 32-bit draw more or fewer, moves
one.
"""

import pytest

from reference import pins
from reference import stream_digest as reference
from repro.workloads.content import ContentModel

FROZEN = pins.load("stream")


@pytest.mark.parametrize("name", reference.CASES)
def test_stream_matches_the_pin(name):
    pins.check(reference.pin(name), FROZEN[name])


def test_the_pins_reach_what_they_claim(monkeypatch):
    """One anchored run in a hundred more lands elsewhere: the digest
    moves.  (The final state does not: either start pick takes one
    32-bit draw.)"""
    monkeypatch.setattr(ContentModel, "ANCHOR_REUSE_PROB", 0.84)
    name = "specsfs/2011/300"
    assert reference.pin(name)["sha256"] != FROZEN[name]["sha256"]
