"""Request streams, held to frozen pins.

``tests/reference/stream_digest.json`` (written by
``tests/reference/stream_digest.py``) pins every write payload, every
anchored update offset and the request generator's final state of each
workload family at two seeds and two lengths, and of one multi-VM
stream with its composed image.  Generation is deterministic, so the
pins are exact: a changed byte of one payload, or one 32-bit draw more
or fewer, moves a pin.
"""

import pytest

from reference import stream_digest as reference
from repro.workloads.content import ContentModel

FROZEN = reference.frozen()


@pytest.mark.parametrize("name", reference.stream_names())
def test_stream_matches_the_pin(name):
    assert reference.pin(name) == FROZEN[name]


def test_every_pin_has_a_stream():
    assert set(FROZEN) == set(reference.stream_names())
    assert len(FROZEN) == 25


def test_the_pins_reach_what_they_claim(monkeypatch):
    """One anchored run in a hundred more lands elsewhere: the digest
    moves.  (The final state does not: either start pick takes one
    32-bit draw.)"""
    monkeypatch.setattr(ContentModel, "ANCHOR_REUSE_PROB", 0.84)
    name = "specsfs/2011/300"
    assert reference.pin(name)["sha256"] != FROZEN[name]["sha256"]
