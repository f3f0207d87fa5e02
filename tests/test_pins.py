"""The pins' registry and their one writer (:mod:`reference.pins`)."""

import json

import pytest

from reference import pins

#: Digest name -> its case count, where the count is itself the claim.
COUNTS = {"grid": 42, "stream": 25}


@pytest.mark.parametrize("name", list(pins.DIGESTS))
def test_every_digest_pins_its_cases(name):
    module = pins.generator(name)
    assert set(pins.load(name)) == set(module.CASES)
    assert len(module.CASES) == COUNTS.get(name, len(module.CASES))
    assert callable(module.pin)


def test_regen_rewrites_a_digest_as_committed(tmp_path):
    """Byte for byte, but for the reason and the commit it records."""
    pins.regen(["delta_wire"], "a test", root=tmp_path)
    written = json.loads(pins.path("delta_wire", tmp_path).read_text())
    committed = pins.path("delta_wire").read_text()
    assert written[pins.REGEN_KEY]["reason"] == "a test"
    written[pins.REGEN_KEY] = json.loads(committed)[pins.REGEN_KEY]
    assert pins.dump(written) == committed
