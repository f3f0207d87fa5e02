"""The observer and multi-run CLI invocations, held to
``tests/reference/cli_digest.py``'s pins: a moved byte of output, a
file written elsewhere or a row recorded differently moves one.
"""

import pytest

from reference import cli_digest as reference
from reference import pins

FROZEN = pins.load("cli")


@pytest.mark.parametrize("name", list(reference.CASES))
def test_invocation_matches_the_pin(name):
    pins.check(reference.pin(name), FROZEN[name])


def test_every_pin_has_a_case():
    assert len(FROZEN) == 16
