"""The observer and multi-run CLI invocations, held to frozen pins.

``tests/reference/cli_digest.json`` (written by
``tests/reference/cli_digest.py``) pins the exit code, the stdout, every
written file and every canonical ledger row of sixteen command lines:
ring traces, monitored runs, critical-path tables, arrival-rate sweeps
and paper series.  The ledger provenance and host are pinned, so the
pins are exact: a moved byte of output, a file written elsewhere or a
row recorded differently changes a pin.
"""

import pytest

from reference import cli_digest as reference

FROZEN = reference.frozen()


@pytest.mark.parametrize("name", list(reference.CASES))
def test_invocation_matches_the_pin(name):
    assert reference.pin(name) == FROZEN[name]


def test_every_pin_has_a_case():
    assert set(FROZEN) == set(reference.CASES)
    assert len(FROZEN) == 16
