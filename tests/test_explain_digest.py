"""``repro explain`` output, held to the pins of
``tests/reference/explain_digest.py``: a suspect, a tolerance, a sort
order or a number format that moves changes one.
"""

import pytest

from reference import explain_digest as reference
from reference import pins
from repro.analysis.explain import explain_ledger_rows

FROZEN = pins.load("explain")


@pytest.mark.parametrize("name", list(reference.CASES))
def test_explain_output_matches_the_pin(name):
    pins.check(reference.pin(name), FROZEN[name])


@pytest.mark.parametrize("name", list(reference.CASES))
def test_each_pair_ranks_its_cause_first(name):
    a, b, cause = reference.CASES[name]
    store = reference.store()
    report = explain_ledger_rows(store.get(reference.ref(a)),
                                 store.get(reference.ref(b)))
    assert [s.cause for s in report.suspects][:1] == \
        ([cause] if cause else [])


def test_every_pin_has_a_pair():
    assert len(FROZEN) == 6
