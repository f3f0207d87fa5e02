"""``repro explain`` output, held to frozen pins.

``tests/reference/explain_digest.json`` (written by
``tests/reference/explain_digest.py``) pins the rendered report, the
``--json`` report and the ``--flame-diff`` file of six pairs of ledger
rows: a twin, a config override, a reseed, another commit, a dirty
tree and another workload.  The rows are recorded with the git
provenance and the host pinned, so the pins are exact: a suspect, a
tolerance, a sort order or a number format that moves changes a pin.
"""

import pytest

from reference import explain_digest as reference
from repro.analysis.explain import explain_ledger_rows

FROZEN = reference.frozen()


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    return reference.record(str(tmp_path_factory.mktemp("explain")))


@pytest.mark.parametrize("name", list(reference.PAIRS))
def test_explain_output_matches_the_pin(store, name):
    assert reference.pin(store, name) == FROZEN[name]


@pytest.mark.parametrize("name", list(reference.PAIRS))
def test_each_pair_ranks_its_cause_first(store, name):
    a, b, cause = reference.PAIRS[name]
    report = explain_ledger_rows(store.get(reference.ref(a)),
                                 store.get(reference.ref(b)))
    assert [s.cause for s in report.suspects][:1] == \
        ([cause] if cause else [])


def test_every_pin_has_a_pair():
    assert set(FROZEN) == set(reference.PAIRS)
    assert len(FROZEN) == 6
