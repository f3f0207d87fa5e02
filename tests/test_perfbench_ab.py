"""``scripts/perfbench_ab.py`` judges a paired measurement the way the
benchmark does: medians, quartiles, pairs won, and "unresolved" while
the medians sit closer than the parent's interquartile range.  Nothing
here runs perfbench."""

import importlib.util
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "perfbench_ab.py"


@pytest.fixture(scope="module")
def ab():
    spec = importlib.util.spec_from_file_location("perfbench_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Four alternating ``oltp_read`` pairs, req/s: parent, then change.
PARENT = [18514, 16192, 17518, 18020]
CHANGE = [21426, 20317, 20324, 15437]


def test_medians_quartiles_and_wins(ab):
    summary = ab.summarise(PARENT, CHANGE, higher_is_better=True)
    assert summary.parent == (16523.5, 17769, 18390.5)
    assert summary.change[1] == 20320.5
    assert (summary.wins, summary.pairs) == (3, 4)
    # 2 551.5 apart against a parent IQR of 1 867.
    assert summary.resolved


def test_a_gap_inside_the_parents_spread_is_unresolved(ab):
    change = [value + 500 for value in PARENT]
    summary = ab.summarise(PARENT, change, higher_is_better=True)
    assert summary.wins == 4
    assert not summary.resolved
    lines = ab.render(summary, "sim_req_per_host_s", "req/s")
    assert lines[-1].endswith(": unresolved")
    assert "change won 4 of 4 pairs" in lines[-1]


def test_lower_is_better_counts_the_smaller_side(ab):
    summary = ab.summarise([1.0, 2.0, 3.0], [0.5, 2.5, 2.0],
                           higher_is_better=False)
    assert summary.wins == 2
    assert ab.render(summary, "setup_s", "s")[-1].endswith(": unresolved")
