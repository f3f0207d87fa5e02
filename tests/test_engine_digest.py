"""The event engine's event order, held bit for bit, on every supported
CPython, to the pins of ``tests/reference/engine_digest.py``, written
before the engine became one loop over flat request state.
"""

import builtins
import itertools
import math

import pytest

from reference import engine_digest as reference
from reference import pins

FROZEN = pins.load("engine")


@pytest.mark.parametrize("name", sorted(reference.CASES))
def test_event_order_matches_the_pin(name):
    pins.check(reference.pin(name), FROZEN[name])


def test_the_pins_reach_what_they_claim():
    """Each pin is only worth its name if its run exercises it."""
    for name in ("tpcc/lru", "sysbench/icash", "tpcc/dedup/observed"):
        assert any(s["bg_chunks"] for s in FROZEN[name]["stations"].values())
    assert FROZEN["sysbench/icash/open"]["summary"]["wait_max_us"] \
        != (0.0).hex()
    faults = FROZEN["sysbench/icash/chaos"]["faults"]
    assert [kind for kind, *_ in faults] == ["hdd_failure", "ssd_wearout"]
    assert all(recovered is not None for _k, _a, _t, recovered, *_ in faults)
    observed = FROZEN["tpcc/dedup/observed"]
    assert observed["spans"] > observed["records"]
    assert observed["verified"] > 0


#: The ints a C ``long`` holds, which 3.12's ``sum()`` adds natively.
LONG = range(-2**63, 2**63)


def compensated_sum(iterable, /, start=0):
    """``sum()`` as CPython 3.12 adds (``builtin_sum_impl``): ints
    natively while the total is a ``long``; once the total is a float,
    float items with Neumaier compensation and ``long`` items plainly;
    from any other item on, plain ``+``."""
    items, total, c = iter(iterable), start, 0.0
    if type(total) is int and total in LONG:
        for x in items:
            total = total + x
            if type(x) not in (int, bool) or total not in LONG:
                break
    if type(total) is float:
        for x in items:
            if type(x) is float:
                t = total + x
                c += ((total - t) + x if abs(total) >= abs(x)
                      else (x - t) + total)
                total = t
            elif isinstance(x, int) and x in LONG:
                total += x
            else:
                items = itertools.chain([x], items)
                break
    total = total + c if c and math.isfinite(c) else total
    for x in items:
        total = total + x
    return total


def test_the_pins_hold_under_a_compensated_sum(monkeypatch):
    """No fold the engine pins depends on how ``sum()`` adds floats,
    which CPython 3.12 changed."""
    assert compensated_sum([1e16, 1.0, -1e16]) == 1.0
    assert compensated_sum([1e16, 1, 1.0, True, -1e16]) == 1.0
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    pins.check(reference.pin("sysbench/icash"), FROZEN["sysbench/icash"])
