"""Counting is one idiom: ``int`` attributes declared in ``COUNTERS``.

Devices and storage systems both derive from ``Counted``.  A run's
``RunResult.counters`` is its system's ``counters()`` snapshot, which
lists every counter the instance incremented — by zero too.
"""

import re
from pathlib import Path

import pytest

from repro.core.controller import ICASHController
from repro.devices.base import Counted
from repro.devices.hdd import HardDiskDrive
from repro.devices.ssd import FlashSSD
from repro.experiments.breakdown import READ_SOURCES, WRITE_SOURCES

from test_core_controller import family_dataset, small_config

ADAPTER = Path(__file__).resolve().parents[1] / "perfbench" / "adapter.py"


class _Widget(Counted):
    COUNTERS = ("hits", "misses")


class TestCounted:
    def test_counters_start_at_zero(self):
        widget = _Widget()
        assert (widget.hits, widget.misses) == (0, 0)
        assert widget.counters() == {}

    def test_increment_and_snapshot(self):
        widget = _Widget()
        widget.misses += 4
        widget.hits += 1
        widget.misses += 1
        assert widget.misses == 5
        assert widget.counters() == {"misses": 5, "hits": 1}
        assert list(widget.counters()) == ["misses", "hits"]
        assert _Widget().counters() == {}  # counts stay per instance

    def test_a_subclass_extends_the_declaration(self):
        class Gadget(_Widget):
            COUNTERS = _Widget.COUNTERS + ("drops",)

        gadget = Gadget()
        gadget.drops += 2
        gadget.hits += 1
        assert gadget.counters() == {"drops": 2, "hits": 1}

    def test_a_counter_may_not_shadow_an_attribute(self):
        with pytest.raises(TypeError, match="shadows"):
            class Broken(Counted):  # raises at definition
                COUNTERS = ("counters",)


class TestSnapshotRule:
    """Counters incremented by zero are reported; counters never
    incremented are not.  Nine of the paper grid's figure runs carry
    ``scan_comparisons: 0`` at seed 2011, so either change would move
    its fingerprint."""

    def test_a_scan_comparing_nothing_reports_zero_comparisons(self):
        controller = ICASHController(family_dataset(64),
                                     small_config(scan_interval=1))
        controller.read(0)  # one scan over one block and no reference
        counters = controller.counters()
        assert counters["scans"] == 1
        assert counters["scan_comparisons"] == 0
        assert "delta_spills" not in counters
        assert "rebuilt_references" not in counters
        assert controller.delta_spills == 0

    def test_a_device_reports_only_what_moved(self):
        hdd = HardDiskDrive(1024)
        hdd.read(0, 2)  # the head starts parked at block 0
        assert hdd.counters() == {"sequential_accesses": 1, "read_ops": 1,
                                  "read_blocks": 2}
        assert FlashSSD(64).counters() == {}


class TestDeclaredNames:
    def test_every_counter_read_by_name_is_declared(self):
        """Breakdown rows and perfbench metrics name controller counters
        as strings; a rename must fail here, not read 0 there."""
        declared = set(ICASHController.COUNTERS)
        breakdown = {name for name, _label in (*READ_SOURCES,
                                                *WRITE_SOURCES)}
        body = re.search(r"^def result_counters\b.*?(?=^\S)",
                         ADAPTER.read_text(), re.S | re.M).group(0)
        benchmark = set(re.findall(r'\bcount\("(\w+)"\)', body))
        assert len(benchmark) >= 10
        assert breakdown - declared == set()
        assert benchmark - declared == set()
