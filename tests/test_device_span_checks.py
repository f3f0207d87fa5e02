"""Every device entry point rejects a span that does not fit.

Each operation tests its span inline and calls ``Device._check_span``
only to raise, so these pin the exact ``ValueError`` messages for a
zero-block request, a negative address and a span running past the end,
and check that a rejected operation leaves no trace in the counters.
"""

import re

import pytest

from repro.devices.hdd import HardDiskDrive
from repro.devices.raid import RAID0Array
from repro.devices.ssd import FlashSSD, SSDSpec

CAPACITY = 64

#: Entry point name -> (device factory, operation name).
ENTRY_POINTS = {
    "hdd.read": (lambda: HardDiskDrive(CAPACITY), "read"),
    "hdd.write": (lambda: HardDiskDrive(CAPACITY), "write"),
    "raid0.read": (lambda: RAID0Array(CAPACITY), "read"),
    "raid0.write": (lambda: RAID0Array(CAPACITY), "write"),
    "ssd.read": (lambda: FlashSSD(CAPACITY, SSDSpec(pages_per_block=8)),
                 "read"),
    "ssd.write": (lambda: FlashSSD(CAPACITY, SSDSpec(pages_per_block=8)),
                  "write"),
    "ssd.trim": (lambda: FlashSSD(CAPACITY, SSDSpec(pages_per_block=8)),
                 "trim"),
}

#: Bad span -> the message it must raise, given the device name.
BAD_SPANS = {
    "zero_blocks": ((3, 0), lambda name: "nblocks must be >= 1, got 0"),
    "negative_lba": ((-1, 1), lambda name: (
        f"span [-1, 0) outside device {name} of {CAPACITY} blocks")),
    "past_the_end": ((CAPACITY - 1, 2), lambda name: (
        f"span [{CAPACITY - 1}, {CAPACITY + 1}) outside device {name} "
        f"of {CAPACITY} blocks")),
}


def _rejects(device, op, args, message):
    before = (device.counters(), device.busy_time)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        op(*args)
    assert (device.counters(), device.busy_time) == before


@pytest.mark.parametrize("span", sorted(BAD_SPANS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_rejects_bad_span(entry, span):
    make, op_name = ENTRY_POINTS[entry]
    device = make()
    args, message = BAD_SPANS[span]
    _rejects(device, getattr(device, op_name), args, message(device.name))


@pytest.mark.parametrize("lba", [-1, CAPACITY])
def test_read_followup_rejects_bad_address(lba):
    ssd = FlashSSD(CAPACITY, SSDSpec(pages_per_block=8))
    _rejects(ssd, ssd.read_followup, (lba,),
             f"span [{lba}, {lba + 1}) outside device ssd of "
             f"{CAPACITY} blocks")


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_accepts_the_edges(entry):
    make, op_name = ENTRY_POINTS[entry]
    device = make()
    getattr(device, op_name)(0, CAPACITY)
    getattr(device, op_name)(CAPACITY - 1, 1)
