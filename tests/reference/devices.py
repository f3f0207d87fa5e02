"""Frozen device behaviour: FTL wear and every latency, bit for bit.

``devices_digest.json`` holds two kinds of pin, both written by this
module against the device models as they stood before the FTL became
flat columns and an HDD access one frame (``_FlashBlock`` per erase
block, ``_service → _positioning_time → seek_time`` per access):

* ``wear`` — for three runs that garbage-collect (specsfs / lru,
  specsfs / fusion-io, tpcc / dedup; 10 000 requests, seed 2011), the
  SSD's erase total, a hash of its per-block erase counts, the pages GC
  relocated, the wear-levelling victim picks and the write
  amplification;
* ``latency`` — a hash of every float a seeded op list gets back from an
  HDD, a RAID0 array, a tiny SSD that collects and wear-levels and a
  DRAM buffer, plus each device's busy time and counters,
  and a hash of the trace spans the same list emits into a recorder.

Floats are recorded with ``float.hex``, so a changed last bit is a
changed digest.  Cases are named ``latency/<device>`` and
``wear/<run>``; the file groups them under ``latency`` and ``wear``.
"""

from __future__ import annotations

import random
from typing import Dict, List

from reference.pins import fhex, sha, sha_json
from repro.devices.dram import DRAMBuffer
from repro.devices.hdd import HardDiskDrive
from repro.devices.raid import RAID0Array
from repro.devices.ssd import FlashSSD, SSDSpec
from repro.experiments.parallel import RunSpec
from repro.experiments.runner import run_benchmark

#: Pin name -> (workload, system); each run is 10 000 requests, seed 2011.
WEAR_RUNS = {
    "specsfs/lru": ("specsfs", "lru"),
    "specsfs/fusion-io": ("specsfs", "fusion-io"),
    "tpcc/dedup": ("tpcc", "dedup"),
}


def ssd_wear(ssd) -> Dict[str, object]:
    """What garbage collection did to ``ssd``, as exact values."""
    return {
        "erases": ssd.total_erases,
        "erase_counts_sha256": sha_json(ssd.erase_counts()),
        "gc_page_moves": ssd.gc_page_moves,
        "wear_level_picks": ssd.wear_level_picks,
        "write_amplification": fhex(ssd.write_amplification),
    }


def wear_pin(name: str) -> Dict[str, object]:
    """Run ``WEAR_RUNS[name]``; return its wear pin."""
    workload_name, system_name = WEAR_RUNS[name]
    spec = RunSpec(workload=workload_name, system=system_name,
                   n_requests=10_000, seed=2011)
    workload = spec.build_workload()
    system = spec.build_system(workload)
    run_benchmark(workload, system, engine=spec.engine,
                  warmup_fraction=spec.warmup_fraction,
                  flush_at_end=spec.flush_at_end)
    return ssd_wear(next(d for d in system.devices() if d.name == "ssd"))


# -- latency golden -----------------------------------------------------------

def _hdd_ops(device, rng: random.Random, n_ops: int,
             sizes) -> List[float]:
    """Sequential, near and far accesses of mixed sizes, reads and
    writes alternating at random."""
    out: List[float] = []
    end = 0
    cap = device.capacity_blocks
    for _ in range(n_ops):
        nblocks = rng.choice(sizes)
        pattern = rng.random()
        if pattern < 0.3:
            lba = end
        elif pattern < 0.5:
            lba = end + rng.randint(-200, 200)
        else:
            lba = rng.randrange(cap)
        lba = min(max(lba, 0), cap - nblocks)
        op = device.write if rng.random() < 0.4 else device.read
        out.append(op(lba, nblocks))
        end = lba + nblocks
    return out


def _tiny_ssd() -> FlashSSD:
    return FlashSSD(96, SSDSpec(pages_per_block=8, overprovision=0.15,
                                wear_delta=2, footprint_knee_blocks=48))


def _ssd_ops(ssd: FlashSSD, rng: random.Random,
             n_ops: int) -> List[float]:
    """Skewed overwrites (so GC relocates and wear-levels), reads,
    pipelined follow-ups and trims."""
    out: List[float] = []
    cap = ssd.capacity_blocks
    for _ in range(n_ops):
        hot = rng.random() < 0.7
        lba = rng.randrange(cap // 4) if hot else rng.randrange(cap)
        roll = rng.random()
        if roll < 0.5:
            nblocks = min(rng.choice((1, 1, 1, 2, 5)), cap - lba)
            out.append(ssd.write(lba, nblocks))
        elif roll < 0.75:
            nblocks = min(rng.choice((1, 1, 3, 8)), cap - lba)
            out.append(ssd.read(lba, nblocks))
        elif roll < 0.9:
            out.append(ssd.read_followup(lba))
        else:
            ssd.trim(lba, min(rng.choice((1, 2)), cap - lba))
    return out


def _dram_ops(dram: DRAMBuffer, rng: random.Random,
              n_ops: int) -> List[float]:
    return [dram.access(rng.choice((1, 100, 4096, 4097, 20_000)))
            for _ in range(n_ops)]


#: Device name -> (constructor, function running the op list, op count).
LATENCY_CASES: Dict[str, tuple] = {
    "hdd": (lambda: HardDiskDrive(50_000),
            lambda d, rng, n: _hdd_ops(d, rng, n, (1, 1, 1, 2, 8, 64)),
            600),
    "raid0": (lambda: RAID0Array(8192),
              lambda d, rng, n: _hdd_ops(d, rng, n, (1, 1, 4, 16, 40)),
              600),
    "ssd": (_tiny_ssd, _ssd_ops, 4000),
    "dram": (lambda: DRAMBuffer(), _dram_ops, 100),
}


class SpanRecorder:
    """A tracer that keeps every device span and mark it is handed."""

    def __init__(self) -> None:
        self.events: List[list] = []

    def device_span(self, device, kind, dur_s, lba=None, nbytes=None,
                    outcome=None) -> None:
        self.events.append(["span", device, kind, fhex(dur_s),
                            lba, nbytes, outcome])

    def mark(self, name, dur_s, lba=None, nbytes=None,
             outcome=None) -> None:
        self.events.append(["mark", name, fhex(dur_s), lba, nbytes,
                            outcome])


def latency_pin(name: str, traced: bool = False) -> Dict[str, object]:
    """Drive case ``name`` from seed 2011; return its pin.

    With ``traced`` a :class:`SpanRecorder` is attached to the device
    (and to a RAID0 array's member disks) and the pin gains a hash of
    the spans: their names, durations, addresses, sizes and outcomes.
    """
    build, drive, n_ops = LATENCY_CASES[name]
    device = build()
    recorder = SpanRecorder() if traced else None
    for each in (device, *getattr(device, "disks", ())):
        each.tracer = recorder
    floats = drive(device, random.Random(2011), n_ops)
    pin = {
        "floats": len(floats),
        "sha256": sha("\n".join(map(fhex, floats))),
        "busy_time": fhex(device.busy_time),
        "counters": dict(sorted(device.counters().items())),
    }
    if traced:
        pin["spans"] = len(recorder.events)
        pin["spans_sha256"] = sha_json(recorder.events)
    return pin


CASES = [*(f"latency/{name}" for name in LATENCY_CASES),
         *(f"wear/{name}" for name in WEAR_RUNS)]


def pin(case: str) -> Dict[str, object]:
    kind, _, name = case.partition("/")
    return latency_pin(name, traced=True) if kind == "latency" \
        else wear_pin(name)
