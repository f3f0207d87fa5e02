"""Deterministic fault injection for the discrete-event engine.

I-CASH's durability story (Section 3.3 of the paper) is a set of
*recovery paths*: delta-log replay after power loss, signature-verified
reference blocks, and wear-aware flash management.  This module turns
each of those paths into an adversarial experiment: a seeded
:class:`FaultPlan` schedules faults at request-admission boundaries of
an :class:`~repro.sim.engine.EventEngine` run, and a
:class:`FaultInjector` fires them, models the repair work as deferrable
backlog on the per-device stations (so rebuild traffic competes with
foreground I/O exactly like flush traffic does), and measures what
production cares about — time-to-recover, rebuild I/O volume, the
data-loss window, and whether corruption was detected.

Four fault kinds ship (``FAULT_KINDS``); their triggers, observable
effects and recovery paths are catalogued in ``docs/RELIABILITY.md``,
which a doc-parity test keeps in lock-step with this module.

Everything is deterministic: the only randomness is a
``numpy`` generator seeded from the plan, and repair work is injected
in event time, so the same seed yields an identical event log and an
identical :class:`FaultReport` — the chaos determinism test diffs two
runs exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultPlan",
    "FaultOutcome",
    "FaultReport",
    "FaultInjector",
    "scrub_references",
]

#: Every fault injector this module ships.  ``docs/RELIABILITY.md``
#: documents each one; the doc-parity test asserts the sets match.
FAULT_KINDS = (
    "ssd_wearout",
    "hdd_failure",
    "power_loss",
    "silent_corruption",
)

#: ``ssd_wearout``: fraction of physical flash blocks driven to their
#: erase-count limit.
WEAR_FRACTION = 0.2
#: ``hdd_failure``: RAID-member blocks re-read and re-written during the
#: rebuild that competes with foreground I/O.
REBUILD_BLOCKS = 4096
#: ``silent_corruption``: how many signed reference blocks to corrupt.
CORRUPT_BLOCKS = 1


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault.

    ``at_request`` is the 0-based admission index the fault fires at
    (before that request is processed), which makes schedules
    independent of the arrival process: the same spec hits the same
    logical point of the workload under any load.
    """

    kind: str
    at_request: int

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)} (see docs/RELIABILITY.md)")
        if self.at_request < 0:
            raise ValueError("at_request must be >= 0")


class FaultPlan:
    """A seeded, admission-ordered schedule of :class:`FaultSpec`."""

    def __init__(self, specs: Sequence[FaultSpec],
                 seed: int = 1234) -> None:
        self.specs: Tuple[FaultSpec, ...] = tuple(
            sorted(specs, key=lambda s: s.at_request))
        self.seed = int(seed)

    @classmethod
    def single(cls, kind: str, at_request: int,
               seed: int = 1234) -> "FaultPlan":
        """One-fault plan — what every chaos scenario uses."""
        return cls([FaultSpec(kind=kind, at_request=at_request)],
                   seed=seed)

    def __len__(self) -> int:
        return len(self.specs)

    def __repr__(self) -> str:
        kinds = ", ".join(f"{s.kind}@{s.at_request}" for s in self.specs)
        return f"FaultPlan([{kinds}], seed={self.seed})"


@dataclass
class FaultOutcome:
    """What one fired fault did and how the system recovered.

    ``t_recovered_s`` closes when the repair backlog injected on the
    fault's station has fully drained (no queued background seconds,
    no in-flight background quantum); until then the array runs
    *degraded* and ``degraded_s`` accumulates.
    """

    kind: str
    at_request: int
    t_injected_s: float
    station: Optional[str] = None
    t_recovered_s: Optional[float] = None
    #: Repair I/O in blocks: remapped flash pages, RAID rebuild reads/
    #: writes, replayed log blocks, or scrubbed references.
    rebuild_blocks: int = 0
    #: ``power_loss``: unflushed deltas at the crash — writes that
    #: would land in the loss window had the log append not happened.
    data_loss_window_blocks: Optional[int] = None
    #: ``silent_corruption``: True when the scrub/replay caught it,
    #: False when it was silently missed, None for other kinds.
    detected: Optional[bool] = None
    skipped: bool = False
    detail: str = ""

    @property
    def degraded_s(self) -> float:
        if self.t_recovered_s is None:
            return 0.0
        return max(0.0, self.t_recovered_s - self.t_injected_s)


@dataclass
class FaultReport:
    """All outcomes of one run, in injection order."""

    seed: int
    outcomes: List[FaultOutcome] = field(default_factory=list)


class FaultInjector:
    """Fires a :class:`FaultPlan` into a live engine run.

    The engine calls :meth:`on_admit` before each request is processed
    (so injected repair backlog competes with that request onward),
    :meth:`on_event` when completions or background quanta finish (to
    close degraded windows the moment the repair drains), and
    :meth:`finish` when the heap empties.  A monitor reads what fired,
    what it rebuilt and how long each window stayed degraded from
    :attr:`outcomes`.
    """

    def __init__(self, plan: FaultPlan, system, engine) -> None:
        self.plan = plan
        self.system = system
        self.engine = engine
        self._rng = np.random.default_rng(plan.seed)
        self._pending: List[FaultSpec] = list(plan.specs)
        self.outcomes: List[FaultOutcome] = []
        self._open: List[FaultOutcome] = []

    # -- engine hooks ------------------------------------------------------

    def on_admit(self, index: int) -> None:
        while self._pending and self._pending[0].at_request <= index:
            self._fire(self._pending.pop(0))
        # A repair with zero backlog (e.g. power loss on an empty log)
        # recovers instantly; close it in the same event.
        self.on_event(self.engine.now)

    def on_event(self, now: float) -> None:
        if not self._open:
            return
        for outcome in list(self._open):
            station = self.engine.stations.get(outcome.station)
            if station is None or (station.backlog_s <= 1e-12
                                   and station.bg_active == 0):
                self._close(outcome, now)

    def finish(self, now: float) -> None:
        """Close any window still open when the heap empties."""
        for outcome in list(self._open):
            self._close(outcome, now)

    def report(self) -> FaultReport:
        return FaultReport(seed=self.plan.seed,
                           outcomes=list(self.outcomes))

    # -- internals ---------------------------------------------------------

    def _close(self, outcome: FaultOutcome, now: float) -> None:
        outcome.t_recovered_s = now
        self._open.remove(outcome)
        self.engine._log_event("fault", f"{outcome.kind}:recovered")

    def _fire(self, spec: FaultSpec) -> None:
        now = self.engine.now
        outcome = FaultOutcome(kind=spec.kind,
                               at_request=spec.at_request,
                               t_injected_s=now)
        handler = getattr(self, f"_inject_{spec.kind}")
        handler(outcome)
        self.outcomes.append(outcome)
        if not outcome.skipped and outcome.station is not None:
            self._open.append(outcome)
        # The instant lands on the *run* track (it fires before the
        # admitted request begins), so trace timelines show the
        # fault between requests; the event log carries it too for the
        # determinism diff.
        tracer = getattr(self.system, "tracer", None)
        if tracer is not None:
            tracer.instant("fault", outcome=spec.kind)
        self.engine._log_event("fault", f"{spec.kind}:injected")

    def _inject_backlog(self, device: str, seconds: float) -> None:
        """Queue repair work as deferrable backlog — the same mechanism
        background flushes use, so the repair yields to foreground I/O
        one quantum at a time instead of stalling it."""
        if seconds <= 0.0:
            return
        self.engine.add_backlog(device, seconds)

    def _device(self, *names: str):
        """First device serving the system whose label matches
        ``names``: the station its repair backlog queues at."""
        for device in self.system.serving_devices():
            label = getattr(device, "trace_name",
                            getattr(device, "name", ""))
            if label in names:
                return label, device
        return None, None

    # -- injectors ---------------------------------------------------------

    def _inject_ssd_wearout(self, outcome: FaultOutcome) -> None:
        label, ssd = self._device("ssd")
        if ssd is None or not hasattr(ssd, "wear_out"):
            outcome.skipped = True
            outcome.detail = "no flash device with a wear model"
            return
        n_blocks = len(ssd.erase_counts())
        n_dead = max(1, int(round(WEAR_FRACTION * n_blocks)))
        victims = sorted(int(i) for i in self._rng.choice(
            n_blocks, size=min(n_dead, n_blocks), replace=False))
        worn = ssd.wear_out(victims)
        pages = len(victims) * ssd.spec.pages_per_block
        # Remapping copies every page of a dead block to a spare:
        # one read + one program each, deferred behind foreground I/O.
        self._inject_backlog(
            label, pages * (ssd.spec.read_base_s + ssd.spec.program_s))
        outcome.station = label
        outcome.rebuild_blocks = pages
        outcome.detail = (f"{worn} flash blocks at erase limit "
                          f"({WEAR_FRACTION:.0%} of {n_blocks})")

    def _inject_hdd_failure(self, outcome: FaultOutcome) -> None:
        label, hdd = self._device("raid0", "hdd")
        if hdd is None:
            outcome.skipped = True
            outcome.detail = "no rotating device to fail"
            return
        members = getattr(hdd, "disks", (hdd,))
        failed = int(self._rng.integers(len(members)))
        # Rebuild reads every surviving copy of the failed member's
        # blocks and rewrites them to the replacement: two sequential
        # transfers per block through the same actuator set the
        # foreground load is using.
        per_block = members[0].spec.transfer_time(1) * 2.0
        self._inject_backlog(label, REBUILD_BLOCKS * per_block)
        outcome.station = label
        outcome.rebuild_blocks = REBUILD_BLOCKS
        outcome.detail = (f"member {failed}/{len(members)} failed, "
                          f"{REBUILD_BLOCKS}-block rebuild")

    def _inject_power_loss(self, outcome: FaultOutcome) -> None:
        controller = self._controller()
        if controller is None:
            outcome.skipped = True
            outcome.detail = "system has no delta log to replay"
            return
        from repro.core.recovery import RecoveredImage

        loss_window = controller.dirty_delta_count
        image = RecoveredImage(controller)
        log = controller.log
        # Replay cost: sequentially fetch every live log block from the
        # log device, then decode each surviving record.
        label, _hdd = self._device("hdd", "raid0")
        if label is None:
            label, _ssd = self._device("ssd")
        live_blocks = int(round(log.occupancy * log.size_blocks))
        replay_s = (live_blocks * log.hdd.spec.transfer_time(1)
                    + image.logged_blocks * controller.config.decompress_s)
        if label is not None:
            self._inject_backlog(label, replay_s)
        outcome.station = label
        outcome.rebuild_blocks = live_blocks
        outcome.data_loss_window_blocks = loss_window
        outcome.detail = (f"replayed {image.logged_blocks} records from "
                          f"{live_blocks} log blocks, "
                          f"{image.corrupt_blocks_skipped} torn, "
                          f"{loss_window} unflushed deltas lost")

    def _inject_silent_corruption(self, outcome: FaultOutcome) -> None:
        """Flip bits in signed reference blocks, scrub, restore.

        References carry content signatures, so a signature scrub must
        catch the damage; the bytes are restored afterwards so the
        foreground run keeps serving correct data (the experiment
        measures *detection*, not propagation)."""
        controller = self._controller()
        if controller is None:
            outcome.skipped = True
            outcome.detail = "system has no signed reference blocks"
            return
        # Prefer references with live deltas — the worst case, since a
        # corrupted reference poisons every dependent block.
        refs_with_deps = sorted({ref for ref, _slot
                                 in controller.delta_map_snapshot()
                                 .values()})
        pool = [lba for lba in refs_with_deps
                if controller.ssd_block_content(lba) is not None]
        if not pool:
            pool = sorted(controller.reference_lbas)
        if not pool:
            outcome.skipped = True
            outcome.detail = "no reference blocks resident yet"
            return
        n = min(CORRUPT_BLOCKS, len(pool))
        victims = sorted(int(i) for i in self._rng.choice(
            pool, size=n, replace=False))
        saved = {}
        for lba in victims:
            content = controller.ssd_block_content(lba)
            saved[lba] = content[:64].copy()
            content[:64] ^= 0xFF
        mismatched = scrub_references(controller)
        for lba, original in saved.items():
            controller.ssd_block_content(lba)[:64] = original
        caught = set(victims) <= set(mismatched)
        outcome.station = "ssd"
        outcome.detected = caught
        outcome.rebuild_blocks = len(controller.reference_lbas)
        # The scrub re-reads every signed reference once.
        _label, ssd = self._device("ssd")
        if ssd is not None:
            self._inject_backlog(
                "ssd",
                len(controller.reference_lbas) * ssd.spec.read_base_s)
        outcome.detail = (f"corrupted {n} signed reference(s), scrub "
                          f"flagged {len(mismatched)}")

    def _controller(self):
        """The system itself when it is an I-CASH controller."""
        if hasattr(self.system, "delta_map_snapshot"):
            return self.system
        return None


def scrub_references(controller) -> List[int]:
    """Signature scrub: recompute each signed reference block's
    signatures from its SSD-resident bytes and compare against the
    cached virtual-block signatures.  Returns the mismatched LBAs —
    the detection path for :data:`FAULT_KINDS` ``silent_corruption``.

    Only references carry signatures, so the scrub never reads a
    spilled block: corruption of a spilled block's SSD copy goes
    unseen.  That gap is documented in ``docs/RELIABILITY.md``.
    """
    from repro.core.signatures import block_signatures

    mismatched: List[int] = []
    for lba in sorted(controller.reference_lbas):
        vblock = controller.cache.get(lba, touch=False)
        if vblock is None or not getattr(vblock, "signatures", None):
            continue
        content = controller.ssd_block_content(lba)
        if content is None:
            continue
        if block_signatures(content) != tuple(vblock.signatures):
            mismatched.append(lba)
    return mismatched
