"""Simulated-time profiler: critical-path attribution and flame stacks.

The recorder (:mod:`repro.sim.trace`) records *what happened*; the event
engine (:mod:`repro.sim.engine`) decides *when*.  This module closes
the loop and answers the paper's actual question — **which phase on
which device dominates a request's latency** — by attributing every
second of end-to-end response time to a ``(device, phase)`` pair:
``("hdd", "queue_wait")``, ``("ssd", "read")``, ``("cpu",
"delta_decode")``...  The paper's headline claims are exactly such
attributions (a read becomes one SSD read + delta fetch + µs-scale
decompression instead of a ms-scale random HDD access), and under
concurrency only per-pair accounting can show, e.g., that 72 % of p99
read latency is HDD queue wait at the saturation knee.

Three pieces:

* **Profilers.**  No profiler is ``None`` (the default): the engines
  test ``is not None`` once per run, so the hot path stays at zero
  overhead; :class:`Profiler` is a fold over each taken request's kept
  emissions: it classifies them into ``(device, phase)`` items of an
  :class:`AttributionTable`.  ``run_benchmark(..., profiler=...)``
  threads it through both engines: the event engine adds exact
  per-station queue waits to the service items, the legacy runner
  folds service items alone (no queues exist in that model).
* **The attribution table.**  Per operation class and ``(device,
  phase)`` pair: total and mean time, p50/p99 of per-request
  contributions, share of the class's latency, plus a *blame* summary
  over the p99 tail.  Per-request sums reconcile exactly with the
  end-to-end latency statistics — asserted by the test suite.
* **The folded-stack exporter.**  :func:`export_folded` writes
  ``component;device;phase count_us`` lines consumable by standard
  flamegraph tooling (flamegraph.pl, speedscope, inferno): the table's
  rows as the request stacks, a recorded trace's background and run
  span trees beside them.

Documented in the "Profiling & critical path" section of
``docs/OBSERVABILITY.md``; ``repro run W --critpath`` is the CLI front
end and
the run ledger keeps each profiled run's heaviest rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.sim.stats import LatencyStats
from repro.sim.trace import SPAN, TRACK_BACKGROUND, TRACK_RUN, \
    TraceEvent, foreground

#: Device heads a span name may start with; ``classify_phase`` splits
#: ``{device}_{phase}`` names on this set (``hdd_log_read`` ->
#: ``("hdd", "log_read")``).
DEVICE_HEADS = ("dram", "ssd", "hdd", "raid0")

#: The phase name end-to-end time not covered by any emitted item is
#: attributed to, paired with the ``host`` pseudo-device.
RESIDUAL_PHASE = "other"


def classify_phase(name: str,
                   device: Optional[str] = None) -> Tuple[str, str]:
    """Map a trace span name to its ``(device, phase)`` attribution pair.

    ``device`` pins the device when the caller knows it (the recorder
    keeps which device model emitted a span, so a re-labelled span
    attributes to the device that served it); without it the name is
    split on :data:`DEVICE_HEADS`.
    CPU phases (``delta_encode``/``delta_decode``) and anything else
    unprefixed attribute to the ``cpu`` pseudo-device.
    """
    if device is not None:
        if name.startswith(device + "_"):
            return device, name[len(device) + 1:]
        return device, name
    head, sep, rest = name.partition("_")
    if sep and head in DEVICE_HEADS:
        return head, rest
    return "cpu", name


# ---------------------------------------------------------------------------
# Attribution
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RequestAttribution:
    """One request's attributed phase list, in emission order."""

    op: str
    latency_s: float
    #: ``(device, phase, seconds)`` items including queue waits and the
    #: ``(host, other, ...)`` residual; they sum to ``latency_s``.
    items: Tuple[Tuple[str, str, float], ...]


class AttributionRow:
    """One ``(device, phase)`` pair's aggregate for one request class.

    ``stats`` holds the per-request contributions of the requests that
    *touched* the pair (so ``p50_us``/``p99_us`` describe how much a
    request pays when it pays at all); ``mean_us`` spreads the total
    over *every* request of the class, so the rows of a class sum to
    its mean latency.
    """

    __slots__ = ("op", "device", "phase", "total_s", "stats")

    def __init__(self, op: str, device: str, phase: str) -> None:
        self.op = op
        self.device = device
        self.phase = phase
        self.total_s = 0.0
        self.stats = LatencyStats()

    @property
    def n_touched(self) -> int:
        return self.stats.count

    def p50_us(self) -> float:
        return self.stats.percentile(50) * 1e6

    def p99_us(self) -> float:
        return self.stats.percentile(99) * 1e6


@dataclass(frozen=True)
class Blame:
    """The dominant pair over a class's p99 latency tail."""

    op: str
    device: str
    phase: str
    #: The pair's fraction of all latency in the tail set.
    share: float
    #: Requests with latency >= the class p99 (the tail set size).
    tail_n: int
    threshold_us: float

    def render(self) -> str:
        return (f"blame: {self.share:.0%} of the {self.op} p99 tail "
                f"({self.tail_n} requests >= {self.threshold_us:.1f} us) "
                f"is {self.device} {self.phase}")


class AttributionTable:
    """Per-class, per-``(device, phase)`` latency attribution.

    Fed one request at a time (:meth:`record_request`); any end-to-end
    time the caller's items do not cover is attributed to ``(host,
    other)`` so per-request sums always equal the request latency —
    the invariant the acceptance test asserts.
    """

    def __init__(self) -> None:
        self._rows: Dict[Tuple[str, str, str], AttributionRow] = {}
        self._latency: Dict[str, LatencyStats] = {}
        self._requests: List[RequestAttribution] = []

    # -- recording --------------------------------------------------------

    def record_request(self, op: str,
                       items: Sequence[Tuple[str, str, float]],
                       latency_s: float) -> None:
        """Attribute one request's ``(device, phase, seconds)`` items.

        Items of the same pair merge; a positive residual against
        ``latency_s`` lands on ``(host, other)``.
        """
        covered = 0.0
        merged: Dict[Tuple[str, str], float] = {}
        kept: List[Tuple[str, str, float]] = []
        for device, phase, dur in items:
            if dur <= 0.0:
                continue
            covered += dur
            merged[(device, phase)] = merged.get((device, phase),
                                                 0.0) + dur
            kept.append((device, phase, dur))
        residual = latency_s - covered
        if residual > 1e-12:
            merged[("host", RESIDUAL_PHASE)] = residual
            kept.append(("host", RESIDUAL_PHASE, residual))
        for (device, phase), total in merged.items():
            row = self._rows.get((op, device, phase))
            if row is None:
                row = AttributionRow(op, device, phase)
                self._rows[(op, device, phase)] = row
            row.total_s += total
            row.stats.record(total)
        self._latency.setdefault(op, LatencyStats()).record(latency_s)
        self._requests.append(RequestAttribution(op, latency_s,
                                                 tuple(kept)))

    # -- queries ----------------------------------------------------------

    @property
    def ops(self) -> List[str]:
        return sorted(self._latency)

    @property
    def requests(self) -> List[RequestAttribution]:
        return list(self._requests)

    def latency(self, op: str) -> LatencyStats:
        """The class's latency statistics; empty ones, not added to the
        table, for a class that recorded nothing."""
        stats = self._latency.get(op)
        return stats if stats is not None else LatencyStats()

    def n_requests(self, op: str) -> int:
        return self.latency(op).count

    def total_s(self, op: str) -> float:
        return self.latency(op).total

    def mean_us(self, op: str) -> float:
        return self.latency(op).mean_us

    def rows(self, op: str) -> List[AttributionRow]:
        """The class's rows, heaviest total first."""
        rows = [row for key, row in self._rows.items() if key[0] == op]
        return sorted(rows, key=lambda r: (-r.total_s, r.device,
                                           r.phase))

    def row_mean_us(self, row: AttributionRow) -> float:
        """The row's total spread over every request of its class."""
        n = self.n_requests(row.op)
        return row.total_s / n * 1e6 if n else 0.0

    def share(self, row: AttributionRow) -> float:
        total = self.total_s(row.op)
        return row.total_s / total if total > 0 else 0.0

    def blame(self, op: str) -> Optional[Blame]:
        """Which pair dominates the class's latency tail.

        Pools the per-request attributions of every request whose
        latency reaches the class's p99 and returns the
        pair holding the largest share of that pooled time.
        """
        stats = self.latency(op)
        if not stats.count:
            return None
        threshold = stats.percentile(99)
        pooled: Dict[Tuple[str, str], float] = {}
        tail_n = 0
        tail_total = 0.0
        for request in self._requests:
            if request.op != op or request.latency_s < threshold:
                continue
            tail_n += 1
            tail_total += request.latency_s
            for device, phase, dur in request.items:
                pooled[(device, phase)] = pooled.get((device, phase),
                                                     0.0) + dur
        if not pooled or tail_total <= 0.0:
            return None
        (device, phase), heaviest = max(
            pooled.items(), key=lambda kv: (kv[1], kv[0]))
        return Blame(op=op, device=device, phase=phase,
                     share=heaviest / tail_total, tail_n=tail_n,
                     threshold_us=threshold * 1e6)

    # -- rendering --------------------------------------------------------

    def render(self) -> str:
        """The attribution table, every class."""
        sections = [self._render_op(op) for op in self.ops]
        return "\n\n".join(sections) if sections else "(no requests profiled)"

    def _render_op(self, op: str) -> str:
        n = self.n_requests(op)
        title = (f"{op} critical path (n={n}, "
                 f"mean {self.mean_us(op):.1f} us, "
                 f"p99 {self.latency(op).percentile(99) * 1e6:.1f} us)")
        lines = [title, "-" * len(title)]
        lines.append(f"{'device':<8} {'phase':<14} {'mean_us':>10} "
                     f"{'p50_us':>10} {'p99_us':>10} {'share':>7} "
                     f"{'hit':>6}")
        lines.extend(
                f"{row.device:<8} {row.phase:<14} "
                f"{self.row_mean_us(row):>10.2f} {row.p50_us():>10.2f} "
                f"{row.p99_us():>10.2f} {self.share(row):>7.1%} "
                f"{row.n_touched / n:>6.0%}"
                for row in self.rows(op))
        lines.append(f"{'total':<8} {'':<14} {self.mean_us(op):>10.2f} "
                     f"{'':>10} {'':>10} {1:>7.1%}")
        blame = self.blame(op)
        if blame is not None:
            lines.append(blame.render())
        return "\n".join(lines)

    def to_doc(self) -> Dict[str, object]:
        """JSON-ready form (``repro run W --critpath --json``): each
        class's count, mean and p99, the rows and each class's blame."""
        blames = {op: self.blame(op) for op in self.ops}
        return {
            "classes": {op: {"n": self.n_requests(op),
                             "mean_us": self.mean_us(op),
                             "p99_us": self.latency(op).percentile(99) * 1e6}
                        for op in self.ops},
            "attribution": self.to_rows(),
            "blame": {op: None if blame is None else {
                key: value for key, value in asdict(blame).items()
                if key != "op"} for op, blame in blames.items()}}

    def to_rows(self) -> List[Dict[str, object]]:
        """JSON-ready rows (:meth:`to_doc`'s ``attribution`` array)."""
        out: List[Dict[str, object]] = []
        for op in self.ops:
            out.extend({
                "op": op,
                "device": row.device,
                "phase": row.phase,
                "total_us": row.total_s * 1e6,
                "mean_us": self.row_mean_us(row),
                "p50_us": row.p50_us(),
                "p99_us": row.p99_us(),
                "share": self.share(row),
                "n_touched": row.n_touched,
            } for row in self.rows(op))
        return out

    def top_rows(self, per_op: int) -> List[Dict[str, object]]:
        """The heaviest ``per_op`` JSON-ready rows of each class.

        The curated form ledger snapshots keep: where the latency
        went, without the full table (see docs/LEDGER.md).
        """
        keep = {(op, row.device, row.phase)
                for op in self.ops
                for row in self.rows(op)[:per_op]}
        return [row for row in self.to_rows()
                if (row["op"], row["device"], row["phase"]) in keep]


# ---------------------------------------------------------------------------
# Profilers
# ---------------------------------------------------------------------------


class Profiler:
    """Folds taken requests into an attribution table."""

    def __init__(self) -> None:
        self.table = AttributionTable()

    def fold(self, emitted, latency_s: float,
             waits: Sequence[Tuple[str, float]] = ()) -> None:
        """Attribute one taken request: its ``(station, seconds)`` queue
        waits, then its service spans as ``(device, phase, dur)`` items
        (its foreground spans of positive duration: instants take no
        time, marks' time is already inside another span), under the
        operation its first foreground emission (``BEGIN_REQUEST``)
        carries."""
        op = next(filter(foreground, emitted))[6]
        items = [(device, "queue_wait", dur) for device, dur in waits]
        items += [classify_phase(name, device) + (dur,)
                  for fg, kind, name, dur, _lba, _nbytes, _outcome, device
                  in emitted if fg and kind == SPAN and dur > 0.0]
        self.table.record_request(op, items, latency_s)


# ---------------------------------------------------------------------------
# Folded-stack export (flamegraph tooling)
# ---------------------------------------------------------------------------


#: Enclosing background-section span names: they cover their children
#: on the timeline, so the fold keeps them as a single stack frame.
_SECTION_NAMES = ("flush", "scan")


def _fold_nested(events: List[TraceEvent], root: str,
                 stacks: Dict[str, float]) -> None:
    """Collapse one track's interval-nested spans into ``stacks``.

    Spans sorted by ``(ts, -dur)`` visit parents before the children
    laid inside their interval; a stack of open ``(end_ts, path)``
    entries recovers the nesting.  Each span first contributes its full
    duration at its path, then has every child's duration subtracted
    from it — leaving exactly its *self* time, the flamegraph
    convention.
    """
    open_spans: List[Tuple[float, List[str]]] = []  # (end_ts, path)
    ordered = sorted((e for e in events if e.dur > 0.0),
                     key=lambda e: (e.ts, -e.dur))
    for event in ordered:
        while open_spans and open_spans[-1][0] <= event.ts + 1e-12:
            open_spans.pop()
        if event.name in _SECTION_NAMES:
            frames = [event.name]
        else:
            frames = list(classify_phase(event.name))
        parent = open_spans[-1][1] if open_spans else [root]
        path = parent + frames
        key = ";".join(path)
        stacks[key] = stacks.get(key, 0.0) + event.dur
        if open_spans:  # convert the parent's emission to self time
            parent_key = ";".join(parent)
            stacks[parent_key] = stacks.get(parent_key,
                                            0.0) - event.dur
        open_spans.append((event.ts + event.dur, path))


def fold_stacks(table: AttributionTable,
                events: Iterable[TraceEvent]) -> Dict[str, float]:
    """Collapse a run into ``{semicolon-joined stack: seconds}``.

    Request stacks are ``table``'s rows (``read;ssd;read``, each row's
    total time), so they cover the requests the table measured; the
    background and run tracks of ``events`` fold under their track name
    with span nesting preserved (``background;flush;hdd;log_append``),
    over the whole recorded run.  The ring's request track and
    device-internal marks are left out — the table already attributes
    every request's time, and a mark's lives inside an enclosing span.
    """
    stacks = {f"{row.op};{row.device};{row.phase}": row.total_s
              for op in table.ops for row in table.rows(op)}
    by_track: Dict[str, List[TraceEvent]] = {}
    for event in events:
        by_track.setdefault(event.track, []).append(event)
    _fold_nested(by_track.get(TRACK_BACKGROUND, []), TRACK_BACKGROUND,
                 stacks)
    _fold_nested(by_track.get(TRACK_RUN, []), TRACK_RUN, stacks)
    return stacks


def export_folded(table: AttributionTable, events: Iterable[TraceEvent],
                  path: str) -> int:
    """Write folded flame stacks (``frame;frame;frame count_us``) to
    ``path``.

    One line per distinct stack, counts in integer microseconds —
    directly consumable by flamegraph.pl, inferno or speedscope.
    Sub-microsecond stacks are dropped (they would round to zero).
    Returns the number of lines written.
    """
    stacks = fold_stacks(table, events)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for key in sorted(stacks):
            value = round(stacks[key] * 1e6)
            if value < 1:
                continue
            handle.write(f"{key} {value}\n")
            count += 1
    return count
