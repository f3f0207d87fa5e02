"""Per-request structured tracing for simulation runs.

A system's ``read_latency`` / ``write_latency``
(:class:`~repro.sim.stats.LatencyStats`) answer *how fast on average*;
this module answers *where each request's time went*.  Every request
flowing through a :class:`~repro.baselines.base.StorageSystem` can emit
typed span events — device operations, delta codec time, cache lookups,
background flushes and scans — stamped with sim-clock timestamps, block
addresses, byte counts and outcome tags.

Three pieces:

* **Tracers.**  No tracer is ``None`` (the default): every
  instrumentation site tests ``if tracer is not None:``, so an untraced
  run pays one identity test per site; :class:`RingBufferTracer`
  records events into a bounded ring so memory stays fixed no matter
  how long the run is.
* **Exporters.**  :func:`export_jsonl` writes one JSON object per line
  (greppable, streamable); :func:`export_chrome_trace` writes the Chrome
  ``trace_event`` format, which opens directly in ``chrome://tracing``
  or https://ui.perfetto.dev.
* **Breakdown.**  :func:`phase_breakdown` folds a trace back into the
  paper's response-time decomposition: mean time per request spent in
  each phase (SSD read, delta decode, HDD log fetch...), summing to the
  mean request latency.

The full event schema — every event type, its fields and units — is
documented in ``docs/OBSERVABILITY.md``; a test keeps that document and
:data:`EVENT_TYPES` in lockstep.

Timeline semantics: the tracer lays request spans end to end on a
:class:`~repro.sim.clock.VirtualClock` — the *device busy time*
timeline, before the experiment runner divides by workload concurrency.
Background work (flushes, scans, destages) runs on its own track so it
never pollutes per-request attribution.
"""

from __future__ import annotations

import json
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, TextIO, \
    Tuple, Union

from repro.sim.clock import VirtualClock

#: Every event type any instrumentation site may emit.  Tracers reject
#: unknown names, and a test asserts ``docs/OBSERVABILITY.md`` documents
#: exactly this set — the schema cannot silently drift.
EVENT_TYPES = frozenset({
    # request lifecycle
    "request_start",
    "cache_lookup",
    "queue",
    # device operations (named {device}_{operation})
    "dram_access",
    "ssd_read",
    "ssd_write",
    "hdd_read",
    "hdd_write",
    "nvram_read",
    "nvram_write",
    "raid0_read",
    "raid0_write",
    # delta-log operations (device ops re-labelled while the log runs)
    "hdd_log_append",
    "hdd_log_read",
    # CPU phases of the delta codec
    "delta_encode",
    "delta_decode",
    # background / device-internal activity
    "flush",
    "scan",
    "gc",
    # fault injection (repro.sim.faults; see docs/RELIABILITY.md)
    "fault",
})

#: Track names: where an event sits on the timeline.
TRACK_REQUEST = "request"        # on some request's critical path
TRACK_BACKGROUND = "background"  # off the critical path (flush, scan...)
TRACK_RUN = "run"                # outside any request (ingest, final flush)
TRACK_DEVICE = "device"          # device-internal, nested inside another
#                                # span's duration (GC inside an SSD write)

_TRACKS = (TRACK_REQUEST, TRACK_BACKGROUND, TRACK_RUN, TRACK_DEVICE)


class TraceEvent:
    """One typed span (``dur > 0``) or instant (``dur == 0``) event.

    Timestamps and durations are in *seconds* of virtual time; exporters
    convert to the microseconds trace viewers expect.
    """

    __slots__ = ("name", "ts", "dur", "track", "req", "lba", "nbytes",
                 "outcome")

    def __init__(self, name: str, ts: float, dur: float, track: str,
                 req: Optional[int] = None, lba: Optional[int] = None,
                 nbytes: Optional[int] = None,
                 outcome: Optional[str] = None) -> None:
        self.name = name
        self.ts = ts
        self.dur = dur
        self.track = track
        self.req = req
        self.lba = lba
        self.nbytes = nbytes
        self.outcome = outcome

    @property
    def is_instant(self) -> bool:
        return self.dur == 0.0

    def to_dict(self) -> Dict[str, object]:
        """JSONL wire form (times in microseconds, ``None`` omitted)."""
        out: Dict[str, object] = {
            "name": self.name,
            "ts_us": self.ts * 1e6,
            "dur_us": self.dur * 1e6,
            "track": self.track,
        }
        if self.req is not None:
            out["req"] = self.req
        if self.lba is not None:
            out["lba"] = self.lba
        if self.nbytes is not None:
            out["bytes"] = self.nbytes
        if self.outcome is not None:
            out["outcome"] = self.outcome
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TraceEvent({self.name!r}, ts={self.ts * 1e6:.1f}us, "
                f"dur={self.dur * 1e6:.1f}us, track={self.track!r})")


class RingBufferTracer:
    """Records :class:`TraceEvent`\\ s into a bounded ring buffer.

    ``capacity_events`` bounds memory (one evicted event bumps
    :attr:`dropped` per overflow); ``None`` keeps every event.  The
    tracer owns a :class:`~repro.sim.clock.VirtualClock` (or shares one
    passed in) and advances it by each foreground span's duration, so
    request spans tile the busy-time timeline deterministically.
    """

    def __init__(self, capacity_events: Optional[int] = 1 << 20,
                 clock: Optional[VirtualClock] = None) -> None:
        if capacity_events is not None and capacity_events < 1:
            raise ValueError(
                f"capacity must be >= 1 event, got {capacity_events}")
        self._capacity = capacity_events
        self.events: Deque[TraceEvent] = deque()
        self.dropped = 0
        self.clock = clock if clock is not None else VirtualClock()
        # Request state.
        self._req_seq = 0
        self._in_request = False
        self._req_op = ""
        self._req_lba = 0
        self._req_nblocks = 0
        self._req_start = 0.0
        # Background-section state: a stack of (name, start, outcome);
        # while non-empty, spans land on the background track at
        # ``_bg_cursor`` instead of advancing the foreground clock.
        self._bg_stack: List[Tuple[Optional[str], float,
                                   Optional[str]]] = []
        self._bg_cursor = 0.0
        self._bg_free_at = 0.0
        # Device-span renaming scopes (the delta log re-labels the raw
        # device operations it issues).
        self._name_scopes: List[str] = []

    # -- emission core ----------------------------------------------------

    def _emit(self, event: TraceEvent) -> None:
        if self._capacity is not None and \
                len(self.events) >= self._capacity:
            self.events.popleft()
            self.dropped += 1
        self.events.append(event)

    def _place(self, dur_s: float) -> Tuple[float, str]:
        """Allot ``dur_s`` of timeline; returns (start ts, track)."""
        if self._bg_stack:
            ts = self._bg_cursor
            self._bg_cursor += dur_s
            return ts, TRACK_BACKGROUND
        ts = self.clock.now
        self.clock.advance(dur_s)
        return ts, TRACK_REQUEST if self._in_request else TRACK_RUN

    # -- request lifecycle ------------------------------------------------

    def begin_request(self, op: str, lba: int, nblocks: int) -> None:
        if self._in_request:
            raise RuntimeError("begin_request while a request is open")
        self._req_seq += 1
        self._in_request = True
        self._req_op = op
        self._req_lba = lba
        self._req_nblocks = nblocks
        self._req_start = self.clock.now

    def end_request(self, latency_s: float) -> None:
        if not self._in_request:
            raise RuntimeError("end_request without begin_request")
        # Reconcile: whatever slice of the latency was not covered by
        # emitted spans still advances the timeline, so the next request
        # starts after this one ends.
        self.clock.advance_to(self._req_start + latency_s)
        self._emit(TraceEvent(
            "request_start", self._req_start, latency_s, TRACK_REQUEST,
            req=self._req_seq, lba=self._req_lba,
            nbytes=self._req_nblocks * 4096, outcome=self._req_op))
        self._in_request = False

    # -- spans, instants, marks -------------------------------------------

    def span(self, name: str, dur_s: float, lba: Optional[int] = None,
             nbytes: Optional[int] = None,
             outcome: Optional[str] = None) -> None:
        """A phase that occupies ``dur_s`` of the current timeline."""
        if name not in EVENT_TYPES:
            raise ValueError(f"unknown trace event type {name!r}; add it "
                             f"to EVENT_TYPES and docs/OBSERVABILITY.md")
        ts, track = self._place(dur_s)
        self._emit(TraceEvent(name, ts, dur_s, track,
                              req=self._req_seq if self._in_request
                              else None,
                              lba=lba, nbytes=nbytes, outcome=outcome))

    def instant(self, name: str, lba: Optional[int] = None,
                outcome: Optional[str] = None) -> None:
        """A zero-duration marker (cache lookup outcomes and the like)."""
        self.span(name, 0.0, lba=lba, outcome=outcome)

    def mark(self, name: str, dur_s: float, lba: Optional[int] = None,
             nbytes: Optional[int] = None,
             outcome: Optional[str] = None) -> None:
        """A device-internal span whose time is *already inside* another
        span's duration (SSD garbage collection inside a program).  Does
        not advance the timeline and is excluded from breakdowns."""
        if name not in EVENT_TYPES:
            raise ValueError(f"unknown trace event type {name!r}; add it "
                             f"to EVENT_TYPES and docs/OBSERVABILITY.md")
        ts = self._bg_cursor if self._bg_stack else self.clock.now
        self._emit(TraceEvent(name, ts, dur_s, TRACK_DEVICE,
                              req=self._req_seq if self._in_request
                              else None,
                              lba=lba, nbytes=nbytes, outcome=outcome))

    def device_span(self, device: str, kind: str, dur_s: float,
                    lba: Optional[int] = None, nbytes: Optional[int] = None,
                    outcome: Optional[str] = None) -> None:
        """A device operation; named ``{device}_{kind}`` unless a name
        scope (e.g. the delta log) re-labels it."""
        if self._name_scopes:
            name = self._name_scopes[-1]
        else:
            name = f"{device}_{kind}"
        self.span(name, dur_s, lba=lba, nbytes=nbytes, outcome=outcome)

    # -- background sections ----------------------------------------------

    def begin_background(self, name: Optional[str] = None,
                         outcome: Optional[str] = None) -> None:
        """Enter a section charged off the request critical path.

        Spans emitted until :meth:`end_background` land on the
        background track; the foreground clock does not move.  A named
        section additionally emits one enclosing span covering its
        children.  Sections nest (a scan can trigger a flush).
        """
        if not self._bg_stack:
            # Background work is initiated now but the track may still
            # be busy with earlier background work; queue behind it so
            # the track stays non-overlapping and monotonic.
            self._bg_cursor = max(self.clock.now, self._bg_free_at)
        self._bg_stack.append((name, self._bg_cursor, outcome))

    def end_background(self, extra_s: float = 0.0) -> None:
        """Close the innermost background section.

        ``extra_s`` extends the section by time that had no individual
        spans (e.g. the similarity scan's CPU comparisons).
        """
        if not self._bg_stack:
            raise RuntimeError("end_background without begin_background")
        name, start, outcome = self._bg_stack.pop()
        self._bg_cursor += extra_s
        if name is not None:
            self._emit(TraceEvent(name, start, self._bg_cursor - start,
                                  TRACK_BACKGROUND,
                                  req=self._req_seq if self._in_request
                                  else None,
                                  outcome=outcome))
        if not self._bg_stack:
            self._bg_free_at = self._bg_cursor

    # -- device-span renaming scopes ---------------------------------------

    def push_name_scope(self, name: str) -> None:
        """Re-label device spans until :meth:`pop_name_scope` (the delta
        log labels its raw device I/O ``hdd_log_append``/``hdd_log_read``)."""
        if name not in EVENT_TYPES:
            raise ValueError(f"unknown trace event type {name!r}")
        self._name_scopes.append(name)

    def pop_name_scope(self) -> None:
        self._name_scopes.pop()


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def completeness_header(tracer) -> Dict[str, object]:
    """Trace-completeness metadata for an exported trace.

    Carries the ring buffer's bookkeeping into the file itself, so an
    exported trace can no longer silently under-report: ``recorded`` is
    the number of surviving events, ``dropped`` the number the ring
    evicted, and ``complete`` is ``True`` only when nothing was lost.
    """
    recorded = len(tracer.events)
    dropped = tracer.dropped
    return {"recorded": recorded, "dropped": dropped,
            "complete": dropped == 0}


def export_jsonl(events: Iterable[TraceEvent],
                 destination: Union[str, TextIO],
                 tracer=None) -> int:
    """Write events as JSON Lines; returns the number written.

    With ``tracer`` (the :class:`RingBufferTracer` that recorded the
    events), the first line is a ``{"trace_header": ...}`` object
    carrying :func:`completeness_header` metadata (the one line without
    a ``name`` field).
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return export_jsonl(events, handle, tracer=tracer)
    if tracer is not None:
        destination.write(json.dumps(
            {"trace_header": completeness_header(tracer)},
            sort_keys=True))
        destination.write("\n")
    count = 0
    for event in events:
        destination.write(json.dumps(event.to_dict(), sort_keys=True))
        destination.write("\n")
        count += 1
    return count


#: Stable thread ids for the Chrome exporter, one per track.
_CHROME_TIDS = {TRACK_REQUEST: 1, TRACK_BACKGROUND: 2, TRACK_RUN: 3,
                TRACK_DEVICE: 4}
_CHROME_TRACK_NAMES = {TRACK_REQUEST: "requests",
                       TRACK_BACKGROUND: "background",
                       TRACK_RUN: "run (ingest / final flush)",
                       TRACK_DEVICE: "device internal"}


def export_chrome_trace(events: Iterable[TraceEvent],
                        destination: Union[str, TextIO],
                        process_name: str = "repro",
                        tracer=None) -> int:
    """Write the Chrome ``trace_event`` JSON format.

    The output loads directly in ``chrome://tracing`` and Perfetto
    (https://ui.perfetto.dev): spans become complete (``"X"``) events,
    instants become ``"i"`` events, and each track gets a named thread.
    Returns the number of trace events written (metadata excluded).

    With ``tracer``, :func:`completeness_header` metadata is written
    both as a top-level ``"metadata"`` key and as a
    ``trace_completeness`` metadata (``"M"``) record, so the drop count
    survives viewers that strip unknown top-level keys.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return export_chrome_trace(events, handle, process_name,
                                       tracer=tracer)
    records: List[Dict[str, object]] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": process_name}},
    ]
    header = completeness_header(tracer) if tracer is not None else None
    if header is not None:
        records.append({"ph": "M", "pid": 0, "tid": 0,
                        "name": "trace_completeness", "args": header})
    records.extend({"ph": "M", "pid": 0, "tid": tid,
                    "name": "thread_name",
                    "args": {"name": _CHROME_TRACK_NAMES[track]}}
                   for track, tid in _CHROME_TIDS.items())
    count = 0
    for event in events:
        args: Dict[str, object] = {}
        if event.req is not None:
            args["req"] = event.req
        if event.lba is not None:
            args["lba"] = event.lba
        if event.nbytes is not None:
            args["bytes"] = event.nbytes
        if event.outcome is not None:
            args["outcome"] = event.outcome
        record: Dict[str, object] = {
            "name": event.name,
            "pid": 0,
            "tid": _CHROME_TIDS.get(event.track, 0),
            "ts": event.ts * 1e6,
            "args": args,
        }
        if event.is_instant:
            record["ph"] = "i"
            record["s"] = "t"
        else:
            record["ph"] = "X"
            record["dur"] = event.dur * 1e6
        records.append(record)
        count += 1
    payload: Dict[str, object] = {"traceEvents": records,
                                  "displayTimeUnit": "ms"}
    if header is not None:
        payload["metadata"] = {"trace_completeness": header}
    json.dump(payload, destination)
    return count


# ---------------------------------------------------------------------------
# Per-phase latency breakdown
# ---------------------------------------------------------------------------

class PhaseBreakdown:
    """Mean per-request time spent in each phase, for one request class.

    ``phases`` maps phase name to total seconds across all requests of
    the class; ``other`` is request latency no child span covered
    (zero for the I-CASH controller, whose instrumentation is exact).
    The per-phase means sum to the class's mean request latency — the
    paper's response-time decomposition recovered from one trace.
    """

    def __init__(self, op: str, n_requests: int, total_s: float,
                 phases: Dict[str, float], other_s: float) -> None:
        self.op = op
        self.n_requests = n_requests
        self.total_s = total_s
        self.phases = phases
        self.other_s = other_s

    @property
    def mean_us(self) -> float:
        """Mean request latency in microseconds."""
        return (self.total_s / self.n_requests * 1e6
                if self.n_requests else 0.0)

    def render(self) -> str:
        title = (f"{self.op} phase breakdown "
                 f"(n={self.n_requests}, mean {self.mean_us:.1f} us)")
        lines = [title, "-" * len(title)]
        if not self.n_requests:
            lines.append("(no requests traced)")
            return "\n".join(lines)
        rows = sorted(self.phases.items(), key=lambda kv: -kv[1])
        if self.other_s > 0:
            rows.append(("other", self.other_s))
        total = self.total_s or 1.0
        for name, seconds in rows:
            if seconds == 0.0:
                continue
            mean_us = seconds / self.n_requests * 1e6
            lines.append(f"{name:<20} {mean_us:>10.2f} us/op "
                         f"{seconds / total:>7.1%}")
        lines.append(f"{'total':<20} {self.mean_us:>10.2f} us/op "
                     f"{1:>7.1%}")
        return "\n".join(lines)


def phase_breakdown(events: Iterable[TraceEvent],
                    op: str = "read") -> PhaseBreakdown:
    """Fold request-track events into a per-phase latency breakdown.

    Only spans on the request track count (background and
    device-internal time is off the critical path by construction), so
    the phases partition each request's service latency exactly.
    """
    request_total: Dict[int, float] = {}
    child_totals: Dict[int, float] = {}
    phases: Dict[str, float] = {}
    pending: List[TraceEvent] = []
    for event in events:
        if event.track != TRACK_REQUEST:
            continue
        if event.name == "request_start":
            if event.outcome == op and event.req is not None:
                request_total[event.req] = event.dur
        elif event.dur > 0.0 and event.req is not None:
            pending.append(event)
    for event in pending:
        if event.req in request_total:
            phases[event.name] = phases.get(event.name, 0.0) + event.dur
            child_totals[event.req] = \
                child_totals.get(event.req, 0.0) + event.dur
    total = sum(request_total.values())
    covered = sum(child_totals.values())
    other = max(0.0, total - covered)
    return PhaseBreakdown(op, len(request_total), total, phases, other)
