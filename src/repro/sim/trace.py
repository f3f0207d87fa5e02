"""Per-request structured tracing for simulation runs.

A run's :class:`~repro.experiments.runner.RunResult` answers *how fast
on average*, and the profiler's attribution table
(:mod:`repro.sim.profile`) where each request's time went; this module
records *what each request did*, on a timeline.  Every request
flowing through a :class:`~repro.baselines.base.StorageSystem` can emit
typed span events — device operations, delta codec time, cache lookups,
background flushes and scans — stamped with sim-clock timestamps, block
addresses, byte counts and outcome tags.

Three pieces:

* **The recorder.**  :class:`Recorder` is the one implementation of
  the emission protocol model code calls (``device_span``, ``span``,
  ``instant``, ``mark``, ``begin/end_background``, name scopes).  No
  recorder is ``None`` (a bare legacy run): every instrumentation site
  tests ``if tracer is not None:``, so an untraced run pays one
  identity test per site.  The event engine always attaches one — it
  needs each request's station phases — and a fold attached to either
  engine makes it keep each emission as a flat tuple.
* **Folds.**  What observers read is folded from a taken request:
  :class:`RingBufferTracer` lays it on a timeline into a bounded ring,
  so memory stays fixed no matter how long the run is; the profiler
  (:mod:`repro.sim.profile`) classifies it into attribution items.
* **Exporters.**  :func:`export_jsonl` writes one JSON object per line
  (greppable, streamable); :func:`export_chrome_trace` writes the Chrome
  ``trace_event`` format, which opens directly in ``chrome://tracing``
  or https://ui.perfetto.dev.

The full event schema — every event type, its fields and units — is
documented in ``docs/OBSERVABILITY.md``; a test keeps that document and
:data:`EVENT_TYPES` in lockstep.

Timeline semantics: the ring lays request spans end to end on a float
cursor — the *device busy time* timeline, before the experiment runner
divides by workload concurrency.  On the legacy engine it lays each
request's emissions in emission order when the request is taken, which
is the order they happened in; on the event engine it lays what a
request triggered off its critical path at admission and the request
itself, after a ``queue`` span for its station waits, at completion.
Background work (flushes, scans, destages) runs on its own track so it
never pollutes per-request attribution.
"""

from __future__ import annotations

import json
from collections import deque
from operator import itemgetter
from typing import Deque, Dict, Iterable, List, Optional, Tuple

#: Every event type any instrumentation site may emit.  The ring fold
#: rejects unknown names, and a test asserts ``docs/OBSERVABILITY.md``
#: documents exactly this set — the schema cannot silently drift.
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

    def optional_fields(self) -> Dict[str, object]:
        """The fields an event may lack, ``None`` omitted: the tail of
        its JSONL record and the ``args`` of its Chrome event."""
        return {key: value for key, value in (
            ("req", self.req), ("lba", self.lba), ("bytes", self.nbytes),
            ("outcome", self.outcome)) if value is not None}

    def to_dict(self) -> Dict[str, object]:
        """JSONL wire form (times in microseconds, ``None`` omitted)."""
        return {"name": self.name, "ts_us": self.ts * 1e6,
                "dur_us": self.dur * 1e6, "track": self.track,
                **self.optional_fields()}


#: What a :class:`Recorder` keeps of one emission: a flat tuple
#: ``(foreground, op, name, dur_s, lba, nbytes, outcome, device)``.
#: ``foreground`` (read by :func:`foreground`) is true for what an open
#: request emitted outside every background section: its critical path,
#: which its ``BEGIN_REQUEST`` opens.  ``op`` is one of these five.  A
#: span's ``name`` is resolved (``{device}_{kind}``, or the innermost
#: name scope) and ``device`` is set for a device operation;
#: ``BEGIN_REQUEST`` carries the request's own ``request_start`` span
#: (its lba, bytes, and the operation as outcome); ``BEGIN_BACKGROUND``
#: carries the section's name and outcome, ``END_BACKGROUND`` its
#: ``extra_s`` as ``dur_s``.
SPAN, MARK, BEGIN_BACKGROUND, END_BACKGROUND, BEGIN_REQUEST = range(5)
foreground = itemgetter(0)


class Recorder:
    """The one implementation of the emission protocol.

    ``system.set_tracer`` attaches it, and every device operation,
    codec span, instant, device-internal mark, background section and
    name scope the system emits lands here.  It always folds, as they
    arrive, the open request's foreground device spans into its
    *station phases* — zero-length spans skipped, consecutive spans on
    one device coalesced (one queue entry per device visit, not per
    4 KB block) — and background device spans into ``(device,
    seconds)`` backlog jobs: all the event engine needs.  With ``keep``
    (a fold is attached: a ring trace, a profiler) it also keeps every
    emission as a flat tuple (:data:`SPAN`), in emission order.
    :meth:`take_request` hands it all over and closes the request.
    """

    def __init__(self, keep: bool = False) -> None:
        self._emitted: Optional[List[tuple]] = [] if keep else None
        self._name_scopes: List[str] = []
        self._bg_depth = 0
        self._in_request = False
        self._phases: List[Tuple[str, float]] = []
        self._bg_jobs: List[Tuple[str, float]] = []

    # -- request lifecycle ------------------------------------------------

    def begin_request(self, op: str, lba: int, nblocks: int) -> None:
        if self._in_request:
            raise RuntimeError("begin_request while a request is open")
        self._in_request = True
        if self._emitted is not None:
            self._emitted.append((True, BEGIN_REQUEST, "request_start",
                                  0.0, lba, nblocks * 4096, op, None))

    def take_request(self) -> tuple:
        """Everything since the last take — the request's station
        phases, the kept emissions (None unless keeping) and the
        background jobs — and close the request."""
        taken = (self._phases, self._emitted, self._bg_jobs)
        self._in_request = False
        self._phases = []
        self._bg_jobs = []
        if self._emitted is not None:
            self._emitted = []
        return taken

    # -- spans, instants, marks -------------------------------------------

    def device_span(self, device: str, kind: str, dur_s: float,
                    lba: Optional[int] = None, nbytes: Optional[int] = None,
                    outcome: Optional[str] = None) -> None:
        """A device operation; named ``{device}_{kind}`` unless a name
        scope (e.g. the delta log) re-labels it."""
        if self._bg_depth:
            self._bg_jobs.append((device, dur_s))
            foreground = False
        elif self._in_request:
            if dur_s > 0.0:
                phases = self._phases
                if phases and phases[-1][0] == device:
                    phases[-1] = (device, phases[-1][1] + dur_s)
                else:
                    phases.append((device, dur_s))
            foreground = True
        else:
            foreground = False
        emitted = self._emitted
        if emitted is not None:
            scopes = self._name_scopes
            emitted.append((foreground, SPAN,
                            scopes[-1] if scopes else f"{device}_{kind}",
                            dur_s, lba, nbytes, outcome, device))

    def span(self, name: str, dur_s: float, lba: Optional[int] = None,
             nbytes: Optional[int] = None,
             outcome: Optional[str] = None) -> None:
        """A phase that occupies ``dur_s`` of the current timeline."""
        if self._emitted is not None:
            self._emitted.append((self._in_request and not self._bg_depth,
                                  SPAN, name, dur_s, lba, nbytes, outcome,
                                  None))

    def instant(self, name: str, lba: Optional[int] = None,
                outcome: Optional[str] = None) -> None:
        """A zero-duration marker (cache lookup outcomes and the like)."""
        if self._emitted is not None:
            self._emitted.append((self._in_request and not self._bg_depth,
                                  SPAN, name, 0.0, lba, None, outcome,
                                  None))

    def mark(self, name: str, dur_s: float, lba: Optional[int] = None,
             nbytes: Optional[int] = None,
             outcome: Optional[str] = None) -> None:
        """A device-internal span whose time is *already inside* another
        span's duration (SSD garbage collection inside a program): it
        takes no time of its own and stays out of breakdowns."""
        if self._emitted is not None:
            self._emitted.append((self._in_request and not self._bg_depth,
                                  MARK, name, dur_s, lba, nbytes, outcome,
                                  None))

    # -- background sections ----------------------------------------------

    def begin_background(self, name: Optional[str] = None,
                         outcome: Optional[str] = None) -> None:
        """Enter a section charged off the request critical path, until
        :meth:`end_background`.  A named section is one enclosing span
        on the trace.  Sections nest (a scan can trigger a flush)."""
        self._bg_depth += 1
        if self._emitted is not None:
            self._emitted.append((False, BEGIN_BACKGROUND, name, 0.0, None,
                                  None, outcome, None))

    def end_background(self, extra_s: float = 0.0) -> None:
        """Close the innermost background section; ``extra_s`` extends
        it by time that had no spans of its own (the similarity scan's
        CPU comparisons)."""
        if self._bg_depth <= 0:
            raise RuntimeError("end_background without begin_background")
        self._bg_depth -= 1
        if self._emitted is not None:
            self._emitted.append((False, END_BACKGROUND, None, extra_s,
                                  None, None, None, None))

    # -- device-span renaming scopes ---------------------------------------

    def push_name_scope(self, name: str) -> None:
        """Re-label device spans until :meth:`pop_name_scope` (the delta
        log labels its raw device I/O ``hdd_log_append``/``hdd_log_read``)."""
        self._name_scopes.append(name)

    def pop_name_scope(self) -> None:
        self._name_scopes.pop()


class RingBufferTracer:
    """Lays a recorder's kept emissions on a timeline, into a bounded
    ring of :class:`TraceEvent`\\ s.

    ``capacity_events`` bounds memory (one evicted event bumps
    :attr:`dropped` per overflow); ``None`` keeps every event.  Each
    foreground span advances a float cursor by its duration, so request
    spans tile the busy-time timeline deterministically; background
    sections queue on their own cursor behind earlier background work.
    """

    def __init__(self, capacity_events: Optional[int] = 1 << 20) -> None:
        if capacity_events is not None and capacity_events < 1:
            raise ValueError(
                f"capacity must be >= 1 event, got {capacity_events}")
        self._capacity = capacity_events
        self.events: Deque[TraceEvent] = deque()
        self.dropped = 0
        self._now = 0.0
        self._req_seq = 0
        # Open background sections, (name, start, outcome) each; while
        # any is open, spans land on the background track at
        # ``_bg_cursor`` instead of advancing ``_now``.
        self._bg_stack: List[Tuple[Optional[str], float,
                                   Optional[str]]] = []
        self._bg_cursor = 0.0
        self._bg_free_at = 0.0

    def fold(self, emitted: Iterable[tuple], latency_s: float = 0.0,
             wait_s: float = 0.0) -> None:
        """Lay kept emissions on the timeline in the order given.

        A ``BEGIN_REQUEST`` among them opens a request — its spans land
        on the request track, a ``queue`` span of ``wait_s`` first when
        positive — and the fold closes it with its ``request_start``
        span of ``latency_s``, whatever slice of which no span covered
        still advancing the timeline.
        """
        events = self.events
        append = events.append
        bg_stack = self._bg_stack
        now, bg_cursor = self._now, self._bg_cursor
        req = request = None
        start = 0.0
        for _fg, op, name, dur, lba, nbytes, outcome, _device in emitted:
            if op <= MARK:
                if name not in EVENT_TYPES:
                    raise ValueError(
                        f"unknown trace event type {name!r}; add it to "
                        f"EVENT_TYPES and docs/OBSERVABILITY.md")
                if op == MARK:
                    append(TraceEvent(name,
                                      bg_cursor if bg_stack else now, dur,
                                      TRACK_DEVICE, req, lba, nbytes,
                                      outcome))
                elif bg_stack:
                    append(TraceEvent(name, bg_cursor, dur,
                                      TRACK_BACKGROUND, req, lba, nbytes,
                                      outcome))
                    bg_cursor += dur
                else:
                    append(TraceEvent(name, now, dur,
                                      TRACK_RUN if req is None
                                      else TRACK_REQUEST, req, lba,
                                      nbytes, outcome))
                    now += dur
            elif op == BEGIN_BACKGROUND:
                if not bg_stack:
                    # Initiated now, queued behind earlier background
                    # work: the track stays non-overlapping.
                    bg_cursor = max(now, self._bg_free_at)
                bg_stack.append((name, bg_cursor, outcome))
            elif op == END_BACKGROUND:
                name, section_start, outcome = bg_stack.pop()
                bg_cursor += dur
                if name is not None:
                    append(TraceEvent(name, section_start,
                                      bg_cursor - section_start,
                                      TRACK_BACKGROUND, req, None, None,
                                      outcome))
                if not bg_stack:
                    self._bg_free_at = bg_cursor
            else:                                   # BEGIN_REQUEST
                self._req_seq += 1
                req, start = self._req_seq, now
                request = (name, lba, nbytes, outcome)
                if wait_s > 0.0:
                    append(TraceEvent("queue", now, wait_s, TRACK_REQUEST,
                                      req))
                    now += wait_s
        if request is not None:
            if start + latency_s > now:
                now = start + latency_s
            name, lba, nbytes, outcome = request
            append(TraceEvent(name, start, latency_s, TRACK_REQUEST, req,
                              lba, nbytes, outcome))
        self._now, self._bg_cursor = now, bg_cursor
        if self._capacity is not None:
            while len(events) > self._capacity:
                events.popleft()
                self.dropped += 1


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------

def completeness_header(tracer: RingBufferTracer) -> Dict[str, object]:
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


def export_jsonl(tracer: RingBufferTracer, path: str) -> int:
    """Write the tracer's events to ``path`` as JSON Lines; returns the
    number of events written.

    The first line is a ``{"trace_header": ...}`` object carrying
    :func:`completeness_header` metadata (the one line without a
    ``name`` field).
    """
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(
            {"trace_header": completeness_header(tracer)},
            sort_keys=True))
        handle.write("\n")
        for event in tracer.events:
            handle.write(json.dumps(event.to_dict(), sort_keys=True))
            handle.write("\n")
    return len(tracer.events)


#: Stable thread ids for the Chrome exporter, one per track.
_CHROME_TIDS = {TRACK_REQUEST: 1, TRACK_BACKGROUND: 2, TRACK_RUN: 3,
                TRACK_DEVICE: 4}
_CHROME_TRACK_NAMES = {TRACK_REQUEST: "requests",
                       TRACK_BACKGROUND: "background",
                       TRACK_RUN: "run (ingest / final flush)",
                       TRACK_DEVICE: "device internal"}


def export_chrome_trace(tracer: RingBufferTracer, path: str) -> int:
    """Write the tracer's events to ``path`` in the Chrome
    ``trace_event`` JSON format.

    The output loads directly in ``chrome://tracing`` and Perfetto
    (https://ui.perfetto.dev): spans become complete (``"X"``) events,
    instants become ``"i"`` events, and each track gets a named thread.
    Returns the number of trace events written (metadata excluded).

    :func:`completeness_header` metadata is written both as a top-level
    ``"metadata"`` key and as a ``trace_completeness`` metadata
    (``"M"``) record, so the drop count survives viewers that strip
    unknown top-level keys.
    """
    header = completeness_header(tracer)
    records: List[Dict[str, object]] = [
        {"ph": "M", "pid": 0, "tid": 0, "name": "process_name",
         "args": {"name": "repro"}},
        {"ph": "M", "pid": 0, "tid": 0, "name": "trace_completeness",
         "args": header},
    ]
    records.extend({"ph": "M", "pid": 0, "tid": tid,
                    "name": "thread_name",
                    "args": {"name": _CHROME_TRACK_NAMES[track]}}
                   for track, tid in _CHROME_TIDS.items())
    for event in tracer.events:
        record: Dict[str, object] = {
            "name": event.name,
            "pid": 0,
            "tid": _CHROME_TIDS.get(event.track, 0),
            "ts": event.ts * 1e6,
            "args": event.optional_fields(),
        }
        if event.is_instant:
            record["ph"] = "i"
            record["s"] = "t"
        else:
            record["ph"] = "X"
            record["dur"] = event.dur * 1e6
        records.append(record)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"traceEvents": records, "displayTimeUnit": "ms",
                   "metadata": {"trace_completeness": header}}, handle)
    return len(tracer.events)
