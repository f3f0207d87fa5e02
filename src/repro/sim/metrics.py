"""Windowed time-series metrics and SLO monitoring.

:mod:`repro.sim.trace` answers *where one request's time went*; run-end
counters answer *how often over a whole run*.  This module answers
**how did each quantity evolve over simulated time?**  Throughput, SSD
write counts for the lifetime argument (Table 6), delta-log occupancy,
reference-block churn — a run-end aggregate cannot show convergence,
warm-up or pathologies that cancel out in the mean.

Four pieces, all held by one :class:`Monitor` per run:

* **The table.**  Each entry of :data:`INSTRUMENT_CATALOGUE` says what
  an instrument is — a counter (monotone), a gauge (point-in-time) or a
  histogram (bucketed distribution), its unit, its label — and what it
  reads: the controller, each device by kind, the run, the event
  engine's stations or the fault injector.  :meth:`Monitor.attach`
  walks the table, so no model class knows the monitor exists.  Almost
  every instrument reads the ``int`` counter attributes of a device or
  system (:class:`~repro.devices.base.Counted`) or a live size at
  sample time only — nothing on the hot path.
* **The fold.**  :meth:`Monitor.fold` runs once per completed request,
  in one frame: it bumps the two request counters and the latency and
  queue-wait histograms, and closes a window when the request crosses a
  boundary of the interval.  Timestamps are seconds of *device busy
  time* — the virtual timeline the tracer lays spans on, before the
  experiment runner divides by workload concurrency — so attribution
  granularity is one request.
* **The columns.**  Each closed window appends its bounds to two lists
  and every series' cumulative value to that series' column, so
  per-window deltas telescope exactly to the end-of-run totals.  Beyond
  ``max_windows`` adjacent windows merge pairwise and the interval
  doubles, so memory stays fixed however long the run is —
  downsampling, not truncation.
* **Readers.**  :func:`export_series_csv` and
  :func:`export_series_jsonl` write per-window rows;
  :func:`export_prometheus` writes the final cumulative state.
  Declarative :class:`SLORule`\\ s (p99 read latency, SSD daily-write
  budget, delta-log high-water mark...) are checked against every
  window when the run finishes, into :class:`SLOBreach` records.

``python -m repro run WORKLOAD --monitor DIR`` is the CLI front end,
and :func:`repro.experiments.runner.run_benchmark` threads the breaches
into :class:`~repro.experiments.runner.RunResult`.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import partial
from itertools import accumulate
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, \
    Sequence, Tuple

# ---------------------------------------------------------------------------
# Instrument catalogue (the doc-parity-checked schema)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstrumentSpec:
    """Catalogue entry: what an instrument is, in what unit, and what
    it reads.

    ``source`` names what ``read`` is handed, in the order
    :meth:`Monitor.attach` walks the sources: ``"request"`` (nothing:
    the per-request instruments); ``"controller"`` (an I-CASH
    controller); ``"device"``, ``"block_device"``, ``"ssd"``, ``"hdd"``
    (every device of ``system.devices()``, every
    :class:`~repro.devices.base.Device`, flash SSD or disk: one series
    per device, labelled by its name); ``"run"`` (:class:`_Run`);
    ``"engine"`` (the event engine, on event runs); ``"faults"`` (the
    fault injector, on runs with a fault plan).

    ``read(source)`` is the value at sample time; for a labelled
    instrument outside the device sources it is ``(label value,
    value)`` pairs, one per station or fault kind there is by then.
    Without ``read`` the instrument is fed by :meth:`Monitor.fold`,
    once per completed request.
    """

    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    help: str
    source: str
    read: Optional[Callable] = None
    label: Optional[str] = None


class _Run(NamedTuple):
    """The ``"run"`` source: what drives the requests."""

    workload: object
    engine: object


def _in_flight(run: _Run) -> int:
    """Requests admitted and not complete: the event engine counts them;
    a closed-loop replay keeps one per stream."""
    if run.engine is None:
        return run.workload.io_concurrency
    return run.engine.in_flight


def _delta_hit_ratio(controller) -> float:
    total = controller.ram_delta_hits + controller.log_delta_fetches
    return controller.ram_delta_hits / total if total else 0.0


def _seeks(hdd) -> int:
    return hdd.near_accesses + hdd.random_accesses


def _seek_ratio(hdd) -> float:
    total = _seeks(hdd) + hdd.sequential_accesses
    return _seeks(hdd) / total if total else 0.0


def _station_depths(engine):
    return [(station.name, len(station.waiting) + station.active
             + station.bg_active) for station in engine.stations.values()]


def _station_utilizations(engine):
    return [(station.name, station.utilization(engine.now))
            for station in engine.stations.values()]


def _fired_by_kind(faults):
    return Counter(outcome.kind for outcome in faults.outcomes
                   if not outcome.skipped).items()


def _rebuild_blocks(faults) -> int:
    return sum(outcome.rebuild_blocks for outcome in faults.outcomes
               if not outcome.skipped)


def _degraded_s(faults) -> float:
    """Closed degraded windows, summed in the order they closed: by
    recovery time, windows closing at one instant in injection order
    (the order one engine event closes them in)."""
    total = 0.0
    for outcome in sorted((o for o in faults.outcomes
                           if o.t_recovered_s is not None),
                          key=attrgetter("t_recovered_s")):
        total += outcome.degraded_s
    return total


def _read_each(read: Callable, members) -> List[Tuple[str, float]]:
    """``read`` of each ``(label, device)`` member, labelled."""
    return [(label, read(device)) for label, device in members]


#: Every instrument a run may have, and what each reads.  A test asserts
#: ``docs/OBSERVABILITY.md`` documents exactly this set — the metrics
#: schema cannot silently drift, just like the trace ``EVENT_TYPES``.
#: Within a source, rows register in this order.
INSTRUMENT_CATALOGUE: Dict[str, InstrumentSpec] = {
    # run / workload level
    "requests_read_total": InstrumentSpec(
        "counter", "requests", "read requests completed", "request"),
    "requests_write_total": InstrumentSpec(
        "counter", "requests", "write requests completed", "request"),
    "read_latency_us": InstrumentSpec(
        "histogram", "us", "per-request read service latency", "request"),
    "write_latency_us": InstrumentSpec(
        "histogram", "us", "per-request write service latency",
        "request"),
    "offered_load_streams": InstrumentSpec(
        "gauge", "streams", "concurrent client streams the workload "
                            "drives (closed-loop offered load)",
        "run", lambda run: run.workload.io_concurrency),
    "outstanding_requests": InstrumentSpec(
        "gauge", "requests", "requests in flight (equals the stream "
                             "count in a closed loop)",
        "run", _in_flight),
    # controller level
    "delta_hits_total": InstrumentSpec(
        "counter", "hits", "delta reads served from the RAM segment "
                           "pool",
        "controller", attrgetter("ram_delta_hits")),
    "delta_log_fetches_total": InstrumentSpec(
        "counter", "fetches", "delta reads that went to the HDD log",
        "controller", attrgetter("log_delta_fetches")),
    "delta_hit_ratio": InstrumentSpec(
        "gauge", "ratio", "RAM delta hits / (hits + log fetches), "
                          "cumulative",
        "controller", _delta_hit_ratio),
    "delta_writes_total": InstrumentSpec(
        "counter", "writes", "writes absorbed as deltas (associates)",
        "controller", attrgetter("delta_writes")),
    "ram_data_fill": InstrumentSpec(
        "gauge", "ratio", "data-block RAM budget in use",
        "controller", lambda c: c.cache.data_blocks_used
        / max(1, c.cache.max_data_blocks)),
    "ram_delta_fill": InstrumentSpec(
        "gauge", "ratio", "delta segment pool in use",
        "controller", lambda c: c.segments.used_segments
        / max(1, c.segments.capacity_segments)),
    "references_active": InstrumentSpec(
        "gauge", "blocks", "reference blocks currently cached",
        "controller", lambda c: len(c.cache.references())),
    "reference_churn_total": InstrumentSpec(
        "counter", "events", "reference promotions plus retirements "
                             "(heatmap churn)",
        "controller", lambda c: c.references_created
        + c.references_retired),
    "dirty_deltas": InstrumentSpec(
        "gauge", "blocks", "deltas awaiting a flush (the crash-loss "
                           "window)",
        "controller", attrgetter("dirty_delta_count")),
    # generic device level (labelled by device)
    "device_read_ops_total": InstrumentSpec(
        "counter", "ops", "read operations serviced by a device",
        "block_device", attrgetter("read_ops"), "device"),
    "device_write_ops_total": InstrumentSpec(
        "counter", "ops", "write operations serviced by a device",
        "block_device", attrgetter("write_ops"), "device"),
    "device_busy_seconds": InstrumentSpec(
        "counter", "s", "cumulative device busy time",
        "device", attrgetter("busy_time"), "device"),
    # SSD specifics
    "ssd_program_total": InstrumentSpec(
        "counter", "pages", "host + GC page programs (endurance "
                            "consumption behind Table 6)",
        "ssd", lambda ssd: ssd.write_blocks + ssd.gc_page_moves, "device"),
    "ssd_erase_total": InstrumentSpec(
        "counter", "erases", "block erases (endurance consumption)",
        "ssd", attrgetter("total_erases"), "device"),
    "ssd_gc_total": InstrumentSpec(
        "counter", "collections", "garbage-collection invocations",
        "ssd", attrgetter("gc_erases"), "device"),
    "ssd_wear_spread": InstrumentSpec(
        "gauge", "erases", "max minus min per-block erase count "
                           "(wear-leveling quality)",
        "ssd", lambda ssd: max(ssd.erase_counts()) - min(ssd.erase_counts()),
        "device"),
    "ssd_write_amplification": InstrumentSpec(
        "gauge", "ratio", "(host + GC programs) / host programs",
        "ssd", attrgetter("write_amplification"), "device"),
    # HDD specifics
    "hdd_seek_total": InstrumentSpec(
        "counter", "ops", "accesses that paid a seek (near + random)",
        "hdd", _seeks, "device"),
    "hdd_sequential_total": InstrumentSpec(
        "counter", "ops", "accesses with the head already in place",
        "hdd", attrgetter("sequential_accesses"), "device"),
    "hdd_seek_ratio": InstrumentSpec(
        "gauge", "ratio", "seeking accesses / all accesses, cumulative",
        "hdd", _seek_ratio, "device"),
    # delta log
    "delta_log_occupancy": InstrumentSpec(
        "gauge", "ratio", "log region slots holding a delta block",
        "controller", attrgetter("log.occupancy")),
    "delta_log_wraps_total": InstrumentSpec(
        "counter", "wraps", "times the circular log wrapped around",
        "controller", attrgetter("log.wrap_count")),
    "delta_log_appends_total": InstrumentSpec(
        "counter", "blocks", "delta blocks ever appended to the log",
        "controller", attrgetter("log.blocks_written")),
    "delta_log_corrupt_total": InstrumentSpec(
        "counter", "blocks", "torn/corrupted log blocks detected and "
                             "skipped (append overwrites + replays)",
        "controller", attrgetter("log.corrupt_blocks_total")),
    # recovery
    "recovery_replays_total": InstrumentSpec(
        "counter", "replays", "delta-log replay passes performed",
        "controller", attrgetter("log.replay_count")),
    "recovery_records_total": InstrumentSpec(
        "counter", "records", "delta records yielded by replay passes",
        "controller", attrgetter("log.replayed_records_total")),
    # event-engine queueing (engine="event" runs only)
    "queue_wait_us": InstrumentSpec(
        "histogram", "us", "per-request time spent waiting in device "
                           "queues (event engine)", "engine"),
    "queue_depth": InstrumentSpec(
        "gauge", "requests", "requests waiting or in service at a "
                             "device station (`device` label)",
        "engine", _station_depths, "device"),
    "device_utilization": InstrumentSpec(
        "gauge", "ratio", "station busy time / elapsed event time "
                          "(`device` label)",
        "engine", _station_utilizations, "device"),
    # fault injection (repro.sim.faults; see docs/RELIABILITY.md)
    "faults_injected_total": InstrumentSpec(
        "counter", "faults", "faults fired by the injector "
                             "(`kind` label)",
        "faults", _fired_by_kind, "kind"),
    "rebuild_io_total": InstrumentSpec(
        "counter", "blocks", "repair I/O injected by faults: remapped "
                             "flash pages, RAID rebuild blocks, "
                             "replayed log blocks, scrubbed references",
        "faults", _rebuild_blocks),
    "degraded_mode_seconds": InstrumentSpec(
        "counter", "s", "event time between a fault firing and its "
                        "repair backlog fully draining",
        "faults", _degraded_s),
}

#: What :meth:`Monitor.fold` updates for each row without a ``read``: a
#: request counter's total, or a histogram (see :func:`_histogram`).
_FED = {"requests_read_total": "_reads", "requests_write_total": "_writes",
        "read_latency_us": "_read_hist", "write_latency_us": "_write_hist",
        "queue_wait_us": "_queue_hist"}

#: Default latency buckets (microseconds): log-spaced across the five
#: orders of magnitude storage latencies span, RAM hits to full seeks.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5)

#: What a window quantile reports for each bucket, ``+Inf`` last: past
#: the last finite bound the estimate saturates at it — it does not lie.
_QUANTILE_BOUNDS = DEFAULT_LATENCY_BUCKETS_US \
    + DEFAULT_LATENCY_BUCKETS_US[-1:]


def escape_label_value(value: str) -> str:
    """Prometheus text-format label-value escaping: inside
    ``name{k="v"}`` a backslash, double quote or line feed would corrupt
    the line, so it is spelled ``\\\\``, ``\\"`` or ``\\n``."""
    return (str(value).replace("\\", "\\\\")
            .replace('"', '\\"').replace("\n", "\\n"))


def series_key(name: str, **labels: str) -> str:
    """The canonical series key: ``name`` or ``name{k="v",...}``.

    Label pairs are sorted, matching the Prometheus text format, and
    values escaped with :func:`escape_label_value`, so a key is one
    valid exposition line (and one CSV cell) whatever its labels hold.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{escape_label_value(labels[k])}"'
                     for k in sorted(labels))
    return f"{name}{{{inner}}}"


def _histogram() -> list:
    """A histogram's state: its bucket counts, then the sum it observed."""
    return [0] * (len(DEFAULT_LATENCY_BUCKETS_US) + 1) + [0.0]


def _format_bound(bound: float) -> str:
    """Stable ``le`` label text: integral bounds render without ``.0``."""
    return str(int(bound)) if float(bound).is_integer() else repr(bound)


# ---------------------------------------------------------------------------
# Declarative SLO rules
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SLORule:
    """One declarative service-level objective, checked per window.

    ``stat`` selects how the metric is reduced inside each window:

    * ``"value"`` — gauge reading at the window end;
    * ``"delta"`` — counter increment inside the window;
    * ``"rate"``  — counter increment divided by window duration (per
      second of busy time), multiplied by ``scale`` (so a daily budget
      uses ``scale=86400``);
    * ``"p50"``/``"p95"``/``"p99"``... — histogram window quantiles.

    A window breaches the rule when its value exceeds ``threshold``.
    ``metric`` may be a bare instrument name; it resolves against
    labelled series when unique.
    """

    name: str
    metric: str
    stat: str
    threshold: float
    scale: float = 1.0
    unit: str = ""

    def __post_init__(self) -> None:
        if self.stat not in ("value", "delta", "rate") \
                and not self.stat.startswith("p"):
            raise ValueError(f"unknown stat {self.stat!r}")


@dataclass(frozen=True)
class SLOBreach:
    """One rule violated in one window."""

    rule: SLORule
    window: int
    t_start: float
    t_end: float
    value: float

    def render(self) -> str:
        return (f"[{self.t_start:9.3f}s - {self.t_end:9.3f}s) "
                f"{self.rule.name}: {self.rule.stat}"
                f"({self.rule.metric}) = {self.value:.4g}{self.rule.unit} "
                f"> {self.rule.threshold:.4g}{self.rule.unit}")


def default_slo_rules(ssd_capacity_pages: Optional[int] = None
                      ) -> List[SLORule]:
    """The stock rule set the paper's operating envelope implies."""
    # One mechanical access is ~15 ms; a p99 beyond two of them means
    # the window was dominated by log fetches or GC stalls.  The delta
    # log stays below its high-water mark (compaction headroom).
    rules = [
        SLORule("read_p99", "read_latency_us", "p99", 30_000.0, unit="us"),
        SLORule("write_p99", "write_latency_us", "p99", 30_000.0,
                unit="us"),
        SLORule("delta_log_high_water", "delta_log_occupancy", "value",
                0.9),
    ]
    # Daily-write budget: the lifetime argument of Table 6.  Default to
    # 20 full-device writes per day — generous for SLC, and any
    # architecture that breaches it is visibly burning flash.
    budget = 20.0 * ssd_capacity_pages if ssd_capacity_pages else 2e7
    rules.append(
        SLORule("ssd_daily_write_budget", "ssd_program_total", "rate",
                budget, scale=86400.0, unit=" pages/day"))
    return rules


# ---------------------------------------------------------------------------
# The monitor
# ---------------------------------------------------------------------------


class Monitor:
    """The instruments, window columns and SLO rules of one run.

    Pass one to :func:`repro.experiments.runner.run_benchmark`; it is
    attached *after* the ingest pass (like the tracer).  ``t_start``
    and ``t_end`` hold each window's bounds; ``columns[key]`` holds
    series ``key``'s *cumulative* value at each window's end, ``None``
    in a window it was not read in (a station or fault kind that
    appears mid-run); ``baseline[key]`` is its value at attach time and
    ``kinds[key]`` its kind (a histogram's series are counters).
    Cumulative values make a merge exact: beyond ``max_windows`` each
    adjacent pair becomes one window with the earlier start and the
    later end and values (a merged gauge reports its last reading), an
    odd tail window stays as it is, and the interval doubles to match.
    """

    #: The report's columns: (header, metric, per-window stat).
    _REPORT_COLUMNS = (("reads", "requests_read_total", "delta"),
                       ("writes", "requests_write_total", "delta"),
                       ("read_p99_us", "read_latency_us", "p99"),
                       ("ssd_pages", "ssd_program_total", "delta"),
                       ("log_occ", "delta_log_occupancy", "value"))
    #: Windows the report prints before eliding the middle ones.
    _REPORT_MAX_ROWS = 24

    def __init__(self, interval_s: float = 0.25,
                 rules: Optional[Sequence[SLORule]] = None,
                 max_windows: int = 256) -> None:
        if not 0.0 < interval_s < math.inf:
            raise ValueError(f"sample interval must be positive and "
                             f"finite, got {interval_s}")
        if max_windows < 2:
            raise ValueError(f"need at least two windows, got {max_windows}")
        self.interval_s = float(interval_s)
        self.max_windows = max_windows
        self._rules = list(rules) if rules is not None else None
        self.breaches: List[SLOBreach] = []
        self.t_start: List[float] = []
        self.t_end: List[float] = []
        self.columns: Dict[str, List[Optional[float]]] = {}
        self.baseline: Dict[str, float] = {}
        self.kinds: Dict[str, str] = {}
        #: How many original sample windows each stored window spans.
        self.downsample_factor = 1
        # (name, spec, read, keys) per instrument in registration order;
        # a labelled instrument's keys map each label value to its key.
        self._instruments: List[tuple] = []
        self._histograms: Dict[str, Tuple[str, ...]] = {}
        self._reads = self._writes = 0.0
        self._read_hist, self._write_hist = _histogram(), _histogram()
        self._queue_hist: Optional[list] = None
        self._window_start = 0.0
        self._next_boundary = math.inf

    def attach(self, system, workload, engine=None, faults=None) -> None:
        """Register the run's instruments, in the order of
        :class:`InstrumentSpec`'s sources (the order the Prometheus
        export follows), and open the first window.  Devices sharing a
        name (array members) are labelled ``name``, ``name-2``..."""
        from repro.core.controller import ICASHController
        from repro.devices import Device, FlashSSD, HardDiskDrive

        if self._instruments:
            raise RuntimeError("monitor already attached")
        if engine is not None:
            self._queue_hist = _histogram()
        self._add_source("request", None)
        if isinstance(system, ICASHController):
            self._add_source("controller", system)
        device_kinds = {"device": object, "block_device": Device,
                        "ssd": FlashSSD, "hdd": HardDiskDrive}
        members: Dict[str, List[Tuple[str, object]]] = {}
        seen: Dict[str, int] = {}
        for device in system.devices():
            name = getattr(device, "name", "device")
            seen[name] = seen.get(name, 0) + 1
            label = name if seen[name] == 1 else f"{name}-{seen[name]}"
            for key, spec in INSTRUMENT_CATALOGUE.items():
                if isinstance(device, device_kinds.get(spec.source, ())):
                    if key not in members:
                        members[key] = []
                        self._add(key, partial(_read_each, spec.read,
                                               members[key]))
                    members[key].append((label, device))
        self._add_source("run", _Run(workload, engine))
        if engine is not None:
            self._add_source("engine", engine)
        if faults is not None:
            self._add_source("faults", faults)
        if self._rules is None:
            pages = getattr(getattr(system, "config", None),
                            "ssd_capacity_blocks", None)
            self._rules = default_slo_rules(ssd_capacity_pages=pages)
        self.baseline = dict(self._sample())
        self._next_boundary = self.interval_s

    def _add_source(self, source: str, obj) -> None:
        """Register every catalogued instrument of ``source``, read
        from ``obj`` or, without a ``read``, from what :meth:`fold`
        updates."""
        for name, spec in INSTRUMENT_CATALOGUE.items():
            if spec.source == source:
                self._add(name, partial(getattr, self, _FED[name])
                          if spec.read is None else partial(spec.read, obj))

    def _add(self, name: str, read: Callable) -> None:
        """Register instrument ``name`` and build its series keys (a
        histogram's, Prometheus-style: cumulative ``_bucket`` counts per
        ``le`` bound, ``+Inf`` last, ``_sum`` and ``_count``)."""
        spec = INSTRUMENT_CATALOGUE[name]
        keys = (name,) if spec.label is None else {}
        if spec.kind == "histogram":
            les = [_format_bound(b) for b in DEFAULT_LATENCY_BUCKETS_US]
            keys = self._histograms[name] = tuple(
                series_key(f"{name}_bucket", le=le) for le in les + ["+Inf"]
            ) + (f"{name}_sum", f"{name}_count")
        self._instruments.append((name, spec, read, keys))

    def fold(self, is_read: bool, latency_s: float, wait_s: float,
             now_s: float) -> None:
        """Fold one completed request in at clock ``now_s``: its latency
        and, on the event engine, its time in station queues."""
        queue = self._queue_hist
        if queue is not None:
            wait_us = wait_s * 1e6
            queue[bisect_left(DEFAULT_LATENCY_BUCKETS_US, wait_us)] += 1
            queue[-1] += wait_us
        latency_us = latency_s * 1e6
        if is_read:
            self._reads += 1.0
            hist = self._read_hist
        else:
            self._writes += 1.0
            hist = self._write_hist
        hist[bisect_left(DEFAULT_LATENCY_BUCKETS_US, latency_us)] += 1
        hist[-1] += latency_us
        while now_s >= self._next_boundary:
            self._close_window(self._next_boundary)
            self._next_boundary += self.interval_s

    def finish(self, now_s: float) -> None:
        """Close every window up to ``now_s`` and the trailing partial
        one (if it saw any time), then evaluate the SLO rules."""
        while now_s >= self._next_boundary:
            self._close_window(self._next_boundary)
            self._next_boundary += self.interval_s
        if now_s > self._window_start:
            self._close_window(now_s)
        self.breaches = []
        for index in range(len(self.t_end)):
            for rule in self._rules:
                value = self._window_stat(index, rule.metric, rule.stat,
                                          rule.scale)
                if value is not None and value > rule.threshold:
                    self.breaches.append(SLOBreach(
                        rule, index, self.t_start[index],
                        self.t_end[index], value))

    def _read(self) -> List[Tuple[str, InstrumentSpec,
                                  List[Tuple[str, float]]]]:
        """Every instrument read now, in registration order: its name,
        its catalogue entry and its ``(series key, value)`` samples."""
        out = []
        for name, spec, read, keys in self._instruments:
            value = read()
            if spec.kind == "histogram":
                running = list(accumulate(value[:-1]))
                samples = [(key, float(n)) for key, n in zip(keys, running)]
                samples += ((keys[-2], value[-1]),
                            (keys[-1], float(running[-1])))
            elif spec.label is None:
                samples = [(keys[0], float(value))]
            else:
                samples = []
                for label, reading in value:
                    if label not in keys:
                        keys[label] = series_key(name,
                                                 **{spec.label: label})
                    samples.append((keys[label], float(reading)))
            out.append((name, spec, samples))
        return out

    def _sample(self) -> List[Tuple[str, float]]:
        """Every series read now.  One read for the first time gains its
        kind and a column, ``None`` in the windows before it existed."""
        pairs: List[Tuple[str, float]] = []
        for _name, spec, samples in self._read():
            for key, _value in samples:
                if key not in self.columns:
                    self.columns[key] = [None] * len(self.t_end)
                    self.kinds[key] = "counter" \
                        if spec.kind == "histogram" else spec.kind
            pairs += samples
        return pairs

    def _close_window(self, t_end: float) -> None:
        width = len(self.t_end) + 1
        for key, value in self._sample():
            self.columns[key].append(value)
        for column in self.columns.values():
            if len(column) < width:
                column.append(None)
        self.t_start.append(self._window_start)
        self.t_end.append(t_end)
        self._window_start = t_end
        if width > self.max_windows:
            # Each pair keeps its later entry; an odd tail keeps its own.
            self.t_start = self.t_start[::2]
            for column in (self.t_end, *self.columns.values()):
                column[:] = column[1::2] + column[width - width % 2:]
            self.downsample_factor *= 2
            self.interval_s *= 2

    # -- per-window views ----------------------------------------------------

    def window_delta(self, index: int, key: str) -> float:
        """Increment of series ``key`` inside window ``index`` over the
        previous window (or the baseline); a missing value counts 0.0."""
        column = self.columns[key]
        value = column[index]
        prev = column[index - 1] if index else self.baseline.get(key)
        return (0.0 if value is None else value) \
            - (0.0 if prev is None else prev)

    def to_doc(self) -> Dict[str, object]:
        """JSON-ready form (``repro run W --monitor DIR --json``): every
        window's record and every SLO breach."""
        return {
            "downsample_factor": self.downsample_factor,
            "windows": [self.window_record(index)
                        for index in range(len(self.t_end))],
            "slo_breaches": [
                {"rule": breach.rule.name, "window": breach.window,
                 "t_start_s": breach.t_start, "t_end_s": breach.t_end,
                 "value": breach.value, "threshold": breach.rule.threshold}
                for breach in self.breaches]}

    def window_record(self, index: int) -> Dict[str, object]:
        """Window ``index`` as one exported record: counters as
        per-window deltas, gauges as end-of-window readings, a series
        absent from the window left out.  Summed over the windows, any
        counter's deltas reproduce its end-of-run total exactly."""
        series = {key: column[index] if self.kinds[key] == "gauge"
                  else self.window_delta(index, key)
                  for key, column in self.columns.items()
                  if column[index] is not None}
        return {"window": index, "t_start_s": self.t_start[index],
                "t_end_s": self.t_end[index], "series": series}

    def counter_total(self, key: str) -> float:
        """Sum of all window deltas == final cumulative − baseline."""
        if not self.t_end:
            return 0.0
        last = self.columns[key][-1]
        return (0.0 if last is None else last) \
            - self.baseline.get(key, 0.0)

    def resolve_key(self, metric: str) -> Optional[str]:
        """The series key ``metric`` names: an exact key, or a labelled
        instrument's name while it has a single series."""
        if metric in self.kinds:
            return metric
        for name, spec, _read, keys in self._instruments:
            if name == metric and spec.label is not None and len(keys) == 1:
                return next(iter(keys.values()))
        return None

    def window_quantile(self, index: int, base: str,
                        q: float) -> Optional[float]:
        """Estimated q-quantile (0 < q <= 1) of histogram ``base`` inside
        window ``index``: the smallest bucket bound covering rank q.
        Returns None when the window recorded no observations."""
        keys = self._histograms.get(base)
        count = self.window_delta(index, keys[-1]) if keys else 0.0
        if count <= 0:
            return None
        target = q * count
        for bound, key in zip(_QUANTILE_BOUNDS, keys):
            if self.window_delta(index, key) >= target - 1e-9:
                return bound
        return None  # pragma: no cover - +Inf bucket always covers

    def _window_stat(self, index: int, metric: str, stat: str,
                     scale: float = 1.0) -> Optional[float]:
        """``metric`` reduced by ``stat`` (see :class:`SLORule`) inside
        window ``index``; None when there is nothing to reduce."""
        if stat.startswith("p"):
            # Histogram quantiles: the metric is the histogram base name.
            return self.window_quantile(index, metric,
                                        float(stat[1:]) / 100.0)
        key = self.resolve_key(metric)
        if key is None:
            return None
        if stat == "value":
            return self.columns[key][index]
        delta = self.window_delta(index, key)
        if stat == "delta":
            return delta
        duration = self.t_end[index] - self.t_start[index]
        if duration <= 0:
            return None
        return delta / duration * scale

    # -- reporting ---------------------------------------------------------

    def render_report(self) -> str:
        """ASCII per-window report: the convergence view of one run."""
        if not self.t_end:
            return "(no sample windows recorded)"
        title = (f"per-window report ({len(self.t_end)} windows of "
                 f"~{self.interval_s:.3g}s busy time"
                 + (f", downsampled x{self.downsample_factor}"
                    if self.downsample_factor > 1 else "") + ")")
        header = f"{'window':>6} {'t_start':>9} {'t_end':>9}" + "".join(
            f" {name:>12}" for name, _metric, _stat in self._REPORT_COLUMNS)
        lines = [title, "-" * len(header), header]
        indices = list(range(len(self.t_end)))
        max_rows = self._REPORT_MAX_ROWS
        if len(indices) > max_rows:
            head = indices[:max_rows // 2]
            tail = indices[-(max_rows - len(head)):]
            indices = head + [-1] + tail  # -1 marks the elision row
        breach_windows = {b.window for b in self.breaches}
        for index in indices:
            if index == -1:
                lines.append(f"{'...':>6}")
                continue
            row = (f"{index:>6} {self.t_start[index]:>9.3f} "
                   f"{self.t_end[index]:>9.3f}")
            for _name, metric, stat in self._REPORT_COLUMNS:
                value = self._window_stat(index, metric, stat)
                cell = "-" if value is None else str(int(value)) \
                    if float(value).is_integer() else f"{value:.4g}"
                row += f" {cell:>12}"
            if index in breach_windows:
                row += "  !SLO"
            lines.append(row)
        lines += ["", f"health: {len(self.breaches)} SLO breach(es)"
                  if self.breaches
                  else "health: all SLO rules held in every window"]
        lines += ["  " + breach.render() for breach in self.breaches]
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def export_series_csv(monitor: Monitor, path: str) -> int:
    """Write one CSV row per window (:meth:`Monitor.window_record`) to
    ``path``, one column per series key, sorted; returns the number of
    rows."""
    keys = sorted(monitor.kinds)
    header = ["window", "t_start_s", "t_end_s"] + keys
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(",".join(_csv_quote(h) for h in header) + "\n")
        for index in range(len(monitor.t_end)):
            row = monitor.window_record(index)["series"]
            cells = [str(index), repr(monitor.t_start[index]),
                     repr(monitor.t_end[index])]
            cells.extend(_csv_format(row.get(key)) for key in keys)
            handle.write(",".join(cells) + "\n")
    return len(monitor.t_end)


def _csv_quote(text: str) -> str:
    if "," in text or '"' in text:
        escaped = text.replace('"', '""')
        return f'"{escaped}"'
    return text


def _csv_format(value: Optional[float]) -> str:
    if value is None:
        return ""
    if float(value).is_integer():
        return str(int(value))
    return repr(value)


def export_series_jsonl(monitor: Monitor, path: str) -> int:
    """One JSON object per window (:meth:`Monitor.window_record`),
    written to ``path`` — greppable and streamable like the trace
    JSONL."""
    with open(path, "w", encoding="utf-8") as handle:
        for index in range(len(monitor.t_end)):
            handle.write(json.dumps(monitor.window_record(index),
                                    sort_keys=True) + "\n")
    return len(monitor.t_end)


def export_prometheus(monitor: Monitor, path: str) -> int:
    """Write every instrument's current cumulative state to ``path`` in
    the Prometheus text exposition format (``# HELP`` / ``# TYPE`` /
    samples, histogram buckets in ascending ``le`` order with ``+Inf``
    last); returns the number of sample lines."""
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        for name, spec, samples in monitor._read():
            handle.write(f"# HELP {name} {spec.help} (unit: {spec.unit})\n")
            handle.write(f"# TYPE {name} {spec.kind}\n")
            for key, value in samples:
                handle.write(f"{key} {_csv_format(value)}\n")
            lines += len(samples)
    return lines
