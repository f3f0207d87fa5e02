"""Windowed time-series metrics, periodic sampling and SLO monitoring.

:mod:`repro.sim.trace` answers *where one request's time went*; a
system's :class:`~repro.sim.stats.LatencyStats` and ``int`` counters
answer *how fast and how often over a whole run*.
This module answers the question every paper figure actually plots:
**how did each quantity evolve over simulated time?**  Throughput over
time, SSD write counts for the lifetime argument (Table 6), delta-log
occupancy, reference-block churn — all are time series, and a run-end
aggregate cannot show convergence, warm-up or pathologies that cancel
out in the mean.

Four pieces:

* **The table and the registry.**  Each entry of
  :data:`INSTRUMENT_CATALOGUE` says what an instrument is — a counter
  (monotone), a gauge (point-in-time) or a histogram (bucketed
  distribution), its unit, its label — and what it reads: the
  controller, each device by kind, the run, the event engine's
  stations or the fault injector.  :meth:`Monitor.attach` walks the
  table into a :class:`MetricsRegistry`, its one registrant, so no
  model class knows the monitor exists.  Almost every instrument reads
  the ``int`` counter attributes of a device or system
  (:class:`~repro.devices.base.Counted`) or a live size at sample time
  only — nothing on the hot path; the rest are fed by
  :meth:`Monitor.fold`, once per completed request.  A test keeps the
  catalogue in lockstep with the table in ``docs/OBSERVABILITY.md`` —
  exactly the discipline ``EVENT_TYPES`` imposes on trace events.
  Without a monitor there is no registry at all.
* **The sampler.**  :class:`PeriodicSampler` snapshots every registered
  instrument at a fixed *sim-time* interval into a bounded
  :class:`SeriesStore`.  On overflow the store merges adjacent windows
  (and the sampler doubles its interval to match), so memory stays
  fixed however long the run is — downsampling, not truncation.
* **Exporters.**  :func:`export_series_csv` and
  :func:`export_series_jsonl` write per-window rows (counters as
  per-window deltas, so the column sums reproduce the run totals);
  :func:`export_prometheus` writes the final cumulative state in the
  Prometheus text exposition format.
* **Health.**  :class:`HealthMonitor` evaluates declarative
  :class:`SLORule`\\ s (p99 read latency, SSD daily-write budget,
  delta-log high-water mark...) against every window and records
  :class:`SLOBreach` events.

:class:`Monitor` bundles the four for one benchmark run;
``python -m repro monitor`` is the CLI front end, and
:func:`repro.experiments.runner.run_benchmark` threads the resulting
series into :class:`~repro.experiments.runner.RunResult`.

Window semantics: timestamps are seconds of *device busy time* — the
same virtual timeline the tracer lays spans on, before the experiment
runner divides by workload concurrency.  Samples are taken when a
request *crosses* a window boundary, so attribution granularity is one
request; per-window counter deltas always telescope exactly to the
end-of-run totals.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from functools import partial
from operator import attrgetter
from typing import Callable, Dict, List, NamedTuple, Optional, \
    Sequence, TextIO, Tuple, Union

# ---------------------------------------------------------------------------
# Instrument catalogue (the doc-parity-checked schema)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstrumentSpec:
    """Catalogue entry: what an instrument is, in what unit, and what
    it reads.

    ``source`` names what ``read`` is handed and when the instrument
    registers; :meth:`Monitor.attach` walks the sources in this order:

    * ``"request"`` — nothing (the per-request instruments);
    * ``"controller"`` — an I-CASH controller (other systems have none);
    * ``"device"``, ``"block_device"``, ``"ssd"``, ``"hdd"`` — every
      device of ``system.devices()``, every
      :class:`~repro.devices.base.Device`, every flash SSD, every disk:
      one series per device, labelled by its name;
    * ``"run"`` — the workload and, on the event engine, the engine
      (:class:`_Run`);
    * ``"engine"`` — the event engine, on event runs;
    * ``"faults"`` — the fault injector, on runs with a fault plan.

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

#: Default latency buckets (microseconds): log-spaced across the five
#: orders of magnitude storage latencies span, RAM hits to full seeks.
DEFAULT_LATENCY_BUCKETS_US: Tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0,
    1e3, 2e3, 5e3, 1e4, 2e4, 5e4, 1e5)


def escape_label_value(value: str) -> str:
    """Prometheus text-format label-value escaping.

    Inside ``name{k="v"}`` a backslash, double quote, or line feed
    would corrupt the line; the exposition format spells them ``\\\\``,
    ``\\"`` and ``\\n``.
    """
    return (str(value).replace("\\", "\\\\")
            .replace('"', '\\"').replace("\n", "\\n"))


def unescape_label_value(text: str) -> str:
    """Inverse of :func:`escape_label_value` (unknown escapes pass the
    escaped character through, matching lenient exposition parsers)."""
    out: List[str] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "\\" and i + 1 < len(text):
            follower = text[i + 1]
            out.append("\n" if follower == "n" else follower)
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def series_key(name: str, **labels: str) -> str:
    """The canonical series key: ``name`` or ``name{k="v",...}``.

    Label pairs are sorted, matching the Prometheus text format, so the
    same (name, labels) always produces the same key.  Values are
    escaped with :func:`escape_label_value`, so keys stay one valid
    exposition line (and one CSV cell) whatever the labels contain;
    :func:`parse_series_key` round-trips them.
    """
    if not labels:
        return name
    inner = ",".join(f'{k}="{escape_label_value(labels[k])}"'
                     for k in sorted(labels))
    return f"{name}{{{inner}}}"


def parse_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """``name{k="v",...}`` -> ``(name, labels)``, unescaping values.

    The inverse of :func:`series_key`; raises ``ValueError`` on
    malformed keys instead of guessing.
    """
    name, brace, rest = key.partition("{")
    if not brace:
        return key, {}
    labels: Dict[str, str] = {}
    try:
        if not rest.endswith("}"):
            raise IndexError
        text = rest[:-1]
        i = 0
        while i < len(text):
            eq = text.index("=", i)
            if eq == i or text[eq + 1] != '"':
                raise IndexError
            raw: List[str] = []
            j = eq + 2
            while text[j] != '"':
                if text[j] == "\\":
                    raw.append(text[j:j + 2])
                    j += 2
                else:
                    raw.append(text[j])
                    j += 1
            labels[text[i:eq]] = unescape_label_value("".join(raw))
            i = j + 1
            if i < len(text):
                if text[i] != ",":
                    raise IndexError
                i += 1
    except (IndexError, ValueError):
        raise ValueError(f"malformed series key {key!r}") from None
    return name, labels


# ---------------------------------------------------------------------------
# Instruments
# ---------------------------------------------------------------------------


class Instrument:
    """One catalogued instrument for one run.

    Without ``read`` it is fed once per request: :meth:`inc` on a
    counter, :meth:`observe` on a histogram (bounded buckets plus a
    sum).  With ``read`` it is read at collect time: a number, or
    ``(label value, value)`` pairs when the catalogue gives it a label.
    """

    def __init__(self, name: str, spec: InstrumentSpec,
                 read: Optional[Callable] = None) -> None:
        self.name = name
        self.spec = spec
        self.read = read
        #: A counter's total, or the sum of a histogram's observations.
        self.total = 0.0
        self.count = 0
        self.counts = [0] * (len(DEFAULT_LATENCY_BUCKETS_US) + 1)

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters are monotone; cannot add {amount}")
        self.total += amount

    def observe(self, value: float) -> None:
        self.counts[bisect_left(DEFAULT_LATENCY_BUCKETS_US, value)] += 1
        self.total += value
        self.count += 1

    # -- collection -------------------------------------------------------

    def collect(self, values: Dict[str, float],
                kinds: Dict[str, str]) -> None:
        """Flatten current state into ``values``/``kinds``.

        Histograms expand Prometheus-style: cumulative ``_bucket``
        counts per ``le`` bound, plus ``_sum`` and ``_count`` — all
        monotone, so window deltas telescope like plain counters.
        """
        name, kind = self.name, self.spec.kind
        if kind == "histogram":
            running = 0
            for bound, count in zip(DEFAULT_LATENCY_BUCKETS_US,
                                    self.counts):
                running += count
                key = series_key(f"{name}_bucket", le=_format_bound(bound))
                values[key] = float(running)
                kinds[key] = "counter"
            samples = ((series_key(f"{name}_bucket", le="+Inf"),
                        self.count), (f"{name}_sum", self.total),
                       (f"{name}_count", self.count))
            kind = "counter"
        elif self.read is None:
            samples = ((name, self.total),)
        elif self.spec.label is None:
            samples = ((name, self.read()),)
        else:
            samples = ((series_key(name, **{self.spec.label: label}), value)
                       for label, value in self.read())
        for key, value in samples:
            values[key] = float(value)
            kinds[key] = kind


def _format_bound(bound: float) -> str:
    """Stable ``le`` label text: integral bounds render without ``.0``."""
    return str(int(bound)) if float(bound).is_integer() else repr(bound)


class MetricsRegistry:
    """The instruments of one run, in registration order."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def add(self, name: str, read: Optional[Callable] = None
            ) -> Instrument:
        """Register catalogued instrument ``name`` (see
        :class:`Instrument` for ``read``).

        The catalogue decides how it is fed: a gauge is read, a
        histogram is observed, and a labelled instrument is read as
        ``(label value, value)`` pairs.  A second registration of a
        name would drop the first one's counts, so it is rejected.
        """
        spec = INSTRUMENT_CATALOGUE[name]
        if name in self._instruments:
            raise ValueError(f"{name} is already registered "
                             f"(labels {spec.label!r})")
        if spec.kind == "gauge" and read is None:
            raise ValueError(f"{name} is a gauge: it needs a read")
        if spec.kind == "histogram" and read is not None:
            raise ValueError(f"{name} is a histogram: it is fed by "
                             f"observe(), not read")
        if spec.label is not None and read is None:
            raise ValueError(f"{name} has labels ({spec.label!r}): it "
                             f"needs a read yielding (label, value) pairs")
        instrument = Instrument(name, spec, read)
        self._instruments[name] = instrument
        return instrument

    def instruments(self) -> List[Instrument]:
        return list(self._instruments.values())

    def collect(self) -> Tuple[Dict[str, float], Dict[str, str]]:
        """Snapshot every instrument: ``(series values, series kinds)``."""
        values: Dict[str, float] = {}
        kinds: Dict[str, str] = {}
        for instrument in self._instruments.values():
            instrument.collect(values, kinds)
        return values, kinds


# ---------------------------------------------------------------------------
# The bounded time-series store and the periodic sampler
# ---------------------------------------------------------------------------


class WindowSnapshot:
    """Cumulative instrument values at the *end* of one sample window."""

    __slots__ = ("t_start", "t_end", "values")

    def __init__(self, t_start: float, t_end: float,
                 values: Dict[str, float]) -> None:
        self.t_start = t_start
        self.t_end = t_end
        self.values = values

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"WindowSnapshot([{self.t_start:.3f}, {self.t_end:.3f}), "
                f"{len(self.values)} series)")


class SeriesStore:
    """Bounded in-memory time series of instrument snapshots.

    Snapshots hold *cumulative* values, so merging two adjacent windows
    is exact: keep the earlier start, the later end and the later
    values (counters are monotone; a merged gauge reports its last
    reading, the standard downsampling semantics).  When the store
    exceeds ``max_windows`` it merges adjacent pairs — halving
    resolution, never dropping coverage.
    """

    def __init__(self, max_windows: int = 512) -> None:
        if max_windows < 2:
            raise ValueError(
                f"need at least two windows, got {max_windows}")
        self.max_windows = max_windows
        self.windows: List[WindowSnapshot] = []
        self.baseline: Dict[str, float] = {}
        self.kinds: Dict[str, str] = {}
        #: How many original sample windows each stored window spans.
        self.downsample_factor = 1

    def set_baseline(self, values: Dict[str, float],
                     kinds: Dict[str, str]) -> None:
        """Cumulative state at t0 (instruments may be non-zero after an
        ingest pass); window deltas subtract from here."""
        self.baseline = dict(values)
        self.kinds.update(kinds)

    def append(self, snapshot: WindowSnapshot) -> bool:
        """Store one snapshot; returns True when a downsample occurred."""
        self.windows.append(snapshot)
        if len(self.windows) <= self.max_windows:
            return False
        merged: List[WindowSnapshot] = []
        pending: Optional[WindowSnapshot] = None
        for window in self.windows:
            if pending is None:
                pending = window
            else:
                merged.append(WindowSnapshot(
                    pending.t_start, window.t_end, window.values))
                pending = None
        if pending is not None:
            merged.append(pending)
        self.windows = merged
        self.downsample_factor *= 2
        return True

    def __len__(self) -> int:
        return len(self.windows)

    # -- per-window views --------------------------------------------------

    def _previous_values(self, index: int) -> Dict[str, float]:
        return self.windows[index - 1].values if index > 0 else self.baseline

    def window_value(self, index: int, key: str) -> Optional[float]:
        """Series value at the end of window ``index`` (gauge reading or
        cumulative counter)."""
        return self.windows[index].values.get(key)

    def window_delta(self, index: int, key: str) -> float:
        """Counter increment inside window ``index``."""
        window = self.windows[index]
        prev = self._previous_values(index)
        return window.values.get(key, 0.0) - prev.get(key, 0.0)

    def window_row(self, index: int) -> Dict[str, float]:
        """One exporter row: counter keys as per-window deltas, gauges as
        end-of-window readings.  Row sums of any counter column therefore
        reproduce the end-of-run total exactly."""
        window = self.windows[index]
        prev = self._previous_values(index)
        row: Dict[str, float] = {}
        for key, value in window.values.items():
            if self.kinds.get(key) == "gauge":
                row[key] = value
            else:
                row[key] = value - prev.get(key, 0.0)
        return row

    def counter_total(self, key: str) -> float:
        """Sum of all window deltas == final cumulative − baseline."""
        if not self.windows:
            return 0.0
        return self.windows[-1].values.get(key, 0.0) \
            - self.baseline.get(key, 0.0)

    def resolve_key(self, metric: str) -> Optional[str]:
        """Find the stored series key for ``metric``.

        Accepts an exact key, or a bare instrument name that matches a
        single labelled series (``ssd_program_total`` resolving to
        ``ssd_program_total{device="ssd"}``)."""
        if metric in self.kinds:
            return metric
        candidates = [key for key in self.kinds
                      if key.startswith(metric + "{")]
        if len(candidates) == 1:
            return candidates[0]
        return None

    # -- histogram window statistics --------------------------------------

    def _bucket_deltas(self, index: int,
                       base: str) -> List[Tuple[float, float]]:
        """Per-window cumulative-over-``le`` bucket deltas for histogram
        ``base``, sorted by bound (``+Inf`` last)."""
        prefix = f"{base}_bucket{{"
        out: List[Tuple[float, float]] = []
        for key in self.kinds:
            if not key.startswith(prefix):
                continue
            le_text = parse_series_key(key)[1].get("le")
            if le_text is None:  # pragma: no cover - buckets carry le
                continue
            bound = float("inf") if le_text == "+Inf" else float(le_text)
            out.append((bound, self.window_delta(index, key)))
        out.sort(key=lambda pair: pair[0])
        return out

    def window_quantile(self, index: int, base: str,
                        q: float) -> Optional[float]:
        """Estimated q-quantile (0 < q <= 1) of histogram ``base`` inside
        window ``index``: the smallest bucket bound covering rank q.
        Returns None when the window recorded no observations."""
        count = self.window_delta(index, f"{base}_count")
        if count <= 0:
            return None
        target = q * count
        buckets = self._bucket_deltas(index, base)
        for bound, cumulative in buckets:
            if cumulative >= target - 1e-9:
                if bound == float("inf") and len(buckets) > 1:
                    # Everything above the last finite bound: report that
                    # bound — the estimate saturates, it does not lie.
                    return buckets[-2][0]
                return bound
        return None  # pragma: no cover - +Inf bucket always covers


class PeriodicSampler:
    """Snapshots a registry at a fixed sim-time interval.

    Driven by whoever advances simulated time (the benchmark runner
    calls :meth:`observe` after every request with the cumulative busy
    time).  When the bounded store downsamples, the sampler doubles its
    interval so new windows stay the same width as the merged old ones.
    """

    def __init__(self, registry, interval_s: float,
                 store: Optional[SeriesStore] = None,
                 max_windows: int = 512) -> None:
        if interval_s <= 0:
            raise ValueError(
                f"sample interval must be positive, got {interval_s}")
        self.registry = registry
        self.interval_s = float(interval_s)
        self.store = store if store is not None \
            else SeriesStore(max_windows)
        self._started = False
        self._window_start = 0.0
        self._next_boundary = 0.0

    def start(self, now_s: float = 0.0) -> None:
        """Record the baseline and open the first window at ``now_s``."""
        if self._started:
            raise RuntimeError("sampler already started")
        values, kinds = self.registry.collect()
        self.store.set_baseline(values, kinds)
        self._window_start = now_s
        self._next_boundary = now_s + self.interval_s
        self._started = True

    def _snapshot(self, t_end: float) -> None:
        values, kinds = self.registry.collect()
        self.store.kinds.update(kinds)
        merged = self.store.append(
            WindowSnapshot(self._window_start, t_end, values))
        self._window_start = t_end
        if merged:
            self.interval_s *= 2

    def observe(self, now_s: float) -> None:
        """Advance to ``now_s``, closing every window boundary crossed."""
        if not self._started:
            self.start(0.0)
        while now_s >= self._next_boundary:
            self._snapshot(self._next_boundary)
            self._next_boundary += self.interval_s

    def finish(self, now_s: float) -> None:
        """Close the trailing partial window (if it saw any time)."""
        self.observe(now_s)
        if now_s > self._window_start:
            self._snapshot(now_s)


# ---------------------------------------------------------------------------
# Declarative SLO rules and the health monitor
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

    ``bound`` is ``"max"`` (breach when value > threshold) or ``"min"``
    (breach when value < threshold).  ``metric`` may be a bare
    instrument name; it resolves against labelled series when unique.
    """

    name: str
    metric: str
    stat: str
    bound: str
    threshold: float
    scale: float = 1.0
    unit: str = ""
    description: str = ""

    def __post_init__(self) -> None:
        if self.bound not in ("max", "min"):
            raise ValueError(f"bound must be 'max' or 'min', "
                             f"got {self.bound!r}")
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
        sign = ">" if self.rule.bound == "max" else "<"
        return (f"[{self.t_start:9.3f}s - {self.t_end:9.3f}s) "
                f"{self.rule.name}: {self.rule.stat}"
                f"({self.rule.metric}) = {self.value:.4g}{self.rule.unit} "
                f"{sign} {self.rule.threshold:.4g}{self.rule.unit}")


def default_slo_rules(ssd_capacity_pages: Optional[int] = None
                      ) -> List[SLORule]:
    """The stock rule set the paper's operating envelope implies."""
    # One mechanical access is ~15 ms; a p99 beyond two of them means
    # the window was dominated by log fetches or GC stalls.
    rules = [
        SLORule("read_p99", "read_latency_us", "p99", "max", 30_000.0,
                unit="us",
                description="p99 read latency within two mechanical "
                            "accesses"),
        SLORule("write_p99", "write_latency_us", "p99", "max", 30_000.0,
                unit="us",
                description="p99 write latency within two mechanical "
                            "accesses"),
        SLORule("delta_log_high_water", "delta_log_occupancy", "value",
                "max", 0.9,
                description="delta log below its high-water mark "
                            "(compaction headroom)"),
    ]
    # Daily-write budget: the lifetime argument of Table 6.  Default to
    # 20 full-device writes per day — generous for SLC, and any
    # architecture that breaches it is visibly burning flash.
    budget = 20.0 * ssd_capacity_pages if ssd_capacity_pages else 2e7
    rules.append(
        SLORule("ssd_daily_write_budget", "ssd_program_total", "rate",
                "max", budget, scale=86400.0, unit=" pages/day",
                description="SSD program rate within the daily write "
                            "budget"))
    return rules


class HealthMonitor:
    """Evaluates :class:`SLORule`\\ s against every stored window."""

    def __init__(self, rules: Sequence[SLORule]) -> None:
        self.rules = list(rules)
        self.breaches: List[SLOBreach] = []

    def _window_stat(self, store: SeriesStore, index: int,
                     rule: SLORule) -> Optional[float]:
        if rule.stat.startswith("p"):
            # Histogram quantiles: the metric is the histogram base name.
            return store.window_quantile(index, rule.metric,
                                         float(rule.stat[1:]) / 100.0)
        key = store.resolve_key(rule.metric)
        if key is None:
            return None
        if rule.stat == "value":
            return store.window_value(index, key)
        delta = store.window_delta(index, key)
        if rule.stat == "delta":
            return delta
        duration = store.windows[index].duration
        if duration <= 0:
            return None
        return delta / duration * rule.scale

    def evaluate(self, store: SeriesStore) -> List[SLOBreach]:
        """(Re)compute all breaches over ``store``; returns them."""
        self.breaches = []
        for index, window in enumerate(store.windows):
            for rule in self.rules:
                value = self._window_stat(store, index, rule)
                if value is None:
                    continue
                if (rule.bound == "max" and value > rule.threshold) or \
                        (rule.bound == "min" and value < rule.threshold):
                    self.breaches.append(SLOBreach(
                        rule, index, window.t_start, window.t_end, value))
        return self.breaches

    def render(self) -> str:
        if not self.breaches:
            return "health: all SLO rules held in every window"
        lines = [f"health: {len(self.breaches)} SLO breach(es)"]
        lines.extend("  " + breach.render() for breach in self.breaches)
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def export_series_csv(store: SeriesStore,
                      destination: Union[str, TextIO]) -> int:
    """Write one CSV row per window; returns the number of rows.

    Counter columns carry per-window increments (so each column sums to
    the end-of-run total); gauge columns carry the end-of-window
    reading.  Columns are the union of series keys, sorted.
    """
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return export_series_csv(store, handle)
    keys = sorted(store.kinds)
    header = ["window", "t_start_s", "t_end_s"] + keys
    destination.write(",".join(_csv_quote(h) for h in header) + "\n")
    for index, window in enumerate(store.windows):
        row = store.window_row(index)
        cells = [str(index), repr(window.t_start), repr(window.t_end)]
        cells.extend(_csv_format(row.get(key)) for key in keys)
        destination.write(",".join(cells) + "\n")
    return len(store.windows)


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


def export_series_jsonl(store: SeriesStore,
                        destination: Union[str, TextIO]) -> int:
    """One JSON object per window: deltas for counters, readings for
    gauges — greppable and streamable like the trace JSONL."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return export_series_jsonl(store, handle)
    for index, window in enumerate(store.windows):
        record = {
            "window": index,
            "t_start_s": window.t_start,
            "t_end_s": window.t_end,
            "series": store.window_row(index),
        }
        destination.write(json.dumps(record, sort_keys=True) + "\n")
    return len(store.windows)


def export_prometheus(registry: MetricsRegistry,
                      destination: Union[str, TextIO]) -> int:
    """Write the registry's final state in the Prometheus text
    exposition format (``# HELP`` / ``# TYPE`` / samples); returns the
    number of sample lines."""
    if isinstance(destination, str):
        with open(destination, "w", encoding="utf-8") as handle:
            return export_prometheus(registry, handle)
    lines = 0
    for instrument in registry.instruments():
        spec = instrument.spec
        destination.write(
            f"# HELP {instrument.name} {spec.help} (unit: {spec.unit})\n")
        destination.write(f"# TYPE {instrument.name} {spec.kind}\n")
        values: Dict[str, float] = {}
        kinds: Dict[str, str] = {}
        instrument.collect(values, kinds)
        # collect() emits histogram buckets in ascending ``le`` order
        # with +Inf last, as the exposition format requires — keep it.
        for key in values:
            destination.write(f"{key} {_csv_format(values[key]) or '0'}\n")
            lines += 1
    return lines


# ---------------------------------------------------------------------------
# The per-run bundle
# ---------------------------------------------------------------------------


class Monitor:
    """Registry + sampler + health rules for one benchmark run.

    Pass one to :func:`repro.experiments.runner.run_benchmark`; it is
    attached *after* the ingest pass (like the tracer), folds every
    completed request in, samples on sim-time window boundaries, and
    evaluates the SLO rules when the run finishes.
    """

    def __init__(self, interval_s: float = 0.25,
                 rules: Optional[Sequence[SLORule]] = None,
                 max_windows: int = 256) -> None:
        self.registry = MetricsRegistry()
        self.sampler = PeriodicSampler(self.registry, interval_s,
                                       max_windows=max_windows)
        self._rules = list(rules) if rules is not None else None
        self.health: Optional[HealthMonitor] = None
        self.breaches: List[SLOBreach] = []
        # The per-request instruments, bound at attach time.
        self._reads = self._writes = None
        self._read_lat = self._write_lat = self._waits = None

    @property
    def store(self) -> SeriesStore:
        return self.sampler.store

    def attach(self, system, workload, engine=None, faults=None) -> None:
        """Register the run's instruments and start sampling.

        The registry's one registrant: it walks
        :data:`INSTRUMENT_CATALOGUE` source by source — the request
        folds, the controller, each device in ``system.devices()``
        order, the run, the event ``engine``, the ``faults`` injector —
        which is the order the Prometheus export follows.  Devices
        sharing a name (array members) are labelled ``name``,
        ``name-2``, ``name-3``...
        """
        from repro.core.controller import ICASHController
        from repro.devices import Device, FlashSSD, HardDiskDrive

        registry = self.registry
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
                if spec.source in device_kinds and \
                        isinstance(device, device_kinds[spec.source]):
                    if key not in members:
                        members[key] = []
                        registry.add(key, partial(_read_each, spec.read,
                                                  members[key]))
                    members[key].append((label, device))
        self._add_source("run", _Run(workload, engine))
        if engine is not None:
            self._add_source("engine", engine)
        if faults is not None:
            self._add_source("faults", faults)
        fed = {instrument.name: instrument
               for instrument in registry.instruments()}
        self._reads = fed["requests_read_total"]
        self._writes = fed["requests_write_total"]
        self._read_lat = fed["read_latency_us"]
        self._write_lat = fed["write_latency_us"]
        self._waits = fed.get("queue_wait_us")
        if self._rules is None:
            pages = getattr(
                getattr(system, "config", None), "ssd_capacity_blocks",
                None)
            self._rules = default_slo_rules(ssd_capacity_pages=pages)
        self.health = HealthMonitor(self._rules)
        self.sampler.start(0.0)

    def _add_source(self, source: str, obj) -> None:
        """Register every catalogued instrument of ``source``, read
        from ``obj``."""
        for name, spec in INSTRUMENT_CATALOGUE.items():
            if spec.source == source:
                self.registry.add(name, None if spec.read is None
                                  else partial(spec.read, obj))

    def fold(self, is_read: bool, latency_s: float, wait_s: float,
             now_s: float) -> None:
        """Fold one completed request in at clock ``now_s``: its latency
        and, on the event engine, its time in station queues."""
        if self._waits is not None:
            self._waits.observe(wait_s * 1e6)
        if is_read:
            self._reads.inc()
            self._read_lat.observe(latency_s * 1e6)
        else:
            self._writes.inc()
            self._write_lat.observe(latency_s * 1e6)
        self.sampler.observe(now_s)

    def finish(self, now_s: float) -> None:
        """Close the final window and evaluate the SLO rules."""
        self.sampler.finish(now_s)
        if self.health is not None:
            self.breaches = self.health.evaluate(self.store)

    # -- reporting ---------------------------------------------------------

    _REPORT_COLUMNS = (
        # (header, renderer) pairs; renderers may return None for blank.
        ("reads", lambda s, i: s.window_delta(
            i, "requests_read_total")),
        ("writes", lambda s, i: s.window_delta(
            i, "requests_write_total")),
        ("read_p99_us", lambda s, i: s.window_quantile(
            i, "read_latency_us", 0.99)),
        ("ssd_pages", lambda s, i: _resolved_delta(
            s, i, "ssd_program_total")),
        ("log_occ", lambda s, i: _resolved_value(
            s, i, "delta_log_occupancy")),
    )

    def render_report(self, max_rows: int = 24) -> str:
        """ASCII per-window report: the convergence view of one run."""
        store = self.store
        if not store.windows:
            return "(no sample windows recorded)"
        title = (f"per-window report ({len(store.windows)} windows of "
                 f"~{self.sampler.interval_s:.3g}s busy time"
                 + (f", downsampled x{store.downsample_factor}"
                    if store.downsample_factor > 1 else "") + ")")
        header = f"{'window':>6} {'t_start':>9} {'t_end':>9}"
        for name, _fn in self._REPORT_COLUMNS:
            header += f" {name:>12}"
        lines = [title, "-" * len(header), header]
        indices = list(range(len(store.windows)))
        if len(indices) > max_rows:
            head = indices[:max_rows // 2]
            tail = indices[-(max_rows - len(head)):]
            indices = head + [-1] + tail  # -1 marks the elision row
        breach_windows = {b.window for b in self.breaches}
        for index in indices:
            if index == -1:
                lines.append(f"{'...':>6}")
                continue
            window = store.windows[index]
            row = (f"{index:>6} {window.t_start:>9.3f} "
                   f"{window.t_end:>9.3f}")
            for _name, fn in self._REPORT_COLUMNS:
                value = fn(store, index)
                if value is None:
                    cell = "-"
                elif float(value).is_integer():
                    cell = str(int(value))
                else:
                    cell = f"{value:.4g}"
                row += f" {cell:>12}"
            if index in breach_windows:
                row += "  !SLO"
            lines.append(row)
        if self.health is not None:
            lines.append("")
            lines.append(self.health.render())
        return "\n".join(lines)


def _resolved_delta(store: SeriesStore, index: int,
                    metric: str) -> Optional[float]:
    key = store.resolve_key(metric)
    return store.window_delta(index, key) if key else None


def _resolved_value(store: SeriesStore, index: int,
                    metric: str) -> Optional[float]:
    key = store.resolve_key(metric)
    return store.window_value(index, key) if key else None
