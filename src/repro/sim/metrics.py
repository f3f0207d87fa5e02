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

* **Instruments and the registry.**  :class:`Counter` (monotone),
  :class:`Gauge` (point-in-time) and :class:`Histogram` (bucketed
  distribution), each optionally labelled (``device="ssd"``).  A
  :class:`MetricsRegistry` owns them; every instrument name must appear
  in :data:`INSTRUMENT_CATALOGUE`, and a test keeps that catalogue in
  lockstep with the table in ``docs/OBSERVABILITY.md`` — exactly the
  discipline ``EVENT_TYPES`` imposes on trace events.  Counters and
  gauges may be *callback-backed* (``set_fn``), reading the ``int``
  counter attributes of a device or system
  (:class:`~repro.devices.base.Counted`) at sample time — so
  instrumenting a subsystem costs nothing on the hot path.  Without a monitor there is no registry at all:
  nothing registers, and the few sites that record test ``is not None``.
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
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, \
    TextIO, Tuple, Union

# ---------------------------------------------------------------------------
# Instrument catalogue (the doc-parity-checked schema)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class InstrumentSpec:
    """Catalogue entry: what an instrument is, in what unit."""

    kind: str  # "counter" | "gauge" | "histogram"
    unit: str
    help: str


#: Every instrument name any registration site may create.  The registry
#: rejects unknown names, and a test asserts ``docs/OBSERVABILITY.md``
#: documents exactly this set — the metrics schema cannot silently
#: drift, just like the trace ``EVENT_TYPES``.
INSTRUMENT_CATALOGUE: Dict[str, InstrumentSpec] = {
    # run / workload level
    "requests_read_total": InstrumentSpec(
        "counter", "requests", "read requests completed"),
    "requests_write_total": InstrumentSpec(
        "counter", "requests", "write requests completed"),
    "read_latency_us": InstrumentSpec(
        "histogram", "us", "per-request read service latency"),
    "write_latency_us": InstrumentSpec(
        "histogram", "us", "per-request write service latency"),
    "offered_load_streams": InstrumentSpec(
        "gauge", "streams", "concurrent client streams the workload "
                            "drives (closed-loop offered load)"),
    "outstanding_requests": InstrumentSpec(
        "gauge", "requests", "requests in flight (equals the stream "
                             "count in a closed loop)"),
    # controller level
    "delta_hits_total": InstrumentSpec(
        "counter", "hits", "delta reads served from the RAM segment "
                           "pool"),
    "delta_log_fetches_total": InstrumentSpec(
        "counter", "fetches", "delta reads that went to the HDD log"),
    "delta_hit_ratio": InstrumentSpec(
        "gauge", "ratio", "RAM delta hits / (hits + log fetches), "
                          "cumulative"),
    "delta_writes_total": InstrumentSpec(
        "counter", "writes", "writes absorbed as deltas (associates)"),
    "ram_data_fill": InstrumentSpec(
        "gauge", "ratio", "data-block RAM budget in use"),
    "ram_delta_fill": InstrumentSpec(
        "gauge", "ratio", "delta segment pool in use"),
    "references_active": InstrumentSpec(
        "gauge", "blocks", "reference blocks currently cached"),
    "reference_churn_total": InstrumentSpec(
        "counter", "events", "reference promotions plus retirements "
                             "(heatmap churn)"),
    "dirty_deltas": InstrumentSpec(
        "gauge", "blocks", "deltas awaiting a flush (the crash-loss "
                           "window)"),
    # generic device level (labelled by device)
    "device_read_ops_total": InstrumentSpec(
        "counter", "ops", "read operations serviced by a device"),
    "device_write_ops_total": InstrumentSpec(
        "counter", "ops", "write operations serviced by a device"),
    "device_busy_seconds": InstrumentSpec(
        "counter", "s", "cumulative device busy time"),
    # SSD specifics
    "ssd_program_total": InstrumentSpec(
        "counter", "pages", "host + GC page programs (endurance "
                            "consumption behind Table 6)"),
    "ssd_erase_total": InstrumentSpec(
        "counter", "erases", "block erases (endurance consumption)"),
    "ssd_gc_total": InstrumentSpec(
        "counter", "collections", "garbage-collection invocations"),
    "ssd_wear_spread": InstrumentSpec(
        "gauge", "erases", "max minus min per-block erase count "
                           "(wear-leveling quality)"),
    "ssd_write_amplification": InstrumentSpec(
        "gauge", "ratio", "(host + GC programs) / host programs"),
    # HDD specifics
    "hdd_seek_total": InstrumentSpec(
        "counter", "ops", "accesses that paid a seek (near + random)"),
    "hdd_sequential_total": InstrumentSpec(
        "counter", "ops", "accesses with the head already in place"),
    "hdd_seek_ratio": InstrumentSpec(
        "gauge", "ratio", "seeking accesses / all accesses, cumulative"),
    # delta log
    "delta_log_occupancy": InstrumentSpec(
        "gauge", "ratio", "log region slots holding a delta block"),
    "delta_log_wraps_total": InstrumentSpec(
        "counter", "wraps", "times the circular log wrapped around"),
    "delta_log_appends_total": InstrumentSpec(
        "counter", "blocks", "delta blocks ever appended to the log"),
    "delta_log_corrupt_total": InstrumentSpec(
        "counter", "blocks", "torn/corrupted log blocks detected and "
                             "skipped (append overwrites + replays)"),
    # recovery
    "recovery_replays_total": InstrumentSpec(
        "counter", "replays", "delta-log replay passes performed"),
    "recovery_records_total": InstrumentSpec(
        "counter", "records", "delta records yielded by replay passes"),
    # event-engine queueing (engine="event" runs only)
    "queue_depth": InstrumentSpec(
        "gauge", "requests", "requests waiting or in service at a "
                             "device station (`device` label)"),
    "queue_wait_us": InstrumentSpec(
        "histogram", "us", "per-request time spent waiting in device "
                           "queues (event engine)"),
    "device_utilization": InstrumentSpec(
        "gauge", "ratio", "station busy time / elapsed event time "
                          "(`device` label)"),
    # fault injection (repro.sim.faults; see docs/RELIABILITY.md)
    "faults_injected_total": InstrumentSpec(
        "counter", "faults", "faults fired by the injector "
                             "(`kind` label)"),
    "rebuild_io_total": InstrumentSpec(
        "counter", "blocks", "repair I/O injected by faults: remapped "
                             "flash pages, RAID rebuild blocks, "
                             "replayed log blocks, scrubbed references"),
    "degraded_mode_seconds": InstrumentSpec(
        "counter", "s", "event time between a fault firing and its "
                        "repair backlog fully draining"),
}

_KINDS = ("counter", "gauge", "histogram")

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


class _CounterChild:
    """One label-combination of a counter: incremented or callback-fed."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counters are monotone; cannot add {amount}")
        if self._fn is not None:
            raise RuntimeError("callback-backed counter cannot be inc()ed")
        self._value += amount

    def set_fn(self, fn: Callable[[], float]) -> None:
        """Source this counter from ``fn`` at sample time (zero hot-path
        cost; the function must return a monotone cumulative value)."""
        self._fn = fn

    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class _GaugeChild:
    """One label-combination of a gauge: set or callback-fed."""

    __slots__ = ("_value", "_fn")

    def __init__(self) -> None:
        self._value = 0.0
        self._fn: Optional[Callable[[], float]] = None

    def set(self, value: float) -> None:
        self._value = float(value)

    def set_fn(self, fn: Callable[[], float]) -> None:
        self._fn = fn

    def value(self) -> float:
        return float(self._fn()) if self._fn is not None else self._value


class _HistogramChild:
    """One label-combination of a histogram: bounded buckets + sum."""

    __slots__ = ("bounds", "counts", "sum", "count")

    def __init__(self, bounds: Sequence[float]) -> None:
        self.bounds = tuple(bounds)
        self.counts = [0] * (len(self.bounds) + 1)  # last = +Inf bucket
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1


class Instrument:
    """One named instrument with zero or more label dimensions.

    ``labels(**kv)`` returns the child for one label combination
    (creating it on first use); an unlabelled instrument is its own
    sole child, so ``counter.inc()`` works directly.
    """

    def __init__(self, name: str, spec: InstrumentSpec,
                 labelnames: Tuple[str, ...] = (),
                 buckets: Optional[Sequence[float]] = None) -> None:
        self.name = name
        self.spec = spec
        self.labelnames = tuple(labelnames)
        self.buckets = tuple(buckets) if buckets is not None \
            else DEFAULT_LATENCY_BUCKETS_US
        self._children: Dict[Tuple[str, ...], object] = {}
        if not self.labelnames:
            self._default = self._make_child()
            self._children[()] = self._default

    def _make_child(self):
        if self.spec.kind == "counter":
            return _CounterChild()
        if self.spec.kind == "gauge":
            return _GaugeChild()
        return _HistogramChild(self.buckets)

    def labels(self, **labelvalues: str):
        if set(labelvalues) != set(self.labelnames):
            raise ValueError(
                f"{self.name} takes labels {self.labelnames}, "
                f"got {tuple(sorted(labelvalues))}")
        key = tuple(str(labelvalues[k]) for k in self.labelnames)
        child = self._children.get(key)
        if child is None:
            child = self._make_child()
            self._children[key] = child
        return child

    # Unlabelled convenience passthroughs.
    def inc(self, amount: float = 1.0) -> None:
        self._default.inc(amount)

    def set(self, value: float) -> None:
        self._default.set(value)

    def set_fn(self, fn: Callable[[], float]) -> None:
        self._default.set_fn(fn)

    def observe(self, value: float) -> None:
        self._default.observe(value)

    # -- collection -------------------------------------------------------

    def collect(self, values: Dict[str, float],
                kinds: Dict[str, str]) -> None:
        """Flatten current state into ``values``/``kinds``.

        Histograms expand Prometheus-style: cumulative ``_bucket``
        counts per ``le`` bound, plus ``_sum`` and ``_count`` — all
        monotone, so window deltas telescope like plain counters.
        """
        for key_tuple, child in self._children.items():
            labels = dict(zip(self.labelnames, key_tuple))
            if self.spec.kind in ("counter", "gauge"):
                key = series_key(self.name, **labels)
                values[key] = child.value()
                kinds[key] = self.spec.kind
                continue
            running = 0
            for bound, count in zip(child.bounds, child.counts):
                running += count
                key = series_key(f"{self.name}_bucket",
                                 le=_format_bound(bound), **labels)
                values[key] = float(running)
                kinds[key] = "counter"
            key = series_key(f"{self.name}_bucket", le="+Inf", **labels)
            values[key] = float(child.count)
            kinds[key] = "counter"
            sum_key = series_key(f"{self.name}_sum", **labels)
            values[sum_key] = child.sum
            kinds[sum_key] = "counter"
            count_key = series_key(f"{self.name}_count", **labels)
            values[count_key] = float(child.count)
            kinds[count_key] = "counter"


def _format_bound(bound: float) -> str:
    """Stable ``le`` label text: integral bounds render without ``.0``."""
    return str(int(bound)) if float(bound).is_integer() else repr(bound)


class MetricsRegistry:
    """Named instruments for one run; catalogue-checked like the tracer."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    def _get_or_create(self, name: str, kind: str,
                       labelnames: Tuple[str, ...],
                       buckets: Optional[Sequence[float]] = None
                       ) -> Instrument:
        spec = INSTRUMENT_CATALOGUE.get(name)
        if spec is None:
            raise ValueError(
                f"unknown instrument {name!r}; add it to "
                f"INSTRUMENT_CATALOGUE and docs/OBSERVABILITY.md")
        if spec.kind != kind:
            raise ValueError(
                f"instrument {name!r} is a {spec.kind}, not a {kind}")
        instrument = self._instruments.get(name)
        if instrument is None:
            instrument = Instrument(name, spec, tuple(labelnames),
                                    buckets=buckets)
            self._instruments[name] = instrument
        elif instrument.labelnames != tuple(labelnames):
            raise ValueError(
                f"instrument {name!r} already registered with labels "
                f"{instrument.labelnames}, not {tuple(labelnames)}")
        return instrument

    def counter(self, name: str,
                labelnames: Tuple[str, ...] = ()) -> Instrument:
        return self._get_or_create(name, "counter", labelnames)

    def gauge(self, name: str,
              labelnames: Tuple[str, ...] = ()) -> Instrument:
        return self._get_or_create(name, "gauge", labelnames)

    def histogram(self, name: str, labelnames: Tuple[str, ...] = (),
                  buckets: Optional[Sequence[float]] = None) -> Instrument:
        return self._get_or_create(name, "histogram", labelnames,
                                   buckets=buckets)

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
    attached *after* the ingest pass (like the tracer), observes every
    request, samples on sim-time window boundaries, and evaluates the
    SLO rules when the run finishes.
    """

    def __init__(self, interval_s: float = 0.25,
                 rules: Optional[Sequence[SLORule]] = None,
                 max_windows: int = 256,
                 registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None \
            else MetricsRegistry()
        self.sampler = PeriodicSampler(self.registry, interval_s,
                                       max_windows=max_windows)
        self._rules = list(rules) if rules is not None else None
        self.health: Optional[HealthMonitor] = None
        self.breaches: List[SLOBreach] = []
        self._attached = False
        # Hot-path instruments, cached at attach time.
        self._reads = self._writes = None
        self._read_lat = self._write_lat = None

    @property
    def store(self) -> SeriesStore:
        return self.sampler.store

    def attach(self, system, workload=None) -> None:
        """Register the whole stack's instruments and start sampling."""
        registry = self.registry
        self._reads = registry.counter("requests_read_total")
        self._writes = registry.counter("requests_write_total")
        self._read_lat = registry.histogram("read_latency_us")
        self._write_lat = registry.histogram("write_latency_us")
        system.set_metrics(registry)
        if workload is not None and \
                hasattr(workload, "register_metrics"):
            workload.register_metrics(registry)
        if self._rules is None:
            pages = getattr(
                getattr(system, "config", None), "ssd_capacity_blocks",
                None)
            self._rules = default_slo_rules(ssd_capacity_pages=pages)
        self.health = HealthMonitor(self._rules)
        self.sampler.start(0.0)
        self._attached = True

    def on_request(self, is_read: bool, latency_s: float,
                   now_s: float) -> None:
        """Record one completed request at busy-time ``now_s``."""
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
