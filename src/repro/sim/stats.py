"""Latency and counter statistics for simulation runs.

The paper reports mean read/write response times (Figures 7, 9, 11, 13),
throughput (Figures 6, 10, 14) and operation counts (Table 6).  This module
collects exactly those quantities: per-class latency samples with summary
statistics, and named integer counters.
"""

from __future__ import annotations

import math
from bisect import bisect_right, insort
from collections import defaultdict
from typing import Dict, Iterable, List, Optional


class LatencyStats:
    """Streaming summary of one class of latencies (e.g. all reads).

    Stores every sample so percentiles are exact; simulation runs in this
    repository stay in the tens-of-thousands of requests, which makes the
    memory cost negligible and the fidelity worth it.  The sorted order
    is computed once and patched incrementally, so interleaving
    ``record`` with ``percentile`` (as live reporting does) never
    re-sorts the whole sample set.
    """

    def __init__(self) -> None:
        self._samples: List[float] = []
        self._sum = 0.0
        #: Cached ascending order of ``_samples``; ``None`` when stale.
        self._sorted: Optional[List[float]] = None
        #: Streaming extrema, maintained on every record/merge so the
        #: ``min``/``max`` properties never rescan the sample list.
        self._min = math.inf
        self._max = -math.inf
        #: Streaming sum of squares, so ``variance``/``std`` never
        #: rescan the sample list (the bench harness sizes its
        #: noise tolerances from these).
        self._sumsq = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency cannot be negative: {seconds}")
        self._samples.append(seconds)
        self._sum += seconds
        self._sumsq += seconds * seconds
        if seconds < self._min:
            self._min = seconds
        if seconds > self._max:
            self._max = seconds
        if self._sorted is not None:
            # Keep the cache warm with an O(n) insertion rather than
            # throwing away the O(n log n) sort behind it.
            insort(self._sorted, seconds)

    def _ordered(self) -> List[float]:
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def total(self) -> float:
        """Sum of all samples, in seconds."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean latency in seconds; 0.0 when no samples were recorded."""
        if not self._samples:
            return 0.0
        return self._sum / len(self._samples)

    @property
    def mean_us(self) -> float:
        """Mean latency in microseconds, the unit the paper plots."""
        return self.mean * 1e6

    @property
    def variance(self) -> float:
        """Population variance in seconds²; 0.0 with < 2 samples.

        Computed from streaming moments; clamped at zero because the
        ``E[x²] - E[x]²`` form can go slightly negative in floating
        point when all samples are (near-)identical.
        """
        n = len(self._samples)
        if n < 2:
            return 0.0
        mean = self._sum / n
        return max(0.0, self._sumsq / n - mean * mean)

    @property
    def std(self) -> float:
        """Population standard deviation in seconds."""
        return math.sqrt(self.variance)

    @property
    def std_us(self) -> float:
        """Population standard deviation in microseconds."""
        return self.std * 1e6

    def percentile(self, p: float) -> float:
        """Exact percentile (0 <= p <= 100) by nearest-rank.

        Returns 0.0 when no samples were recorded.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        if not self._samples:
            return 0.0
        ordered = self._ordered()
        rank = max(1, math.ceil(p / 100.0 * len(ordered)))
        return ordered[rank - 1]

    @property
    def max(self) -> float:
        return self._max if self._samples else 0.0

    @property
    def min(self) -> float:
        return self._min if self._samples else 0.0

    def merge(self, other: "LatencyStats") -> None:
        """Fold another stats object into this one."""
        self._samples.extend(other._samples)
        self._sum += other._sum
        self._sumsq += other._sumsq
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        self._sorted = None

    def histogram(self, bins: int = 8, width: int = 40) -> str:
        """A log-scale ASCII latency histogram.

        Storage latencies span five orders of magnitude (RAM hits to
        mechanical seeks), so the bins are logarithmic — the bimodal
        hit/miss structure of a cache shows up at a glance.
        """
        if not self._samples:
            return "(no samples)"
        if bins < 1:
            raise ValueError(f"need at least one bin, got {bins}")
        low = max(min(self._samples), 1e-9)
        high = max(self._samples)
        if high <= low:
            return (f"[{low * 1e6:10.1f}us] "
                    f"{'#' * width} {len(self._samples)}")
        edges = [low * (high / low) ** (i / bins) for i in range(bins + 1)]
        edges[-1] = high * 1.0000001
        counts = [0] * bins
        # Binary-search each sample into its bin: O(samples x log bins)
        # instead of the O(samples x bins) linear scan.
        for sample in self._samples:
            i = bisect_right(edges, max(sample, low)) - 1
            counts[min(max(i, 0), bins - 1)] += 1
        peak = max(counts) or 1
        lines = []
        for i in range(bins):
            bar = "#" * max(0, round(counts[i] / peak * width))
            lines.append(
                f"[{edges[i] * 1e6:10.1f}us - {edges[i + 1] * 1e6:10.1f}us)"
                f" {bar:<{width}} {counts[i]}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LatencyStats(count={self.count}, "
                f"mean_us={self.mean_us:.1f})")


class StatsCollector:
    """Named counters plus named latency classes for one simulation run.

    Counters use plain string keys (``"ssd_writes"``, ``"hdd_reads"``,
    ``"delta_hits"``…) so each subsystem can record what matters to it
    without a central registry.  Latency classes work the same way
    (``"read"``, ``"write"``, or finer-grained keys).
    """

    def __init__(self) -> None:
        self._counters: Dict[str, int] = defaultdict(int)
        self._latencies: Dict[str, LatencyStats] = {}

    # -- counters ---------------------------------------------------------

    def bump(self, name: str, amount: int = 1) -> None:
        """Increment counter ``name`` by ``amount`` (creating it at 0)."""
        self._counters[name] += amount

    def count(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never bumped)."""
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, int]:
        """A copy of all counters."""
        return dict(self._counters)

    # -- latencies --------------------------------------------------------

    def record_latency(self, klass: str, seconds: float) -> None:
        """Record one latency sample under class ``klass``."""
        try:
            stats = self._latencies[klass]
        except KeyError:
            stats = self.latency(klass)
        stats.record(seconds)

    def latency(self, klass: str) -> LatencyStats:
        """The stats object for ``klass`` (empty if nothing recorded)."""
        stats = self._latencies.get(klass)
        if stats is None:
            stats = self._latencies[klass] = LatencyStats()
        return stats

    def latency_classes(self) -> Iterable[str]:
        return list(self._latencies)

    # -- aggregation ------------------------------------------------------

    def merge(self, other: "StatsCollector") -> None:
        """Fold another collector into this one (counters add, samples pool)."""
        for name, value in other._counters.items():
            self.bump(name, value)
        for klass, stats in other._latencies.items():
            self.latency(klass).merge(stats)

    def summary(self) -> Dict[str, float]:
        """Flat dictionary view useful for report tables and tests."""
        out: Dict[str, float] = {k: float(v) for k, v in self._counters.items()}
        for klass, stats in self._latencies.items():
            out[f"{klass}_mean_us"] = stats.mean_us
            out[f"{klass}_count"] = float(stats.count)
        return out

    def format_table(self, title: Optional[str] = None) -> str:
        """Human-readable rendering of the collected statistics."""
        lines: List[str] = []
        if title:
            lines.append(title)
            lines.append("-" * len(title))
        lines.extend(f"{name:<32} {self._counters[name]:>12}"
                     for name in sorted(self._counters))
        for klass in sorted(self._latencies):
            stats = self._latencies[klass]
            lines.append(
                f"{klass + ' latency':<32} mean={stats.mean_us:>10.1f}us "
                f"p99={stats.percentile(99) * 1e6:>10.1f}us n={stats.count}"
            )
        return "\n".join(lines)
