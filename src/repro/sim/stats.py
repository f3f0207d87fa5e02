"""Latency statistics for simulation runs.

The paper reports mean read/write response times (Figures 7, 9, 11, 13),
throughput (Figures 6, 10, 14) and operation counts (Table 6).  This module
holds the latency samples, one :class:`LatencyStats` per class, with their
summary statistics.  Operation counts are ``int`` attributes of the devices
and storage systems that keep them (:class:`repro.devices.base.Counted`).
"""

from __future__ import annotations

import math
from bisect import insort
from typing import List, Optional


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
        #: Streaming maximum, maintained on every record so the
        #: ``max`` property never rescans the sample list.
        self._max = -math.inf
        #: Streaming sum of squares, so ``variance``/``std`` never
        #: rescan the sample list (the ledger sizes its noise
        #: tolerances from these).
        self._sumsq = 0.0

    def record(self, seconds: float) -> None:
        if seconds < 0:
            raise ValueError(f"latency cannot be negative: {seconds}")
        self._samples.append(seconds)
        self._sum += seconds
        self._sumsq += seconds * seconds
        if seconds > self._max:
            self._max = seconds
        if self._sorted is not None:
            # Keep the cache warm with an O(n) insertion rather than
            # throwing away the O(n log n) sort behind it.
            insort(self._sorted, seconds)

    def extend(self, samples: List[float]) -> None:
        """:meth:`record` each of ``samples`` in order, in one frame:
        the sums add one sample at a time (not ``math.fsum``, nor the
        builtin ``sum``, compensated on Python >= 3.12), bit for bit."""
        if not samples:
            return
        low = min(samples)
        if low < 0:
            raise ValueError(f"latency cannot be negative: {low}")
        total, sumsq = self._sum, self._sumsq
        for seconds in samples:
            total += seconds
            sumsq += seconds * seconds
        self._sum, self._sumsq = total, sumsq
        self._max = max(self._max, max(samples))
        self._samples.extend(samples)
        self._sorted = None           # one sort on demand, not n inserts

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

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"LatencyStats(count={self.count}, "
                f"mean_us={self.mean_us:.1f})")
