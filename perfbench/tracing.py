"""Tracing that lives outside the program: spans and host-time layers.

Nothing here imports or patches ``repro``.  Spans wrap the public calls
the adapter makes; layers come from one ``cProfile`` run whose functions
are assigned to a layer by file path.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: Layer of each file under ``repro/``: first matching prefix wins.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("workloads/", "workloads"),
    ("core/similarity.py", "core.similarity"),
    ("core/signatures.py", "core.signatures"),
    ("core/batch.py", "core.batch"),
    ("core/", "core.controller"),
    ("delta/encoder.py", "delta.encoder"),
    ("delta/", "delta.packer"),
    ("devices/", "devices"),
    # The content store and page cache model storage media, like devices.
    ("sim/backing.py", "devices"),
    ("sim/pagecache.py", "devices"),
    ("baselines/", "baselines"),
    ("sim/stats.py", "sim.stats"),
    ("sim/trace.py", "sim.observers"),
    ("sim/metrics.py", "sim.observers"),
    ("sim/profile.py", "sim.observers"),
    ("sim/faults.py", "sim.observers"),
    ("sim/", "sim.engine"),
    ("ledger.py", "ledger"),
    ("experiments/", "experiments"),
    ("metrics/", "metrics"),
)

OTHER = "other"
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_PREFIXES)) + (OTHER,)


class SpanRecorder:
    """In-memory spans: name, start, end, parent and the repeat id."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, object]] = []
        self._open: List[int] = []
        self.repeat = 0

    @contextmanager
    def span(self, name: str):
        span = {"id": len(self.spans), "name": name,
                "parent": self._open[-1] if self._open else None,
                "repeat": self.repeat,
                "start_s": time.perf_counter(), "end_s": None}
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end_s"] = time.perf_counter()
            self._open.pop()

    def seconds(self, name: str) -> float:
        """Total duration of every closed span called ``name``."""
        return sum(s["end_s"] - s["start_s"] for s in self.spans
                   if s["name"] == name and s["end_s"] is not None)


def spans_nest(spans: List[Dict[str, object]]) -> bool:
    """True when every span lies inside its parent."""
    by_id = {s["id"]: s for s in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if span["parent"] is not None and (
                parent is None
                or span["start_s"] < parent["start_s"]
                or span["end_s"] > parent["end_s"]):
            return False
    return True


def layer_of(filename: str) -> Optional[str]:
    """The layer of a profiled file, or None outside ``repro/``."""
    marker = "/repro/"
    at = filename.replace("\\", "/").rfind(marker)
    if at < 0:
        return None
    relative = filename[at + len(marker):]
    for prefix, layer in LAYER_PREFIXES:
        if relative.startswith(prefix):
            return layer
    return OTHER


def layer_table(profile, n_requests: int) -> Dict[str, Dict[str, float]]:
    """Fold a finished ``cProfile.Profile`` into per-layer rows.

    A ``repro`` function's own time and calls go to its file's layer.
    Time and calls of any other function (numpy, stdlib, builtins) are
    charged to the layers that called it, split by the per-caller
    figures cProfile keeps, walking up through non-``repro`` callers.
    What reaches no ``repro`` caller is ``other``, so shares sum to 1.
    """
    import pstats

    stats = pstats.Stats(profile).stats
    # Index in a cProfile callers tuple (cc, nc, tt, ct).
    CALLS, TIME = 1, 2
    memo: Dict[Tuple[int, tuple], Dict[str, float]] = {}
    visiting = set()

    def spread(func, which: int) -> Dict[str, float]:
        """How one unit of a non-repro function splits over layers."""
        key = (which, func)
        if key in memo:
            return memo[key]
        if key in visiting:  # recursion among foreign frames
            return {}
        visiting.add(key)
        callers = stats[func][4]
        total = sum(figures[which] for figures in callers.values())
        out: Dict[str, float] = {}
        if total > 0:
            for caller, figures in callers.items():
                weight = figures[which] / total
                if weight <= 0:
                    continue
                layer = layer_of(caller[0])
                parts = ({layer: 1.0} if layer is not None
                         else spread(caller, which))
                for name, part in parts.items():
                    out[name] = out.get(name, 0.0) + weight * part
        visiting.discard(key)
        memo[key] = out
        return out

    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0.0)
    total_s = 0.0
    total_calls = 0
    for func, (_cc, ncalls, tottime, _ct, _callers) in stats.items():
        total_s += tottime
        total_calls += ncalls
        layer = layer_of(func[0])
        if layer is not None:
            seconds[layer] += tottime
            calls[layer] += ncalls
            continue
        for name, part in spread(func, TIME).items():
            seconds[name] += tottime * part
        for name, part in spread(func, CALLS).items():
            calls[name] += ncalls * part
    seconds[OTHER] += total_s - sum(seconds.values())
    calls[OTHER] += total_calls - sum(calls.values())
    return {layer: {"self_s": seconds[layer],
                    "share": seconds[layer] / total_s if total_s else 0.0,
                    "calls_per_req": calls[layer] / max(1, n_requests)}
            for layer in LAYERS}
